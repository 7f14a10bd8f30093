"""Rules on the library source itself."""

import ast
from collections import Counter
from functools import cache
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dynq"


@cache
def _parse(path: Path) -> ast.Module:
    # parsed once per run; the rules only read the trees
    return ast.parse(path.read_text(), filename=str(path))


def _trees():
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no library sources under {SRC}"
    return [(path.name, _parse(path)) for path in paths]


def test_no_assert_statements_in_library():
    # runtime guards raise real exceptions so they still run under python -O
    found = []
    for name, tree in _trees():
        found += [f"{name}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in library code: {found}"


def test_threading_only_in_cache():
    # every cache is a bounded cache.Memo, which owns the only lock
    found = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "threading" for m in mods) \
                    and name != "cache.py":
                found.append(f"{name}:{node.lineno}")
    assert not found, f"threading imported outside cache.py: {found}"


def test_fractions_only_in_cartan():
    # exact rationals live inside Weight; everything else reads offsets
    found = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            else:
                continue
            if "fractions" in (m.split(".")[0] for m in mods) \
                    and name != "cartan.py":
                found.append(f"{name}:{node.lineno}")
    assert not found, f"fractions imported outside cartan.py: {found}"


def test_no_module_level_empty_dict():
    # a module-level `{}` is an unbounded ad hoc cache; use cache.Memo
    found = []
    for name, tree in _trees():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = node.value
                empty = (isinstance(value, ast.Dict) and not value.keys) or (
                    isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                    and value.func.id == "dict"
                    and not value.args and not value.keywords)
                if empty:
                    found.append(f"{name}:{node.lineno}")
    assert not found, f"module-level empty dicts: {found}"


def test_fusion_solves_only_in_transport():
    # dynamical._transport is the one route that conjugates a module map by
    # fusion operators, so it is the only caller of np.linalg.solve there
    found, seen = [], False
    for node in _parse(SRC / "dynamical.py").body:
        if getattr(node, "name", None) == "_transport":
            seen = True
            continue
        found += [f"dynamical.py:{sub.lineno}" for sub in ast.walk(node)
                  if isinstance(sub, ast.Call)
                  and (getattr(sub.func, "attr", None) == "solve"
                       or getattr(sub.func, "id", None) == "solve")]
    assert seen, "dynamical._transport is missing"
    assert not found, f"np.linalg.solve outside dynamical._transport: {found}"


def test_r_matrix_solves_only_in_its_route():
    # qalgebra._nilpotent is the one solver for the nilpotent part of R, so
    # the degrees it solves over (_raising_shifts) are read only along the
    # route r_matrix -> _crossing -> _nilpotent, and so is its pivoted QR.
    # The route's one guard, _check_intertwines, reads them too, through its
    # plan (_plan): _guard_plan keeps 2 * (largest degree) + 1 away from a
    # Verma's truncation, and beside a Verma _plan solves and stores N with
    # the guard's index plan.  The guard runs on the factors (kappa, N) of
    # each single-slot crossing, and r_matrix multiplies guarded crossings.
    # The one other pivoted QR, in _span, picks the basis of a Verma
    # skeleton or an irrep among candidate vectors and solves for no part
    # of R.
    route = {"r_matrix", "_crossing", "_nilpotent", "_plan", "_guard_plan",
             "_check_intertwines"}
    skeleton = "_span"
    found, seen = [], set()
    for node in _parse(SRC / "qalgebra.py").body:
        name = getattr(node, "name", None)
        seen.add(name)
        if name in route:
            continue
        found += [f"qalgebra.py:{sub.lineno}" for sub in ast.walk(node)
                  if isinstance(sub, ast.Call)
                  and ((getattr(sub.func, "attr", None) == "qr" and name != skeleton)
                       or getattr(sub.func, "id", None) == "_raising_shifts")]
    missing = (route | {skeleton}) - seen
    assert not missing, f"missing from qalgebra: {missing}"
    assert not found, f"R solver calls outside the r_matrix route: {found}"


def test_only_r_factors_crosses_and_guards():
    # _r_factors is the one caller of _crossing (besides the omega flip's
    # recursion) and of the guard, so no library route returns an unguarded
    # R: r_matrix multiplies guarded crossings, and the dual vertex operators
    # and omega_tilde read the guarded factors
    allowed = {"_crossing": {"_r_factors", "_crossing"},
               "_check_intertwines": {"_r_factors"}}
    found, callers = [], {callee: set() for callee in allowed}
    for name, tree in _trees():
        for node in tree.body:
            where = getattr(node, "name", "module level")
            for sub in ast.walk(node):
                if not isinstance(sub, ast.Call):
                    continue
                callee = getattr(sub.func, "id", None) or getattr(sub.func, "attr", None)
                if callee in allowed:
                    callers[callee].add(where)
                    if where not in allowed[callee]:
                        found.append(f"{name}:{sub.lineno} calls {callee}")
    assert all("_r_factors" in c for c in callers.values()), f"callers: {callers}"
    assert not found, f"R crossed or guarded outside _r_factors: {found}"


def test_r_guard_builds_no_sparse_matrix_per_call():
    # the R guard's per-call path forms values only: its index work is the
    # plan's (_plan, _guard_plan), so _check_intertwines and the residuals
    # it reads build no scipy matrix, directly or through _csr/_kron_entries
    per_call = {"_check_intertwines", "_guard_residuals"}
    found, seen = [], set()
    for node in _parse(SRC / "qalgebra.py").body:
        if getattr(node, "name", None) not in per_call:
            continue
        seen.add(node.name)
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            f = sub.func
            if (getattr(f, "id", None) in ("_csr", "_kron_entries")
                    or isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                    and f.value.id == "sp"):
                found.append(f"qalgebra.py:{sub.lineno}")
    assert seen == per_call, f"missing from qalgebra: {per_call - seen}"
    assert not found, f"scipy matrices built on the guard's per-call path: {found}"


def test_every_top_level_definition_is_referenced():
    # a helper that a refactor leaves without callers shows up here; a
    # reference inside the definition itself (recursion) does not count
    root = SRC.parents[1]
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    counts = Counter()  # name -> top-level nodes that reference it
    defined = []  # (file, name, whether the definition names itself)
    for d in ("src", "tests", "bench"):
        for path in (root / d).rglob("*.py"):
            for node in _parse(path).body:
                refs = set()
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Name):
                        refs.add(sub.id)
                    elif isinstance(sub, ast.Attribute):
                        refs.add(sub.attr)
                    elif isinstance(sub, ast.alias):
                        refs.add(sub.name.split(".")[-1])
                counts.update(refs)
                if path.parent == SRC and isinstance(node, kinds):
                    defined.append((path.name, node.name, node.name in refs))
    orphans = [f"{file}:{name}" for file, name, own in defined
               if counts[name] == own]
    assert not orphans, f"top-level definitions nothing references: {orphans}"


def test_every_dataclass_field_is_read():
    # a field that nothing reads is state that every constructor must fill
    # in for no one; a field counts as read where an attribute of its name
    # is loaded anywhere in src, tests or bench
    root = SRC.parents[1]
    loaded = set()
    for d in ("src", "tests", "bench"):
        for path in (root / d).rglob("*.py"):
            loaded.update(node.attr for node in ast.walk(_parse(path))
                          if isinstance(node, ast.Attribute)
                          and isinstance(node.ctx, ast.Load))
    fields = []  # (file, class, field)
    for name, tree in _trees():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and any(
                    getattr(getattr(d, "func", d), "id", None) == "dataclass"
                    for d in cls.decorator_list):
                fields += [(name, cls.name, node.target.id) for node in cls.body
                           if isinstance(node, ast.AnnAssign)
                           and isinstance(node.target, ast.Name)]
    assert ("qalgebra.py", "TruncatedVerma", "lift") in fields
    unread = [f"{file}:{cls}.{field}" for file, cls, field in fields
              if field not in loaded]
    assert not unread, f"dataclass fields nothing reads: {unread}"


def test_no_cached_property_assigned():
    # a cached property is derived on first read; code that fills one in
    # from outside keeps a second copy that can disagree with its source
    cached = set()
    for _, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and any(
                    getattr(d, "id", getattr(d, "attr", None)) == "cached_property"
                    for d in node.decorator_list):
                cached.add(node.name)
    assert "K" in cached  # the scan finds WeightModule.K
    found = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            targets = node.targets if isinstance(node, ast.Assign) else []
            found += [f"{name}:{node.lineno}" for t in targets
                      if isinstance(t, ast.Attribute) and t.attr in cached]
    assert not found, f"cached properties assigned: {found}"


def test_verma_lift_readers_solve_nothing():
    # the skeleton's lift already expresses each basis vector through the
    # lowering operators, so building E and extending a leg solve nothing
    readers = {("qalgebra.py", "_build_verma"), ("vertexops.py", "_extend_by_lowering")}
    banned = {"lstsq", "solve", "inv", "pinv"}
    found, seen = [], set()
    for name, tree in _trees():
        for node in tree.body:
            if (name, getattr(node, "name", None)) not in readers:
                continue
            seen.add((name, node.name))
            found += [f"{name}:{sub.lineno}" for sub in ast.walk(node)
                      if isinstance(sub, ast.Call)
                      and (getattr(sub.func, "attr", None) in banned
                           or getattr(sub.func, "id", None) in banned)]
    assert seen == readers, f"missing: {readers - seen}"
    assert not found, f"solves in the lift readers: {found}"


def _params(tree) -> dict:
    # parameter names of every function and lambda, by name; functions of
    # one name (nested helpers, lambdas) pool theirs
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            a = node.args
            out.setdefault(getattr(node, "name", "<lambda>"), set()).update(
                x.arg for x in a.posonlyargs + a.args + a.kwonlyargs)
    return out


def test_depth_only_where_verma_columns_are_read():
    # fusion reads only column 0 of its leg chain and starts it at the
    # depth-0 source Verma, so no function of the fusion layer or of the
    # operators built on it takes a truncation depth; functions whose
    # Verma columns are read keep theirs
    found = []
    for name, tree in _trees():
        for fn, args in _params(tree).items():
            if "depth" in args and (name in ("dynamical.py", "diffops.py")
                                    or (name, fn) == ("traces.py", "x_operator")):
                found.append(f"{name}:{fn}")
    assert not found, f"depth parameter on a fusion route: {found}"
    keep = {("vertexops.py", "vertex_operator"), ("vertexops.py", "dual_vertex_operator"),
            ("traces.py", "universal_t"), ("traces.py", "universal_f"),
            ("traces.py", "weighted_trace")}
    have = {(name, fn) for name, tree in _trees()
            for fn, args in _params(tree).items() if "depth" in args}
    assert keep <= have, f"depth parameter missing on {sorted(keep - have)}"


def test_guard_thresholds_are_not_parameters():
    # each guard states its threshold where it tests it, so no library
    # function takes a tolerance and no trace function a cone margin;
    # is_regular and exact_mask keep `margin`, which their callers vary
    found = []
    for name, tree in _trees():
        for fn, args in _params(tree).items():
            if "tol" in args or ("margin" in args and name == "traces.py"):
                found.append(f"{name}:{fn}")
    assert not found, f"threshold parameter on a guard: {found}"
    keep = {("cartan.py", "is_regular"), ("qalgebra.py", "exact_mask")}
    have = {(name, fn) for name, tree in _trees()
            for fn, args in _params(tree).items() if "margin" in args}
    assert keep <= have, f"margin parameter missing on {sorted(keep - have)}"


def _defaulted(fn: ast.FunctionDef, method: bool) -> list:
    # (name, position among the positional parameters or None) of each
    # parameter with a default; a method's position skips self or cls
    a = fn.args
    pos = a.posonlyargs + a.args
    if method and not any(getattr(d, "id", None) == "staticmethod"
                          for d in fn.decorator_list):
        pos = pos[1:]
    out = [(x.arg, k) for k, x in enumerate(pos) if k >= len(pos) - len(a.defaults)]
    return out + [(x.arg, None) for x, d in zip(a.kwonlyargs, a.kw_defaults)
                  if d is not None]


def test_every_default_is_overridden_somewhere():
    # a defaulted parameter that no call sets is a setting nobody uses: the
    # function always runs at its default, and the other branch is dead.
    # A call sets it by keyword, by **kwargs, or positionally past the
    # required arguments (*args counts as every position).  Only top-level
    # functions and methods count, so default-capture idioms such as
    # `lambda z, A=A: ...` or a nested `def fn(z, V=V)` are left alone, and
    # dataclass fields are no parameters.
    root = SRC.parents[1]
    calls = {}  # called name -> [(positional count, keywords)]
    for d in ("src", "tests", "bench"):
        for path in (root / d).rglob("*.py"):
            for node in ast.walk(_parse(path)):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                npos = (float("inf") if any(isinstance(x, ast.Starred) for x in node.args)
                        else len(node.args))
                calls.setdefault(name, []).append((npos, {k.arg for k in node.keywords}))
    unset = []
    for file, tree in _trees():
        fns = [(n, False) for n in tree.body if isinstance(n, ast.FunctionDef)]
        fns += [(n, True) for c in tree.body if isinstance(c, ast.ClassDef)
                for n in c.body if isinstance(n, ast.FunctionDef)]
        for fn, method in fns:
            for arg, k in _defaulted(fn, method):
                if not any(arg in kws or None in kws or (k is not None and npos > k)
                           for npos, kws in calls.get(fn.name, ())):
                    unset.append(f"{file}:{fn.name}({arg})")
    assert not unset, f"defaults no call overrides: {unset}"
