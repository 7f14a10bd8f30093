"""Per-layer tracing of dynq from outside the library.

`Tracer.install()` replaces every public function of the dynq modules, and
the private ones in `EXTRA`, with a span wrapper.  It does so in every
module namespace that bound the function (`from .qalgebra import
tensor_module` makes a second binding in `dynamical`), and it wraps the
`coefficient` closure of each difference operator the library returns.
`CartanDatum.pairing` and the arithmetic of `Weight` are hot enough that
they only count calls.  `uninstall()` restores every original binding.

A span is named after the defining module and function.  Its self time is
its duration minus the durations of the spans it caused, computed as each
span closes.  Stats are kept per phase ("setup", "op", "check"), so a
check's spans never mix with the op's.
"""

import functools
import inspect
from collections import defaultdict
from time import perf_counter

import numpy as np

from dynq import cartan, diffops, dynamical, qalgebra, traces, vertexops

MODULES = (cartan, qalgebra, vertexops, dynamical, traces, diffops)
# private functions that carry a layer of their own
EXTRA = {"_extend_by_lowering"}
WEIGHT_ARITH = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__")


def _span_name(fn):
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.installed = False
        # (phase, name) -> [calls, self seconds]
        self.stats = defaultdict(lambda: [0, 0.0])
        # (phase, name) -> accumulated extra value (sums)
        self.sums = defaultdict(float)
        self.tail_max = 0.0
        self.fusions = []          # op-phase fusion matrices computed
        self._seen_fusions = {}    # id -> result, to tell memo hits apart
        self._stack = []
        self._patches = self._plan()

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.installed:
                return fn(*args, **kwargs)
            label = name if isinstance(name, str) else name(args, kwargs)
            stack = tracer._stack
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                st = tracer.stats[(tracer.phase, label)]
                st[0] += 1
                st[1] += dur - child
            if after is not None:
                after(result)
            return result

        span.__wrapped_by_tracer__ = True
        return span

    def _count(self, name, fn):
        stats = self.stats
        tracer = self

        @functools.wraps(fn)
        def count(*args, **kwargs):
            stats[(tracer.phase, name)][0] += 1
            return fn(*args, **kwargs)

        return count

    # -- per-layer hooks ----------------------------------------------------

    @staticmethod
    def _r_matrix_name(args, kwargs):
        V = args[0] if args else kwargs["V"]
        W = args[1] if len(args) > 1 else kwargs["W"]
        verma = any(isinstance(M, qalgebra.TruncatedVerma) for M in (V, W))
        return "qalgebra.r_matrix.verma" if verma else "qalgebra.r_matrix.finite"

    def _after_tensor_module(self, T):
        nbytes = sum(m.nbytes for m in T.E + T.F)
        self.sums[(self.phase, "qalgebra.tensor_module.dense_mb")] += nbytes / 2**20

    def _after_fusion(self, j):
        if id(j) in self._seen_fusions:
            return
        self._seen_fusions[id(j)] = j
        self.sums[(self.phase, "dynamical.fusion.computed")] += 1
        if self.phase == "op":
            self.fusions.append(j.matrix)

    def _after_universal_f(self, tv):
        if self.phase == "op":
            self.tail_max = max(self.tail_max, float(tv.tail_estimate))

    def _after_diffop(self, result):
        if isinstance(result, diffops.DifferenceOperator) and not getattr(
                result.coefficient, "__wrapped_by_tracer__", False):
            result.coefficient = self._span("diffops.coefficient", result.coefficient)

    # -- installation -------------------------------------------------------

    def _plan(self):
        """List (owner, attribute, original, replacement) for every binding."""
        after = {
            "qalgebra.tensor_module": self._after_tensor_module,
            "dynamical.fusion": self._after_fusion,
            "traces.universal_f": self._after_universal_f,
        }
        wrappers = {}
        patches = []
        for mod in MODULES:
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or not obj.__module__.startswith("dynq."):
                    continue
                if obj.__name__.startswith("_") and obj.__name__ not in EXTRA:
                    if obj.__name__ == "_build_verma":
                        wrappers.setdefault(obj, self._count("qalgebra.build_verma.miss", obj))
                        patches.append((mod, attr, obj, wrappers[obj]))
                    continue
                if obj not in wrappers:
                    name = _span_name(obj)
                    if name == "qalgebra.r_matrix":
                        wrappers[obj] = self._span(self._r_matrix_name, obj)
                    elif obj.__module__ == "dynq.diffops":
                        wrappers[obj] = self._span(name, obj, self._after_diffop)
                    else:
                        wrappers[obj] = self._span(name, obj, after.get(name))
                patches.append((mod, attr, obj, wrappers[obj]))
        D, W = cartan.CartanDatum, cartan.Weight
        patches.append((D, "pairing", D.pairing, self._count("cartan.pairing", D.pairing)))
        for attr in WEIGHT_ARITH:
            fn = vars(W)[attr]
            patches.append((W, attr, fn, self._count("cartan.weight_arith", fn)))
        return patches

    def install(self):
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)
        self.installed = True

    def uninstall(self):
        for owner, attr, old, _ in self._patches:
            setattr(owner, attr, old)
        self.installed = False

    # -- report -------------------------------------------------------------

    def layer_metrics(self, n_ops):
        """Per-layer figures for one set-up plus one op.

        Calls, self seconds and dense megabytes add the set-up phase's total
        to the mean over the `n_ops` traced ops; the fusion ratios, the
        condition number and the tail estimate cover the traced ops alone.
        """
        def total(name, i):
            setup = self.stats.get(("setup", name), (0, 0.0))[i]
            op = self.stats.get(("op", name), (0, 0.0))[i]
            return setup + op / n_ops

        def summed(name):
            return self.sums[("setup", name)] + self.sums[("op", name)] / n_ops

        out = {}
        for name, stat, unit in LAYERS:
            key = f"{name}.{stat}"
            if stat == "calls":
                out[key] = (total(name, 0), unit)
            elif stat == "self_s":
                out[key] = (total(name, 1), unit)
            elif stat == "miss":
                out[key] = (total(key, 0), unit)
            else:
                out[key] = (summed(key), unit)
        calls = self.stats.get(("op", "dynamical.fusion"), (0, 0.0))[0]
        computed = self.sums[("op", "dynamical.fusion.computed")]
        out["dynamical.fusion.hit_ratio"] = (1 - computed / calls if calls else 0.0, "ratio")
        cond = max((float(np.linalg.cond(m)) for m in self.fusions), default=0.0)
        out["dynamical.fusion.cond_max"] = (cond, "1")
        out["traces.tail_estimate_max"] = (self.tail_max, "1")
        return out


def _calls_self(*names):
    return [(n, s, u) for n in names for s, u in (("calls", "count"), ("self_s", "s"))]


# (span name, stat, unit); "miss" counts _build_verma calls, other stats
# besides calls and self_s are sums kept by the hooks
LAYERS = (
    [("cartan.pairing", "calls", "count"), ("cartan.weight_arith", "calls", "count")]
    + _calls_self("qalgebra.tensor_module")
    + [("qalgebra.tensor_module", "dense_mb", "MiB")]
    + _calls_self("qalgebra.build_verma")
    + [("qalgebra.build_verma", "miss", "count")]
    + _calls_self("qalgebra.r_matrix.verma", "qalgebra.r_matrix.finite")
    + [("qalgebra.build_irrep", "self_s", "s"),
       ("qalgebra.unitriangular_solve", "self_s", "s")]
    + _calls_self("vertexops.vertex_operator", "vertexops.singular_vector",
                  "vertexops._extend_by_lowering", "vertexops.dual_vertex_operator",
                  "dynamical.fusion")
    + [("dynamical.fusion", "computed", "count")]
    + _calls_self("dynamical.exchange", "dynamical.embedded_shifted",
                  "dynamical.q_operator_inverse",
                  "traces.universal_f", "traces.universal_t", "traces.x_operator",
                  "traces.weighted_trace",
                  "diffops.apply", "diffops.coefficient", "diffops.multiplier")
)
