import sys
import threading

import numpy as np
import pytest

from dynq import cache, dynamical, qalgebra, traces
from dynq.cache import Memo
from dynq.cartan import preset
from dynq.qalgebra import (
    build_irrep, build_verma, dual_module, dual_tuple, left_dual_module,
)
from dynq.dynamical import fusion
from dynq.traces import universal_f, x_operator

A1 = preset("A1")
A2 = preset("A2")
B2 = preset("B2")
Q = 0.5
OM = A1.fundamental_weights[0]
O1, O2 = A2.fundamental_weights


class TestMemo:
    def test_hit_returns_stored_object(self):
        memo = Memo()
        first = memo.get("k", lambda: [1])
        assert memo.get("k", lambda: [2]) is first
        assert len(memo) == 1

    def test_counts_hits_and_misses(self):
        memo = Memo()
        assert (memo.hits, memo.misses, len(memo)) == (0, 0, 0)
        for k in "abab":
            memo.get(k, lambda k=k: k.upper())
        memo.get("c", lambda: "C")
        assert (memo.hits, memo.misses, len(memo)) == (2, 3, 3)

    def test_none_is_a_value(self):
        memo = Memo()
        calls = []
        for _ in range(2):
            assert memo.get("k", lambda: calls.append(1)) is None
        assert calls == [1]

    def test_bounded_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(cache, "MAXSIZE", 3)
        memo = Memo()
        for k in "abc":
            memo.get(k, lambda k=k: k.upper())
        memo.get("a", lambda: "stale")     # touch a; b is now the oldest
        memo.get("d", lambda: "D")
        assert len(memo) == 3
        assert memo.get("a", lambda: "stale") == "A"
        assert memo.get("b", lambda: "again") == "again"

    def test_concurrent_misses_share_first_stored(self):
        memo = Memo()
        gate = threading.Barrier(4, timeout=10)
        out = [None] * 4

        def make():
            gate.wait()
            return object()

        def run(k):
            out[k] = memo.get("k", make)

        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert all(o is out[0] for o in out)

    @pytest.mark.parametrize("maxsize", [8, 1024])
    def test_threaded_stress_keeps_bound_and_one_value(self, monkeypatch,
                                                       maxsize):
        monkeypatch.setattr(cache, "MAXSIZE", maxsize)
        memo = Memo()
        keys = range(64)
        seen = [{} for _ in range(8)]

        def run(k):
            for n in range(20):
                for key in (keys if (k + n) % 2 else reversed(keys)):
                    seen[k].setdefault(key, set()).add(
                        id(memo.get(key, lambda: object())))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(k,))
                       for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert len(memo) <= maxsize
        if maxsize >= len(keys):
            # no eviction: every caller of a key got the one stored object
            for key in keys:
                ids = set().union(*(s[key] for s in seen))
                assert len(ids) == 1


class TestPerModuleDuals:
    def test_duals_are_built_once(self):
        V = build_irrep(A1, Q, OM)
        assert dual_module(V) is dual_module(V)
        assert left_dual_module(V) is left_dual_module(V)
        assert dual_module(V) is not left_dual_module(V)
        assert V.dual is dual_module(V) and V.left_dual is left_dual_module(V)

    def test_dual_tuple_is_stable(self):
        V = build_irrep(A1, Q, OM)
        W = build_irrep(A1, Q, 2 * OM)
        first = dual_tuple((V, W))
        again = dual_tuple((V, W))
        assert all(a is b for a, b in zip(first, again, strict=True))
        assert first[0] is dual_module(W) and first[1] is dual_module(V)

    def test_repeated_universal_f_computes_no_fusion(self, monkeypatch):
        V = build_irrep(A1, Q, OM)
        lam, mu = -7.31 * OM, -6.13 * OM
        first = universal_f((V, V), lam, mu, 10).value
        size = len(dynamical._FUSION_MEMO)

        def fail(*args, **kwargs):
            raise AssertionError("fusion column recomputed")

        monkeypatch.setattr(dynamical, "_leg_chain", fail)
        again = universal_f((V, V), lam, mu, 10).value
        assert len(dynamical._FUSION_MEMO) == size
        assert np.array_equal(first, again)

    def test_repeated_tuple_exchange_misses_no_memo(self):
        # F(S) is one module object per tuple, so fusion and braiding
        # numerator entries keyed on it are found again
        V = build_irrep(A1, Q, OM)
        W = build_irrep(A1, Q, 2 * OM)
        assert dynamical._fused((V, W)) is dynamical._fused((V, W))
        lam = -7.31 * OM
        first = dynamical.exchange((V, W), (V,), lam).matrix
        memos = (dynamical._FUSION_MEMO, dynamical._RMAT_MEMO)
        misses = [m.misses for m in memos]
        again = dynamical.exchange((V, W), (V,), lam).matrix
        assert [m.misses for m in memos] == misses
        assert np.array_equal(first, again)


def _fresh_memos(monkeypatch):
    # every module-level table of the library starts empty
    for mod in (qalgebra, dynamical, traces):
        for name, obj in list(vars(mod).items()):
            if isinstance(obj, Memo):
                monkeypatch.setattr(mod, name, Memo())


class TestTraceMemo:
    LAM, MU = -7.31 * OM, -6.13 * OM

    @pytest.fixture
    def fresh(self, monkeypatch):
        diag, xop = Memo(), Memo()
        monkeypatch.setattr(traces, "_DIAGONAL_MEMO", diag)
        monkeypatch.setattr(traces, "_X_MEMO", xop)
        return diag, xop

    @pytest.mark.parametrize("case", ["A1", "A2"])
    def test_second_lambda_does_no_mu_only_work(self, monkeypatch, case):
        # the per-mu counterpart of test_repeated_universal_f_computes_no_fusion
        if case == "A1":
            V = build_irrep(A1, Q, OM)
            S, lam, mu, step, depth = (V, V), self.LAM, self.MU, OM, 10
        else:
            V1 = build_irrep(A2, Q, O1)
            S, depth, step = (V1, dual_module(V1)), 8, O2
            lam = A2.from_fundamental([-3.71, -4.13])
            mu = A2.from_fundamental([-3.37, -4.52])
        universal_f(S, lam, mu, depth)

        def fail(*args, **kwargs):
            raise AssertionError("mu-only work redone")

        with monkeypatch.context() as m:
            m.setattr(traces, "vertex_operator", fail)
            m.setattr(traces, "q_operator_inverse", fail)
            warm = universal_f(S, lam + step, mu, depth)
        _fresh_memos(monkeypatch)
        cold = universal_f(S, lam + step, mu, depth)
        assert np.array_equal(warm.value, cold.value)
        assert warm.tail_estimate == cold.tail_estimate

    def test_keys_separate_depth_mu_and_module(self, fresh):
        diag, xop = fresh
        V = build_irrep(A1, Q, OM)
        universal_f((V, V), self.LAM, self.MU, 10)
        universal_f((V, V), self.LAM + OM, self.MU, 10)
        assert (diag.hits, diag.misses, xop.hits, xop.misses) == (1, 1, 1, 1)
        universal_f((V, V), self.LAM, self.MU, 12)
        assert (diag.misses, xop.hits) == (2, 2)
        universal_f((V, V), self.LAM, self.MU + OM, 10)
        assert (diag.misses, xop.misses) == (3, 2)
        # build_irrep builds a new module object each call
        V2 = build_irrep(A1, Q, OM)
        universal_f((V2, V2), self.LAM, self.MU, 10)
        assert (diag.hits, diag.misses, xop.hits, xop.misses) == (1, 4, 2, 3)

    def test_warm_mu_keeps_the_cone_and_wall_guards(self, fresh):
        V = build_irrep(A1, Q, OM)
        universal_f((V, V), self.LAM, self.MU, 10)
        # <2 lam + 2 rho, alpha> = -0.6 > -1
        with pytest.raises(ValueError, match="outside the convergence cone"):
            universal_f((V, V), -1.3 * OM, self.MU, 10)
        # lam + rho = 0 is a zero of the Weyl denominator
        tv = universal_f((V, V), -1 * OM, self.MU, 10)
        assert np.array_equal(tv.value, np.zeros((4, 4)))
        assert tv.tail_estimate == 0.0

    def test_shared_entries_are_read_only(self, fresh):
        V = build_irrep(A1, Q, OM)
        first = universal_f((V, V), self.LAM, self.MU, 10).value
        X = x_operator(self.MU, dual_tuple((V, V))).matrix
        with pytest.raises(ValueError, match="read-only"):
            X[0, 0] = 2.0
        entry = traces._trace_diagonals((V, V), self.MU, 10)
        assert len(entry) == 2
        for _, _, d in entry:
            with pytest.raises(ValueError, match="read-only"):
                d *= 2.0
        assert np.array_equal(universal_f((V, V), self.LAM, self.MU, 10).value, first)


class TestKeys:
    def test_verma_key_holds_the_datum(self):
        hw = -2.5 * OM
        M = build_verma(A1, Q, hw, 3)
        assert build_verma(A1, Q, hw, 3) is M
        other = preset("A1")
        assert build_verma(other, Q, hw, 3) is not M
        assert build_verma(other, Q, hw, 3).datum is other


class TestVermaSkeleton:
    @pytest.fixture
    def fresh(self, monkeypatch):
        memo = Memo()
        monkeypatch.setattr(qalgebra, "_SKELETON_MEMO", memo)
        return memo

    def test_one_skeleton_serves_every_highest_weight(self, fresh):
        M1 = qalgebra._build_verma(A2, Q, -3.217 * O1 - 4.381 * O2, 5)
        M2 = qalgebra._build_verma(A2, Q, -2.5 * O1 + 1.25 * O2, 5)
        assert (fresh.hits, fresh.misses, len(fresh)) == (1, 1, 1)
        assert all(a is b for a, b in zip(M1.F, M2.F))
        assert M1.depths is M2.depths
        assert M1.lift is M2.lift
        assert not any(np.array_equal(a, b) for a, b in zip(M1.E, M2.E))

    def test_key_separates_q_and_depth(self, fresh):
        hw = -3.217 * O1 - 4.381 * O2
        M = qalgebra._build_verma(A2, Q, hw, 3)
        other_q = qalgebra._build_verma(A2, 0.3, hw, 3)
        deeper = qalgebra._build_verma(A2, Q, hw, 4)
        assert (fresh.hits, fresh.misses) == (0, 3)
        # the candidates' images carry powers of q, so the least-squares
        # coordinates of the candidates left out of the basis, and F, move with q
        assert M.F[0].shape == other_q.F[0].shape
        assert not all(np.array_equal(a, b) for a, b in zip(M.F, other_q.F))
        assert deeper.dim > M.dim

    @pytest.mark.parametrize("datum,depth", [(A1, 8), (A2, 6), (B2, 6)])
    def test_lift_inverts_the_lowering_blocks_exactly(self, datum, depth):
        # every basis vector is F_j of a basis vector one depth up, so the
        # lift is an index map and G_h at `parents` is exactly I at `cols`
        sk = qalgebra._verma_skeleton(datum, Q, depth)
        assert len(sk.lift) == depth
        for h, pairs in enumerate(sk.lift, 1):
            here = np.flatnonzero(sk.depths == h)
            up = np.flatnonzero(sk.depths == h - 1)
            G = np.zeros((here.size, here.size), dtype=complex)
            for Fj, (cols, parents) in zip(sk.F, pairs):
                assert cols.dtype.kind == parents.dtype.kind == "i"
                assert not (cols.flags.writeable or parents.flags.writeable)
                G[:, cols - here[0]] = Fj[np.ix_(here, up[parents])]
            assert np.array_equal(G, np.eye(here.size))

    def test_undercounted_content_trips_the_fit_guard(self, monkeypatch):
        # keep one of the two independent candidates F_1 F_2, F_2 F_1 of
        # content (1, 1): the one left out has no fit in the kept one
        count = qalgebra._kostant

        def short(datum, depth):
            return {c: n - (c == (1, 1)) for c, n in count(datum, depth).items()}

        monkeypatch.setattr(qalgebra, "_kostant", short)
        with pytest.raises(ValueError, match=r"Verma basis inconsistent at content \(1, 1\)"):
            qalgebra._verma_skeleton(A2, Q, 3)

    @pytest.mark.parametrize("datum,coeffs", [
        (A1, [(-7.31,), (2.5,)]),
        (A2, [(-3.217, -4.381), (-2.5, 1.25)]),
        (B2, [(-2.713, -3.119), (0.41, -1.7)]),
    ])
    def test_warm_skeleton_matches_cold_build(self, monkeypatch, datum, coeffs):
        depth = 6
        for c in coeffs:
            hw = datum.from_fundamental(c)
            monkeypatch.setattr(qalgebra, "_SKELETON_MEMO", Memo())
            cold = qalgebra._build_verma(datum, Q, hw, depth)
            warm_memo = Memo()
            monkeypatch.setattr(qalgebra, "_SKELETON_MEMO", warm_memo)
            qalgebra._build_verma(datum, Q, datum.from_fundamental((0.37,) * datum.rank),
                                  depth)
            warm = qalgebra._build_verma(datum, Q, hw, depth)
            assert warm_memo.hits == 1
            for X, Y in ((cold.E, warm.E), (cold.F, warm.F)):
                assert all(np.array_equal(x, y) for x, y in zip(X, Y, strict=True))
            assert cold.weights == warm.weights
            assert np.array_equal(cold.depths, warm.depths)
