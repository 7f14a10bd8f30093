import sys
import threading

import numpy as np
import pytest

from dynq import cache, dynamical, qalgebra
from dynq.cache import Memo
from dynq.cartan import preset
from dynq.qalgebra import (
    build_irrep, build_verma, dual_module, dual_tuple, left_dual_module,
)
from dynq.dynamical import fusion
from dynq.traces import universal_f

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
        assert dual_module(V).parent is V

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

        monkeypatch.setattr(dynamical, "vertex_operator", fail)
        again = universal_f((V, V), lam, mu, 10).value
        assert len(dynamical._FUSION_MEMO) == size
        assert np.array_equal(first, again)


class TestKeys:
    def test_fusion_key_carries_tol(self):
        V1 = build_irrep(A2, Q, O1)
        V2 = build_irrep(A2, Q, O2)
        lam = -3.217 * O1 - 4.381 * O2
        fusion((V1, V2), lam)
        with pytest.raises(ValueError, match="column extension inconsistent"):
            fusion((V1, V2), lam, tol=1e-16)

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
        assert not any(np.array_equal(a, b) for a, b in zip(M1.E, M2.E))

    def test_key_separates_q_and_depth(self, fresh):
        hw = -3.217 * O1 - 4.381 * O2
        M = qalgebra._build_verma(A2, Q, hw, 3)
        other_q = qalgebra._build_verma(A2, 0.3, hw, 3)
        deeper = qalgebra._build_verma(A2, Q, hw, 4)
        assert (fresh.hits, fresh.misses) == (0, 3)
        # the Serre rows carry [2]_q, so the class expansions, and F, move with q
        assert M.F[0].shape == other_q.F[0].shape
        assert not all(np.array_equal(a, b) for a, b in zip(M.F, other_q.F))
        assert deeper.dim > M.dim

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
