from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from dynq.cartan import preset
from dynq.qalgebra import (
    GradedMap, WeightModule, _kappa_diag, build_irrep, build_verma,
    casimir_ratio, character, check_q, coeval_map, coeval_twisted,
    dual_module, eval_map, eval_twisted, flip_index, flip_matrix,
    left_dual_module, omega_tilde, partial_trace, qnum, r21_matrix, r_matrix,
    relation_residuals, slot_classes, tensor_many, tensor_module, trivial_module,
)

A1 = preset("A1")
A2 = preset("A2")
B2 = preset("B2")
Q = 0.5


def sl2_irrep_oracle(m, q):
    """Independent (m+1)-dim sl2 module: E e_k = [k] e_{k-1}, F e_k = [m-k] e_{k+1}."""
    n = m + 1
    E = np.zeros((n, n), dtype=complex)
    F = np.zeros((n, n), dtype=complex)
    for k in range(1, n):
        E[k - 1, k] = qnum(q, k)
    for k in range(n - 1):
        F[k + 1, k] = qnum(q, m - k)
    wts = [(m - 2 * k) for k in range(n)]  # in units of omega
    return E, F, wts


class TestVerma:
    def test_sl2_shape(self):
        om = A1.fundamental_weights[0]
        M = build_verma(A1, Q, -7.31 * om, 10)
        assert M.dim == 11
        assert all(len(M.block(M.hw - k * A1.simple_roots[0])) == 1 for k in range(11))

    def test_sl2_ef_action_matches_formula(self):
        # E F^n m = [n][c - n + 1] F^{n-1} m for hw with <hw,alpha^vee> = c
        om = A1.fundamental_weights[0]
        c = -5.2
        M = build_verma(A1, Q, c * om, 8)
        E, F = M.E[0], M.F[0]
        v = M.hw_vector
        for n in range(1, 8):
            fn = np.linalg.matrix_power(F, n) @ v
            got = E @ fn
            want = qnum(Q, n) * qnum(Q, c - n + 1) * np.linalg.matrix_power(F, n - 1) @ v
            assert np.allclose(got, want, atol=1e-10)

    def test_sl3_weight_multiplicity(self):
        lam = A2.from_fundamental([-3.17, -2.41])
        M = build_verma(A2, Q, lam, 2)
        a1, a2 = A2.simple_roots
        assert len(M.block(lam - a1 - a2)) == 2
        assert len(M.block(lam - 2 * a1)) == 1
        assert M.dim == 1 + 2 + 4  # heights 0,1,2 with Kostant multiplicities

    def test_sl3_serre_cuts_dimensions(self):
        # dim U^-[-b1 a1 - b2 a2] = min(b1,b2)+1 in rank 2 type A
        lam = A2.from_fundamental([-3.17, -2.41])
        M = build_verma(A2, Q, lam, 6)
        a1, a2 = A2.simple_roots
        for b1 in range(4):
            for b2 in range(4):
                if b1 + b2 > 6 or (b1 == 0 and b2 == 0):
                    continue
                assert len(M.block(lam - b1 * a1 - b2 * a2)) == min(b1, b2) + 1

    def test_relations(self):
        lam = A2.from_fundamental([-3.17, -2.41])
        M = build_verma(A2, Q, lam, 5)
        assert relation_residuals(M) < 1e-11

    def test_depth_stability(self):
        # deep blocks are independent of the truncation depth
        om = A1.fundamental_weights[0]
        M1 = build_verma(A1, Q, -7.31 * om, 8)
        M2 = build_verma(A1, Q, -7.31 * om, 10)
        n = M1.dim
        for X1, X2 in ((M1.E[0], M2.E[0]), (M1.F[0][:n, :n - 1], M2.F[0][:n, :n - 1])):
            assert np.max(np.abs(np.asarray(X1) - np.asarray(X2)[:X1.shape[0], :X1.shape[1]])) < 1e-12


class TestIrrep:
    def test_sl2_matches_oracle(self):
        om = A1.fundamental_weights[0]
        for m in (1, 2, 3):
            V = build_irrep(A1, Q, m * om)
            E0, F0, wts = sl2_irrep_oracle(m, Q)
            assert V.dim == m + 1
            got_wts = [float(2 * A1.pairing(w, om)) for w in V.weights]
            assert got_wts == pytest.approx([float(w / 1) for w in wts])
            # same module up to basis scaling: compare EF and FE spectra blockwise
            assert np.allclose(np.diag(V.E[0] @ V.F[0]), np.diag(E0 @ F0), atol=1e-10)
            assert np.allclose(np.diag(V.F[0] @ V.E[0]), np.diag(F0 @ E0), atol=1e-10)
            assert relation_residuals(V) < 1e-11

    def test_sl3_adjoint(self):
        V = build_irrep(A2, Q, A2.from_fundamental([1, 1]))
        assert V.dim == 8
        assert len(V.block(A2.zero_weight())) == 2
        assert relation_residuals(V) < 1e-11

    def test_sl3_fundamentals(self):
        for coeffs in ([1, 0], [0, 1]):
            V = build_irrep(A2, Q, A2.from_fundamental(coeffs))
            assert V.dim == 3
            assert relation_residuals(V) < 1e-11

    def test_rejects_nonintegral(self):
        om = A1.fundamental_weights[0]
        with pytest.raises(ValueError):
            build_irrep(A1, Q, -7.31 * om)

    def test_b2_vector_rep(self):
        B2 = preset("B2")
        V = build_irrep(B2, Q, B2.from_fundamental([0, 1]))
        assert V.dim == 4  # spin rep of so5
        assert relation_residuals(V) < 1e-10


class TestDuals:
    def test_dual_weights_and_relations(self):
        V = build_irrep(A2, Q, A2.from_fundamental([1, 0]))
        Vd = dual_module(V)
        assert sorted(w.coords for w in Vd.weights) == sorted((-w).coords for w in V.weights)
        assert relation_residuals(Vd) < 1e-11
        assert relation_residuals(left_dual_module(V)) < 1e-11

    def test_s_squared_is_ad_q2rho(self):
        # double dual realizes S^2; must equal conjugation by q^{2 rho}
        for dat, hw in ((A1, A1.fundamental_weights[0] * 2),
                        (A2, A2.from_fundamental([1, 1]))):
            V = build_irrep(dat, Q, hw)
            Vdd = dual_module(dual_module(V))
            g = V.qh(2 * dat.rho)
            for i in range(dat.rank):
                for X, Y in ((V.E[i], Vdd.E[i]), (V.F[i], Vdd.F[i])):
                    want = g[:, None] * X * (1.0 / g)[None, :]
                    assert np.max(np.abs(Y - want)) < 1e-11

    def test_zigzags(self):
        V = build_irrep(A1, Q, 2 * A1.fundamental_weights[0])
        Vd = dual_module(V)
        d = V.dim
        e = eval_map(V, Vd).matrix.reshape(d, d)       # pairing f(v): rows f, cols v
        i_ = coeval_map(V, Vd).matrix.reshape(d, d)
        et = eval_twisted(V, Vd).matrix.reshape(d, d)
        it = coeval_twisted(V, Vd).matrix.reshape(d, d)
        # (id (x) e)(iota (x) id) = id on V and the dual zigzag
        assert np.allclose(i_ @ e, np.eye(d))
        assert np.allclose(it @ et, np.eye(d))
        # twisted maps implement q^{2rho}
        g = V.qh(2 * V.datum.rho)
        assert np.allclose(et, np.diag(g) @ e)

    def test_twisted_pairings_are_module_maps(self):
        V = build_irrep(A2, Q, A2.from_fundamental([1, 0]))
        for gm in (eval_map(V), eval_twisted(V), coeval_map(V), coeval_twisted(V)):
            T, U = gm.source, gm.target
            for i in range(A2.rank):
                assert np.max(np.abs(gm.matrix @ T.E[i] - U.E[i] @ gm.matrix)) < 1e-11
                assert np.max(np.abs(gm.matrix @ T.F[i] - U.F[i] @ gm.matrix)) < 1e-11


class TestTensorUtils:
    def test_flip(self):
        V = build_irrep(A1, Q, A1.fundamental_weights[0])
        W = build_irrep(A1, Q, 2 * A1.fundamental_weights[0])
        P = flip_matrix(V, W)
        x = np.random.default_rng(0).normal(size=V.dim * W.dim)
        xt = x.reshape(V.dim, W.dim)
        assert np.allclose((P @ x).reshape(W.dim, V.dim), xt.T)

    def test_flip_index_permutes_like_flip_matrix(self):
        V = build_irrep(A1, Q, A1.fundamental_weights[0])
        W = build_irrep(A1, Q, 2 * A1.fundamental_weights[0])
        X = np.random.default_rng(2).normal(size=(V.dim * W.dim, V.dim * W.dim))
        p = flip_index(V, W)
        assert np.array_equal(flip_matrix(V, W) @ X, X[p])
        assert np.array_equal(X @ flip_matrix(W, V), X[:, p])

    def test_partial_trace(self):
        V = build_irrep(A1, Q, A1.fundamental_weights[0])
        W = build_irrep(A1, Q, 2 * A1.fundamental_weights[0])
        T = tensor_module(V, W)
        rng = np.random.default_rng(1)
        A = rng.normal(size=(V.dim, V.dim))
        B = rng.normal(size=(W.dim, W.dim))
        X = np.kron(A, B)
        assert np.allclose(partial_trace(X, T, 1), A * np.trace(B))
        assert np.allclose(partial_trace(X, T, 0), B * np.trace(A))

    def test_tensor_factors_must_share_datum_and_q(self):
        V = build_irrep(A1, Q, A1.fundamental_weights[0])
        with pytest.raises(ValueError, match="different"):
            tensor_module(V, build_irrep(A2, Q, A2.fundamental_weights[0]))
        with pytest.raises(ValueError, match="different"):
            tensor_module(V, build_irrep(A1, 0.25, A1.fundamental_weights[0]))


class TestRMatrix:
    def brute_force_r(self, V, W):
        """Oracle: solve R Delta(x) = Delta^op(x) R for all generators plus
        the kappa(1+N) normalization, as one global least-squares system."""
        T = tensor_module(V, W)
        n = T.dim
        dw = W.dim
        P = flip_matrix(V, W)
        Top = tensor_module(W, V)
        eqs = []
        for i in range(V.datum.rank):
            eqs.append((T.E[i], P.T @ Top.E[i] @ P))
            eqs.append((T.F[i], P.T @ Top.F[i] @ P))
        kap = np.array([V.q ** float(V.datum.pairing(V.weights[a], W.weights[b]))
                        for a in range(V.dim) for b in range(W.dim)])
        # intertwining rows: vec of (R D - Dop R) = 0 for each generator
        blocks = [np.kron(np.eye(n), D.T) - np.kron(Dop, np.eye(n))
                  for D, Dop in eqs]  # acts on vec(R) with R[t,s]=x[t*n+s]
        extra_rows, extra_rhs = [], []
        for t in range(n):
            hv_t = V.weights[t // dw]
            for s in range(n):
                hv_s = V.weights[s // dw]
                same_wt = T.weights[t] == T.weights[s]
                row = np.zeros(n * n)
                row[t * n + s] = 1.0
                if t == s:
                    extra_rows.append(row)
                    extra_rhs.append(kap[t])
                elif not (same_wt and (hv_t - hv_s).height() > 0):
                    # everything except first-slot raising inside a block is 0
                    extra_rows.append(row)
                    extra_rhs.append(0.0)
        A = np.vstack(blocks + [np.array(extra_rows)])
        b = np.concatenate([np.zeros(len(blocks) * n * n), np.array(extra_rhs)])
        sol, _, _, _ = scipy.linalg.lstsq(A, b, lapack_driver="gelsd")
        assert np.linalg.norm(A @ sol - b) < 1e-8
        return sol.reshape(n, n)

    def test_sl2_fundamental_example(self):
        V = build_irrep(A1, Q, A1.fundamental_weights[0])
        R = r_matrix(V, V).matrix
        s = np.sqrt(Q)
        # kappa diagonal
        assert np.allclose(np.diag(R), [s, 1 / s, 1 / s, s], atol=1e-12)
        # single off-diagonal entry in the zero-weight block, raising slot 1
        nz = np.nonzero(np.abs(R - np.diag(np.diag(R))) > 1e-12)
        assert list(zip(*nz)) == [(1, 2)]
        # against the global brute-force oracle
        R0 = self.brute_force_r(V, V)
        assert np.max(np.abs(R - R0)) < 1e-8

    def test_oracle_various_modules(self):
        V = build_irrep(A1, Q, A1.fundamental_weights[0])
        W = build_irrep(A1, Q, 2 * A1.fundamental_weights[0])
        for a, bmod in ((V, W), (W, V), (W, W)):
            R = r_matrix(a, bmod).matrix
            R0 = self.brute_force_r(a, bmod)
            assert np.max(np.abs(R - R0)) < 1e-7

    def test_hexagons_and_ybe(self):
        om = A1.fundamental_weights[0]
        V1 = build_irrep(A1, Q, om)
        V2 = build_irrep(A1, Q, 2 * om)
        V3 = build_irrep(A1, Q, om)
        mods = (V1, V2, V3)
        dims = [m.dim for m in mods]
        T, TT = {}, tensor_many(mods)

        def rr(i, j):
            # R_{ij} acting on slots i,j of the triple product
            Rij = r_matrix(mods[i], mods[j]).matrix
            from dynq.qalgebra import embed_slots
            return embed_slots(TT, Rij, [i, j])

        R12, R13, R23 = rr(0, 1), rr(0, 2), rr(1, 2)
        # YBE
        assert np.max(np.abs(R12 @ R13 @ R23 - R23 @ R13 @ R12)) < 1e-10
        # hexagon: R_{V1 (x) V2, V3} = R13 R23; R_{V1, V2 (x) V3} = R13 R12
        T12 = tensor_module(V1, V2)
        R_12_3 = r_matrix(T12, V3, tensor_module(T12, V3)).matrix
        assert np.max(np.abs(R_12_3.reshape(TT.dim, TT.dim) - R13 @ R23)) < 1e-10
        T23 = tensor_module(V2, V3)
        R_1_23 = r_matrix(V1, T23, tensor_module(V1, T23)).matrix
        assert np.max(np.abs(R_1_23.reshape(TT.dim, TT.dim) - R13 @ R12)) < 1e-10

    def test_r_on_verma_tensor_stable_in_depth(self):
        om = A1.fundamental_weights[0]
        V = build_irrep(A1, Q, 2 * om)
        M1 = build_verma(A1, Q, -7.31 * om, 8)
        M2 = build_verma(A1, Q, -7.31 * om, 10)
        R1 = r_matrix(M1, V).matrix
        R2 = r_matrix(M2, V).matrix
        n = R1.shape[0]
        scale = np.max(np.abs(R1))
        assert np.max(np.abs(R1 - R2[:n, :n])) / scale < 1e-10

    @pytest.mark.parametrize("datum,coeffs,depth", [
        (A2, (-3.217, -4.381), 8),
        (B2, (-2.713, -3.119), 7),
    ])
    def test_verma_slot_stable_in_depth_on_guarded_block(self, datum, coeffs,
                                                          depth):
        lam = datum.from_fundamental(coeffs)
        small = build_verma(datum, Q, lam, depth)
        big = build_verma(datum, Q, lam, depth + 2)
        for om in datum.fundamental_weights:
            Wd = dual_module(build_irrep(datum, Q, om))
            if 2 * Wd.height_span() + 1 > depth:
                continue
            Rs = r_matrix(Wd, small).matrix
            Rb = r_matrix(Wd, big).matrix
            # the rows and columns the final guard keeps; the basis of the
            # shallower Verma is a prefix of the deeper one's
            keep = np.flatnonzero(np.tile(small.depths, Wd.dim)
                                  + 2 * Wd.height_span() + 1 <= depth)
            a, b = np.divmod(keep, small.dim)
            same = a * big.dim + b
            assert keep.size
            assert np.array_equal(Rs[np.ix_(keep, keep)], Rb[np.ix_(same, same)])


class TestLatticeOffsets:
    def test_qh_and_kappa_match_exact_pairings(self):
        # reference: one exact Fraction pairing per basis vector
        lam = A2.from_fundamental([-3.217, -4.381])
        M = build_verma(A2, Q, lam, 6)
        D = dual_module(build_irrep(A2, Q, A2.fundamental_weights[0]))
        for X in (M, D):
            for xi in A2.simple_roots + (2 * A2.rho, lam):
                want = np.array([Q ** float(A2.pairing(xi, w)) for w in X.weights])
                assert np.array_equal(X.qh(xi), want)
        for X, Y in ((D, M), (M, D)):
            want = np.array([Q ** float(A2.pairing(a, b))
                             for a in X.weights for b in Y.weights])
            assert np.array_equal(_kappa_diag(X, Y), want)

    def test_k_rows_and_character_read_the_offsets(self):
        # K_i is qh(alpha_i), read-only; character is the sum of qh(xi)
        lam = A2.from_fundamental([-3.217, -4.381])
        M = build_verma(A2, Q, lam, 6)
        D = dual_module(build_irrep(A2, Q, A2.fundamental_weights[1]))
        for X in (M, D):
            assert not X.K.flags.writeable
            for i, alpha in enumerate(A2.simple_roots):
                assert np.array_equal(X.K[i], X.qh(alpha))
            for xi in (lam, -2 * (lam + A2.rho)):
                want = float(sum(Q ** float(A2.pairing(xi, w)) for w in X.weights))
                assert character(X, xi) == want

    def test_slot_classes_match_weight_sums(self):
        # reference: one Fraction sum per basis vector and slot group
        for datum in (A2, B2):
            V1, V2 = (build_irrep(datum, Q, w) for w in datum.fundamental_weights)
            D1, D2 = dual_module(V1), dual_module(V2)
            for mods in ((V1, D2, V2), (D1, V1, D1, V2), (V2, D2)):
                k = len(mods)
                dims = [V.dim for V in mods]
                for groups in (((0,), tuple(range(1, k))), (tuple(range(k)),),
                               ((k - 1,), (), (0, k - 1))):
                    want = {}
                    for n, digits in enumerate(np.ndindex(*dims)):
                        key = []
                        for g in groups:
                            w = datum.zero_weight()
                            for s in g:
                                w = w + mods[s].weights[digits[s]]
                            key.append(w)
                        want.setdefault(tuple(key), []).append(n)
                    got = slot_classes(mods, groups)
                    assert list(got) == list(want)
                    assert all(np.array_equal(got[w], want[w]) for w in want)

    def test_offsets_are_integral_lattice_steps(self):
        M = build_verma(A2, Q, A2.from_fundamental([-3.217, -4.381]), 3)
        assert M.offsets.dtype.kind == "i"
        for w, off in zip(M.weights, M.offsets):
            assert M.weights[0] + A2.weight(off.tolist()) == w

    def test_tensor_weights_match_pairwise_sums(self):
        # reference: one Fraction sum per basis pair, blocks and offsets
        # read off those weights as a plain WeightModule does
        lam = A2.from_fundamental([-3.217, -4.381])
        M = build_verma(A2, Q, lam, 4)
        V1 = build_irrep(A2, Q, A2.fundamental_weights[0])
        W1, W2 = (build_irrep(B2, Q, w) for w in B2.fundamental_weights)
        for V, W in ((M, V1), (dual_module(V1), M), (W1, W2)):
            T = tensor_module(V, W)
            want = tuple(a + b for a in V.weights for b in W.weights)
            ref = WeightModule(V.datum, Q, "ref", want, T.E, T.F)
            assert T.weights == want
            assert list(T.blocks) == list(ref.blocks)
            assert all(np.array_equal(T.blocks[w], ref.blocks[w]) for w in ref.blocks)
            assert np.array_equal(T.offsets, ref.offsets)
            # one Weight object per block, shared by its basis vectors
            assert len({id(w) for w in T.weights}) == len(T.blocks)
            assert all(T.weights[i] is w for w, ix in T.blocks.items() for i in ix)

    def test_non_integral_offsets_raise(self):
        z = np.zeros((2, 2), dtype=complex)
        weights = (A1.zero_weight(), A1.weight([Fraction(1, 2)]))
        X = WeightModule(A1, Q, "test", weights, (z,), (z,))
        with pytest.raises(ValueError, match="non-integral"):
            X.offsets
        with pytest.raises(ValueError, match="non-integral"):
            r_matrix(X, X)


class TestScalars:
    def test_character_examples(self):
        W = build_irrep(A1, Q, 2 * A1.fundamental_weights[0])
        assert character(W, A1.zero_weight()) == pytest.approx(3.0)
        alpha = A1.simple_roots[0]
        assert character(W, alpha) == pytest.approx(Q**2 + 1 + Q**-2)  # 5.25
        V = build_irrep(A1, Q, A1.fundamental_weights[0])
        T = tensor_module(V, W)
        xi = A1.weight([Fraction(3, 2)])
        assert character(T, xi) == pytest.approx(character(V, xi) * character(W, xi))

    def test_casimir_ratio(self):
        om = A1.fundamental_weights[0]
        assert casimir_ratio(A1, Q, 3 * om, 3 * om) == pytest.approx(1.0)
        # oracle: <l1+l2+2rho, l1-l2> = <6w, 2w> = 6
        assert casimir_ratio(A1, Q, 3 * om, om) == pytest.approx(Q**6)
        r12 = casimir_ratio(A1, Q, 3 * om, om)
        r23 = casimir_ratio(A1, Q, om, -2.2 * om)
        r13 = casimir_ratio(A1, Q, 3 * om, -2.2 * om)
        assert r12 * r23 == pytest.approx(r13)

    def test_omega_tilde_trivial(self):
        om = A1.fundamental_weights[0]
        M = build_verma(A1, Q, -5.37 * om, 6)
        W = trivial_module(A1, Q)
        op, scalar = omega_tilde(W, M)
        assert scalar == pytest.approx(1.0)
        assert np.max(np.abs(op.matrix - np.eye(M.dim))) < 1e-12

    def test_omega_tilde_sl2(self):
        om = A1.fundamental_weights[0]
        lam = -5.37 * om
        M = build_verma(A1, Q, lam, 12)
        W = build_irrep(A1, Q, om)
        op, scalar = omega_tilde(W, M)
        x = float(2 * A1.pairing(lam + A1.rho, om))
        assert scalar == pytest.approx(Q**-x + Q**x)
        mask = M.exact_mask(W.height_span())
        sub = op.matrix[np.ix_(mask, mask)]
        err = np.abs(sub - scalar * np.eye(sub.shape[0]))
        # interior rows are clean; rows near the boundary lose absolute
        # accuracy to cancellation between terms of size q^{-2 depth}, so
        # eps * q^{-16} is the floor at interior depth 8
        interior = M.depths[mask] <= 8
        assert np.max(err[interior][:, interior]) < 1e-8
        assert np.max(err) < 1e-7
        # off-diagonal must vanish on exact rows even against lossy columns
        assert np.max(np.abs(op.matrix[np.ix_(mask, ~mask)])) < 1e-7


class TestGradedMap:
    def test_compose_and_grade(self):
        V = build_irrep(A1, Q, 2 * A1.fundamental_weights[0])
        gm = GradedMap(V, V, V.datum.zero_weight(), V.E[0])
        assert gm.graded_residual() > 0  # E shifts weight, degree 0 is wrong
        gm2 = GradedMap(V, V, A1.simple_roots[0], V.E[0])
        assert gm2.graded_residual() == 0.0
        comp = gm2 @ gm2
        assert comp.degree == 2 * A1.simple_roots[0]

    def test_shape_guard(self):
        V = build_irrep(A1, Q, 2 * A1.fundamental_weights[0])
        with pytest.raises(ValueError, match="shape"):
            GradedMap(V, V, A1.zero_weight(), np.eye(V.dim + 1))

    def test_add_degree_guard(self):
        V = build_irrep(A1, Q, 2 * A1.fundamental_weights[0])
        gm = GradedMap(V, V, A1.simple_roots[0], V.E[0])
        with pytest.raises(ValueError, match="different degrees"):
            gm + GradedMap.identity(V)

    def test_q_guard(self):
        with pytest.raises(ValueError):
            check_q(1.2)
        with pytest.raises(ValueError):
            check_q(-0.1)
