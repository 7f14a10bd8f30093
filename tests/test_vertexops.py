import numpy as np
import pytest

from dynq.cartan import preset
from dynq.qalgebra import (
    build_irrep, build_verma, qnum, tensor_many, tensor_module,
)
from dynq.vertexops import (
    Intertwiner, _extend_by_lowering, _raises, _singular_in,
    dual_vertex_operator, expectation, intertwiner_residual,
    singular_vector, vertex_operator, weight_of,
)

A1 = preset("A1")
A2 = preset("A2")
B2 = preset("B2")
Q = 0.5
OM = A1.fundamental_weights[0]


def hw_vec(V):
    out = np.zeros(V.dim, dtype=complex)
    out[0] = 1.0
    return out


def lw_vec(V):
    # lowest-weight basis vector, unique for the modules used here
    h = min(range(V.dim), key=lambda i: V.weights[i].height())
    out = np.zeros(V.dim, dtype=complex)
    out[h] = 1.0
    return out


def wt_vec(V, w):
    idx = [i for i in range(V.dim) if V.weights[i] == w]
    assert len(idx) == 1
    out = np.zeros(V.dim, dtype=complex)
    out[idx[0]] = 1.0
    return out


class TestSingularVector:
    def test_hw_vector_is_pure_tensor(self):
        V = build_irrep(A1, Q, OM)
        u, M = singular_vector(-5.37 * OM, V, hw_vec(V), 4)
        want = np.zeros(M.dim * V.dim, dtype=complex)
        want[0] = 1.0
        assert np.allclose(u, want)

    def test_sl2_lowest_vector_two_terms(self):
        # E u = 0 with u = m (x) v_low + c (F m) (x) v_hw solves to
        # c = -1/(q [c']) with c' the target highest-weight pairing
        V = build_irrep(A1, Q, OM)
        lam = -5.37 * OM
        u, M = singular_vector(lam, V, lw_vec(V), 4)
        cp = float(A1.coroot_pairing(lam + OM, A1.simple_roots[0]))
        c = -1.0 / (Q * qnum(Q, cp))
        want = np.zeros(M.dim * V.dim, dtype=complex)
        want[0 * V.dim + 1] = 1.0
        want[1 * V.dim + 0] = c
        assert np.allclose(u, want, atol=1e-12)

    def test_zero_vector(self):
        V = build_irrep(A1, Q, OM)
        M = build_verma(A1, Q, -5.37 * OM, 4)
        u, _ = singular_vector(-5.37 * OM + OM, V, np.zeros(V.dim), 4, target=M)
        assert not np.any(u)

    def test_killed_by_raising(self):
        V = build_irrep(A2, Q, A2.from_fundamental([1, 1]))
        lam = A2.from_fundamental([-3.17, -2.41])
        v = np.zeros(V.dim, dtype=complex)
        blk = V.block(A2.zero_weight())
        v[blk[0]] = 1.0
        v[blk[1]] = -0.3
        u, M = singular_vector(lam, V, v, 5)
        T = tensor_module(M, V)
        for i in range(2):
            assert np.max(np.abs(T.E[i] @ u)) < 1e-10

    def test_rejects_inhomogeneous(self):
        V = build_irrep(A1, Q, 2 * OM)
        v = np.array([1.0, 0.5, 0.0])
        with pytest.raises(ValueError):
            singular_vector(-5.37 * OM, V, v, 4)

    def test_rejects_nonregular(self):
        V = build_irrep(A1, Q, OM)
        with pytest.raises(ValueError):
            singular_vector(3 * OM, V, lw_vec(V), 4)


class TestVertexOperator:
    def test_one_point_hw_depth0_block(self):
        V = build_irrep(A1, Q, 2 * OM)
        phi = vertex_operator(-7.31 * OM, (V,), [hw_vec(V)], 6)
        col = phi.matrix[:, 0]
        assert col[0] == pytest.approx(1.0)
        assert np.max(np.abs(col[1:])) < 1e-12

    def test_intertwines(self):
        V = build_irrep(A1, Q, 2 * OM)
        for v in (hw_vec(V), lw_vec(V)):
            phi = vertex_operator(-7.31 * OM, (V,), [v], 8)
            assert intertwiner_residual(phi) < 1e-9

    def test_sl2_oracle_direct_lowering_chain(self):
        # independent path: extend the singular vector by applying the
        # tensor lowering operator to powers of F on the source chain
        V = build_irrep(A1, Q, 2 * OM)
        lam = -7.31 * OM
        v = lw_vec(V)
        D = 6
        phi = vertex_operator(lam, (V,), [v], D)
        u, M = singular_vector(lam, V, v, D + 2)
        T = tensor_module(M, V)
        want = np.zeros_like(phi.matrix)
        col = u.copy()
        want[:, 0] = col
        for n in range(1, D + 1):
            col = T.F[0] @ col
            want[:, n] = col
        assert np.max(np.abs(phi.matrix - want)) < 1e-9 * max(
            1.0, np.abs(want).max())

    def test_expectation_bijection_one_point(self):
        V = build_irrep(A2, Q, A2.from_fundamental([1, 0]))
        lam = A2.from_fundamental([-3.17, -2.41])
        for idx in range(V.dim):
            v = np.zeros(V.dim, dtype=complex)
            v[idx] = 1.0
            phi = vertex_operator(lam, (V,), [v], 3)
            assert np.allclose(expectation(phi), v, atol=1e-10)

    def test_two_point_composite_oracle(self):
        # oracle: compose the one-point operators by hand with kron
        V = build_irrep(A1, Q, OM)
        lam = -7.31 * OM
        D = 5
        phi = vertex_operator(lam, (V, V), [hw_vec(V), lw_vec(V)], D)
        # rightmost leg first: weight of lw is -om, so lam_1 = lam + om
        psi2, M1 = singular_vector(lam, V, lw_vec(V), D + 1)
        M0src = build_verma(A1, Q, lam, D)
        mat2 = _extend_by_lowering(M0src, M1, V, psi2.reshape(M1.dim, V.dim), 1e-10)
        psi1, M0 = singular_vector(lam + OM, V, hw_vec(V), D + 2)
        mat1 = _extend_by_lowering(M1, M0, V, psi1.reshape(M0.dim, V.dim), 1e-10)
        want = np.kron(mat1, np.eye(V.dim)) @ mat2
        assert phi.matrix.shape == want.shape
        assert np.max(np.abs(phi.matrix - want)) < 1e-10 * max(
            1.0, np.abs(want).max())
        assert intertwiner_residual(phi) < 1e-9

    def test_fused_equals_composite(self):
        # a 2-point operator equals the 1-point operator on the fused spin
        # space with the fused expectation value
        V = build_irrep(A1, Q, OM)
        W = build_irrep(A1, Q, 2 * OM)
        lam = -7.31 * OM
        D = 5
        phi = vertex_operator(lam, (V, W), [lw_vec(V), hw_vec(W)], D)
        jv = expectation(phi)
        VW = tensor_module(V, W)
        phi1 = vertex_operator(lam, (VW,), [jv], D)
        # per-stage depth budgets differ, so compare on the common rows
        d = min(phi.target_verma.depth, phi1.target_verma.depth)
        a = phi.matrix[np.repeat(phi.target_verma.depths <= d, VW.dim)]
        b = phi1.matrix[np.repeat(phi1.target_verma.depths <= d, VW.dim)]
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) < 1e-10 * max(1.0, np.abs(b).max())

    def test_rebuild_from_expectation(self):
        V = build_irrep(A1, Q, 2 * OM)
        lam = -7.31 * OM
        phi = vertex_operator(lam, (V,), [lw_vec(V)], 6)
        again = vertex_operator(lam, (V,), [expectation(phi)], 6)
        assert np.max(np.abs(phi.matrix - again.matrix)) < 1e-10

    def test_nonregular_start_named(self):
        V = build_irrep(A1, Q, 2 * OM)
        # legs are 1-based with the rightmost = k, processed first at lam
        with pytest.raises(ValueError, match="lam_2"):
            vertex_operator(-2 * OM, (V, V), [hw_vec(V), lw_vec(V)], 4)

    def test_graded_map_degree_zero(self):
        V = build_irrep(A1, Q, 2 * OM)
        phi = vertex_operator(-7.31 * OM, (V,), [lw_vec(V)], 5)
        assert phi.as_graded_map().graded_residual() < 1e-12


class TestDualVertexOperator:
    def test_leading_block_scaled_pure_tensor(self):
        from dynq.qalgebra import dual_module
        V = build_irrep(A1, Q, OM)
        Vd = dual_module(V)
        lam = -5.37 * OM
        g = hw_vec(Vd)  # weight -om functional
        psi = dual_vertex_operator(lam, (Vd,), [g], 5)
        nu = weight_of(Vd, g)
        scale = Q ** float(A1.pairing(nu, lam - nu))
        got = expectation(psi)
        assert np.allclose(got, scale / scale * got)  # shape sanity
        want = np.zeros(Vd.dim, dtype=complex)
        want[0] = 1.0 / scale  # kappa^{-1} from the braiding inverse
        assert np.allclose(got, want, atol=1e-11)

    def test_zero_weight_expectation_unscaled(self):
        # on zero-weight vectors the braiding Cartan factor is 1
        V = build_irrep(A1, Q, 2 * OM)
        from dynq.qalgebra import dual_module
        Vd = dual_module(V)
        lam = -5.37 * OM
        blk = Vd.block(A1.zero_weight())
        g = np.zeros(Vd.dim, dtype=complex)
        g[blk[0]] = 1.0
        psi = dual_vertex_operator(lam, (Vd,), [g], 6)
        got = expectation(psi)
        # leading coefficient on g itself is 1; braided corrections may
        # populate other zero-weight components only
        assert got[blk[0]] == pytest.approx(1.0, abs=1e-10)
        for i in range(Vd.dim):
            if i not in blk:
                assert abs(got[i]) < 1e-10

    def test_intertwines(self):
        from dynq.qalgebra import dual_module
        V = build_irrep(A1, Q, OM)
        Vd = dual_module(V)
        psi = dual_vertex_operator(-5.37 * OM, (Vd,), [hw_vec(Vd)], 7)
        assert intertwiner_residual(psi) < 1e-9

    def test_two_leg_composite_shape_and_intertwining(self):
        from dynq.qalgebra import dual_module
        V = build_irrep(A1, Q, OM)
        Vd = dual_module(V)
        lam = -6.2 * OM
        psi = dual_vertex_operator(lam, (Vd, Vd),
                                   [wt_vec(Vd, -OM), wt_vec(Vd, OM)], 5)
        assert psi.orientation == "dual"
        assert psi.target_verma.hw == lam  # weights -om + om cancel
        assert intertwiner_residual(psi) < 1e-9


class TestPushThrough:
    def commutant_element(self, T, seed):
        """Random module endomorphism of a tensor module via nullspace."""
        n = T.dim
        blocks = []
        for i in range(T.datum.rank):
            for X in (T.E[i], T.F[i]):
                blocks.append(np.kron(np.eye(n), X.T) - np.kron(X, np.eye(n)))
        qh = T.qh(T.datum.simple_roots[0])
        blocks.append(np.kron(np.eye(n), np.diag(qh)) -
                      np.kron(np.diag(qh), np.eye(n)))
        A = np.vstack(blocks)
        _, s, vh = np.linalg.svd(A)
        null = vh[np.abs(s) < 1e-9 * s[0]] if s.size else vh[:0]
        # also catch trailing exact zeros svd reports as smallest values
        null = vh[s < 1e-9 * max(1.0, s[0])]
        rng = np.random.default_rng(seed)
        coef = rng.normal(size=null.shape[0])
        return (coef @ null).reshape(n, n)

    def test_module_map_pushes_to_spin_side(self):
        # (id (x) A) Phi^{v1,v2} = sum over the expansion of
        # j^{-1} A j (v1 (x) v2) of vertex operators, realized through the
        # fused one-point form
        V = build_irrep(A1, Q, OM)
        lam = -7.31 * OM
        D = 4
        T = tensor_module(V, V)
        A = self.commutant_element(T, 7)
        assert np.max(np.abs(A @ T.E[0] - T.E[0] @ A)) < 1e-8
        phi = vertex_operator(lam, (V, V), [hw_vec(V), lw_vec(V)], D)
        lhs = np.kron(np.eye(phi.target_verma.dim), A) @ phi.matrix
        # push through: fused vector transforms by A directly
        jv = expectation(phi)
        rhs = vertex_operator(lam, (T,), [A @ jv], D)
        d = min(phi.target_verma.depth, rhs.target_verma.depth)
        a = lhs[np.repeat(phi.target_verma.depths <= d, T.dim)]
        b = rhs.matrix[np.repeat(rhs.target_verma.depths <= d, T.dim)]
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) < 1e-9 * max(1.0, np.abs(a).max())


class TestLazyTarget:
    def test_fusion_leaves_targets_unbuilt(self, monkeypatch):
        import dynq.dynamical as dyn
        from dynq import vertexops
        built = []

        def recording(*args, **kwargs):
            built.append(vertexops._leg_chain(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(dyn, "_leg_chain", recording)
        V = build_irrep(A1, Q, OM)
        W = build_irrep(A1, Q, 2 * OM)
        dyn.fusion((V, W), -6.77 * OM)  # a weight no other test fuses at
        assert len(built) == V.dim * W.dim
        assert all("target" not in phi.__dict__ for phi in built)

    def test_expectation_leaves_target_unbuilt(self):
        V = build_irrep(A1, Q, OM)
        from dynq.qalgebra import dual_module
        Vd = dual_module(V)
        phi = vertex_operator(-5.37 * OM, (V, V), [hw_vec(V), lw_vec(V)], 4)
        psi = dual_vertex_operator(-5.37 * OM, (Vd,), [hw_vec(Vd)], 4)
        for op in (phi, psi):
            expectation(op)
            assert "target" not in op.__dict__

    def test_target_matches_eager_build(self):
        from dynq.qalgebra import dual_module, same_space
        V = build_irrep(A1, Q, OM)
        W = build_irrep(A1, Q, 2 * OM)
        Vd = dual_module(V)
        lam = -5.37 * OM
        phi = vertex_operator(lam, (V, W), [lw_vec(V), hw_vec(W)], 4)
        psi = dual_vertex_operator(lam, (Vd, Vd),
                                   [wt_vec(Vd, -OM), wt_vec(Vd, OM)], 4)
        for op, want in ((phi, tensor_many((phi.target_verma, V, W))),
                         (psi, tensor_many((Vd, Vd, psi.target_verma)))):
            got = op.target
            assert same_space(got, want)
            assert all(np.array_equal(a, b)
                       for a, b in zip(got.E + got.F, want.E + want.F))
            assert got.dim == op.matrix.shape[0]
            assert op.target is got  # cached on the instance

    def test_legs_build_no_tensor_module(self, monkeypatch):
        from dynq import qalgebra, vertexops
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return tensor_module(*args, **kwargs)

        monkeypatch.setattr(vertexops, "tensor_module", counted)
        monkeypatch.setattr(qalgebra, "tensor_module", counted)
        V = build_irrep(A1, Q, OM)
        for k in (1, 2, 3):
            vlist = [hw_vec(V) if j % 2 else lw_vec(V) for j in range(k)]
            vertex_operator(-7.31 * OM, (V,) * k, vlist, 3)
        assert not calls

    def test_fusion_shares_legs_per_suffix(self, monkeypatch):
        import dynq.dynamical as dyn
        from dynq import vertexops
        legs = []

        def counted(src, tgt, V, U, tol):
            legs.append(src.hw)
            return _extend_by_lowering(src, tgt, V, U, tol)

        monkeypatch.setattr(vertexops, "_extend_by_lowering", counted)
        V = build_irrep(A1, Q, OM)
        W = build_irrep(A1, Q, 2 * OM)
        lam = -6.83 * OM  # a weight no other test fuses at
        S = (V, W, V)
        j = dyn.fusion(S, lam)
        # one leg per suffix of basis indices: 2 + 3*2 + 2*3*2, not 3 * 12
        assert len(legs) == 2 + 6 + 12
        # each column is still its own composite vertex operator
        monkeypatch.setattr(vertexops, "_extend_by_lowering", _extend_by_lowering)
        for n in range(j.matrix.shape[1]):
            digits = np.unravel_index(n, (2, 3, 2))
            vlist = [np.eye(M.dim)[d] for M, d in zip(S, digits)]
            col = expectation(vertex_operator(lam, S, vlist, 2))
            assert np.array_equal(j.matrix[:, n], col)


def _dense_singular(T, target, V, v, mu):
    """Singular vector solved on the dense T = target (x) V (former route)."""
    dv = V.dim
    u = np.zeros(T.dim, dtype=complex)
    u[:dv] = v
    betas = {}
    for sig in V.weight_set():
        d = sig - mu
        if all(c == int(c) and c >= 0 for c in d.coords) and d.height() > 0:
            betas.setdefault(d.height(), []).append(d)
    for h in sorted(betas):
        for beta in betas[h]:
            vb = V.block(mu + beta)
            cols = [m * dv + w for m in target.block(target.hw - beta) for w in vb]
            if not cols:
                continue
            A, b = [], []
            for i, alpha in enumerate(V.datum.simple_roots):
                mrows = target.block(target.hw - beta + alpha)
                rows = [m * dv + w for m in mrows for w in vb]
                if rows:
                    A.append(T.E[i][np.ix_(rows, cols)])
                    b.append(-(T.E[i][rows, :] @ u))
            u[cols] = np.linalg.lstsq(np.vstack(A), np.concatenate(b), rcond=None)[0]
    return u


def _dense_extension(src, T, u):
    """Column extension through the dense T.F (former route)."""
    phi = np.zeros((T.dim, src.dim), dtype=complex)
    phi[:, 0] = u
    for h in range(1, src.depth + 1):
        ch = np.where(src.depths == h)[0]
        cp = np.where(src.depths == h - 1)[0]
        G = np.hstack([F[np.ix_(ch, cp)] for F in src.F])
        B = np.hstack([F @ phi[:, cp] for F in T.F])
        phi[:, ch] = B @ np.linalg.pinv(G)
    return phi


class TestMatrixFreeLeg:
    """The leg's solves against the dense tensor module they replace."""

    A2_LAM = A2.from_fundamental([-3.17, -2.41])
    B2_LAM = B2.from_fundamental([-2.713, -3.119])
    CASES = [
        (A1, 2 * OM, -7.31 * OM, "primal"),
        (A1, 2 * OM, -7.31 * OM, "dual"),
        (A2, A2.from_fundamental([1, 1]), A2_LAM, "primal"),
        (A2, A2.fundamental_weights[0], A2_LAM, "primal"),
        (A2, A2.fundamental_weights[0], A2_LAM, "dual"),
        (B2, B2.fundamental_weights[0], B2_LAM, "primal"),
        (B2, B2.fundamental_weights[1], B2_LAM, "dual"),
    ]

    @pytest.mark.parametrize("datum,hw,lam,orientation", CASES)
    def test_matches_dense_route(self, datum, hw, lam, orientation):
        from dynq.qalgebra import dual_module
        V = build_irrep(datum, Q, hw)
        if orientation == "dual":
            V = dual_module(V)
        src = build_verma(datum, Q, lam, 2)
        vecs = [np.eye(V.dim)[n] for n in range(V.dim)]
        for blk in V.blocks.values():
            if blk.size > 1:  # a mixed vector inside a multiple weight space
                vecs.append(np.where(np.isin(np.arange(V.dim), blk),
                                     np.linspace(1.0, -0.3, V.dim), 0.0))
        for v in vecs:
            mu = weight_of(V, v)
            if orientation == "primal":
                extra = max(max(_raises(V, mu), default=0), 1)
            else:
                extra = 2 * max(V.height_span(), 1)
            tgt = build_verma(datum, Q, lam - mu, src.depth + extra)
            T = tensor_module(tgt, V)
            U = _singular_in(tgt, V, v, mu, 1e-10)
            u = _dense_singular(T, tgt, V, v, mu)
            assert np.max(np.abs(U.ravel() - u)) <= 1e-13 * np.max(np.abs(u))
            phi = _extend_by_lowering(src, tgt, V, U, 1e-10)
            want = _dense_extension(src, T, u)
            assert np.max(np.abs(phi - want)) <= 1e-13 * np.max(np.abs(want))
