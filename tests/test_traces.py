import numpy as np
import pytest

from dynq.cartan import preset
from dynq.qalgebra import build_irrep, dual_module, dual_tuple, tensor_many
from dynq.vertexops import dual_vertex_operator, expectation, vertex_operator
from dynq.dynamical import q_operator_inverse
from dynq.traces import (
    TraceValue, check_cone, spin_component, t_component, t_functional,
    t_vector, universal_f, universal_t, weighted_trace, x_operator,
)

from oracles import pairing_matrix

A1 = preset("A1")
Q = 0.5
OM = A1.fundamental_weights[0]
RHO = A1.rho
LAM = -7.31 * OM
MU = -6.13 * OM
XI = 2 * (LAM + RHO)

V = build_irrep(A1, Q, OM)
W = build_irrep(A1, Q, 2 * OM)
VS = dual_module(V)
WS = dual_module(W)


def basis(M, n):
    out = np.zeros(M.dim, dtype=complex)
    out[n] = 1.0
    return out


def qpow(a, b):
    return Q ** float(A1.pairing(a, b))


class TestPairingMatrix:
    def test_reversed_digit_permutation(self):
        E = pairing_matrix((V, W))
        assert E.shape == (6, 6)
        assert np.array_equal(E @ E.T, np.eye(6))
        # functional (m2, m1) over (W, V) meets vector (m1, m2) over (V, W)
        for m1 in range(2):
            for m2 in range(3):
                assert E[m1 * 3 + m2, m2 * 2 + m1] == 1.0

    def test_single_slot_identity(self):
        assert np.array_equal(pairing_matrix((W,)), np.eye(3))


class TestWeightedTrace:
    def test_depth_zero_is_weighted_expectation(self):
        phi = vertex_operator(MU, (W,), [basis(W, 1)], 12)
        got = weighted_trace(phi, MU, XI, 0)
        want = qpow(MU, XI) * expectation(phi)
        assert np.allclose(got.value, want, rtol=1e-13, atol=0)
        assert got.depth_used == 0

    def test_cyclic_rotation_of_legs(self):
        # rotating the last leg to the front shifts the Verma weight by its
        # leg weight and costs q^{-<wt_a, xi>} on the first-slot index
        D = 30
        phi = vertex_operator(MU, (W, W), [basis(W, 0), basis(W, 2)], D)
        rot = vertex_operator(MU + 2 * OM, (W, W),
                              [basis(W, 2), basis(W, 0)], D)
        H = weighted_trace(phi, MU, XI, D).value.reshape(3, 3)
        Hr = weighted_trace(rot, MU + 2 * OM, XI, D).value.reshape(3, 3)
        scale = np.max(np.abs(H))
        assert scale > 0
        for a in range(3):
            fac = qpow(-1 * W.weights[a], XI)
            for b in range(3):
                assert abs(H[a, b] - fac * Hr[b, a]) <= 1e-8 * scale

    def test_exact_zero_weight_support(self):
        phi = vertex_operator(MU, (W, W), [basis(W, 0), basis(W, 2)], 15)
        val = weighted_trace(phi, MU, XI, 15).value.reshape(3, 3)
        for a in range(3):
            for b in range(3):
                if not (W.weights[a] + W.weights[b]).is_zero():
                    assert val[a, b] == 0.0

    def test_geometric_tail_envelope(self):
        D = 30
        phi = vertex_operator(MU, (W, W), [basis(W, 0), basis(W, 2)], D)
        vals = [weighted_trace(phi, MU, XI, d).value for d in range(D + 1)]
        inc = [float(np.max(np.abs(vals[d] - vals[d - 1])))
               for d in range(1, D + 1)]
        A = inc[4] / Q ** 5
        for d in range(5, D + 1):
            assert inc[d - 1] <= 10 * A * Q ** d + 1e-300

    def test_tail_estimate_bounds_refinement(self):
        phi = vertex_operator(MU, (W, W), [basis(W, 0), basis(W, 2)], 40)
        t20 = weighted_trace(phi, MU, XI, 20)
        t40 = weighted_trace(phi, MU, XI, 40)
        drift = float(np.max(np.abs(t40.value - t20.value)))
        assert drift <= t20.tail_estimate + 1e-300
        assert t40.tail_estimate <= t20.tail_estimate

    def test_guards(self):
        phi = vertex_operator(MU, (W,), [basis(W, 1)], 8)
        with pytest.raises(ValueError, match="cone"):
            weighted_trace(phi, MU, 2 * OM, 8)
        with pytest.raises(ValueError, match="stated Verma"):
            weighted_trace(phi, MU + OM, XI, 8)
        with pytest.raises(ValueError, match="exact to depth"):
            weighted_trace(phi, MU, XI, 9)
        skew = vertex_operator(MU, (V, V), [basis(V, 0), basis(V, 0)], 8)
        with pytest.raises(ValueError, match="nonzero total weight"):
            weighted_trace(skew, MU, XI, 8)
        psi = dual_vertex_operator(LAM, (WS,), [basis(WS, 1)], 8)
        with pytest.raises(ValueError, match="primal|Verma"):
            weighted_trace(psi, LAM, XI, 8)
        tilted = dual_vertex_operator(LAM, (WS,), [basis(WS, 0)], 8)
        with pytest.raises(ValueError, match="dual legs carry nonzero total weight"):
            spin_component(phi, tilted, LAM, MU, XI, 8)

    def test_negative_depth_raises(self):
        # a sum over no depth would read as an exact, converged zero
        phi = vertex_operator(MU, (W,), [basis(W, 1)], 8)
        with pytest.raises(ValueError, match="exact to depth 8, requested -1"):
            weighted_trace(phi, MU, XI, -1)

    def test_cone_check_margin(self):
        # the cone is <xi, alpha> <= -1: -2 omega pairs to -1, -omega/2 to -1/2
        check_cone(A1, -2 * OM)
        with pytest.raises(ValueError, match="outside the convergence cone"):
            check_cone(A1, -0.5 * OM)


class TestSpinComponent:
    MU2 = -6.3 * OM
    LPSI = -5.2 * OM
    XI2 = 2 * (-7 * OM + RHO)

    def build(self, depth):
        phi = vertex_operator(self.MU2, (W,), [basis(W, 1)], depth)
        psi = dual_vertex_operator(self.LPSI, (WS,), [basis(WS, 1)], 10)
        return phi, psi

    def test_double_loop_oracle(self):
        D = 40
        phi, psi = self.build(D)
        got = spin_component(phi, psi, self.LPSI, self.MU2, self.XI2, D)
        g = expectation(psi)
        src = phi.source
        acc = 0.0
        for n in range(src.dim):
            fac = qpow(src.weights[n], self.XI2)
            for a in range(3):
                acc += fac * phi.matrix[n * 3 + a, n] * g[a]
        assert abs(got - acc) <= 1e-12 * abs(acc)

    def test_depth_stability_and_determinism(self):
        phi50, psi = self.build(50)
        phi40, _ = self.build(40)
        v40 = spin_component(phi40, psi, self.LPSI, self.MU2, self.XI2, 40)
        v50 = spin_component(phi50, psi, self.LPSI, self.MU2, self.XI2, 50)
        assert abs(v50 - v40) <= 1e-8 * abs(v40)
        again = spin_component(phi40, psi, self.LPSI, self.MU2, self.XI2, 40)
        assert again == v40
        # prefix property: the same partial sum from the deeper operator
        pre = spin_component(phi50, psi, self.LPSI, self.MU2, self.XI2, 40)
        assert abs(pre - v40) <= 1e-12 * abs(v40)

    def test_linear_in_both_leg_words(self):
        D = 25
        phi, psi = self.build(D)
        scaled = vertex_operator(self.MU2, (W,), [2.5 * basis(W, 1)], D)
        base = spin_component(phi, psi, self.LPSI, self.MU2, self.XI2, D)
        up = spin_component(scaled, psi, self.LPSI, self.MU2, self.XI2, D)
        assert abs(up - 2.5 * base) <= 1e-12 * abs(base)
        gsc = dual_vertex_operator(self.LPSI, (WS,), [-0.5 * basis(WS, 1)], 10)
        down = spin_component(phi, gsc, self.LPSI, self.MU2, self.XI2, D)
        assert abs(down + 0.5 * base) <= 1e-12 * abs(base)

    def test_guards(self):
        phi, psi = self.build(10)
        with pytest.raises(ValueError, match="F\\(S\\*\\)"):
            spin_component(phi, phi, self.MU2, self.MU2, self.XI2, 10)
        with pytest.raises(ValueError, match="stated weight"):
            spin_component(phi, psi, self.LPSI + OM, self.MU2, self.XI2, 10)
        mism = dual_vertex_operator(self.LPSI, (VS, VS),
                                    [basis(VS, 0), basis(VS, 1)], 10)
        with pytest.raises(ValueError, match="dual"):
            spin_component(phi, mism, self.LPSI, self.MU2, self.XI2, 10)
        # slot dimensions match, but (V1*, V1) is not (V1, V1*)* = (V1**, V1*)
        A2 = preset("A2")
        V1 = build_irrep(A2, Q, A2.fundamental_weights[0])
        D1 = dual_module(V1)
        mu, lam = A2.from_fundamental([-3.37, -4.52]), A2.from_fundamental([-3.71, -4.13])
        phi = vertex_operator(mu, (V1, D1), [basis(V1, 0), basis(D1, 0)], 4)
        swapped = dual_vertex_operator(lam, (D1, V1), [basis(D1, 0), basis(V1, 0)], 2)
        with pytest.raises(ValueError, match="leg words are not dual to each other"):
            spin_component(phi, swapped, lam, mu, 2 * (lam + A2.rho), 4)


class TestUniversalT:
    def test_no_zero_weight_space_gives_zero(self):
        tv = universal_t((V, W), LAM, MU, 6)
        assert np.array_equal(tv.value, np.zeros((6, 6)))

    def test_zero_denominator_wall(self):
        tv = universal_t((W,), -1 * OM, MU, 6)
        assert np.array_equal(tv.value, np.zeros((3, 3)))
        assert tv.tail_estimate == 0.0

    def test_single_slot_matches_spin_path(self):
        D = 30
        tv = universal_t((W,), LAM, MU, D)
        delta = A1.weyl_denominator(LAM, Q)
        phi = vertex_operator(MU, (W,), [basis(W, 1)], D)
        psi = dual_vertex_operator(LAM, (WS,), [basis(WS, 1)], 10)
        want = delta * spin_component(phi, psi, LAM, MU, XI, D)
        assert abs(tv.value[1, 1] - want) <= 1e-10 * abs(want)
        mask = np.ones((3, 3), dtype=bool)
        mask[1, 1] = False
        assert np.all(tv.value[mask] == 0.0)

    def test_projection_wiring(self):
        rng = np.random.default_rng(7)
        S = (V, V)
        tv = universal_t(S, LAM, MU, 25)
        E = pairing_matrix(S)
        vlist = [rng.standard_normal(2) + 1j * rng.standard_normal(2)
                 for _ in range(2)]
        flist = [rng.standard_normal(2) + 1j * rng.standard_normal(2)
                 for _ in range(2)]
        comp = t_component(tv, S, vlist, flist)
        vec = t_vector(tv, S, vlist)
        fun = t_functional(tv, S, flist)
        Hf = np.kron(flist[1], flist[0])
        G = np.kron(vlist[0], vlist[1])
        assert abs(comp - (E @ Hf) @ vec) <= 1e-12 * abs(comp)
        assert abs(comp - fun @ (E.T @ G)) <= 1e-12 * abs(comp)
        # linear in each spin slot
        half = t_vector(tv, S, [0.5 * vlist[0], vlist[1]])
        assert np.allclose(half, 0.5 * vec, rtol=1e-12, atol=0)

    def test_zero_block_support(self):
        S = (V, V)
        tv = universal_t(S, LAM, MU, 20)
        F = tensor_many(S)
        zero = set(int(i) for i in F.block(A1.zero_weight()))
        for r in range(4):
            for c in range(4):
                if r not in zero or c not in zero:
                    assert tv.value[r, c] == 0.0

    def test_smooth_in_lambda_and_mu(self):
        h = 1e-4
        base = universal_t((W,), LAM, MU, 20).value[1, 1]
        up = universal_t((W,), LAM + h * OM, MU, 20).value[1, 1]
        dn = universal_t((W,), LAM - h * OM, MU, 20).value[1, 1]
        assert abs(up - 2 * base + dn) <= 1e-4 * max(1.0, abs(base))
        upm = universal_t((W,), LAM, MU + h * OM, 20).value[1, 1]
        dnm = universal_t((W,), LAM, MU - h * OM, 20).value[1, 1]
        assert abs(upm - 2 * base + dnm) <= 1e-4 * max(1.0, abs(base))


class TestXOperator:
    def test_single_slot_is_plain_q_inverse(self):
        X = x_operator(MU, (WS,))
        want = q_operator_inverse(WS, MU).matrix
        assert np.array_equal(X.matrix, want)

    def test_cascade_matches_hand_product(self):
        sstar = dual_tuple((V, W))  # (W*, V*)
        X = x_operator(MU, sstar)
        m0 = np.kron(q_operator_inverse(WS, MU).matrix, np.eye(2))
        m1 = np.zeros((6, 6), dtype=complex)
        for n, w in enumerate(WS.weights):
            block = q_operator_inverse(VS, MU + w).matrix
            P = np.zeros((3, 3))
            P[n, n] = 1.0
            m1 += np.kron(P, block)
        assert np.allclose(X.matrix, m1 @ m0, rtol=1e-12, atol=1e-14)

    def test_weight_preserving_invertible(self):
        X = x_operator(MU, dual_tuple((V, V)))
        assert X.graded_residual() == 0.0
        cond = np.linalg.cond(X.matrix)
        assert cond < 1e6


class TestUniversalF:
    def test_two_sided_symmetry(self):
        # swapping the two weight arguments (negated, rho-shifted) matches
        # transposing the matrix onto the dual word
        D = 40
        lam = -8.15 * OM
        mu = 6.4 * OM
        S = (V, V)
        left = universal_f(S, lam, mu, D).value
        right = universal_f(dual_tuple(S), -1 * mu - 2 * RHO,
                            -1 * lam - 2 * RHO, D).value
        scale = max(np.max(np.abs(left)), 1e-300)
        assert np.max(np.abs(left - right.T)) <= 1e-6 * scale

    def test_depth_refinement_and_determinism(self):
        f30 = universal_f((W,), LAM, MU, 30)
        f40 = universal_f((W,), LAM, MU, 40)
        f50 = universal_f((W,), LAM, MU, 50)
        d34 = float(np.max(np.abs(f40.value - f30.value)))
        d45 = float(np.max(np.abs(f50.value - f40.value)))
        assert d45 <= d34
        assert d34 <= f30.tail_estimate + 1e-300
        again = universal_f((W,), LAM, MU, 30)
        assert np.array_equal(again.value, f30.value)
