import numpy as np
import pytest

from dynq.cartan import preset
from dynq.qalgebra import (
    build_irrep, character, dual_tuple, flip_matrix, partial_trace, r_matrix,
    slot_index_arrays, tensor_many, trivial_module,
)
from dynq.dynamical import (
    _dual_of, embedded_shifted, exchange, exchange21,
)
from dynq.traces import (
    pairing_matrix, t_functional, universal_f, universal_t, x_operator,
)
from dynq.diffops import (
    DifferenceOperator, _check_index, _distinct_weights, _pair_cache,
    _slot_projector, apply, coord_mr_operator, dual_coord_mr_operator,
    dual_qkzb_operator, fusion_mr_residual, fusion_qkz_residual, multiplier,
    operator, qkzb_operator, transpose,
)

A1 = preset("A1")
Q = 0.5
OM = A1.fundamental_weights[0]
RHO = A1.rho
LAM = -7.31 * OM
MU = -6.13 * OM
ZERO = A1.zero_weight()

V = build_irrep(A1, Q, OM)
W2 = build_irrep(A1, Q, 2 * OM)
S2 = (V, V)
S3 = (V, V, W2)
DEPTH = 30

_T_CACHE = {}
_F_CACHE = {}


def t_at(lam, mu):
    key = (lam, mu)
    if key not in _T_CACHE:
        _T_CACHE[key] = universal_t(S2, lam, mu, DEPTH).value
    return _T_CACHE[key]


def f_at(lam, mu):
    key = (lam, mu)
    if key not in _F_CACHE:
        _F_CACHE[key] = universal_f(S2, lam, mu, DEPTH).value
    return _F_CACHE[key]


def zero_block(space):
    return [int(n) for n in tensor_many(space).block(ZERO)]


def word_weights(word):
    return [S2[j].weights[word[j]] for j in range(len(word))]


def rel_gap(lhs, rhs):
    scale = max(float(np.max(np.abs(rhs))), 1e-300)
    return float(np.max(np.abs(lhs - rhs))) / scale


# Oracle for dual_qkzb_operator: the second-argument kernel on F(S) and its
# family carried to F(S*) by the dual-basis transpose.


def dual_qkzb_kernel(S, i, mu, sigma, depth=2, tol=1e-10):
    """Second-argument shift kernel on F(S), the transpose source.

    Flipped exchange factors against the later slots (argument mu + sigma
    minus the tail of still-later slots) frame the slot-i projector, with
    inverse flipped factors against the earlier slots at argument mu minus
    the spectator weights.
    """
    S = tuple(S)
    k = len(S)
    _check_index(i, 1, k)
    T = tensor_many(S)
    pair = _pair_cache(depth, tol)
    out = np.eye(T.dim, dtype=complex)
    for j in range(i - 1, 0, -1):
        spect = tuple(range(j, i - 1)) + tuple(range(i, k))
        fn = lambda z, A=S[j - 1], B=S[i - 1]: pair("R21inv", A, B, z)
        out = embedded_shifted(T, fn, (j - 1, i - 1), spect, mu) @ out
    out = _slot_projector(T, i - 1, sigma) @ out
    for j in range(k, i, -1):
        spect = tuple(range(j, k))
        fn = lambda z, A=S[i - 1], B=S[j - 1]: pair("R21", A, B, z)
        out = embedded_shifted(T, fn, (i - 1, j - 1), spect,
                               mu + sigma) @ out
    return out


def dual_qkzb_transposed(S, i, depth=2, tol=1e-10):
    """The kernel family carried to F(S*) by the dual-basis transpose."""
    S = tuple(S)
    _check_index(i, 1, len(S))

    def coefficient(mu, sigma):
        return transpose(dual_qkzb_kernel(S, i, mu, sigma, depth, tol), S)

    return DifferenceOperator("dual-qkzb", S, i, dual_tuple(S), "mu", +1,
                              _distinct_weights(S[i - 1]), coefficient)


class TestStructure:
    def test_index_and_family_guards(self):
        with pytest.raises(ValueError, match="slot index"):
            qkzb_operator(S2, 0)
        with pytest.raises(ValueError, match="slot index"):
            dual_qkzb_operator(S2, 3)
        with pytest.raises(ValueError, match="slot index"):
            coord_mr_operator(S2, V, 3)
        with pytest.raises(ValueError, match="unknown family"):
            operator("mystery", S2, 1)
        with pytest.raises(ValueError, match="auxiliary"):
            operator("coord-mr", S2, 1)
        with pytest.raises(ValueError, match="transpose direction"):
            transpose(np.eye(4), S2, "TT")

    def test_uniform_constructor_dispatch(self):
        assert operator("qkzb", S2, 1).family == "qkzb"
        assert operator("dual-qkzb", S2, 2).space == dual_tuple(S2)
        assert operator("coord-mr", S2, 1, W=W2).aux is W2
        op = operator("dual-coord-mr", S2, 0, W=V)
        assert op.step == -1 and op.variable == "mu"

    def test_single_slot_coefficient_is_projector(self):
        op = qkzb_operator((W2,), 1)
        for s in op.shifts:
            got = op.coefficient(LAM, s)
            want = np.diag([1.0 if w == s else 0.0 for w in W2.weights])
            assert np.array_equal(got, want.astype(complex))

    def test_trivial_auxiliary_gives_identity(self):
        one = trivial_module(A1, Q)
        for i in (0, 1, 2):
            op = coord_mr_operator(S2, one, i)
            assert op.shifts == (ZERO,)
            C = op.coefficient(LAM, ZERO)
            assert np.max(np.abs(C - np.eye(4))) < 1e-12

    def test_coefficients_preserve_weight_blocks(self):
        F = tensor_many(S2)
        ops = [qkzb_operator(S2, 1), dual_qkzb_operator(S2, 2),
               coord_mr_operator(S2, W2, 1),
               dual_coord_mr_operator(S2, W2, 2)]
        args = [LAM, MU, LAM, MU]
        for op, at in zip(ops, args):
            for s in op.shifts:
                C = op.coefficient(at, s)
                for r in range(4):
                    for c in range(4):
                        wr = sum(word_weights(np.unravel_index(r, (2, 2))),
                                 ZERO)
                        wc = sum(word_weights(np.unravel_index(c, (2, 2))),
                                 ZERO)
                        if wr != wc:
                            assert abs(C[r, c]) < 1e-12

    def test_apply_steps_in_the_declared_direction(self):
        op = dual_coord_mr_operator(S2, V, 0)
        seen = []

        def probe(at):
            seen.append(at)
            return np.zeros(4)

        apply(op, probe, MU)
        assert set(seen) == {MU - OM, MU + OM}


class TestTranspose:
    def test_roundtrip_is_exact(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        back = transpose(transpose(A, S2, "T"), S2, "T*")
        assert np.array_equal(back, A)

    def test_pairing_adjointness(self):
        rng = np.random.default_rng(4)
        E = pairing_matrix(S2)
        A = rng.standard_normal((4, 4))
        u = rng.standard_normal(4)
        h = rng.standard_normal(4)
        lhs = (A @ u) @ E @ h
        rhs = u @ E @ (transpose(A, S2) @ h)
        assert abs(lhs - rhs) < 1e-12

    def test_braiding_transpose_is_flipped_dual_braiding(self):
        # on the zero block the dual-basis transpose of the braiding
        # numerator equals the flipped numerator of the dual modules
        for X in (V, W2):
            S = (X, X)
            XS = _dual_of(X)
            got = transpose(r_matrix(X, X).matrix, S, "T")
            want = flip_matrix(XS, XS) @ r_matrix(XS, XS).matrix \
                @ flip_matrix(XS, XS)
            z = zero_block((XS, XS))
            gap = np.max(np.abs(got[np.ix_(z, z)] - want[np.ix_(z, z)]))
            assert gap < 1e-12


class TestMultiplier:
    def test_boundary_values_are_plain_characters(self):
        for W in (V, W2):
            Dl = multiplier("dual-coord-mr", S2, 0, LAM, W=W)
            want = character(W, -2 * LAM - 2 * RHO)
            for n in zero_block(S2):
                assert Dl[n, n] == want
            Dm = multiplier("coord-mr", S2, 2, MU, W=W)
            want = character(W, 2 * MU + 2 * RHO)
            for n in zero_block(dual_tuple(S2)):
                assert Dm[n, n] == want

    def test_qkzb_multiplier_inverts_the_eigenvalue(self):
        # the second-argument multiplier entry at a dual word is the
        # reciprocal of the first-argument eigenvalue at the mirror word
        D1 = multiplier("qkzb", S2, 1, MU)
        E = pairing_matrix(S2)
        for n in zero_block(S2):
            digs = np.unravel_index(n, (2, 2))
            nus = word_weights(digs)
            e = float(A1.pairing(nus[0] + 2 * MU + 2 * RHO, nus[0]))
            col = int(np.argmax(E.T[:, n]))
            assert abs(D1[col, col] - Q ** (-e)) < 1e-14

    def test_family_guard(self):
        with pytest.raises(ValueError, match="unknown family"):
            multiplier("qkz", S2, 1, MU)


class TestQkzbEigen:
    def test_columns_are_eigenvectors(self):
        E = pairing_matrix(S2)
        for i in (1, 2):
            op = qkzb_operator(S2, i)
            f = lambda l: t_at(l, MU) @ E.T
            lhs = apply(op, f, LAM)
            rhs = f(LAM)
            for n in zero_block(S2):
                nus = word_weights(np.unravel_index(n, (2, 2)))
                head = sum(nus[:i - 1], ZERO)
                e = float(A1.pairing(nus[i - 1] + 2 * head + 2 * MU
                                     + 2 * RHO, nus[i - 1]))
                col = rhs[:, n]
                gap = np.max(np.abs(lhs[:, n] - Q ** e * col))
                assert gap <= 1e-9 * max(np.max(np.abs(col)), 1e-300)

    def test_paired_with_multiplier_fixes_the_matrix(self):
        for i in (1, 2):
            op = qkzb_operator(S2, i)
            Dm = multiplier("qkzb", S2, i, MU)
            f = lambda l: f_at(l, MU) @ Dm
            assert rel_gap(apply(op, f, LAM), f_at(LAM, MU)) < 1e-9


class TestDualQkzbEigen:
    WORDS = ((0, 1), (1, 0))

    @staticmethod
    def eig(word, i):
        xips = [_dual_of(S2[j]).weights[word[j]] for j in range(2)]
        e = float(A1.pairing(xips[i - 1] + 2 * sum(xips[i:], ZERO)
                             - 2 * LAM - 2 * RHO, xips[i - 1]))
        return Q ** e

    @staticmethod
    def project(mat, word):
        flist = [np.eye(2)[w] for w in word]
        return t_functional(mat, S2, flist)

    def test_transposed_kernel_on_trace_functionals(self):
        for i in (1, 2):
            op = dual_qkzb_transposed(S2, i)
            for word in self.WORDS:
                f = lambda m: self.project(t_at(LAM, m), word)
                lhs = apply(op, f, MU)
                rhs = self.eig(word, i) * f(MU)
                assert rel_gap(lhs, rhs) < 1e-9

    def test_dual_coefficients_on_renormalized_functionals(self):
        for i in (1, 2):
            op = dual_qkzb_operator(S2, i)
            for word in self.WORDS:
                f = lambda m: self.project(f_at(LAM, m), word)
                lhs = apply(op, f, MU)
                rhs = self.eig(word, i) * f(MU)
                assert rel_gap(lhs, rhs) < 1e-9

    def test_gauge_conjugation_matches_on_zero_block(self):
        sstar = dual_tuple(S2)
        z = zero_block(sstar)
        for i in (1, 2):
            op = dual_qkzb_operator(S2, i)
            for s in op.shifts:
                Xm = x_operator(MU, sstar).matrix
                Xs = x_operator(MU + s, sstar).matrix
                G = Xm @ transpose(dual_qkzb_kernel(S2, i, MU, s), S2) \
                    @ np.linalg.inv(Xs)
                K = op.coefficient(MU, s)
                assert np.max(np.abs(G[np.ix_(z, z)] - K[np.ix_(z, z)])) \
                    < 1e-9


class TestCoordMrEigen:
    def test_first_argument_trace_family(self):
        for W in (V, W2):
            for i in (0, 1, 2):
                op = coord_mr_operator(S2, W, i)
                Dm = multiplier("coord-mr", S2, i, MU, W=W)
                f = lambda l: f_at(l, MU)
                lhs = apply(op, f, LAM)
                rhs = f_at(LAM, MU) @ Dm
                assert rel_gap(lhs, rhs) < 1e-9

    def test_second_argument_trace_family(self):
        for W in (V, W2):
            for i in (0, 1, 2):
                op = dual_coord_mr_operator(S2, W, i)
                Dl = multiplier("dual-coord-mr", S2, i, LAM, W=W)
                lhs = None
                for s in op.shifts:
                    term = f_at(LAM, MU - s) @ op.coefficient(MU, s).T
                    lhs = term if lhs is None else lhs + term
                rhs = Dl @ f_at(LAM, MU)
                assert rel_gap(lhs, rhs) < 1e-9


class TestAlternativeForms:
    """Independent product layouts for the trace-family coefficients."""

    @staticmethod
    def kth_spectator_form(S, W, lam):
        # flipped factors against every slot, spectator-only tail shifts
        TW = tensor_many((W,) + tuple(S))
        k = len(S)
        base = -1 * lam - 2 * RHO
        out = np.eye(TW.dim, dtype=complex)
        for j in range(k, 0, -1):
            spect = tuple(range(j + 1, k + 1))
            fn = lambda z, B=S[j - 1]: exchange21(W, B, z).matrix
            out = embedded_shifted(TW, fn, (0, j), spect, base) @ out
        return TW, out

    def test_coord_mr_top_index_matches_spectator_form(self):
        for S in (S2, S3):
            k = len(S)
            op = coord_mr_operator(S, W2, k)
            TW, prod = self.kth_spectator_form(S, W2, LAM)
            z = zero_block(S)
            for s in op.shifts:
                keep = [int(n) for n in W2.block(s)]
                alt = partial_trace(prod, TW, 0, keep=keep)
                got = op.coefficient(LAM, s)
                gap = np.max(np.abs(alt[:, z] - got[:, z]))
                assert gap < 1e-9

    def test_dual_coord_mr_bottom_index_matches_spectator_form(self):
        # bottom-index coefficients rewrite as a trace over the plain
        # auxiliary module of one fused flipped exchange at the unshifted
        # point, and that in turn factors into pairwise flipped exchanges
        # with spectator shifts only
        sstar = dual_tuple(S2)
        k = len(S2)
        TW = tensor_many((W2,) + sstar)
        fused = exchange21((W2,), sstar, MU).matrix
        pair = np.eye(TW.dim, dtype=complex)
        for slot in range(1, k + 1):
            spect = tuple(range(slot + 1, k + 1))
            fn = lambda z, B=sstar[slot - 1]: exchange21(W2, B, z).matrix
            pair = pair @ embedded_shifted(TW, fn, (0, slot), spect, MU)
        assert np.max(np.abs(pair - fused)) < 1e-9
        op = dual_coord_mr_operator(S2, W2, 0)
        z = zero_block(sstar)
        for s in op.shifts:
            keep = [int(n) for n in W2.block(s)]
            alt = partial_trace(fused, TW, 0, keep=keep)
            got = op.coefficient(MU, s)
            assert np.max(np.abs(alt[:, z] - got[:, z])) < 1e-9

    def test_boundary_indices_collapse_to_fused_exchange(self):
        # at the ends of the index range the whole product is one fused
        # exchange (plain at the top, inverse flipped at the bottom)
        sstar = dual_tuple(S2)
        ws = _dual_of(W2)
        TW = tensor_many((ws,) + sstar)
        z = zero_block(sstar)
        bot = dual_coord_mr_operator(S2, W2, 0)
        top = dual_coord_mr_operator(S2, W2, 2)
        for s in bot.shifts:
            keep = [int(n) for n in ws.block(-1 * s)]
            fused = np.linalg.inv(exchange21((ws,), sstar, MU - s).matrix)
            alt = partial_trace(fused, TW, 0, keep=keep)
            got = bot.coefficient(MU, s)
            assert np.max(np.abs(alt[:, z] - got[:, z])) < 1e-9
            fused = exchange((ws,), sstar, MU - s).matrix
            alt = partial_trace(fused, TW, 0, keep=keep)
            got = top.coefficient(MU, s)
            assert np.max(np.abs(alt[:, z] - got[:, z])) < 1e-9


class TestFusedIdentities:
    def test_trace_multiplier_pushes_through_fusion(self):
        SD = (V, W2)
        for W in (V, W2):
            for i in (0, 1, 2):
                assert fusion_mr_residual(SD, W, i, LAM) < 1e-9

    def test_trace_multiplier_three_slots(self):
        assert fusion_mr_residual(S3, V, 1, LAM) < 1e-9
        assert fusion_mr_residual(S3, W2, 2, LAM) < 1e-9

    def test_braid_equation_for_inverse_fusion(self):
        SD = (V, W2)
        for i in (1, 2):
            assert fusion_qkz_residual(SD, i, LAM) < 1e-9
        assert fusion_qkz_residual(S3, 2, LAM) < 1e-9

    def test_index_guards(self):
        with pytest.raises(ValueError, match="slot index"):
            fusion_mr_residual((V, W2), V, 3, LAM)
        with pytest.raises(ValueError, match="slot index"):
            fusion_qkz_residual((V, W2), 0, LAM)
