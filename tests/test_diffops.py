import itertools

import numpy as np
import pytest

from dynq.cartan import preset
from dynq.qalgebra import (
    build_irrep, character, dual_module, dual_tuple, partial_trace, r_matrix,
    slot_classes, tensor_many, trivial_module,
)
from dynq import dynamical
from dynq.cache import Memo
from dynq.dynamical import embedded_shifted, exchange, exchange21
from dynq.traces import t_functional, universal_f, universal_t, x_operator
from dynq.diffops import (
    FAMILIES, DifferenceOperator, _check_index, _slot_projector, apply,
    coord_mr_operator, dual_coord_mr_operator, dual_qkzb_operator, multiplier,
    operator, qkzb_operator, transpose,
)

from oracles import (
    flip_matrix, fusion_mr_residual, fusion_qkz_residual, pairing_matrix,
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

A2 = preset("A2")
O1, O2 = A2.fundamental_weights
V1 = build_irrep(A2, Q, O1)
V2 = build_irrep(A2, Q, O2)

# (word, auxiliary module, first argument, second argument); the slot
# positions of F(S) and F(S*) differ on every word but S2
WORDS = (
    (S2, W2, LAM, MU),
    (S3, V, LAM, MU),
    ((V, W2), W2, LAM, MU),
    ((V1, V2), V1, -3.217 * O1 - 4.381 * O2, -4.113 * O1 - 3.052 * O2),
)

_T_CACHE = {}
_F_CACHE = {}


def t_at(lam, mu):
    key = (lam, mu)
    if key not in _T_CACHE:
        _T_CACHE[key] = universal_t(S2, lam, mu, DEPTH).value
    return _T_CACHE[key]


def f_at(lam, mu, S=S2):
    key = (S, lam, mu)
    if key not in _F_CACHE:
        _F_CACHE[key] = universal_f(S, lam, mu, DEPTH).value
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


def dual_qkzb_kernel(S, i, mu, sigma):
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
    out = np.eye(T.dim, dtype=complex)
    for j in range(i - 1, 0, -1):
        spect = tuple(range(j, i - 1)) + tuple(range(i, k))
        fn = lambda z, A=S[j - 1], B=S[i - 1]: np.linalg.inv(
            exchange21(A, B, z).matrix)
        out = embedded_shifted(T, fn, (j - 1, i - 1), spect, mu) @ out
    out = _slot_projector(T, i - 1, sigma) @ out
    for j in range(k, i, -1):
        spect = tuple(range(j, k))
        fn = lambda z, A=S[i - 1], B=S[j - 1]: exchange21(A, B, z).matrix
        out = embedded_shifted(T, fn, (i - 1, j - 1), spect,
                               mu + sigma) @ out
    return out


def dual_qkzb_transposed(S, i):
    """The kernel family carried to F(S*) by the dual-basis transpose."""
    S = tuple(S)
    _check_index(i, 1, len(S))

    def coefficient(mu, sigma):
        return transpose(dual_qkzb_kernel(S, i, mu, sigma), S)

    return DifferenceOperator("dual-qkzb", i, dual_tuple(S), "mu", +1,
                              S[i - 1].weight_set(), coefficient)


class TestStructure:
    def test_index_and_family_guards(self):
        for S, W, _, _ in WORDS:
            k = len(S)
            for family in FAMILIES:
                lo = 1 if family.endswith("qkzb") else 0
                for i in (lo - 1, k + 1):
                    with pytest.raises(ValueError, match="slot index"):
                        operator(family, S, i, W=W)
                    with pytest.raises(ValueError, match="slot index"):
                        multiplier(family, S, i, LAM, W=W)
        with pytest.raises(ValueError, match="unknown family"):
            operator("mystery", S2, 1)
        with pytest.raises(ValueError, match="auxiliary"):
            operator("coord-mr", S2, 1)
        with pytest.raises(ValueError, match="transpose direction"):
            transpose(np.eye(4), S2, "TT")

    def test_trace_multipliers_need_the_auxiliary_module(self):
        # as operator() does: the trace families' entries are characters of W
        for family in ("coord-mr", "dual-coord-mr"):
            with pytest.raises(ValueError, match=f"{family} needs the auxiliary module W"):
                multiplier(family, S2, 1, LAM)

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
        # the A2 trace families are left out: each costs about 0.3 s of
        # fusions at lattice-shifted A2 weights that no other test shares
        for S, W, lam, mu in WORDS:
            k = len(S)
            for family in FAMILIES:
                if W.datum is A2 and not family.endswith("qkzb"):
                    continue
                lo = 1 if family.endswith("qkzb") else 0
                for i in range(lo, k + 1):
                    op = operator(family, S, i, W=W)
                    at = lam if op.variable == "lam" else mu
                    label = np.zeros(tensor_many(op.space).dim, dtype=int)
                    for n, idx in enumerate(
                            slot_classes(op.space, (range(k),)).values()):
                        label[idx] = n
                    off = label[:, None] != label[None, :]
                    for s in op.shifts:
                        C = op.coefficient(at, s)
                        assert np.max(np.abs(C[off])) < 1e-12, (family, i)

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
            XS = dual_module(X)
            got = transpose(r_matrix(X, X), S, "T")
            want = flip_matrix(XS, XS) @ r_matrix(XS, XS) \
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

    def test_one_character_per_weight_class(self, monkeypatch):
        # slot 1 of (V, V) has two weights, so two characters, not one per
        # basis vector of the four-dimensional tensor
        import dynq.diffops as diffops
        calls = []
        monkeypatch.setattr(diffops, "character",
                            lambda W, xi: calls.append(xi) or character(W, xi))
        D = multiplier("coord-mr", S2, 1, MU, W=W2)
        assert len(calls) == 2
        monkeypatch.undo()
        # F(S*) slot 1 holds the dual of the first module of S
        want = [character(W2, 2 * MU + 2 * RHO - 2 * w)
                for w in dual_tuple(S2)[1].weights]
        for n, digits in enumerate(np.ndindex(2, 2)):
            assert D[n, n] == want[digits[1]]


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
        xips = [dual_module(S2[j]).weights[word[j]] for j in range(2)]
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
        for S in (S2, S3):
            sstar = dual_tuple(S)
            z = zero_block(sstar)
            for i in range(1, len(S) + 1):
                op = dual_qkzb_operator(S, i)
                for s in op.shifts:
                    Xm = x_operator(MU, sstar).matrix
                    Xs = x_operator(MU + s, sstar).matrix
                    G = Xm @ transpose(dual_qkzb_kernel(S, i, MU, s), S) \
                        @ np.linalg.inv(Xs)
                    K = op.coefficient(MU, s)
                    gap = np.max(np.abs(G[np.ix_(z, z)] - K[np.ix_(z, z)]))
                    assert gap < 1e-9, (len(S), i)


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
        # on S3 the split k - i differs from i at the middle indices
        for S, auxes in ((S2, (V, W2)), (S3, (V,))):
            for W in auxes:
                for i in range(len(S) + 1):
                    op = dual_coord_mr_operator(S, W, i)
                    Dl = multiplier("dual-coord-mr", S, i, LAM, W=W)
                    lhs = None
                    for s in op.shifts:
                        term = f_at(LAM, MU - s, S) @ op.coefficient(MU, s).T
                        lhs = term if lhs is None else lhs + term
                    rhs = Dl @ f_at(LAM, MU, S)
                    assert rel_gap(lhs, rhs) < 1e-9, (len(S), i)


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
        for S in (S2, S3):
            sstar = dual_tuple(S)
            k = len(S)
            TW = tensor_many((W2,) + sstar)
            fused = exchange21((W2,), sstar, MU).matrix
            pair = np.eye(TW.dim, dtype=complex)
            for slot in range(1, k + 1):
                spect = tuple(range(slot + 1, k + 1))
                fn = lambda z, B=sstar[slot - 1]: exchange21(W2, B, z).matrix
                pair = pair @ embedded_shifted(TW, fn, (0, slot), spect, MU)
            assert np.max(np.abs(pair - fused)) < 1e-9
            op = dual_coord_mr_operator(S, W2, 0)
            z = zero_block(sstar)
            for s in op.shifts:
                keep = [int(n) for n in W2.block(s)]
                alt = partial_trace(fused, TW, 0, keep=keep)
                got = op.coefficient(MU, s)
                assert np.max(np.abs(alt[:, z] - got[:, z])) < 1e-9, k

    def test_boundary_indices_collapse_to_fused_exchange(self):
        # at the ends of the index range the whole product is one fused
        # exchange (plain at the top, inverse flipped at the bottom)
        ws = dual_module(W2)
        for S in (S2, S3):
            sstar = dual_tuple(S)
            TW = tensor_many((ws,) + sstar)
            z = zero_block(sstar)
            bot = dual_coord_mr_operator(S, W2, 0)
            top = dual_coord_mr_operator(S, W2, len(S))
            for s in bot.shifts:
                keep = [int(n) for n in ws.block(-1 * s)]
                fused = np.linalg.inv(
                    exchange21((ws,), sstar, MU - s).matrix)
                alt = partial_trace(fused, TW, 0, keep=keep)
                got = bot.coefficient(MU, s)
                assert np.max(np.abs(alt[:, z] - got[:, z])) < 1e-9
                fused = exchange((ws,), sstar, MU - s).matrix
                alt = partial_trace(fused, TW, 0, keep=keep)
                got = top.coefficient(MU, s)
                assert np.max(np.abs(alt[:, z] - got[:, z])) < 1e-9


def composite(op1, op2, at, block):
    """Coefficients of op1 op2 on `block`, keyed by the total step tau of the
    sample: the sum over step1*sigma1 + step2*sigma2 = tau of
    A1(at, sigma1) A2(at + step1*sigma1, sigma2)."""
    out = {}
    for s1 in op1.shifts:
        A1 = op1.coefficient(at, s1)[np.ix_(block, block)]
        for s2 in op2.shifts:
            A2 = op2.coefficient(at + op1.step * s1, s2)[np.ix_(block, block)]
            tau = op1.step * s1 + op2.step * s2
            out[tau] = out.get(tau, 0) + A1 @ A2
    return out


def assert_commute(ops, at, block, bound, skip=()):
    # pairs (indices into `ops`) in `skip` are not compared
    for (i, a), (j, b) in itertools.combinations(enumerate(ops), 2):
        if (i, j) in skip:
            continue
        ab, ba = composite(a, b, at, block), composite(b, a, at, block)
        assert ab.keys() == ba.keys()
        scale = max(float(np.max(np.abs(c))) for c in ab.values())
        gap = max(float(np.max(np.abs(ab[t] - ba[t]))) for t in ab) / scale
        assert gap < bound, (a.family, a.index, b.family, b.index, gap)


class TestCommutativity:
    # pairs within each argument's families commute on the zero-weight
    # block; gaps are relative to the largest composite coefficient, and
    # each bound leaves a margin of about 10 over the largest measured one.
    @pytest.mark.parametrize("S,W,lam,skip,bound", [
        (S2, W2, -3.217 * OM, (), 1e-13),
        ((V1, dual_module(V1)), V1, -3.217 * O1 - 4.381 * O2,
         ((1, 2), (1, 3), (1, 4)), 1e-12),
    ], ids=["A1", "A2"])
    def test_first_argument_families_commute(self, S, W, lam, skip, bound):
        # q-KZB i = 1, 2 and coord-MR i = 0, 1, 2; largest gaps 7.7e-15 on
        # A1 and 8.9e-14 on A2.  On A2, q-KZB i = 2 shifts by the weights of
        # V1* where the others shift by those of V1, so its pairs with
        # coord-MR would fuse exchange factors at a second set of weights;
        # those pairs are left to the A1 case.
        ops = [qkzb_operator(S, i) for i in (1, 2)] + \
            [coord_mr_operator(S, W, i) for i in (0, 1, 2)]
        block = [int(n) for n in tensor_many(S).block(S[0].datum.zero_weight())]
        assert_commute(ops, lam, block, bound, skip)

    @pytest.mark.parametrize("S,W,mu,bound", [
        (S2, W2, -3.217 * OM, 2e-13),
        ((V1, dual_module(V1)), V1, -3.217 * O1 - 4.381 * O2, 3e-14),
    ], ids=["A1", "A2"])
    def test_second_argument_families_commute(self, S, W, mu, bound):
        # dual q-KZB i = 1, 2 (step +1) and dual coord-MR i = 0, 1, 2
        # (step -1) on the zero-weight block of F(S*); largest gaps 1.5e-14
        # on A1 and 2.7e-15 on A2, every pair compared
        ops = [dual_qkzb_operator(S, i) for i in (1, 2)] + \
            [dual_coord_mr_operator(S, W, i) for i in (0, 1, 2)]
        block = [int(n) for n in
                 tensor_many(dual_tuple(S)).block(S[0].datum.zero_weight())]
        assert_commute(ops, mu, block, bound)


class TestRepeatedEvaluation:
    @pytest.mark.parametrize("S,W,lam,mu", [
        (S2, W2, LAM, MU),
        ((V1, dual_module(V1)), V1, -3.217 * O1 - 4.381 * O2,
         -3.217 * O1 - 4.381 * O2),
    ], ids=["A1", "A2"])
    def test_coefficients_are_bit_identical(self, monkeypatch, S, W, lam, mu):
        # no operator keeps its exchange factors, so fresh operators over a
        # fresh fusion memo recompute every factor; the second pass must
        # reproduce the first bit for bit
        def coefficients():
            out = []
            for family in FAMILIES:
                lo = 1 if family.endswith("qkzb") else 0
                for i in range(lo, len(S) + 1):
                    op = operator(family, S, i, W=W)
                    at = lam if op.variable == "lam" else mu
                    out += [op.coefficient(at, s) for s in op.shifts]
            return out

        first = coefficients()
        monkeypatch.setattr(dynamical, "_FUSION_MEMO", Memo())
        again = coefficients()
        assert len(first) == len(again)
        assert all(np.array_equal(a, b) for a, b in zip(first, again))


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
        # the builders of both kinds of family check their slot index
        with pytest.raises(ValueError, match="slot index"):
            coord_mr_operator((V, W2), V, 3)
        with pytest.raises(ValueError, match="slot index"):
            qkzb_operator((V, W2), 0)
