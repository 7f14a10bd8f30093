from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynq.cartan import Weight, build_cartan, preset


def frac9():
    return st.fractions(min_value=-9, max_value=9, max_denominator=12)


@pytest.fixture(scope="module")
def a1():
    return preset("A1")


@pytest.fixture(scope="module")
def a2():
    return preset("A2")


@pytest.fixture(scope="module")
def b2():
    return preset("B2")


class TestIdentity:
    def test_equality_and_hash_by_identity(self):
        a, b = preset("A2"), preset("A2")
        assert a == a and a != b
        assert hash(a) == hash(a)
        assert {a: 1, b: 2}[a] == 1


class TestBuild:
    def test_rejects_asymmetric_zero_pattern(self):
        with pytest.raises(ValueError):
            build_cartan([[2, -1], [0, 2]])

    def test_rejects_affine(self):
        # A1 affine: symmetrizable but the form is degenerate
        with pytest.raises(ValueError):
            build_cartan([[2, -2], [-2, 2]])

    def test_rejects_positive_offdiagonal(self):
        with pytest.raises(ValueError):
            build_cartan([[2, 1], [1, 2]])

    def test_rejects_bad_diagonal(self):
        with pytest.raises(ValueError):
            build_cartan([[1]])

    def test_symmetrizers_b2(self, b2):
        # d_i a_ij = d_j a_ji forces the 2:1 ratio
        assert b2.d == (2, 1)
        assert b2.cartan_matrix[0, 1] == -1 and b2.cartan_matrix[1, 0] == -2

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset("G9")


class TestGeometry:
    def test_a1_fundamental_weight(self, a1):
        (omega,) = a1.fundamental_weights
        assert omega.coords == (Fraction(1, 2),)
        assert a1.pairing(omega, omega) == Fraction(1, 2)

    def test_a2_pairings(self, a2):
        w1, w2 = a2.fundamental_weights
        a1_, a2_ = a2.simple_roots
        assert a2.pairing(a1_, a1_) == 2
        assert a2.pairing(a1_, a2_) == -1
        # <w_i, alpha_j^vee> = delta_ij
        for i, w in enumerate((w1, w2)):
            for j, a in enumerate((a1_, a2_)):
                assert a2.coroot_pairing(w, a) == (1 if i == j else 0)

    def test_rho_is_halfsum_of_positive_roots(self, a2):
        half = Fraction(1, 2) * sum(a2.positive_roots, a2.zero_weight())
        assert half == a2.rho

    def test_rho_is_halfsum_b2(self, b2):
        half = Fraction(1, 2) * sum(b2.positive_roots, b2.zero_weight())
        assert half == b2.rho

    def test_positive_root_counts(self, a1, a2, b2):
        assert len(a1.positive_roots) == 1
        assert len(a2.positive_roots) == 3
        assert len(b2.positive_roots) == 4

    def test_b2_root_lengths(self, b2):
        # two long roots of norm 4, two short of norm 2
        norms = sorted(float(b2.pairing(a, a)) for a in b2.positive_roots)
        assert norms == [2.0, 2.0, 4.0, 4.0]

    def test_orthonormal_frame(self, a2):
        B = np.array([[float(v) for v in row] for row in a2.bilinear])
        X = a2.orthonormal_frame
        assert np.allclose(X.T @ B @ X, np.eye(2), atol=1e-12)

    def test_two_theta_matches_frame_contraction(self, b2):
        # q^{2 theta(lam)} on weight xi must give 2<lam+rho,xi> - <xi,xi>
        lam = b2.from_fundamental([Fraction(3, 7), Fraction(-2, 3)])
        xi = b2.weight([1, -2])
        got = b2.two_theta(lam, xi)
        want = 2 * b2.pairing(lam + b2.rho, xi) - b2.pairing(xi, xi)
        assert got == want


class TestWeightArithmetic:
    @given(frac9(), frac9(), frac9(), frac9())
    @settings(max_examples=40, deadline=None)
    def test_pairing_bilinear_symmetric(self, x1, x2, y1, y2):
        dat = preset("B2")
        x = dat.weight([x1, x2])
        y = dat.weight([y1, y2])
        assert dat.pairing(x, y) == dat.pairing(y, x)
        z = dat.weight([y2, x1])
        assert dat.pairing(x + z, y) == dat.pairing(x, y) + dat.pairing(z, y)
        assert dat.pairing(Fraction(3, 4) * x, y) == Fraction(3, 4) * dat.pairing(x, y)

    def test_float_coords_are_exact_and_flagged(self, a1):
        w = a1.weight([0.1])
        assert w.coords[0] == Fraction(0.1)  # binary value, not 1/10
        assert not w.exact
        v = a1.weight([Fraction(1, 10)])
        assert v.exact
        assert v != w

    def test_equality_ignores_exactness_flag(self, a1):
        assert Weight((Fraction(1, 2),), exact=False) == Weight((Fraction(1, 2),))
        assert hash(Weight((Fraction(1, 2),), exact=False)) == hash(
            Weight((Fraction(1, 2),))
        )

    def test_cached_hash_agrees_across_arithmetic(self, a2):
        o1, o2 = a2.fundamental_weights
        x = (-3.217 * o1 + o2) - o2 + a2.simple_roots[0]
        y = a2.simple_roots[0] + (-3.217) * o1
        assert x is not y and x == y
        assert hash(x) == hash(y) == hash(x) == hash(x.coords)
        assert {x: 1}[y] == 1

    def test_height(self, a2):
        beta = a2.weight([2, 3])
        assert beta.height() == 5


class TestRegularity:
    def test_regular_and_not(self, a1):
        (omega,) = a1.fundamental_weights
        assert a1.is_regular(-7.31 * omega)
        assert not a1.is_regular(3 * omega)  # integral: on a wall of the shifted lattice
        # margin behavior: <lam,alpha^vee> = -3.96 is 0.04 from the integer -4
        lam = -3.96 * omega
        assert not a1.is_regular(lam, margin=0.05)
        assert a1.is_regular(lam, margin=0.03)

    def test_regular_b2_uses_all_roots(self, b2):
        # integral pairing against the long root only
        lam = b2.weight([Fraction(1, 2), Fraction(1, 4)])
        vals = [float(b2.coroot_pairing(lam, a)) for a in b2.positive_roots]
        assert any(abs(v - round(v)) < 1e-9 for v in vals)
        assert not b2.is_regular(lam)


class TestWeylDenominator:
    def test_sl2_example(self, a1):
        # delta at q^{2 lam + 2 rho}, lam = -5w, q = 1/2:
        # q^{2<lam+rho,rho>} (1 - q^{-2<lam+rho,alpha>}) = 16 (1 - 2^{-8})
        (omega,) = a1.fundamental_weights
        val = a1.weyl_denominator(-5 * omega, 0.5)
        assert val == pytest.approx(15.9375, abs=1e-12)

    def test_sl2_closed_form(self, a1):
        # independent oracle: lam = c w gives q^{(c+1)} (1 - q^{-2(c+1)})... in
        # coordinates: <lam+rho,rho> = (c+1)/2, <lam+rho,alpha> = c+1
        (omega,) = a1.fundamental_weights
        q = 0.37
        for c in (-5.2, -3.7, 2.3):
            lam = c * omega
            want = q ** (c + 1) * (1 - q ** (-2 * (c + 1)))
            assert a1.weyl_denominator(lam, q) == pytest.approx(want, rel=1e-12)

    def test_a2_product_oracle(self, a2):
        # brute product over the three positive roots with hand pairings
        lam = a2.from_fundamental([-4.3, -2.9])
        q = 0.6
        lr = lam + a2.rho
        want = q ** float(2 * a2.pairing(lr, a2.rho))
        for alpha in a2.positive_roots:
            want *= 1 - q ** float(-2 * a2.pairing(lr, alpha))
        assert a2.weyl_denominator(lam, q) == pytest.approx(want, rel=1e-13)
