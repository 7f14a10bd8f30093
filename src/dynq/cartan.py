"""Root-system data for the low-rank algebras handled numerically.

A `Weight` holds exact rational coordinates in the simple-root basis and
`CartanDatum.pairing` pairs two of them exactly; floats appear only at the
q-exponentiation boundary.  This is the one module that does arithmetic over
Fraction.  Exact weights live at module and op granularity: highest weights,
evaluation points, and one per distinct weight of a module.  Data indexed by
basis vector is not computed here one vector at a time: a module carries
integer lattice offsets from its first weight, and `qalgebra` reads q-powers
and weight classes off them (`WeightModule.offsets`, `K`, `qh`,
`slot_classes`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

import numpy as np
import scipy.linalg


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, (float, np.floating)):
        # exact: every finite binary float is rational
        return Fraction(float(x))
    raise TypeError(f"cannot coerce {type(x).__name__} to an exact coordinate")


@dataclass(frozen=True, eq=False)
class Weight:
    """Element of h* in simple-root coordinates, exact.

    A float coordinate enters as the binary rational it stands for.
    """

    coords: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(_as_fraction(c) for c in self.coords))

    def __eq__(self, other):
        return isinstance(other, Weight) and self.coords == other.coords

    def __hash__(self):
        # weights key every block and memo table; hashing Fraction
        # coordinates with large denominators is slow, so do it once
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash(self.coords))
            return self._hash

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords, strict=True)))

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a - b for a, b in zip(self.coords, other.coords, strict=True)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.coords))

    def __rmul__(self, scalar) -> "Weight":
        s = _as_fraction(scalar)
        return Weight(tuple(s * a for a in self.coords))

    __mul__ = __rmul__

    @property
    def rank(self) -> int:
        return len(self.coords)

    def height(self) -> Fraction:
        """Sum of simple-root coordinates."""
        return sum(self.coords, Fraction(0))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __repr__(self):
        return f"wt({','.join(str(c) for c in self.coords)})"


def _frac_solve(A: list[list[Fraction]], rhs: list[list[Fraction]]):
    """Solve A X = rhs exactly by Gaussian elimination over Fraction."""
    n = len(A)
    m = [row[:] + r[:] for row, r in zip(A, rhs)]
    w = len(m[0])
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [row[n:w] for row in m]


@dataclass(eq=False)
class CartanDatum:
    """Finite-type Cartan data plus the derived h* geometry.

    bilinear[i][j] = d_i * a_ij is the symmetrized form on simple roots;
    pairings of arbitrary weights stay exact rationals.  Equality and hashing
    go by identity, so a datum can key a memo.
    """

    cartan_matrix: np.ndarray
    d: tuple[int, ...]
    rank: int = field(init=False)
    bilinear: tuple = field(init=False)
    simple_roots: tuple = field(init=False)
    fundamental_weights: tuple = field(init=False)
    rho: Weight = field(init=False)
    positive_roots: tuple = field(init=False)
    orthonormal_frame: np.ndarray = field(init=False)

    def __post_init__(self):
        A = self.cartan_matrix
        n = A.shape[0]
        self.rank = n
        self.bilinear = tuple(
            tuple(Fraction(self.d[i] * int(A[i, j])) for j in range(n)) for i in range(n)
        )
        eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        self.simple_roots = tuple(Weight(tuple(row)) for row in eye)
        # fundamental weights solve <w_i, a_j^vee> = delta_ij, i.e. columns of A^{-1}
        Afrac = [[Fraction(int(A[i, j])) for j in range(n)] for i in range(n)]
        Ainv = _frac_solve(Afrac, eye)
        self.fundamental_weights = tuple(
            Weight(tuple(Ainv[k][i] for k in range(n))) for i in range(n)
        )
        rho = self.fundamental_weights[0]
        for w in self.fundamental_weights[1:]:
            rho = rho + w
        self.rho = rho
        self.positive_roots = self._reflection_closure()
        B = np.array([[float(b) for b in row] for row in self.bilinear])
        L = scipy.linalg.cholesky(B, lower=True)
        # columns x_i with x_i^T B x_j = delta_ij
        self.orthonormal_frame = scipy.linalg.inv(L).T

    def _reflection_closure(self):
        A = self.cartan_matrix
        n = self.rank
        seen = {tuple(int(i == j) for j in range(n)) for i in range(n)}
        frontier = list(seen)
        while frontier:
            nxt = []
            for b in frontier:
                for i in range(n):
                    c = sum(int(A[i, k]) * b[k] for k in range(n))
                    rb = list(b)
                    rb[i] -= c
                    rb = tuple(rb)
                    if rb not in seen:
                        seen.add(rb)
                        nxt.append(rb)
            frontier = nxt
            if len(seen) > 4 * n * n + 100:
                raise ValueError("reflection orbit does not close; not finite type")
        pos = [b for b in seen if all(v >= 0 for v in b) and any(v > 0 for v in b)]
        pos.sort(key=lambda b: (sum(b), b))
        return tuple(Weight(tuple(Fraction(v) for v in b)) for b in pos)

    # -- h* geometry -------------------------------------------------------

    def weight(self, coords) -> Weight:
        return Weight(tuple(coords))

    def zero_weight(self) -> Weight:
        return Weight(tuple(Fraction(0) for _ in range(self.rank)))

    def from_fundamental(self, coeffs) -> Weight:
        """Weight with the given fundamental-weight coordinates."""
        out = self.zero_weight()
        for c, w in zip(coeffs, self.fundamental_weights, strict=True):
            out = out + _as_fraction(c) * w
        return out

    def pairing(self, x: Weight, y: Weight) -> Fraction:
        tot = Fraction(0)
        for i, a in enumerate(x.coords):
            if a == 0:
                continue
            row = self.bilinear[i]
            for j, b in enumerate(y.coords):
                if b != 0:
                    tot += a * b * row[j]
        return tot

    def coroot_pairing(self, lam: Weight, alpha: Weight) -> Fraction:
        """<lam, alpha^vee> = 2<lam,alpha>/<alpha,alpha>."""
        return 2 * self.pairing(lam, alpha) / self.pairing(alpha, alpha)

    def is_regular(self, lam: Weight, margin: float = 0.05) -> bool:
        """True when every coroot pairing keeps `margin` away from the integers."""
        for alpha in self.positive_roots:
            v = float(self.coroot_pairing(lam, alpha))
            if abs(v - round(v)) < margin:
                return False
        return True

    def is_dominant_integral(self, lam: Weight) -> bool:
        for alpha in self.simple_roots:
            v = self.coroot_pairing(lam, alpha)
            if v.denominator != 1 or v < 0:
                return False
        return True

    def two_theta(self, lam: Weight, xi: Weight) -> Fraction:
        """Exponent of the q^{2 theta(lam)} scalar on a weight-xi vector.

        theta(lam) = lam + rho - (1/2) sum_i x_i^2 acts on weight xi by
        q^{2<lam+rho,xi> - <xi,xi>}; the frame term is just the squared norm.
        """
        return 2 * self.pairing(lam + self.rho, xi) - self.pairing(xi, xi)

    def weyl_denominator(self, lam: Weight, q: float) -> float:
        """delta evaluated at q^{2 lam + 2 rho}."""
        lr = lam + self.rho
        out = q ** float(2 * self.pairing(lr, self.rho))
        for alpha in self.positive_roots:
            out *= 1.0 - q ** float(-2 * self.pairing(lr, alpha))
        return out


def _symmetrizers(A: np.ndarray) -> tuple[int, ...]:
    n = A.shape[0]
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i == j or A[i, j] == 0:
                    continue
                want = d[i] * Fraction(int(A[i, j]), int(A[j, i]))
                if d[j] is None:
                    d[j] = want
                    stack.append(j)
                elif d[j] != want:
                    raise ValueError("Cartan matrix is not symmetrizable")
    den = 1
    for v in d:
        den = den * v.denominator // gcd(den, v.denominator)
    ints = [int(v * den) for v in d]
    g = 0
    for v in ints:
        g = gcd(g, v)
    return tuple(v // g for v in ints)


def build_cartan(cartan_matrix, d=None) -> CartanDatum:
    """Validate a Cartan matrix, find symmetrizers, and build the datum.

    Rejects matrices that are not symmetrizable or not of finite type.
    """
    A = np.asarray(cartan_matrix, dtype=int)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("Cartan matrix must be square")
    n = A.shape[0]
    for i in range(n):
        if A[i, i] != 2:
            raise ValueError("Cartan matrix needs 2 on the diagonal")
        for j in range(n):
            if i != j:
                if A[i, j] > 0:
                    raise ValueError("off-diagonal Cartan entries must be <= 0")
                if (A[i, j] == 0) != (A[j, i] == 0):
                    raise ValueError("zero pattern of a Cartan matrix must be symmetric")
    dd = _symmetrizers(A) if d is None else tuple(int(v) for v in d)
    if any(v <= 0 for v in dd):
        raise ValueError("symmetrizers must be positive")
    for i in range(n):
        for j in range(n):
            if dd[i] * A[i, j] != dd[j] * A[j, i]:
                raise ValueError("given symmetrizers do not symmetrize the matrix")
    B = np.array([[dd[i] * A[i, j] for j in range(n)] for i in range(n)], dtype=float)
    if np.min(scipy.linalg.eigvalsh(B)) <= 1e-9:
        raise ValueError("symmetrized form is not positive definite; not finite type")
    return CartanDatum(cartan_matrix=A, d=dd)


_PRESETS = {
    "A1": ([[2]], None),
    "A2": ([[2, -1], [-1, 2]], None),
    "B2": ([[2, -1], [-2, 2]], None),
}


def preset(name: str) -> CartanDatum:
    """Named low-rank data: A1, A2, B2."""
    try:
        A, d = _PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown algebra preset {name!r}; choose from {sorted(_PRESETS)}")
    return build_cartan(A, d)
