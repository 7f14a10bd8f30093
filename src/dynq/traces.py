"""Weighted traces of vertex operators and their normalized matrix forms.

A k-leg operator Phi: M_mu -> M_mu (x) F(S) with zero total leg weight has
a weighted trace sum_beta Tr_{M_mu[mu-beta]}(Phi) q^{<mu-beta,xi>}, a vector
in the zero-weight block of F(S).  The series converges geometrically when
Re(xi) lies deep inside the negative Weyl chamber.  On top of the plain
trace this module builds the spin components against dual-operator
expectation values, the normalized trace matrix (Weyl denominator times
inverse fusion applied to the generating operator's trace), and its
Q-cascade renormalization, whose two-sided symmetry in (lam, mu) is what
the difference-operator checks consume.

In the universal traces mu alone fixes the vertex operators and the
Q-cascade; lam enters only through delta(lam), j_S(-lam-2rho)^{-1} and the
weights q^{<mu-beta, 2 lam + 2 rho>}.  So the mu-only work is done once and
kept in two bounded `cache.Memo` tables, and a lam sweep at fixed mu
builds no vertex operator and no Q-cascade:

- `_DIAGONAL_MEMO`, keyed on (S, mu, depth): per zero-weight basis vector
  of F(S), the source Verma and the trace diagonal Phi[n, :, n] of its
  vertex operator, a (Verma dim, dim F(S)) complex array.  An entry holds
  4 KB on A1 (V, V) at depth 30 (2 arrays of 31 x 4) and 106 KB on
  A2 (V1, V1*) at depth 12 (3 arrays of 252 x 9), so a full table of
  `cache.MAXSIZE` entries of the latter holds about 110 MB.
- `_X_MEMO`, keyed on (mu, S*): the cascade `x_operator`, a square
  complex matrix on F(S*): 256 B on A1 (V, V), 1.3 KB on A2 (V1, V1*).

Per lam, `universal_t` does the cone check, delta, the fusion inverse
(itself memoized per lam in `dynamical`) and the weighted sums of
`_trace_sum`, the one summation routine it shares with `weighted_trace`.
The module objects in the keys carry the datum and q.  Stored arrays are
read-only, so a caller's in-place write raises instead of corrupting the
next call.
"""

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .cache import Memo
from .cartan import Weight
from .dynamical import _fused, embedded_shifted, fusion, q_operator_inverse
from .qalgebra import (
    GradedMap, TruncatedVerma, dual_tuple, mirror_index, same_space, slot_classes,
)
from .vertexops import Intertwiner, expectation, vertex_operator


@dataclass(eq=False)
class TraceValue:
    """Trace result: zero-weight value plus truncation bookkeeping.

    value is a vector in F(S) for plain traces, a scalar for spin
    components, or a dim F(S) x dim F(S*) matrix for the normalized
    two-sided functions; all are supported exactly on zero-weight blocks.
    """
    value: np.ndarray
    depth_used: int
    tail_estimate: float


def _dims(S) -> list:
    return [V.dim for V in S]


def check_cone(datum, xi: Weight) -> None:
    """Reject xi unless <xi, alpha_i> <= -1 for every simple root."""
    for alpha in datum.simple_roots:
        p = float(datum.pairing(xi, alpha))
        if p > -1.0:
            raise ValueError(
                f"xi outside the convergence cone: <xi, {alpha}> = {p:.4g} "
                "> -1")


def _tail_fit(increments: np.ndarray, q: float, depth: int) -> float:
    # A q^d envelope fitted to the last three depth increments
    lo = max(0, depth - 2)
    A = 0.0
    for d in range(lo, depth + 1):
        A = max(A, float(increments[d]) / q ** d)
    return A * q ** depth


_DIAGONAL_MEMO = Memo()
_X_MEMO = Memo()


def _diagonal(phi: Intertwiner) -> np.ndarray:
    """Read-only (source dim, spin dim) array: row n is Phi[n, :, n].

    The truncated Verma bases of source and target agree on their common
    prefix, so source index n meets target row n.
    """
    n = np.arange(phi.source.dim)
    cube = phi.matrix.reshape(phi.target_verma.dim, phi.spin_dim, phi.source.dim)
    diag = cube[n, :, n]
    diag.flags.writeable = False
    return diag


def _trace_sum(src: TruncatedVerma, diag: np.ndarray, xi: Weight,
               depth: int) -> TraceValue:
    """sum_n q^{<wt_n, xi>} diag[n] over the basis of src down to `depth`.

    tail_estimate is the fitted geometric envelope A q^depth of the
    largest term per depth, the decay the cone check guarantees.
    """
    weights = src.qh(xi)  # q^{<mu-beta_n, xi>} per basis vector
    value = np.zeros(diag.shape[1], dtype=complex)
    inc = np.zeros(depth + 1)
    for n in range(src.dim):
        d = int(src.depths[n])
        if d > depth:
            continue
        term = weights[n] * diag[n]
        value += term
        inc[d] = max(inc[d], float(np.max(np.abs(term))))
    return TraceValue(value, depth, _tail_fit(inc, src.q, depth))


def weighted_trace(phi: Intertwiner, mu: Weight, xi: Weight,
                   depth: int) -> TraceValue:
    """Vector sum_beta Tr_{M_mu[mu-beta]}(Phi) q^{<mu-beta,xi>} in F(S).

    Reads the diagonal Verma blocks of Phi down to the given depth (see
    `_trace_sum`, which `universal_t` shares).
    """
    if phi.orientation != "primal":
        raise ValueError("weighted traces read Verma (x) spin targets")
    src = phi.source
    if src.hw != mu:
        raise ValueError("operator does not start at the stated Verma")
    if phi.target_verma.hw != mu:
        raise ValueError("legs carry nonzero total weight, trace undefined")
    if not 0 <= depth <= src.depth:
        raise ValueError(f"operator exact to depth {src.depth}, requested {depth}")
    check_cone(src.datum, xi)
    return _trace_sum(src, _diagonal(phi), xi, depth)


def spin_component(phi: Intertwiner, psi: Intertwiner, lam: Weight,
                   mu: Weight, xi: Weight, depth: int) -> complex:
    """Pair the weighted trace of Phi with the expectation value of Psi.

    Psi must be a dual-orientation operator out of M_lam whose legs mirror
    Phi's spin word and carry zero total weight; the pairing is slotwise
    dual-basis evaluation.
    """
    if psi.orientation != "dual":
        raise ValueError("second operator must target F(S*) (x) M")
    if psi.source.hw != lam:
        raise ValueError("dual operator does not start at the stated weight")
    if not psi.mu.is_zero():
        raise ValueError("dual legs carry nonzero total weight")
    want = dual_tuple(phi.spin)
    if len(psi.spin) != len(want) or not all(map(same_space, psi.spin, want)):
        raise ValueError("leg words are not dual to each other")
    H = weighted_trace(phi, mu, xi, depth)
    back = mirror_index(phi.spin[::-1])
    return complex(H.value[back] @ expectation(psi))


def _trace_diagonals(S: tuple, mu: Weight, depth: int) -> tuple:
    """Per zero-weight basis vector n of F(S): (column mirror[n] of the
    trace matrix, source Verma, `_diagonal` of the vertex operator with
    legs at the digits of n).  Built once per (S, mu, depth)."""
    def make():
        dims = _dims(S)
        mirror = mirror_index(S)
        zero = slot_classes(S, (range(len(S)),)).get((S[0].datum.zero_weight(),), ())
        out = []
        for n in zero:
            vlist = [np.eye(d, dtype=complex)[a]
                     for d, a in zip(dims, np.unravel_index(n, dims))]
            phi = vertex_operator(mu, S, vlist, depth)
            out.append((int(mirror[n]), phi.source, _diagonal(phi)))
        return tuple(out)

    return _DIAGONAL_MEMO.get((S, mu, int(depth)), make)


def universal_t(S, lam: Weight, mu: Weight, depth: int) -> TraceValue:
    """Normalized trace matrix of the generating k-point operator.

    Column indexed by the F(S*) basis functional (n_k,...,n_1) holds
    delta(q^{2 lam + 2 rho}) * j_S(-lam-2rho)^{-1} applied to the weighted
    trace of the operator with legs (n_1,...,n_k), at xi = 2 lam + 2 rho.
    Rows live in F(S), columns in F(S*); support is exactly the pair of
    zero-weight blocks.  A vanishing Weyl denominator short-circuits to the
    exact zero matrix.

    The vertex operators' trace diagonals are built once per (S, mu, depth)
    and kept in `_DIAGONAL_MEMO` under that key (4 KB an entry on A1 (V, V)
    at depth 30, 106 KB on A2 (V1, V1*) at depth 12).  Per lam this does
    the cone check, delta, the fusion inverse and the weighted sums
    (`_trace_sum`), and builds no vertex operator.
    """
    S = tuple(S)
    datum, q = S[0].datum, S[0].q
    df = int(np.prod(_dims(S)))
    M = np.zeros((df, df), dtype=complex)
    delta = datum.weyl_denominator(lam, q)
    if delta == 0.0:
        return TraceValue(M, depth, 0.0)
    xi = 2 * (lam + datum.rho)
    check_cone(datum, xi)
    jinv = np.linalg.inv(fusion(S, -lam - 2 * datum.rho).matrix)
    tails = [0.0]
    for col, src, diag in _trace_diagonals(S, mu, depth):
        H = _trace_sum(src, diag, xi, depth)
        M[:, col] = delta * (jinv @ H.value)
        tails.append(H.tail_estimate)
    scale = abs(delta) * float(np.linalg.norm(jinv, 2))
    return TraceValue(M, depth, scale * max(tails))


def t_vector(tv, S, vlist) -> np.ndarray:
    """Project the matrix form on spin vectors: a vector in F(S).

    vlist holds one vector per slot of S; the projection contracts the
    F(S*) side of the matrix through the dual-basis pairing.
    """
    M = tv.value if isinstance(tv, TraceValue) else tv
    return M @ reduce(np.kron, vlist)[mirror_index(S[::-1])]


def t_functional(tv, S, flist) -> np.ndarray:
    """Project the matrix form on dual functionals: a vector in F(S*).

    flist holds one functional per slot of S (coordinates in the dual
    basis, S order); internally they tensor in the reversed F(S*) order.
    """
    M = tv.value if isinstance(tv, TraceValue) else tv
    return M.T @ reduce(np.kron, flist[::-1])[mirror_index(S)]


def t_component(tv, S, vlist, flist) -> complex:
    """Scalar component against spin vectors and dual functionals."""
    M = tv.value if isinstance(tv, TraceValue) else tv
    return complex(reduce(np.kron, flist[::-1])[mirror_index(S)] @ M
                   @ reduce(np.kron, vlist)[mirror_index(S[::-1])])


def x_operator(mu: Weight, sstar) -> GradedMap:
    """Shifted Q-inverse cascade on F(S*).

    Slot j carries the Q-inverse of its module evaluated at mu plus the
    total weight of all slots to its left; the factors commute, so the
    product order is immaterial.  It does not depend on lam: it is built
    once per (mu, S*) and kept in `_X_MEMO` under that key, with a
    read-only matrix (256 B on A1 (V, V)*, 1.3 KB on A2 (V1, V1*)*).
    """
    mods = tuple(sstar)

    def make():
        T = _fused(mods)
        out = np.eye(T.dim, dtype=complex)
        for j, V in enumerate(mods):
            def fn(z, V=V):
                return q_operator_inverse(V, z).matrix
            out = embedded_shifted(T, fn, (j,), tuple(range(j)), mu, sign=+1) @ out
        out.flags.writeable = False
        return GradedMap(T, T, out)

    return _X_MEMO.get((mu, mods), make)


def universal_f(S, lam: Weight, mu: Weight, depth: int) -> TraceValue:
    """Q-renormalized trace matrix: the cascade acting on the F(S*) side.

    Per lam this is `universal_t`'s lam-dependent work and one product
    with the cascade `x_operator(mu, S*)`.  The mu-only work, the trace
    diagonals (`_DIAGONAL_MEMO`, per (S, mu, depth)) and the cascade
    (`_X_MEMO`, per (mu, S*)), is done once, so a lam sweep at fixed mu
    builds no vertex operator and no Q-inverse.
    """
    S = tuple(S)
    tv = universal_t(S, lam, mu, depth)
    X = x_operator(mu, dual_tuple(S)).matrix
    return TraceValue(tv.value @ X.T, depth,
                      tv.tail_estimate * float(np.linalg.norm(X, 2)))
