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
"""

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .cartan import Weight
from .dynamical import _fused, embedded_shifted, fusion, q_operator_inverse
from .qalgebra import GradedMap, dual_tuple, mirror_index, same_space, slot_classes
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


def weighted_trace(phi: Intertwiner, mu: Weight, xi: Weight,
                   depth: int) -> TraceValue:
    """Vector sum_beta Tr_{M_mu[mu-beta]}(Phi) q^{<mu-beta,xi>} in F(S).

    Reads the diagonal Verma blocks of Phi down to the given depth; the
    truncated Verma bases at different depths agree on their common prefix,
    so source index n meets target row n.  tail_estimate is the fitted
    geometric envelope A q^depth, the decay the cone check guarantees.
    """
    if phi.orientation != "primal":
        raise ValueError("weighted traces read Verma (x) spin targets")
    src = phi.source
    if src.hw != mu:
        raise ValueError("operator does not start at the stated Verma")
    if phi.target_verma.hw != mu:
        raise ValueError("legs carry nonzero total weight, trace undefined")
    if depth > src.depth:
        raise ValueError(f"operator exact to depth {src.depth}, requested {depth}")
    datum, q = src.datum, src.q
    check_cone(datum, xi)
    dt = phi.target_verma.dim
    df = phi.spin_dim
    cube = phi.matrix.reshape(dt, df, src.dim)
    weights = src.qh(xi)  # q^{<mu-beta_n, xi>} per basis vector
    value = np.zeros(df, dtype=complex)
    inc = np.zeros(depth + 1)
    for n in range(src.dim):
        d = int(src.depths[n])
        if d > depth:
            continue
        term = weights[n] * cube[n, :, n]
        value += term
        inc[d] = max(inc[d], float(np.max(np.abs(term))))
    return TraceValue(value, depth, _tail_fit(inc, q, depth))


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


def universal_t(S, lam: Weight, mu: Weight, depth: int) -> TraceValue:
    """Normalized trace matrix of the generating k-point operator.

    Column indexed by the F(S*) basis functional (n_k,...,n_1) holds
    delta(q^{2 lam + 2 rho}) * j_S(-lam-2rho)^{-1} applied to the weighted
    trace of the operator with legs (n_1,...,n_k), at xi = 2 lam + 2 rho.
    Rows live in F(S), columns in F(S*); support is exactly the pair of
    zero-weight blocks.  A vanishing Weyl denominator short-circuits to the
    exact zero matrix.
    """
    S = tuple(S)
    datum, q = S[0].datum, S[0].q
    dims = _dims(S)
    df = int(np.prod(dims))
    M = np.zeros((df, df), dtype=complex)
    delta = datum.weyl_denominator(lam, q)
    if delta == 0.0:
        return TraceValue(M, depth, 0.0)
    xi = 2 * (lam + datum.rho)
    check_cone(datum, xi)
    jinv = fusion(S, -lam - 2 * datum.rho).gmap.inverse().matrix
    tails = [0.0]
    mirror = mirror_index(S)
    zero = slot_classes(S, (range(len(S)),)).get((datum.zero_weight(),), ())
    for n in zero:
        vlist = [np.eye(d, dtype=complex)[a]
                 for d, a in zip(dims, np.unravel_index(n, dims))]
        phi = vertex_operator(mu, S, vlist, depth)
        H = weighted_trace(phi, mu, xi, depth)
        M[:, mirror[n]] = delta * (jinv @ H.value)
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
    product order is immaterial.
    """
    mods = tuple(sstar)
    T = _fused(mods)
    out = np.eye(T.dim, dtype=complex)
    for j, V in enumerate(mods):
        def fn(z, V=V):
            return q_operator_inverse(V, z).matrix
        out = embedded_shifted(T, fn, (j,), tuple(range(j)), mu, sign=+1) @ out
    return GradedMap(T, T, T.datum.zero_weight(), out)


def universal_f(S, lam: Weight, mu: Weight, depth: int) -> TraceValue:
    """Q-renormalized trace matrix: the cascade acting on the F(S*) side."""
    S = tuple(S)
    tv = universal_t(S, lam, mu, depth)
    X = x_operator(mu, dual_tuple(S)).matrix
    return TraceValue(tv.value @ X.T, depth,
                      tv.tail_estimate * float(np.linalg.norm(X, 2)))
