"""Test-side operator forms the library itself only indexes with, and
second routes kept to cross-check the library's one route."""

import numpy as np

from dynq.dynamical import _fused, embedded_shifted, exchange, fusion
from dynq.qalgebra import (
    GradedMap, WeightModule, dual_module, flip_index, mirror_index,
    tensor_module, trivial_module,
)

_DECOMP_TOL = 1e-9


def flip_matrix(V: WeightModule, W: WeightModule) -> np.ndarray:
    """Permutation matrix of v (x) w -> w (x) v, domain index a*dimW + b."""
    return np.eye(V.dim * W.dim)[flip_index(V, W)]


def pairing_matrix(S) -> np.ndarray:
    """Matrix E of the slotwise dual-basis pairing F(S) x F(S*) -> C.

    F(S*) reverses the slot order, so the basis functional (a_k,...,a_1)
    pairs to 1 exactly with the basis vector (a_1,...,a_k) of F(S):
    E[a, m] = 1 iff m = mirror_index(S)[a].
    """
    mirror = mirror_index(S)
    return np.eye(mirror.size)[mirror]


# ---------------------------------------------------------------------------
# plain (co)evaluations; dyn_structure builds its own rows of these


def eval_map(V: WeightModule, dual: WeightModule = None) -> GradedMap:
    """e_V : V* (x) V -> 1, f (x) v -> f(v)."""
    Vd = dual or dual_module(V)
    T = tensor_module(Vd, V)
    row = np.eye(V.dim, dtype=complex).reshape(1, -1)
    return GradedMap(T, trivial_module(V.datum, V.q), V.datum.zero_weight(), row)


def coeval_map(V: WeightModule, dual: WeightModule = None) -> GradedMap:
    """iota_V : 1 -> V (x) V*, 1 -> sum_b b (x) b*."""
    Vd = dual or dual_module(V)
    T = tensor_module(V, Vd)
    col = np.eye(V.dim, dtype=complex).reshape(-1, 1)
    return GradedMap(trivial_module(V.datum, V.q), T, V.datum.zero_weight(), col)


def eval_twisted(V: WeightModule, dual: WeightModule = None) -> GradedMap:
    """e~_V : V (x) V* -> 1, v (x) f -> f(q^{2 rho} v)."""
    Vd = dual or dual_module(V)
    T = tensor_module(V, Vd)
    row = np.diag(V.qh(2 * V.datum.rho)).astype(complex).reshape(1, -1)
    return GradedMap(T, trivial_module(V.datum, V.q), V.datum.zero_weight(), row)


def coeval_twisted(V: WeightModule, dual: WeightModule = None) -> GradedMap:
    """iota~_V : 1 -> V* (x) V, 1 -> sum_b b* (x) q^{-2 rho} b."""
    Vd = dual or dual_module(V)
    T = tensor_module(Vd, V)
    col = np.diag(1.0 / V.qh(2 * V.datum.rho)).astype(complex).reshape(-1, 1)
    return GradedMap(trivial_module(V.datum, V.q), T, V.datum.zero_weight(), col)


# ---------------------------------------------------------------------------
# weight-shifted pair application


def _both_orders(lead: np.ndarray, other: np.ndarray) -> np.ndarray:
    """lead @ other, after checking that other @ lead agrees with it."""
    one = lead @ other
    two = other @ lead
    scale = max(1.0, float(np.max(np.abs(one))))
    if np.max(np.abs(one - two)) > _DECOMP_TOL * scale:
        raise ArithmeticError("shifted-pair factorization orders disagree")
    return one


def pair_first_shifted(fnA, B_mat: np.ndarray, V: WeightModule, W: WeightModule,
                       lam, sign: int = -1) -> np.ndarray:
    """Matrix of (A(lam + sign*h^(2)) (x) B) on V (x) W.

    fnA(mu) must return a dim(V) square matrix.  Both factorization orders are
    formed and must agree; B_mat has to preserve W-weights for that.
    """
    T = _fused((V, W))
    nv = len(V.slots)
    lead = embedded_shifted(T, fnA, tuple(range(nv)),
                            tuple(range(nv, len(T.slots))), lam, sign)
    return _both_orders(lead, np.kron(np.eye(V.dim), B_mat))


def pair_second_shifted(A_mat: np.ndarray, fnB, V: WeightModule, W: WeightModule,
                        lam, sign: int = -1) -> np.ndarray:
    """Matrix of (A (x) B(lam + sign*h^(1))) on V (x) W."""
    T = _fused((V, W))
    nv = len(V.slots)
    lead = embedded_shifted(T, fnB, tuple(range(nv, len(T.slots))),
                            tuple(range(nv)), lam, sign)
    return _both_orders(lead, np.kron(A_mat, np.eye(W.dim)))


def dressed_exchange(S, T, lam, depth: int = 2, tol: float = 1e-10) -> np.ndarray:
    """R_{S,T}(lam) of two words by the fusion cocycle: the exchange of the
    fused pair (F(S), F(T)) framed by each word's fusion at shifted weights,
    (j_S^{-1} (x) j_T(lam - h^(1))^{-1}) R_{F(S),F(T)} (j_S(lam - h^(2)) (x) j_T).
    """
    FS, FT = _fused(S), _fused(T)
    core = exchange((FS,), (FT,), lam, depth, tol).matrix
    jS = lambda mu: fusion(S, mu, depth, tol).matrix
    jT = lambda mu: fusion(T, mu, depth, tol).matrix
    pre = pair_first_shifted(jS, jT(lam), FS, FT, lam)
    post = pair_second_shifted(
        np.linalg.inv(jS(lam)), lambda mu: np.linalg.inv(jT(mu)), FS, FT, lam)
    return post @ core @ pre
