"""Quantum vertex operators on truncated Verma modules.

A primal operator of weight mu maps M_lam into M_{lam-mu} (x) F(S) and is
pinned by its expectation value, the leading coefficient vector in F(S).
Construction is a singular-vector solve at the top weight followed by
extension down the Verma by lowering operators.  Dual operators target
F(S*) (x) M and are obtained by inverting the braiding on each leg.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

from .cartan import CartanDatum, Weight
from .qalgebra import (
    GradedMap, TruncatedVerma, WeightModule, build_verma, flip_matrix,
    r_matrix, tensor_many, tensor_module, unitriangular_solve,
)


def weight_of(V: WeightModule, v: np.ndarray, tol: float = 1e-12) -> Weight:
    """Weight of a homogeneous vector; rejects mixed-weight input.

    Support is read relative to the largest entry, so roundoff-sized
    components in other weight spaces do not count.
    """
    v = np.asarray(v, dtype=complex)
    if v.shape != (V.dim,):
        raise ValueError("vector does not live in the given module")
    big = float(np.max(np.abs(v))) if v.size else 0.0
    sup = np.nonzero(np.abs(v) > tol * big)[0]
    if sup.size == 0:
        raise ValueError("zero vector has no weight")
    wts = {V.weights[i] for i in sup}
    if len(wts) > 1:
        raise ValueError("vector is not homogeneous")
    return next(iter(wts))


def _raise_budget(V: WeightModule, nu: Weight) -> int:
    # max height a component can sit above nu inside wts(V)
    best = 0
    for sig in V.weight_set():
        d = sig - nu
        if all(c == int(c) and c >= 0 for c in d.coords):
            best = max(best, int(d.height()))
    return best


def singular_vector(lam: Weight, V: WeightModule, v: np.ndarray, depth: int,
                    target: TruncatedVerma = None, tol: float = 1e-10):
    """Weight-lam vector in M_{lam-mu} (x) V killed by all raising operators.

    v must be homogeneous of weight mu; the component on the top Verma
    block is exactly m (x) v.  Returns (vector, target Verma).  Solved one
    weight block at a time, shallowest first.
    """
    datum, q = V.datum, V.q
    if not datum.is_regular(lam):
        raise ValueError(f"non-regular highest weight {lam}")
    if not np.any(np.abs(np.asarray(v)) > 0):
        if target is None:
            raise ValueError("zero vector needs an explicit target Verma")
        return np.zeros(target.dim * V.dim, dtype=complex), target
    mu = weight_of(V, v)
    if target is None:
        target = build_verma(datum, q, lam - mu, depth)
    elif target.hw != lam - mu:
        raise ValueError("target Verma has the wrong highest weight")
    return _singular_in(tensor_module(target, V), target, V, v, mu, tol), target


def _singular_in(T: WeightModule, target: TruncatedVerma, V: WeightModule,
                 v: np.ndarray, mu: Weight, tol: float) -> np.ndarray:
    """The singular vector of `singular_vector`, inside a prebuilt
    T = target (x) V; v is nonzero of weight mu."""
    datum = V.datum
    dv = V.dim
    hwp = target.hw

    # admissible raises: beta with V[mu+beta] nonzero, by height
    betas = {}
    for sig in V.weight_set():
        d = sig - mu
        if all(c == int(c) and c >= 0 for c in d.coords) and d.height() > 0:
            betas.setdefault(d.height(), []).append(d)
    if betas and max(betas) > target.depth:
        raise ValueError("target truncation too shallow for this spin vector")

    u = np.zeros(T.dim, dtype=complex)
    for m_idx in target.block(hwp):
        u[m_idx * dv: m_idx * dv + dv] = v

    def tindex(mb, vb):
        return [m * dv + w for m in mb for w in vb]

    for h in sorted(betas):
        for beta in betas[h]:
            vb = V.block(mu + beta)
            mb = target.block(hwp - beta)
            cols = tindex(mb, vb)
            if len(cols) == 0:
                continue
            rows_all, rhs_all = [], []
            for i, alpha in enumerate(datum.simple_roots):
                mrows = target.block(hwp - beta + alpha)
                rows = tindex(mrows, vb)
                if not rows:
                    continue
                rows_all.append(T.E[i][np.ix_(rows, cols)])
                rhs_all.append(-(T.E[i][rows, :] @ u))
            A = np.vstack(rows_all)
            b = np.concatenate(rhs_all)
            sol, _, rank, _ = scipy.linalg.lstsq(A, b, lapack_driver="gelsy")
            if rank < len(cols):
                sv = np.linalg.svd(A, compute_uv=False)
                raise ValueError(
                    f"singular-vector system rank deficient at raise {beta}; "
                    f"smallest singular value {sv[-1]:.3e} (non-regular "
                    "highest weight?)")
            resid = np.linalg.norm(A @ sol - b)
            if resid > tol * (1.0 + np.linalg.norm(b)):
                raise ValueError(f"singular-vector solve inconsistent: {resid:.2e}")
            u[cols] = sol
    return u


@dataclass(eq=False)
class Intertwiner:
    """Linear map out of a truncated Verma commuting with the algebra action.

    orientation 'primal': source -> target_verma (x) F(spin);
    orientation 'dual':   source -> F(spin) (x) target_verma.
    matrix rows follow the row-major flattening of the target tensor.
    The target tensor module itself is built on first access of `target`
    and cached; the matrix and `spin_dim` never need it.
    """
    orientation: str
    source: TruncatedVerma
    target_verma: TruncatedVerma
    spin: tuple
    mu: Weight
    nus: tuple
    matrix: np.ndarray
    exact_depth: int = field(default=0)

    @property
    def spin_dim(self) -> int:
        return math.prod(V.dim for V in self.spin)

    @cached_property
    def target(self) -> WeightModule:
        if self.orientation == "primal":
            return tensor_many((self.target_verma,) + self.spin)
        return tensor_many(self.spin + (self.target_verma,))

    def as_graded_map(self) -> GradedMap:
        return GradedMap(self.source, self.target,
                         self.source.datum.zero_weight(), self.matrix)


def _extend_by_lowering(src: TruncatedVerma, T: WeightModule, u: np.ndarray,
                        tol: float) -> np.ndarray:
    """Fill in all columns of an operator from its top-column value u.

    Each deeper source basis vector is expressed through lowering operators
    applied one level up (stacked solve), and the operator follows along.
    """
    r = src.datum.rank
    phi = np.zeros((T.dim, src.dim), dtype=complex)
    phi[:, 0] = u
    for h in range(1, src.depth + 1):
        ch = np.where(src.depths == h)[0]
        cp = np.where(src.depths == h - 1)[0]
        if ch.size == 0:
            break
        G = np.hstack([src.F[i][np.ix_(ch, cp)] for i in range(r)])
        sol, _, rank, _ = scipy.linalg.lstsq(
            G, np.eye(ch.size, dtype=complex), lapack_driver="gelsy")
        if rank < ch.size:
            raise ValueError(f"lowering operators do not span depth {h}")
        if np.max(np.abs(G @ sol - np.eye(ch.size))) > tol * max(
                1.0, float(np.max(np.abs(G)))):
            raise ValueError(f"column extension inconsistent at depth {h}")
        B = np.hstack([T.F[i] @ phi[:, cp] for i in range(r)])
        phi[:, ch] = B @ sol
    return phi


def _one_point(lam: Weight, V: WeightModule, v: np.ndarray, mu: Weight,
               src: TruncatedVerma, tgt_depth: int, tol: float):
    """One leg out of src, v of weight mu; one tensor M_{lam-mu} (x) V
    serves both the singular-vector solve and the column extension."""
    tgt = build_verma(V.datum, V.q, lam - mu, tgt_depth)
    T = tensor_module(tgt, V)
    u = _singular_in(T, tgt, V, v, mu, tol)
    return _extend_by_lowering(src, T, u, tol), tgt


def vertex_operator(lam: Weight, S: tuple, vlist, depth: int,
                    tol: float = 1e-10) -> Intertwiner:
    """k-point operator: legs applied right to left, each shifting the weight.

    The j-th leg (1-based, rightmost = k) starts from lam_j = lam - sum of
    the weights of the later legs; every lam_j must be regular.  Each leg
    builds one tensor module; the operator's full target M (x) F(S) is
    built only when `target` is first read.
    """
    S = tuple(S)
    k = len(S)
    if k == 0 or len(vlist) != k:
        raise ValueError("need one vector per spin module")
    datum, q = S[0].datum, S[0].q
    nus = tuple(weight_of(S[j], vlist[j]) for j in range(k))

    src = build_verma(datum, q, lam, depth)
    cur = src
    cur_lam = lam
    op = None
    rest_dim = 1
    for j in reversed(range(k)):
        if not datum.is_regular(cur_lam):
            raise ValueError(f"non-regular intermediate weight lam_{j + 1} = {cur_lam}")
        up = _raise_budget(S[j], nus[j])
        phi, tgt = _one_point(cur_lam, S[j], vlist[j], nus[j], cur,
                              cur.depth + max(up, 1), tol)
        op = phi if op is None else np.kron(phi, np.eye(rest_dim)) @ op
        rest_dim *= S[j].dim
        cur = tgt
        cur_lam = cur_lam - nus[j]
    return Intertwiner("primal", src, cur, S, lam - cur.hw, nus, op,
                       exact_depth=depth)


def dual_vertex_operator(lam: Weight, sstar: tuple, glist, depth: int,
                         tol: float = 1e-10) -> Intertwiner:
    """Composite of braided one-point legs, target F(sstar) (x) M.

    Legs are applied left to right: leg j targets sstar[j] (x) M and is the
    braiding inverse applied to a primal one-point operator.  The full
    target F(sstar) (x) M is built only when `target` is first read.
    """
    sstar = tuple(sstar)
    m = len(sstar)
    if m == 0 or len(glist) != m:
        raise ValueError("need one vector per spin module")
    datum, q = sstar[0].datum, sstar[0].q
    nus = tuple(weight_of(sstar[j], glist[j]) for j in range(m))

    src = build_verma(datum, q, lam, depth)
    cur = src
    cur_lam = lam
    op = None
    left_dim = 1
    for j in range(m):
        if not datum.is_regular(cur_lam):
            raise ValueError(f"non-regular intermediate weight lam_{j + 1} = {cur_lam}")
        W = sstar[j]
        span = W.height_span()
        phi, tgt = _one_point(cur_lam, W, glist[j], nus[j], cur,
                              cur.depth + 2 * max(span, 1), tol)
        Tl = tensor_module(W, tgt)
        R = r_matrix(W, tgt, Tl)
        psi = unitriangular_solve(R.matrix, flip_matrix(tgt, W) @ phi, span)
        op = psi if op is None else np.kron(np.eye(left_dim), psi) @ op
        left_dim *= W.dim
        cur = tgt
        cur_lam = cur_lam - nus[j]
    return Intertwiner("dual", src, cur, sstar, lam - cur.hw, nus, op,
                       exact_depth=depth)


def expectation(phi: Intertwiner) -> np.ndarray:
    """Leading coefficient vector: pair the target Verma leg with m*."""
    col = phi.matrix[:, 0]
    if phi.orientation == "primal":
        return col[:phi.spin_dim].copy()
    return col[::phi.target_verma.dim].copy()


def intertwiner_residual(phi: Intertwiner) -> float:
    """Max relative commutation defect with every generator.

    On the lowering side truncation genuinely drops terms at both
    boundaries: source columns at the deepest level map to zero under F
    even though the target image is nonzero, and rows at the target Verma
    boundary can miss contributions.  Both are skipped.
    """
    T, M = phi.target, phi.source
    df = phi.spin_dim
    if phi.orientation == "primal":
        vdepth = np.repeat(phi.target_verma.depths, df)
    else:
        vdepth = np.tile(phi.target_verma.depths, df)
    ok_rows = vdepth <= phi.target_verma.depth - 1
    ok_cols = M.depths <= M.depth - 1
    worst = 0.0
    for i in range(M.datum.rank):
        for X, Y, needs_mask in ((M.E[i], T.E[i], False), (M.F[i], T.F[i], True)):
            res = Y @ phi.matrix - phi.matrix @ X
            scale = max(1.0, float(np.max(np.abs(Y @ phi.matrix))))
            if needs_mask:
                res = res[np.ix_(ok_rows, ok_cols)]
            if res.size:
                worst = max(worst, float(np.max(np.abs(res))) / scale)
    return worst
