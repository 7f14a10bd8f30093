"""Quantum vertex operators on truncated Verma modules.

A primal operator of weight mu maps M_lam into M_{lam-mu} (x) F(S) and is
pinned by its expectation value, the leading coefficient vector in F(S).
Construction is a singular-vector solve at the top weight followed by
extension down the Verma by lowering operators.  A leg applies the coproduct
of E_i and F_i to (Verma, spin) arrays and never builds its tensor module;
the lowering solves depend only on the Verma skeleton and are memoized.
Legs are applied right to left along one chain, which `fusion` walks for all
columns at once so that columns sharing their rightmost legs share them.
Dual operators target F(S*) (x) M and are obtained by inverting the braiding
on each leg.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

from .cache import Memo
from .cartan import CartanDatum, Weight
from .qalgebra import (
    GradedMap, TruncatedVerma, WeightModule, build_verma, flip_index,
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


def _raises(V: WeightModule, mu: Weight) -> dict:
    """The raises beta > 0 with V[mu + beta] nonzero, by height, for a
    weight mu of V.  Each beta is an integer simple-root vector read off V's
    offsets; within a height they come in order of first appearance."""
    x = V.offsets - V.offsets[V.block(mu)[0]]
    out = {}
    for b in dict.fromkeys(map(tuple, x.tolist())):
        if min(b) >= 0 and sum(b) > 0:
            out.setdefault(sum(b), []).append(b)
    return out


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
    return _singular_in(target, V, v, mu, tol).ravel(), target


def _singular_in(target: TruncatedVerma, V: WeightModule, v: np.ndarray,
                 mu: Weight, tol: float) -> np.ndarray:
    """The singular vector of `singular_vector` as a (target.dim, V.dim)
    array; v is nonzero of weight mu.

    Delta(E_i) = E_i (x) K_i + 1 (x) E_i acts on the array directly.  The
    unknowns of a raise beta sit on the Verma block hw - beta and their
    equations on hw - beta + alpha_i, so only E_i (x) K_i couples them.
    """
    datum = V.datum
    hwp = target.hw
    K = V.K
    betas = _raises(V, mu)
    if betas and max(betas) > target.depth:
        raise ValueError("target truncation too shallow for this spin vector")

    U = np.zeros((target.dim, V.dim), dtype=complex)
    U[target.block(hwp)] = v

    for h in sorted(betas):
        for beta in map(Weight, betas[h]):
            vb = V.block(mu + beta)
            mb = target.block(hwp - beta)
            if mb.size * vb.size == 0:
                continue
            rows_all, rhs_all = [], []
            for i, alpha in enumerate(datum.simple_roots):
                mrows = target.block(hwp - beta + alpha)
                if not mrows.size:
                    continue
                Ei = target.E[i][mrows]
                rows_all.append(np.kron(Ei[:, mb], np.diag(K[i][vb])))
                # Delta(E_i) U on the rows (mrows, vb)
                rhs_all.append(-((Ei @ U[:, vb]) * K[i][vb]
                                 + U[mrows] @ V.E[i][vb].T).ravel())
            A = np.vstack(rows_all)
            b = np.concatenate(rhs_all)
            sol, _, rank, _ = scipy.linalg.lstsq(A, b, lapack_driver="gelsy")
            if rank < mb.size * vb.size:
                sv = np.linalg.svd(A, compute_uv=False)
                raise ValueError(
                    f"singular-vector system rank deficient at raise {beta}; "
                    f"smallest singular value {sv[-1]:.3e} (non-regular "
                    "highest weight?)")
            resid = np.linalg.norm(A @ sol - b)
            if resid > tol * (1.0 + np.linalg.norm(b)):
                raise ValueError(f"singular-vector solve inconsistent: {resid:.2e}")
            U[np.ix_(mb, vb)] = sol.reshape(mb.size, vb.size)
    return U


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


_LOWERING_MEMO = Memo()


def _lowering_solves(src: TruncatedVerma, tol: float) -> list:
    """(depth-h columns, depth-(h-1) columns, solve) for h = 1, 2, ...

    The solve expresses each depth-h basis vector through the F_i applied
    one level up (stacked, columns i-major).  It reads only src's skeleton,
    so it is memoized on (datum, q, depth, tol).
    """
    def make():
        out = []
        for h in range(1, src.depth + 1):
            ch = np.where(src.depths == h)[0]
            cp = np.where(src.depths == h - 1)[0]
            if ch.size == 0:
                break
            G = np.hstack([F[np.ix_(ch, cp)] for F in src.F])
            sol, _, rank, _ = scipy.linalg.lstsq(
                G, np.eye(ch.size, dtype=complex), lapack_driver="gelsy")
            if rank < ch.size:
                raise ValueError(f"lowering operators do not span depth {h}")
            if np.max(np.abs(G @ sol - np.eye(ch.size))) > tol * max(
                    1.0, float(np.max(np.abs(G)))):
                raise ValueError(f"column extension inconsistent at depth {h}")
            out.append((ch, cp, sol))
        return out

    return _LOWERING_MEMO.get((src.datum, src.q, src.depth, float(tol)), make)


def _extend_by_lowering(src: TruncatedVerma, tgt: TruncatedVerma,
                        V: WeightModule, U: np.ndarray,
                        tol: float) -> np.ndarray:
    """All columns of the leg src -> tgt (x) V from its top column U.

    U is a (tgt.dim, V.dim) array.  Each deeper source basis vector is
    expressed through lowering operators applied one level up, and the
    operator follows along under Delta(F_i) = F_i (x) 1 + K_i^{-1} (x) F_i,
    applied to (tgt.dim, V.dim, columns) arrays.  Returns the
    (tgt.dim * V.dim, src.dim) matrix.
    """
    n, dv = tgt.dim, V.dim
    Kinv = 1.0 / tgt.K
    phi = np.zeros((n * dv, src.dim), dtype=complex)
    phi[:, 0] = U.ravel()
    for ch, cp, sol in _lowering_solves(src, tol):
        P = phi[:, cp].reshape(n, dv, cp.size)
        B = np.concatenate(
            [(Ft @ P.reshape(n, -1)).reshape(P.shape)
             + k[:, None, None] * np.matmul(Fv, P)
             for Ft, Fv, k in zip(tgt.F, V.F, Kinv)], axis=2)
        phi[:, ch] = B.reshape(n * dv, -1) @ sol
    return phi


def _one_point(lam: Weight, V: WeightModule, v: np.ndarray, mu: Weight,
               src: TruncatedVerma, tgt_depth: int, tol: float):
    """One leg out of src, v of weight mu: the singular vector in
    M_{lam-mu} (x) V extended down src; no tensor module is built."""
    tgt = build_verma(V.datum, V.q, lam - mu, tgt_depth)
    U = _singular_in(tgt, V, v, mu, tol)
    return _extend_by_lowering(src, tgt, V, U, tol), tgt


def vertex_operator(lam: Weight, S: tuple, vlist, depth: int,
                    tol: float = 1e-10) -> Intertwiner:
    """k-point operator: legs applied right to left, each shifting the weight.

    The j-th leg (1-based, rightmost = k) starts from lam_j = lam - sum of
    the weights of the later legs; every lam_j must be regular.  No leg
    builds a tensor module; the operator's full target M (x) F(S) is built
    only when `target` is first read.
    """
    return _leg_chain(lam, S, vlist, depth, tol, {}, tuple(range(len(vlist))))


def _leg_chain(lam: Weight, S: tuple, vlist, depth: int, tol: float,
               legs: dict, keys: tuple) -> Intertwiner:
    """The legs of `vertex_operator`, right to left.

    `legs` maps a suffix keys[j:] to the composite (matrix, target Verma)
    of legs j..k, so operators that share one table and agree on the keys
    of their rightmost legs share those legs.  Calls sharing a table must
    agree on lam, S, depth and tol, and the keys must name the vectors:
    `fusion` keys each leg by its basis index.
    """
    S = tuple(S)
    k = len(S)
    if k == 0 or len(vlist) != k:
        raise ValueError("need one vector per spin module")
    datum, q = S[0].datum, S[0].q
    nus = tuple(weight_of(S[j], vlist[j]) for j in range(k))

    src = build_verma(datum, q, lam, depth)
    op, cur = None, src
    for j in reversed(range(k)):
        leg = legs.get(keys[j:])
        if leg is None:
            if not datum.is_regular(cur.hw):
                raise ValueError(
                    f"non-regular intermediate weight lam_{j + 1} = {cur.hw}")
            up = max(_raises(S[j], nus[j]), default=0)
            phi, tgt = _one_point(cur.hw, S[j], vlist[j], nus[j], cur,
                                  cur.depth + max(up, 1), tol)
            if op is not None:
                # (phi (x) 1) op, with op's rows split as (cur, later legs)
                phi = (phi @ op.reshape(cur.dim, -1)).reshape(-1, src.dim)
            leg = legs[keys[j:]] = (phi, tgt)
        op, cur = leg
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
        psi = unitriangular_solve(R.matrix, phi[flip_index(tgt, W)], span)
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
