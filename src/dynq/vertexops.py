"""Quantum vertex operators on truncated Verma modules.

A primal operator of weight mu maps M_lam into M_{lam-mu} (x) F(S) and is
pinned by its expectation value, the leading coefficient vector in F(S).
Construction is a singular-vector solve at the top weight followed by
extension down the Verma by lowering operators: the skeleton's lift names,
for each basis vector, the F_j and the parent one level up that it comes
from, and the leg gathers the parents' columns and applies Delta(F_j) to
them, with no solve.  A leg applies the coproduct of E_i and F_i to
(Verma, spin) arrays and never builds its tensor module.
Legs are applied right to left along one chain, which `fusion` walks for all
columns at once so that columns sharing their rightmost legs share them.
Dual operators target F(S*) (x) M and are obtained by inverting the braiding
on each leg.  An operator is its matrix plus its source Verma, target Verma
and spin word; the tensor module of its target is never built.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .cartan import CartanDatum, Weight
from .qalgebra import (
    TruncatedVerma, WeightModule, _r_factors, build_verma, flip_index,
    unitriangular_solve,
)


def weight_of(V: WeightModule, v: np.ndarray) -> Weight:
    """Weight of a homogeneous vector; rejects mixed-weight input.

    Support is read relative to the largest entry, so roundoff-sized
    components in other weight spaces do not count.
    """
    v = np.asarray(v, dtype=complex)
    if v.shape != (V.dim,):
        raise ValueError("vector does not live in the given module")
    big = float(np.max(np.abs(v))) if v.size else 0.0
    sup = np.nonzero(np.abs(v) > 1e-12 * big)[0]
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
                    target: TruncatedVerma = None):
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
    return _singular_in(target, V, v, mu).ravel(), target


def _singular_in(target: TruncatedVerma, V: WeightModule, v: np.ndarray,
                 mu: Weight) -> np.ndarray:
    """The singular vector of `singular_vector` as a (target.dim, V.dim)
    array; v is nonzero of weight mu.

    Delta(E_i) = E_i (x) K_i + 1 (x) E_i acts on the array directly.  The
    unknowns of a raise beta sit on the Verma block hw - beta and their
    equations on hw - beta + alpha_i, so only E_i (x) K_i couples them.
    Rows of V and of the target are looked up by integer offset.
    """
    K = V.K
    x = V.offsets[V.block(mu)[0]]
    betas = _raises(V, mu)
    if betas and max(betas) > target.depth:
        raise ValueError("target truncation too shallow for this spin vector")

    U = np.zeros((target.dim, V.dim), dtype=complex)
    U[0] = v  # the top block of a Verma is its highest-weight vector
    units = np.eye(V.datum.rank, dtype=int)

    for h in sorted(betas):
        for beta in map(np.array, betas[h]):
            vb = V.at_offset(x + beta)
            mb = target.at_offset(-beta)
            if mb.size * vb.size == 0:
                continue
            rows_all, rhs_all = [], []
            for i, unit in enumerate(units):
                mrows = target.at_offset(unit - beta)
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
                    f"singular-vector system rank deficient at raise {Weight(beta)}; "
                    f"smallest singular value {sv[-1]:.3e} (non-regular "
                    "highest weight?)")
            resid = np.linalg.norm(A @ sol - b)
            if resid > 1e-10 * (1.0 + np.linalg.norm(b)):
                raise ValueError(f"singular-vector solve inconsistent: {resid:.2e}")
            U[np.ix_(mb, vb)] = sol.reshape(mb.size, vb.size)
    return U


@dataclass(eq=False)
class Intertwiner:
    """Linear map out of a truncated Verma commuting with the algebra action.

    orientation 'primal': source -> target_verma (x) F(spin);
    orientation 'dual':   source -> F(spin) (x) target_verma.
    The operator is its matrix plus the source Verma, the target Verma and
    the spin word; matrix rows follow the row-major flattening of the
    target tensor product, whose module is never built.
    """
    orientation: str
    source: TruncatedVerma
    target_verma: TruncatedVerma
    spin: tuple
    matrix: np.ndarray

    @property
    def mu(self) -> Weight:
        """Total weight of the legs: the drop from source to target Verma."""
        return self.source.hw - self.target_verma.hw

    @property
    def spin_dim(self) -> int:
        return math.prod(V.dim for V in self.spin)


def _extend_by_lowering(src: TruncatedVerma, tgt: TruncatedVerma,
                        V: WeightModule, top: np.ndarray) -> np.ndarray:
    """All columns of the leg src -> tgt (x) V from its top column `top`.

    `top` is a (tgt.dim, V.dim) array.  Depth by depth, src's lift writes
    the basis vectors `cols` as F_j applied to their `parents` one level
    up, so the operator follows along as Delta(F_j) = F_j (x) 1 +
    K_j^{-1} (x) F_j applied to the parents' columns, as (tgt.dim, V.dim,
    columns) arrays.  Returns the (tgt.dim * V.dim, src.dim) matrix.  tgt
    must be deeper than src.
    """
    if tgt.depth <= src.depth:
        raise ValueError(f"leg target depth {tgt.depth} does not exceed "
                         f"its source depth {src.depth}")
    n, dv = tgt.dim, V.dim
    Kinv = 1.0 / tgt.K
    phi = np.zeros((n * dv, src.dim), dtype=complex)
    phi[:, 0] = top.ravel()
    up = slice(0, 1)  # the depth h - 1 block; the basis is ordered by depth
    for pairs in src.lift:
        P = phi[:, up]
        for (cols, parents), Ft, Fv, k in zip(pairs, tgt.F, V.F, Kinv):
            X = P[:, parents].reshape(n, dv, -1)
            B = (Ft @ X.reshape(n, -1)).reshape(X.shape) \
                + k[:, None, None] * np.matmul(Fv, X)
            phi[:, cols] = B.reshape(n * dv, -1)
        up = slice(up.stop, up.stop + sum(c.size for c, _ in pairs))
    return phi


def _one_point(lam: Weight, V: WeightModule, v: np.ndarray, mu: Weight,
               src: TruncatedVerma, tgt_depth: int):
    """One leg out of src, v of weight mu: the singular vector in
    M_{lam-mu} (x) V extended down src; no tensor module is built."""
    tgt = build_verma(V.datum, V.q, lam - mu, tgt_depth)
    U = _singular_in(tgt, V, v, mu)
    return _extend_by_lowering(src, tgt, V, U), tgt


def vertex_operator(lam: Weight, S: tuple, vlist, depth: int) -> Intertwiner:
    """k-point operator: legs applied right to left, each shifting the weight.

    The j-th leg (1-based, rightmost = k) starts from lam_j = lam - sum of
    the weights of the later legs; every lam_j must be regular, which
    `_check_regular` decides once, at lam_k = lam.  Neither a leg nor the
    operator builds a tensor module: the result holds its matrix, source
    and target Vermas and the spin word S.
    """
    if S:
        _check_regular(S[0].datum, lam, len(S))
    return _leg_chain(lam, S, vlist, depth, {}, tuple(range(len(vlist))))


def _check_regular(datum: CartanDatum, lam: Weight, j: int) -> None:
    """Raise unless lam = lam_j, where a leg chain starts, is regular.  Every
    later leg's weight differs from lam by an integral weight, so its coroot
    pairings keep lam's distance to the integers."""
    if not datum.is_regular(lam):
        raise ValueError(f"non-regular weight lam_{j} = {lam}")


def _leg_chain(lam: Weight, S: tuple, vlist, depth: int, legs: dict,
               keys: tuple) -> Intertwiner:
    """The legs of `vertex_operator`, right to left; the caller has checked
    that lam is regular.

    `legs` maps a suffix keys[j:] to the composite (matrix, target Verma)
    of legs j..k, so operators that share one table and agree on the keys
    of their rightmost legs share those legs.  Calls sharing a table must
    agree on lam, S and depth, and the keys must name the vectors:
    `fusion` keys each leg by its basis index and passes depth 0, since it
    reads only column 0: a target cur.depth + max(up, 1) deep holds every
    column of the depth the raises of its leg and the legs right of it
    reach, which is all the next leg reads of it.
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
            up = max(_raises(S[j], nus[j]), default=0)
            phi, tgt = _one_point(cur.hw, S[j], vlist[j], nus[j], cur,
                                  cur.depth + max(up, 1))
            if op is not None:
                # (phi (x) 1) op, with op's rows split as (cur, later legs)
                phi = (phi @ op.reshape(cur.dim, -1)).reshape(-1, src.dim)
            leg = legs[keys[j:]] = (phi, tgt)
        op, cur = leg
    return Intertwiner("primal", src, cur, S, op)


def dual_vertex_operator(lam: Weight, sstar: tuple, glist,
                         depth: int) -> Intertwiner:
    """Composite of braided one-point legs, target F(sstar) (x) M.

    Legs are applied left to right: leg j targets sstar[j] (x) M and is the
    braiding inverse applied to a primal one-point operator.  Regularity is
    checked once, at lam_1 = lam (see `_check_regular`).  The result holds
    its matrix, source and target Vermas and the spin word sstar; the
    module F(sstar) (x) M is never built.
    """
    sstar = tuple(sstar)
    m = len(sstar)
    if m == 0 or len(glist) != m:
        raise ValueError("need one vector per spin module")
    datum, q = sstar[0].datum, sstar[0].q
    _check_regular(datum, lam, 1)
    nus = tuple(weight_of(sstar[j], glist[j]) for j in range(m))

    src = build_verma(datum, q, lam, depth)
    cur = src
    op = None
    left_dim = 1
    for j in range(m):
        W = sstar[j]
        span = W.height_span()
        phi, tgt = _one_point(cur.hw, W, glist[j], nus[j], cur,
                              cur.depth + 2 * max(span, 1))
        psi = unitriangular_solve(*_r_factors(W, tgt), phi[flip_index(tgt, W)], span)
        op = psi if op is None else np.kron(np.eye(left_dim), psi) @ op
        left_dim *= W.dim
        cur = tgt
    return Intertwiner("dual", src, cur, sstar, op)


def expectation(phi: Intertwiner) -> np.ndarray:
    """Leading coefficient vector: pair the target Verma leg with m*."""
    col = phi.matrix[:, 0]
    if phi.orientation == "primal":
        return col[:phi.spin_dim].copy()
    return col[::phi.target_verma.dim].copy()


def _coproduct(slots, i: int, raising: bool, P: np.ndarray) -> np.ndarray:
    """Delta(E_i) (raising) or Delta(F_i) on the tensor product of `slots`,
    applied to P of shape (*dims, columns): E_i on one slot and K_i on the
    slots after it, or F_i on one slot and K_i^{-1} on the slots before it.
    """
    out = np.zeros(P.shape, dtype=complex)
    for s, V in enumerate(slots):
        X = V.E[i] if raising else V.F[i]
        term = np.moveaxis(np.tensordot(X, P, axes=(1, s)), 0, s)
        for t, W in enumerate(slots):
            if (t > s) if raising else (t < s):
                k = W.K[i] if raising else 1.0 / W.K[i]
                term *= k.reshape((-1,) + (1,) * (P.ndim - 1 - t))
        out += term
    return out


def intertwiner_residual(phi: Intertwiner) -> float:
    """Max relative commutation defect with every generator.

    The coproduct acts slot by slot on the reshaped matrix, so the target
    tensor module is not built.  On the lowering side truncation genuinely
    drops terms at both boundaries: source columns at the deepest level map
    to zero under F even though the target image is nonzero, and rows at
    the target Verma boundary can miss contributions.  Both are skipped.
    """
    M = phi.source
    df = phi.spin_dim
    ok_verma = phi.target_verma.exact_mask(1)
    if phi.orientation == "primal":
        slots = (phi.target_verma,) + phi.spin
        ok_rows = np.repeat(ok_verma, df)
    else:
        slots = phi.spin + (phi.target_verma,)
        ok_rows = np.tile(ok_verma, df)
    ok_cols = M.exact_mask(1)
    P = phi.matrix.reshape(*(V.dim for V in slots), M.dim)
    worst = 0.0
    for i in range(M.datum.rank):
        for X, raising in ((M.E[i], True), (M.F[i], False)):
            YP = _coproduct(slots, i, raising, P).reshape(phi.matrix.shape)
            res = YP - phi.matrix @ X
            scale = max(1.0, float(np.max(np.abs(YP))))
            if not raising:
                res = res[np.ix_(ok_rows, ok_cols)]
            if res.size:
                worst = max(worst, float(np.max(np.abs(res))) / scale)
    return worst
