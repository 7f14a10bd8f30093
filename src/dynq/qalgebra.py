"""Weight modules over the quantized enveloping algebra.

Finite-dimensional irreps, truncated Verma modules, duals, tensor products,
the non-dynamical R-matrix, characters, and the central-element action.
Module matrices (E, F) are dense complex128; an R-matrix is kept as its
factors (kappa, sparse CSR N) until `r_matrix` returns it dense.

The R-matrix is kappa (1 + N), with kappa = q^{<wt, wt>} diagonal and N
strictly raising the first slot.  It has one route: the product, by the
hexagon, of one crossing per slot of the first slot.  A Verma first slot
is the flipped crossing of the omega-twisted modules ((omega (x) omega) R
= R_21), and every other crossing solves N degree by degree from the
F-equations.  Each crossing passes the intertwining guard on its own
factors (kappa, N), which is the only form of R the guard reads.  Beside a
truncated Verma second slot that N and the guard's index plan are free of
the Verma's highest weight and kept together in one table, `_VERMA_PLANS`;
a call forms only values, kappa and the guard's multiply terms, at that
call's weight, and no scipy matrix.

A module has one weight representation, set by every constructor: an
exact `base` Weight (that of basis vector 0) and integer simple-root
`offsets` from it, one row per basis vector.  Data indexed by basis vector
reads the offsets: q^xi (`qh`), the K_i (`K`), kappa and the R-matrix
weight matching, tensor products, slot-group weight classes
(`slot_classes`), and the rows a vertex-operator leg looks up.  Per-vector
`weights` and `blocks` are views built on first read.

Irreps and truncated Vermas come from one lowering construction (`_span`):
each depth is spanned by the F_j of the basis one depth up, and per content
as many of these candidates are kept as the module's weight space holds,
chosen from their images one depth up.  For an irrep V(hw) the images are
under E and the count is Kostant's multiplicity formula; E is the kept
images and F the fits of the rest.  For a Verma the images are under the
highest-weight-free halves of E and the count is Kostant's partition
function, so its basis, F, offsets and lowering lift depend only on (datum,
q, depth) and come from a memoized skeleton; its base is its highest
weight.  Every Verma basis vector is some F_j applied to a basis vector one
depth up, its parent; the lift is that index map, and both the Verma's E
and every vertex-operator leg are built through it by gathering columns.

Conventions (fixed once, gated by the consistency suite):
    K_i = q^{d_i h_i},  Delta(E_i) = E_i (x) K_i + 1 (x) E_i,
    Delta(F_i) = F_i (x) 1 + K_i^{-1} (x) F_i,
    S(E_i) = -E_i K_i^{-1},  S(F_i) = -K_i F_i,
    [E_i, F_j] = delta_ij (K_i - K_i^{-1}) / (q_i - q_i^{-1}).
With these, S^2 = Ad q^{2 rho} and the R-matrix normalizes as kappa (1 + N)
with N strictly raising the first slot.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .cache import Memo
from .cartan import CartanDatum, Weight


def check_q(q) -> float:
    q = float(q)
    if not (0.0 < q < 1.0):
        raise ValueError(f"q must lie in (0,1), got {q}")
    return q


def qnum(q: float, n: int) -> float:
    if n == 0:
        return 0.0
    return (q**n - q**(-n)) / (q - 1.0 / q)


def qfactorial(q: float, n: int) -> float:
    out = 1.0
    for m in range(2, n + 1):
        out *= qnum(q, m)
    return out


def qbinom(q: float, n: int, k: int) -> float:
    return qfactorial(q, n) / (qfactorial(q, k) * qfactorial(q, n - k))


# ---------------------------------------------------------------------------
# modules


@dataclass(eq=False)
class WeightModule:
    """Finite basis of weight vectors and the generator matrices per node.

    Weights are stored once: `base`, the exact weight of basis vector 0,
    and the read-only integer `offsets`, whose row b is wt_b - base in
    simple-root coordinates (so row 0 is zero).  Every per-vector
    computation reads the offsets, q^xi (`qh`) and its simple-root rows `K`
    included.  `weights` (one exact Weight per basis vector, the same
    object across a block) and `blocks` are views built on first read.
    E[i], F[i] are dim x dim complex matrices.
    """

    datum: CartanDatum
    q: float
    base: Weight
    offsets: np.ndarray
    E: tuple
    F: tuple
    name: str = ""
    slots: tuple = None

    def __post_init__(self):
        off = np.asarray(self.offsets)
        if off.dtype.kind != "i":
            raise ValueError(f"non-integral weight offsets of dtype {off.dtype}")
        if off.ndim != 2 or off.shape[1] != self.datum.rank or off[0].any():
            raise ValueError("offsets need one row per basis vector, the first zero")
        self.offsets = off.view()
        self.offsets.flags.writeable = False
        self.dim = len(off)
        if self.slots is None:
            self.slots = (self,)

    @cached_property
    def offset_blocks(self) -> dict:
        """Offset row (a tuple of ints) -> its basis indices, in order of
        first appearance."""
        out = {}
        for n, row in enumerate(map(tuple, self.offsets.tolist())):
            out.setdefault(row, []).append(n)
        return {row: np.array(ix) for row, ix in out.items()}

    def at_offset(self, x) -> np.ndarray:
        """Basis indices of weight base + x, for an integer vector x."""
        return self.offset_blocks.get(tuple(map(int, x)), np.zeros(0, dtype=int))

    @cached_property
    def blocks(self) -> dict:
        """Exact weight -> its basis indices: a view of `offset_blocks`."""
        return {self.base + Weight(row): ix for row, ix in self.offset_blocks.items()}

    @cached_property
    def weights(self) -> tuple:
        """One exact Weight per basis vector, shared by its block: a view."""
        of_row = dict(zip(self.offset_blocks, self.blocks))
        return tuple(of_row[row] for row in map(tuple, self.offsets.tolist()))

    def qh(self, xi: Weight) -> np.ndarray:
        """Diagonal of the q^{xi} action: q^{<xi, wt_b>} per basis vector."""
        zero = np.zeros((1, self.datum.rank), dtype=int)
        return _q_pairings(self.q, self.datum, xi, zero, self.base, self.offsets)[0]

    @cached_property
    def K(self) -> np.ndarray:
        """Read-only diagonals of the K_i: row i is qh(alpha_i)."""
        d = self.datum
        out = _q_pairings(self.q, d, d.zero_weight(), np.eye(d.rank, dtype=int),
                          self.base, self.offsets)
        out.flags.writeable = False
        return out

    def weight_set(self):
        return tuple(self.blocks.keys())

    def block(self, w: Weight) -> np.ndarray:
        return self.blocks.get(w, np.zeros(0, dtype=int))

    def height_span(self) -> int:
        hts = self.offsets.sum(axis=1)
        return int(hts.max() - hts.min())

    @cached_property
    def dual(self) -> "WeightModule":
        """Right dual: (x . f)(v) = f(S(x) v), basis dual to V's, weight -wt."""
        E, F = [], []
        for i, Kdiag in enumerate(self.K):
            Kinv = 1.0 / Kdiag
            E.append(-(self.E[i] * Kinv[None, :]).T)   # S(E_i) = -E_i K_i^{-1}
            F.append(-(Kdiag[:, None] * self.F[i]).T)  # S(F_i) = -K_i F_i
        return WeightModule(self.datum, self.q, -self.base, -self.offsets,
                            tuple(E), tuple(F), name=f"({self.name})*")

    @cached_property
    def left_dual(self) -> "WeightModule":
        """Left dual through S^{-1}; used to contract m^op((S^{-1} (x) id) . )."""
        E, F = [], []
        for i, Kdiag in enumerate(self.K):
            Kinv = 1.0 / Kdiag
            E.append(-(Kinv[:, None] * self.E[i]).T)   # S^{-1}(E_i) = -K_i^{-1} E_i
            F.append(-(self.F[i] * Kdiag[None, :]).T)  # S^{-1}(F_i) = -F_i K_i
        return WeightModule(self.datum, self.q, -self.base, -self.offsets,
                            tuple(E), tuple(F), name=f"*({self.name})")

    def __repr__(self):
        return f"<{type(self).__name__} {self.name or ''} dim={self.dim}>"


@dataclass(eq=False)
class TruncatedVerma(WeightModule):
    """Verma module truncated below `depth`, built by `build_verma`.  Its
    F, `depths` and lowering `lift`, the integer (cols, parents) index map
    of `_VermaSkeleton`, are read-only and shared by every Verma of one
    (datum, q, depth)."""

    depth: int = 0
    depths: np.ndarray = None
    lift: tuple = None

    @property
    def hw(self) -> Weight:
        return self.base

    @property
    def hw_vector(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[0] = 1.0
        return v

    def exact_mask(self, margin: int) -> np.ndarray:
        """Rows whose depth keeps `margin` away from the truncation boundary."""
        return self.depths <= self.depth - margin


def same_space(a: WeightModule, b: WeightModule) -> bool:
    return a is b or (a.dim == b.dim and a.base == b.base
                      and np.array_equal(a.offsets, b.offsets))


@dataclass(eq=False)
class GradedMap:
    """Weight-preserving linear map source -> target."""

    source: WeightModule
    target: WeightModule
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.shape != (self.target.dim, self.source.dim):
            raise ValueError(f"matrix shape {self.matrix.shape} does not fit the modules")

    def graded_residual(self) -> float:
        """Largest entry mapping a source weight off the same target weight."""
        bad = 0.0
        for w, cols in self.source.blocks.items():
            mask = np.ones(self.target.dim, dtype=bool)
            mask[self.target.block(w)] = False
            if cols.size:
                sub = self.matrix[np.ix_(np.where(mask)[0], cols)]
                if sub.size:
                    bad = max(bad, float(np.max(np.abs(sub))))
        return bad


def _over_common_denominator(*weights):
    """(D, coordinate lists): the weights as integer vectors over one D."""
    D = math.lcm(*(c.denominator for w in weights for c in w.coords))
    return D, [[c.numerator * (D // c.denominator) for c in w.coords] for w in weights]


def _q_pairings(q: float, datum: CartanDatum, v0: Weight, x: np.ndarray,
                w0: Weight, y: np.ndarray) -> np.ndarray:
    """q^{<v0 + x_a, w0 + y_b>} for integer offset rows x_a and y_b.

    Over a common denominator D of the coordinates of v0 and w0 every
    weight here is an integer vector over D, so each exponent numerator is
    the integer matrix product ((v + D x) B)(w + D y)^T, formed in Python
    ints (object dtype) and so exact at any D, and each exponent one exact
    quotient by D^2, rounded as float(Fraction) rounds it.  Each power is
    Python's own `q ** e`, which np.power need not match.
    """
    D, (v, w) = _over_common_denominator(v0, w0)
    B = np.array(datum.bilinear, dtype=object)
    left = (np.array(v, dtype=object) + D * np.asarray(x).astype(object)) @ B
    right = np.array(w, dtype=object) + D * np.asarray(y).astype(object)
    e = (left @ right.T) / (D * D)
    return np.array([q ** t for t in e.ravel().tolist()]).reshape(e.shape)


# ---------------------------------------------------------------------------
# tensor utilities


def flip_index(V: WeightModule, W: WeightModule) -> np.ndarray:
    """p with P @ X == X[p] for the flip P: v (x) w -> w (x) v of V (x) W.

    Entry m of p is the index in V (x) W of the m-th basis vector of W (x) V;
    X @ P' == X[:, p] for the flip P' of W (x) V.
    """
    return np.arange(V.dim * W.dim).reshape(V.dim, W.dim).T.ravel()


def mirror_index(S) -> np.ndarray:
    """For each basis vector of F(S), the index of its mirror in F(S*).

    F(S*) = F(V_k*) (x) ... (x) F(V_1*) reverses the slots, so the vector
    with digits (a_1, ..., a_k) meets the dual basis functional with digits
    (a_k, ..., a_1).  mirror_index(S[::-1]) is the inverse permutation.
    """
    dims = [V.dim for V in S]
    return np.arange(math.prod(dims)).reshape(dims[::-1]).transpose().ravel()


def tensor_module(V: WeightModule, W: WeightModule) -> WeightModule:
    """V (x) W with the coproduct action; slot lists flatten.

    The base weight is the sum of the factors' bases and the offsets are the
    pairwise sums of their offset rows, row-major.
    """
    if V.datum is not W.datum or V.q != W.q:
        raise ValueError("tensor factors over different Cartan data or q")
    dv, dw = V.dim, W.dim
    off = (V.offsets[:, None, :] + W.offsets[None, :, :]).reshape(dv * dw, -1)
    Iv, Iw = np.eye(dv), np.eye(dw)
    E, F = [], []
    for i in range(V.datum.rank):
        Kw = np.diag(W.K[i])
        Kinv_v = np.diag(1.0 / V.K[i])
        E.append(np.kron(V.E[i], Kw) + np.kron(Iv, W.E[i]))
        F.append(np.kron(V.F[i], Iw) + np.kron(Kinv_v, W.F[i]))
    return WeightModule(V.datum, V.q, V.base + W.base, off,
                        tuple(E), tuple(F), name=f"({V.name})x({W.name})",
                        slots=V.slots + W.slots)


def tensor_many(mods) -> WeightModule:
    mods = list(mods)
    out = mods[0]
    for m in mods[1:]:
        out = tensor_module(out, m)
    return out


def trivial_module(datum: CartanDatum, q: float) -> WeightModule:
    z = np.zeros((1, 1), dtype=complex)
    r = datum.rank
    return WeightModule(datum, q, datum.zero_weight(),
                        np.zeros((1, r), dtype=int), (z,) * r, (z,) * r, name="1")


def slot_index_arrays(T: WeightModule):
    """Per-slot index digits of the row-major tensor basis."""
    dims = [s.dim for s in T.slots]
    n = int(np.prod(dims))
    digits = []
    rem = np.arange(n)
    for d in dims[::-1]:
        digits.append(rem % d)
        rem //= d
    return dims, digits[::-1]


def slot_classes(mods, groups) -> dict:
    """Row-major basis of the tensor word `mods`, classed by slot-group weights.

    Maps (total weight of groups[0], total weight of groups[1], ...) to the
    ascending basis indices carrying it, classes in order of first index; an
    empty group weighs zero.  The classes come from summed integer offsets,
    and each group builds one Weight per class.
    """
    mods = tuple(mods)
    datum = mods[0].datum
    r = datum.rank
    dims = [V.dim for V in mods]
    offs, bases = [], []
    for g in groups:
        off = np.zeros(dims + [r], dtype=int)
        base = datum.zero_weight()
        for s in g:
            shape = [1] * len(dims) + [r]
            shape[s] = dims[s]
            off = off + mods[s].offsets.reshape(shape)
            base = base + mods[s].base
        offs.append(off.reshape(-1, r))
        bases.append(base)
    index = {}
    for n, row in enumerate(map(tuple, np.hstack(offs).tolist())):
        index.setdefault(row, []).append(n)
    return {tuple(b + Weight(row[g * r:(g + 1) * r]) for g, b in enumerate(bases)):
            np.array(ix) for row, ix in index.items()}


def embed_slots(T: WeightModule, X: np.ndarray, slots) -> np.ndarray:
    """Extend an operator on the listed slots (in that order) by identity."""
    return _embed([s.dim for s in T.slots], X, slots)


def _embed(dims, X: np.ndarray, slots) -> np.ndarray:
    """`embed_slots` on a tensor basis given by its slot dimensions."""
    rest = [j for j in range(len(dims)) if j not in slots]
    order = list(slots) + rest
    # n_of[old linear] = linear index in the reordered basis
    n_of = np.arange(int(np.prod(dims))).reshape([dims[j] for j in order])
    n_of = n_of.transpose(np.argsort(order)).ravel()
    K = np.kron(X, np.eye(int(np.prod([dims[j] for j in rest] or [1]))))
    return K[np.ix_(n_of, n_of)]


def partial_trace(X: np.ndarray, T: WeightModule, slot: int,
                  keep=None) -> np.ndarray:
    """Trace out one slot, optionally restricted to the given slot indices."""
    dims, _ = slot_index_arrays(T)
    k = len(dims)
    Xr = X.reshape(dims + dims)
    if keep is not None:
        Xr = np.take(np.take(Xr, keep, axis=slot), keep, axis=k + slot)
    tr = np.trace(Xr, axis1=slot, axis2=k + slot)
    rem = [d for j, d in enumerate(dims) if j != slot]
    n = int(np.prod(rem or [1]))
    return tr.reshape(n, n)


# ---------------------------------------------------------------------------
# duals

def dual_module(V: WeightModule) -> WeightModule:
    """Right dual of V, built once and stored on V (`WeightModule.dual`)."""
    return V.dual


def left_dual_module(V: WeightModule) -> WeightModule:
    """Left dual of V, built once and stored on V (`WeightModule.left_dual`)."""
    return V.left_dual


def dual_tuple(S):
    """S* = (V_k*, ..., V_1*), the same objects on every call."""
    return tuple(dual_module(V) for V in reversed(S))


# ---------------------------------------------------------------------------
# the lowering span: truncated Vermas and irreducibles

def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _span(datum: CartanDatum, depth: int, count: dict, terms, verma: bool) -> tuple:
    """Basis, F and raising images of a module spanned depth by depth from
    its highest-weight vector by the F_j.

    The candidates at depth h are F_j y, y a basis vector at depth h - 1.
    Their images under k = p r operators X, in the depth-(h - 1) block, are
        X_{s r + i} F_j y = F_j X_{s r + i} y + delta_ij t[s, j, y] y,
    with X y known from the depth above and t = terms(contents of the
    depth-(h - 1) basis), an array (p, r, m).  Per content c, pivoted QR of
    the images keeps count[c] candidates, in candidate order (letter, then
    y).  In a Verma no candidate vanishes, so the images are first
    column-normalized; in an irrep one can, and its normalized image would
    be rounding error.  Each kept F_j y gets a unit F column; F of every
    other candidate is its least-squares fit in the kept ones, which must
    hold to 1e-10 of the content's largest image (the depth's if none kept).

    Returns the offsets (-content per basis vector, by depth, then content),
    the dense F_j (none out of the last depth) and, per depth h, the kept
    candidates (j m + y) with their images (k, depth h - 1, depth h).
    """
    r = datum.rank
    conts, Fblocks, levels = [np.zeros((1, r), dtype=int)], [], []
    Fup = [np.zeros((1, 0))] * r  # F_j into the depth block
    img = np.zeros((terms(conts[0]).size, 0, 1))  # the k images of the top: none
    for h in range(1, depth + 1):
        cont, m = conts[-1], len(conts[-1])
        cand = np.concatenate([Fup[j] @ img for j in range(r)], axis=2)  # column j m + y
        t = terms(cont)
        s, col = np.arange(len(t))[:, None], np.arange(r * m)
        cand[s * r + col // m, col % m, col] += t[s, col // m, col % m]
        flat = cand.reshape(-1, r * m)
        ccont = np.concatenate([cont + np.eye(r, dtype=int)[j] for j in range(r)])
        keep = []
        coef = np.zeros((sum(count[c] for c in _compositions(h, r)), r * m))
        for c in _compositions(h, r):
            idx = np.flatnonzero((ccont == c).all(axis=1))
            if not idx.size:
                continue
            X = flat[:, idx]
            scale = np.linalg.norm(X, axis=0) if verma else 1.0
            kept = np.sort(scipy.linalg.qr(X / scale, mode="r", pivoting=True)[1][:count[c]])
            rest = np.setdiff1d(np.arange(idx.size), kept)
            rows = slice(len(keep), len(keep) + kept.size)
            coef[rows, idx[kept]] = np.eye(kept.size)
            if rest.size:
                fit = np.linalg.lstsq(X[:, kept], X[:, rest], rcond=None)[0]
                resid = float(np.max(np.abs(X[:, kept] @ fit - X[:, rest])))
                big = float(np.max(np.abs(X if kept.size else flat)))
                if resid > 1e-10 * big:
                    raise ValueError(f"{'Verma' if verma else 'irrep'} basis inconsistent "
                                     f"at content {c}: {resid:.2e} against max|images| {big:.2e}")
                coef[rows, idx[rest]] = fit
            keep.extend(idx[kept])
        keep = np.array(keep, dtype=int)
        Fup = [coef[:, j * m:(j + 1) * m] for j in range(r)]
        Fblocks.append(Fup)
        img = cand[:, :, keep]
        conts.append(ccont[keep])
        levels.append((keep, img))

    offsets = -np.concatenate(conts)
    N, top = len(offsets), np.cumsum([0] + [len(c) for c in conts])
    Fmats = [np.zeros((N, N), dtype=complex) for _ in range(r)]
    for h, blocks in enumerate(Fblocks, 1):
        for Fj, blk in zip(Fmats, blocks):
            Fj[top[h]:top[h + 1], top[h - 1]:top[h]] = blk
    return offsets, tuple(Fmats), levels


def _e_constants(datum: CartanDatum, q: float, hw: Weight, rows) -> np.ndarray:
    """(K_i - K_i^{-1})/(q_i - q_i^{-1}) = [<hw - beta, alpha_i^vee>]_{q_i} on
    weight hw - beta: one row per node i, one column per offset row -beta
    in `rows`.  The K_i are exact `_q_pairings` with the simple roots."""
    r, rows = datum.rank, np.asarray(rows).reshape(-1, datum.rank)
    units = np.eye(r, dtype=int)
    # K^{-1} pairs with -alpha_i: the same numerators negated, so the same
    # exponents negated exactly
    K, Kinv = np.split(_q_pairings(q, datum, hw, rows, datum.zero_weight(),
                                   np.vstack([units, -units])), 2, axis=1)
    qd = np.array([q ** d for d in datum.d])
    return ((K - Kinv) / (qd - 1.0 / qd)).T


_VERMA_MEMO = Memo()
_SKELETON_MEMO = Memo()


def build_verma(datum: CartanDatum, q, hw: Weight, depth: int) -> TruncatedVerma:
    """Memoized front end for `_build_verma`; treat the result as immutable.

    Dynamical operators rebuild the same truncated Vermas at many shifted
    highest weights, so construction is looked up in a bounded `cache.Memo`
    keyed on the datum itself, float q, the exact highest weight and depth.
    """
    return _VERMA_MEMO.get((datum, float(q), hw, int(depth)),
                           lambda: _build_verma(datum, q, hw, depth))


@dataclass(eq=False)
class _VermaSkeleton:
    """The highest-weight-free part of a truncated Verma.

    `offsets` is -content per basis vector, ordered by depth, then content;
    `F` drops F out of the last depth.  `lift[h - 1][j]` is a pair of
    integer arrays (cols, parents): the depth-h basis vectors `cols`, those
    chosen as F_j of a depth-(h - 1) basis vector, are F_j applied to the
    depth-(h - 1) basis vectors `parents`, indexed within that depth's
    block.  Every array is read-only and shared by the Vermas built on the
    skeleton.
    """

    offsets: np.ndarray
    depths: np.ndarray
    F: tuple
    lift: tuple


def _kostant(datum: CartanDatum, depth: int) -> dict:
    """dim U_q(n^-) per content of height <= depth: Kostant's partition
    function, the number of ways to write a content as a sum of positive
    roots."""
    part = {c: int(h == 0) for h in range(depth + 1)
            for c in _compositions(h, datum.rank)}
    for a in datum.positive_roots:
        a = [int(x) for x in a.coords]
        for c in part:  # by height, so part[c - a] already counts root a
            sub = tuple(x - y for x, y in zip(c, a))
            if min(sub) >= 0:
                part[c] += part[sub]
    return part


def _multiplicities(datum: CartanDatum, hw: Weight, depth: int) -> dict:
    """dim V(hw)[hw - beta] per content beta of height <= depth, for a
    dominant integral hw: Kostant's multiplicity formula
        sum over w in W of sign(w) P(beta - (hw + rho - w(hw + rho))),
    P the partition function.  hw + rho is regular, so its W-orbit, walked
    by simple reflections, meets each w once, and each step flips sign(w)."""
    top = hw + datum.rho
    sign, frontier = {top: 1}, [top]
    while frontier:
        mu = frontier.pop()
        for a in datum.simple_roots:
            nu = mu - datum.coroot_pairing(mu, a) * a
            if nu not in sign:
                sign[nu] = -sign[mu]
                frontier.append(nu)
    shifts = [(tuple(int(x) for x in (top - w).coords), s) for w, s in sign.items()]
    part = _kostant(datum, depth)
    return {c: sum(s * part.get(tuple(x - y for x, y in zip(c, sh)), 0)
                   for sh, s in shifts) for c in part}


def _verma_skeleton(datum: CartanDatum, q: float, depth: int) -> _VermaSkeleton:
    """Basis, F matrices and lowering lift of a Verma truncated below `depth`.

    On M(hw), E_i = (s_i A_i - B_i / s_i)/(q_i - q_i^{-1}) with
    s_i = q^{(hw, alpha_i)} and A_i, B_i free of hw: for y of content beta,
        A_i F_j y = F_j A_i y + delta_ij q^{-(beta, alpha_i)} y,
        B_i F_j y = F_j B_i y + delta_ij q^{(beta, alpha_i)} y.
    No element of U_q(n^-) of positive degree is killed by every A_i
    (Lusztig, Introduction to Quantum Groups, 1.2.15).  So `_span` on the
    images under A and B, keeping per content as many candidates as
    Kostant's partition function counts, spans each depth.  Each kept F_j y
    lifts to its parent y.  Nothing here depends on hw; the images depend
    on q.
    """
    bil = np.array(datum.bilinear, dtype=float)

    def terms(cont):  # q^{-(beta, alpha_j)} for A_j, q^{(beta, alpha_j)} for B_j
        qb = (q ** (cont @ bil)).T
        return np.stack([1.0 / qb, qb])

    offsets, Fmats, levels = _span(datum, depth, _kostant(datum, depth), terms, True)
    lift, top = [], 1  # top: first index of the depth-h block
    for keep, img in levels:
        m, pairs = img.shape[1], []
        for j in range(datum.rank):
            t = np.flatnonzero(keep // m == j)
            pairs.append((top + t, keep[t] % m))
        lift.append(tuple(pairs))
        top += keep.size
    depths = -offsets.sum(axis=1)
    for arr in Fmats + (offsets, depths) + tuple(a for lv in lift for pair in lv for a in pair):
        arr.flags.writeable = False
    return _VermaSkeleton(offsets, depths, Fmats, tuple(lift))


def _build_verma(datum: CartanDatum, q, hw: Weight, depth: int) -> TruncatedVerma:
    """Verma module with highest weight hw, truncated below depth `depth`.

    The basis, F, the depths, the offsets (-content per basis vector) and
    the lowering lift come from `_verma_skeleton`, memoized on (datum, q,
    depth) since they do not depend on hw; hw is the module's base weight.
    Only E is built here, depth by depth and letter by letter through the
    lift: the depth-h basis vectors `cols` are F_j of the depth-(h - 1)
    basis vectors `parents`, so by
    [E_i, F_j] = delta_ij (K_i - K_i^{-1})/(q_i - q_i^{-1}),
        E_i[d_{h-1}, cols] = F_j E_i[d_{h-2}, parents] + delta_ij cst_i(parents),
    the last term on the parents' own rows, with cst from `_e_constants`.
    E is exact everywhere; F out of the last depth is dropped, which is what
    the depth-margin contract of every downstream computation accounts for.
    All matrices are dense.
    """
    q = check_q(q)
    depth = int(depth)
    if depth < 0:
        raise ValueError(f"negative truncation depth {depth}")
    sk = _SKELETON_MEMO.get((datum, q, depth),
                            lambda: _verma_skeleton(datum, q, depth))
    r = datum.rank
    N = len(sk.depths)
    # per basis vector above the last depth
    cst = _e_constants(datum, q, hw, sk.offsets[sk.depths < depth])

    Emats = [np.zeros((N, N), dtype=complex) for _ in range(r)]
    up2, up = slice(0, 0), slice(0, 1)  # the depth h - 2 and h - 1 blocks
    for pairs in sk.lift:
        for j, (cols, parents) in enumerate(pairs):
            Fj = sk.F[j][up, up2]
            for i in range(r):
                blk = Fj @ Emats[i][up2, up][:, parents]
                if i == j:
                    blk[parents, np.arange(parents.size)] += cst[i][up][parents]
                Emats[i][up, cols] = blk
        up2, up = up, slice(up.stop, up.stop + sum(c.size for c, _ in pairs))

    name = f"M[{','.join(str(float(c)) for c in hw.coords)}]"
    return TruncatedVerma(datum, q, hw, sk.offsets, tuple(Emats), sk.F,
                          name=name, depth=depth, depths=sk.depths, lift=sk.lift)


# ---------------------------------------------------------------------------
# irreducibles

def build_irrep(datum: CartanDatum, q, hw: Weight) -> WeightModule:
    """Simple module V(hw), spanned depth by depth as a Verma skeleton is.

    In V(hw), for y of content beta,
        E_i F_j y = F_j E_i y + delta_ij [<hw - beta, alpha_i^vee>]_{q_i} y,
    and no vector below the top is killed by every E_i.  So `_span` on the
    images under E, keeping per content as many candidates as Kostant's
    multiplicity formula counts, spans each depth down to the lowest weight
    w_0(hw), 2 <hw, rho^vee> below hw.  E is the kept candidates' images
    and F the fit coefficients.  The module is returned only if its
    relations hold to 1e-9 (`relation_residuals`).
    """
    q = check_q(q)
    if not datum.is_dominant_integral(hw):
        raise ValueError(f"{hw} is not dominant integral")
    depth = int(sum(datum.coroot_pairing(hw, a) for a in datum.positive_roots))
    offsets, F, levels = _span(datum, depth, _multiplicities(datum, hw, depth),
                               lambda cont: _e_constants(datum, q, hw, -cont)[None], False)
    N, top = len(offsets), 1  # top: first index of the depth-h block
    E = [np.zeros((N, N), dtype=complex) for _ in range(datum.rank)]
    for keep, img in levels:
        for Ei, blk in zip(E, img):
            Ei[top - blk.shape[0]:top, top:top + keep.size] = blk
        top += keep.size
    name = "V(" + ",".join(str(datum.coroot_pairing(hw, a)) for a in datum.simple_roots) + ")"
    V = WeightModule(datum, q, hw, offsets, tuple(E), F, name=name)
    res = relation_residuals(V)
    if res > 1e-9:
        raise ValueError(f"{name} fails its relations at q = {q}: {res:.2e}")
    return V


# ---------------------------------------------------------------------------
# R-matrix

def _kappa_diag(V: WeightModule, W: WeightModule) -> np.ndarray:
    """q^{<wt_a, wt_b>} on the basis of V (x) W, row-major."""
    return _q_pairings(V.q, V.datum, V.base, V.offsets, W.base, W.offsets).ravel()


def _csr(rows, cols, vals, shape) -> sp.csr_matrix:
    """CSR matrix of the given entries, column indices ascending within
    each row, so a product sums its terms in the order a dense product
    does.  Repeated entries stay apart until `sum_duplicates`."""
    order = np.lexsort((cols, rows))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=shape[0]))))
    return sp.csr_matrix((vals[order], cols[order], indptr), shape=shape)


def _shift_pairs(x: np.ndarray, shift) -> tuple:
    """(targets, sources) of the basis vectors whose offset rows x differ
    by `shift`, sorted by target, then source."""
    return np.nonzero((x[:, None, :] == x[None, :, :] + shift).all(axis=2))


def _raising_shifts(V: WeightModule, W: WeightModule) -> dict:
    """The degrees beta > 0 N can have, each mapped to its height: the
    differences of V-weights that some pair of W-weights differs by too."""
    betas = {}
    vset = {tuple(o) for o in V.offsets.tolist()}
    wset = {tuple(o) for o in W.offsets.tolist()}
    for mu in vset:
        for mu2 in vset:
            b = tuple(c2 - c1 for c1, c2 in zip(mu, mu2))
            h = sum(b)
            if h <= 0 or any(c < 0 for c in b):
                continue
            if any(tuple(c - cb for c, cb in zip(nu, b)) in wset for nu in wset):
                betas[b] = h
    return dict(sorted(betas.items(), key=lambda kv: (kv[1], kv[0])))


def r_matrix(V: WeightModule, W: WeightModule) -> np.ndarray:
    """Matrix of the R-matrix endomorphism of V (x) W, normalized kappa (1 + N).

    kappa = q^{<wt, wt>} is diagonal and N strictly raises the first slot.
    R is the product over V's slots of one guarded crossing each
    (`_r_factors`), by the hexagon (Delta (x) id) R = R_13 R_23: crossing j
    is densified and placed on V's slot j and W's slots.  So the
    intertwining guard reads each crossing's factors, never a dense R.
    Beside a truncated Verma second slot, N and the guard's index plan are
    free of the Verma's highest weight and memoized together per (first
    slot, Verma skeleton) (`_plan`), so a call forms only values: kappa, and
    the guard's terms from the Verma's K and E at that call's weight.  A
    rank drop in any degree raises with the nullity reported.  Weights enter
    as integer lattice offsets from each module's first weight, so V and W
    must each lie in one root-lattice coset.  A finite first slot may be
    reducible; a Verma first slot needs a single-slot second slot.
    """
    if isinstance(V, TruncatedVerma) and isinstance(W, TruncatedVerma):
        raise ValueError("r_matrix needs a finite first slot beside a Verma")
    dims = [s.dim for s in V.slots + W.slots]
    wslots = tuple(range(len(V.slots), len(dims)))
    Rs = [_embed(dims, kap[:, None] * (np.eye(kap.size) + N.toarray()), (j,) + wslots)
          for j, (kap, N) in enumerate(_r_factors(Vj, W) for Vj in V.slots)]
    return np.linalg.multi_dot(Rs) if Rs[1:] else Rs[0]  # multi_dot takes >= 2


def _r_factors(V: WeightModule, W: WeightModule) -> tuple:
    """The guarded factors (kappa, N) of R = kappa (1 + N) on V (x) W for a
    single-slot V: kappa at this call's weights, N sparse CSR.  The one
    caller of `_crossing` and of the guard, which reads the factors as they
    are and builds no matrix of R."""
    kap, N = _crossing(V, W)
    _check_intertwines(V, W, (kap, N))
    return kap, N


def _omega(V: WeightModule) -> WeightModule:
    """V twisted by the Cartan involution omega: E_i <-> F_i, K_i -> K_i^{-1},
    so E and F swap and every weight is negated."""
    return WeightModule(V.datum, V.q, -V.base, -V.offsets, V.F, V.E,
                        name=f"omega({V.name})")


def _crossing(V: WeightModule, W: WeightModule) -> tuple:
    """Unguarded (kappa, sparse N) on V (x) W for a single-slot V.

    1. A Verma V: omega is an algebra automorphism that reverses the
       coproduct, so (omega (x) omega) R = R_21 and R_{V,W} is the flip of
       R_{W^omega, V^omega}, which permutes both factors.  That crossing
       reads V's E, which is exact at every depth, where the F-equations on
       V itself would read its truncated F.  W must then be a single slot.
       This N is not memoized: omega swaps E and F, so the F-equations of
       the twisted pair read V's E, which moves with V's highest weight
       (on A2 beside V(omega_1) at depth 6, the N of two highest weights
       differ by up to 4.2e4 in one entry).
    2. Any other V solves N from the F-equations (`_nilpotent`); beside a
       Verma W, N reads only the Verma's skeleton and is memoized with the
       guard's plan (`_plan`).
    """
    if isinstance(V, TruncatedVerma):
        if len(W.slots) > 1:
            raise ValueError("a Verma first slot needs a single-slot second slot, "
                             f"got {len(W.slots)} slots")
        p = flip_index(W, V)
        kap, N = _crossing(_omega(W), _omega(V))
        return kap[p], N[p][:, p]
    kap = _kappa_diag(V, W)
    if isinstance(W, TruncatedVerma):
        return kap, _plan(V, W)[0]
    return kap, _nilpotent(V, W)


def _nilpotent(V: WeightModule, W: WeightModule) -> sp.csr_matrix:
    """N of R = kappa (1 + N) on V (x) W, from the F-equations.

    Since kappa^{-1} Delta^op(F_i) kappa = K_i (x) F_i + F_i (x) 1, the
    F-intertwining of kappa (1 + N) reads, degree by degree in the first slot,
        [N_beta, F_i (x) 1] = (K_i (x) F_i) N_{beta - alpha_i}
                              - N_{beta - alpha_i} (K_i^{-1} (x) F_i),
    with N_0 = 1.  Only V's F and K and W's F enter, so beside a truncated
    Verma W, N is free of W's highest weight.  The left side acts on V
    alone, so each degree is one small system L_beta on V's degree-beta
    matrices, solved for every pair (b', b) of W basis vectors with
    wt(b') = wt(b) - beta at once.  L_beta is injective when V is generated
    by its highest-weight vector under the F_i, as every irreducible module
    is.  Every F these equations read maps into depth <= W.depth, so beside
    a Verma N is exact up to the truncation.

    Each column (b', b) is summed in one fixed order, so the N of a
    shallower Verma is bit-identical to the matching block of a deeper one.
    Returns a read-only canonical CSR matrix.
    """
    dv, dw = V.dim, W.dim
    n = dv * dw
    r = V.datum.rank
    units = np.eye(r, dtype=int)

    def diag_kron(k, F):  # diag(k) (x) F
        (b, c), a = np.nonzero(F), np.arange(dv)[:, None] * dw
        return _csr((a + b).ravel(), (a + c).ravel(), (k[:, None] * F[b, c]).ravel(), (n, n))

    A = [diag_kron(V.K[i], W.F[i]) for i in range(r)]
    B = [diag_kron(1.0 / V.K[i], W.F[i]) for i in range(r)]
    parts = {(0,) * r: sp.identity(n, dtype=complex, format="csr")}
    for beta in _raising_shifts(V, W):
        bvec = np.array(beta)
        ut, us = _shift_pairs(V.offsets, bvec)
        pt, ps = _shift_pairs(W.offsets, -bvec)
        if not pt.size:
            continue
        L, rhs = [], []
        for i in range(r):
            et, es = _shift_pairs(V.offsets, bvec - units[i])
            if not et.size:
                continue
            Fi = V.F[i]
            # coefficient of X[ut, us] in (X F_i - F_i X)[et, es]
            L.append(np.where(ut[None, :] == et[:, None], Fi[us[None, :], es[:, None]], 0)
                     - np.where(us[None, :] == es[:, None], Fi[et[:, None], ut[None, :]], 0))
            prev = parts.get(tuple(bvec - units[i]))
            if prev is None:
                rhs.append(np.zeros((et.size, pt.size), dtype=complex))
                continue
            C = A[i] @ prev - prev @ B[i]
            rows = (et[:, None] * dw + pt[None, :]).ravel()
            cols = (es[:, None] * dw + ps[None, :]).ravel()
            rhs.append(np.asarray(C[rows, cols]).reshape(et.size, pt.size))
        rank = np.linalg.matrix_rank(np.vstack(L)) if L else 0
        if rank < ut.size:
            raise ValueError(
                f"R solve underdetermined at shift {Weight(beta)}: nullity "
                f"{ut.size - rank} (V is not generated by its highest-weight vector)")
        L, rhs = np.vstack(L), np.vstack(rhs)
        # the system is consistent, so a square subsystem of independent rows
        # (chosen by pivoted QR) fixes Y; the check below reads every row
        sq = scipy.linalg.qr(L.T, mode="r", pivoting=True)[1][:ut.size]
        inv = np.linalg.inv(L[sq])
        # one elementwise product per equation, so that no column's sum
        # depends on how many columns there are
        Y = np.zeros((ut.size, pt.size), dtype=complex)
        for k, row in enumerate(sq):
            Y += inv[:, k, None] * rhs[row]
        full = np.abs(L @ Y - rhs)
        scale = 1.0 + float(np.max(np.abs(L) @ np.abs(Y) + np.abs(rhs)))
        if np.max(full) > 1e-10 * scale:
            raise ValueError(
                f"R solve inconsistent at shift {Weight(beta)}: {np.max(full):.2e}")
        rows = (ut[:, None] * dw + pt[None, :]).ravel()
        cols = (us[:, None] * dw + ps[None, :]).ravel()
        parts[beta] = _csr(rows, cols, Y.ravel(), (n, n))
    del parts[(0,) * r]
    N = sum(parts.values(), sp.csr_matrix((n, n), dtype=complex))
    for arr in (N.data, N.indices, N.indptr):
        arr.flags.writeable = False
    return N


_VERMA_PLANS = Memo()
# The guard's index plan on V (x) W, every array read-only.  A call gathers
# V's E_i, F_i on their nonzeros (pV), W's E_i on its grading and F_i on its
# nonzeros (pW), both slots' K_i, K_i^{-1} into one vector x, and the values
# of R = kappa (1 + N) on its pattern: the diagonal, then N's CSR entries,
# entry t in row rows[t].  Generator entry e of Delta(x), or, negated from
# ncop on, of Delta^op(x) is x[xv[e]] x[xw[e]].  Term t of R Delta(x) -
# Delta^op(x) R is R entry ri[t] times generator entry gi[t]; terms run slot
# by slot from starts, and slots[s] = a (2 r k) + g k + b is the kept pair
# (a, b) of generator g (2 i: E_i, 2 i + 1: F_i), mask marking the k kept rows.
_GuardPlan = namedtuple("_GuardPlan", "mask pV pW rows xv xw ncop ri gi starts slots")


def _plan(V: WeightModule, W: WeightModule, R=None) -> tuple:
    """(N, `_GuardPlan`) of R = (kappa, N) on V (x) W for a single-slot V.

    Beside a truncated Verma W, N and the guard's plan on the pattern of
    kappa (1 + N) are free of the Verma's highest weight and kept per
    (first slot, Verma skeleton) in `_VERMA_PLANS` (129 KiB an entry at A2
    V(omega_1)* (x) M_10, N 18 KiB of it).  Beside a finite W it is built
    per call on that call's N, with no N returned.
    """
    if isinstance(W, TruncatedVerma):
        def make():
            N = _nilpotent(V, W)
            return N, _guard_plan(V, W, (None, N))

        # the Verma's datum, q and depth fix its skeleton, the only part read
        return _VERMA_PLANS.get((V, W.datum, W.q, W.depth), make)
    return None, _guard_plan(V, W, R)


def _guard_plan(V: WeightModule, W: WeightModule, R) -> _GuardPlan:
    """The guard's plan on the pattern of R = (kappa, N): the diagonal, then
    N's entries in CSR order; only N's pattern is read.

    The guard reads and forms all on the kept rows, 2 * (largest degree of
    N) + 1 away from each Verma slot's truncation: R Delta(x) reads R's kept
    rows and Delta(x)'s kept columns, Delta^op(x) R the reverse.  Each
    product is joined on its inner index into multiply terms, both written
    into one output index, so that a call forms only values.
    """
    r, dw, N = V.datum.rank, W.dim, R[1]
    diag = np.arange(V.dim * dw)
    rows, cols = (np.concatenate([diag, x]) for x in
                  (np.repeat(diag, np.diff(N.indptr)), N.indices))
    m = 2 * max(_raising_shifts(V, W).values(), default=0) + 1
    mask = np.logical_and.outer(*(X.exact_mask(m) if isinstance(X, TruncatedVerma)
                                  else np.ones(X.dim, bool) for X in (V, W))).ravel()
    pos, k = np.cumsum(mask) - 1, int(mask.sum())
    pV = tuple(np.nonzero(X) for X in V.E + V.F)
    pW = tuple([_shift_pairs(W.offsets, u) for u in np.eye(r, dtype=int)]
               + [np.nonzero(F) for F in W.F])

    def factors(X, ps, off):  # (rows, cols, index in x) of X's K, K^-1, E, F; 1
        d = np.arange(X.dim)
        at = off + 2 * r * X.dim + np.cumsum([0] + [p[0].size for p in ps])
        out = ([(d, d, off + j * X.dim + d) for j in range(2 * r)]
               + [(*p, a + np.arange(p[0].size)) for p, a in zip(ps, at)])
        return [out[j * r:(j + 1) * r] for j in range(4)] + [(d, d, 0 * d)], at[-1]

    (VK, VKi, VE, VF, VI), off = factors(V, pV, 1)  # x[0] = 1, for identities
    (WK, WKi, WE, WF, WI), _ = factors(W, pW, off)
    cop, opp = [], []
    for i in range(r):
        cop += [[(VE[i], WK[i]), (VI, WE[i])], [(VF[i], WI), (VKi[i], WF[i])]]
        opp += [[(VK[i], WE[i]), (VE[i], WI)], [(VI, WF[i]), (VF[i], WKi[i])]]
    ents = [np.stack(np.broadcast_arrays(  # row, col, generator, V value, W value
        ar[:, None] * dw + br, ac[:, None] * dw + bc, g % (2 * r), ax[:, None], bx)
    ).reshape(5, -1) for g, pairs in enumerate(cop + opp) for (ar, ac, ax), (br, bc, bx) in pairs]
    grow, gcol, gg, xv, xw = np.concatenate(ents, axis=1)
    ncop = sum(e.shape[1] for e in ents[:4 * r])

    def join(lkey, rkey):  # every pair (i, j) with lkey[i] == rkey[j]
        cnt = np.bincount(rkey, minlength=mask.size)
        c = cnt[lkey]
        i = np.repeat(np.arange(lkey.size), c)
        at = np.repeat(np.cumsum(cnt)[lkey] - np.cumsum(c), c) + np.arange(c.sum())
        return i, np.argsort(rkey, kind="stable")[at]

    r1, e1 = np.flatnonzero(mask[rows]), np.flatnonzero(mask[gcol[:ncop]])
    e2, r2 = ncop + np.flatnonzero(mask[grow[ncop:]]), np.flatnonzero(mask[cols])
    (a, b), (c, d) = join(cols[r1], grow[e1]), join(gcol[e2], rows[r2])
    ri, ei = np.concatenate([r1[a], r2[d]]), np.concatenate([e1[b], e2[c]])
    left = np.concatenate([pos[rows[r1[a]]], pos[grow[e2[c]]]])
    right = np.concatenate([pos[gcol[e1[b]]], pos[cols[r2[d]]]])
    slots, out = np.unique((left * 2 * r + gg[ei]) * k + right, return_inverse=True)
    order = np.argsort(out, kind="stable")
    used, gi = np.unique(ei[order], return_inverse=True)
    P = _GuardPlan(mask, pV, pW, rows, xv[used], xw[used],
                   int(np.searchsorted(used, ncop)), ri[order], gi,
                   np.flatnonzero(np.diff(out[order], prepend=-1)), slots)
    for arr in [f for f in P if isinstance(f, np.ndarray)] + [x for p in pV + pW for x in p]:
        arr.flags.writeable = False
    return P


def _check_intertwines(V: WeightModule, W: WeightModule, R) -> None:
    """Raise unless R Delta(x) = Delta^op(x) R for every generator x, on
    the kept rows and entry patterns of `_plan`; R is the factors
    (kappa, N) of one crossing with a single-slot V, as `_r_factors` holds
    them.  W's E_i is read on its weight grading only, so a call raises if
    E_i has a nonzero off it.  Each call forms values only
    (`_guard_residuals`).
    """
    P = _plan(V, W, R)[1]
    for i, p in enumerate(P.pW[:V.datum.rank]):
        if np.count_nonzero(W.E[i][p]) != np.count_nonzero(W.E[i]):
            raise ValueError(f"{W.name}: E_{i} has a nonzero off its weight grading")
    if not P.starts.size:
        return
    sub, bsub = _guard_residuals(V, W, R, P)
    # entrywise backward-error bound: entries span q^{+-depth}, so a single
    # global scale would either mask shallow errors or reject harmless
    # roundoff in the deep rows.  Off the output slots it holds with room.
    if np.any(sub - 100 * 1e-10 * bsub > 100 * 1e-10):
        worst = float(np.max(sub / (bsub + 1.0)))
        raise ValueError(f"R fails to intertwine the coproduct: {worst:.2e}")


def _guard_residuals(V: WeightModule, W: WeightModule, R, P: _GuardPlan) -> tuple:
    """(|R Delta(x) - Delta^op(x) R|, |R| |Delta(x)| + |Delta^op(x)| |R|)
    per output slot of P, from this call's R = (kappa, N), V and W; the
    values of kappa (1 + N) are kappa[row] times (1 + N)'s entries."""
    rv = R[0][P.rows] * np.concatenate([np.ones(R[0].size), R[1].data])
    x = [np.ones(1)]
    for X, ps in ((V, P.pV), (W, P.pW)):
        x += [X.K.ravel(), 1.0 / X.K.ravel()] + [Y[p] for Y, p in zip(X.E + X.F, ps)]
    x = np.concatenate(x)
    gen = x[P.xv] * x[P.xw]
    gen[P.ncop:] *= -1
    sub = np.abs(np.add.reduceat(rv[P.ri] * gen[P.gi], P.starts))
    return sub, np.add.reduceat(np.abs(rv)[P.ri] * np.abs(gen)[P.gi], P.starts)


def r21_matrix(V: WeightModule, W: WeightModule) -> np.ndarray:
    """Matrix of R^{21} on V (x) W: flip-conjugated R of (W, V)."""
    p = flip_index(W, V)
    return r_matrix(W, V)[np.ix_(p, p)]


# ---------------------------------------------------------------------------
# characters and central scalars

def character(W: WeightModule, xi: Weight) -> float:
    """chi_W evaluated at q^{xi}: sum_b q^{<xi, wt_b>}."""
    return float(sum(W.qh(xi)))


def casimir_ratio(datum: CartanDatum, q, lam1: Weight, lam2: Weight) -> float:
    """Ratio of the central scalars on two Vermas: q^{<l1+l2+2rho, l1-l2>}."""
    q = check_q(q)
    return q ** float(datum.pairing(lam1 + lam2 + 2 * datum.rho, lam1 - lam2))


def unitriangular_solve(kap: np.ndarray, N: sp.csr_matrix, B: np.ndarray,
                        cap: int) -> np.ndarray:
    """Solve R X = B for R = diag(kappa)(1 + N) given as its factors, N
    sparse with N^(cap+1) = 0 (as `_r_factors` returns them).

    The finite Neumann series keeps each row's error relative to its own
    scale; a dense LU would smear the deep rows' magnitude everywhere.
    """
    Y = B / kap[:, None]
    term = Y
    for _ in range(cap):
        term = -(N @ term)
        Y = Y + term
        if not np.any(term):
            break
    return Y


def omega_tilde(W: WeightModule, M: TruncatedVerma):
    """Central-element action on M: (id (x) Tr_W)(R^{-1} (R21)^{-1} (1 (x) q^{2rho})).

    Returns (operator on M as a GradedMap, the scalar chi_W(q^{-2 lam - 2 rho})).
    The operator equals scalar * id on rows of depth <= D - height_span(W).
    Entries at depth d cancel between terms of size q^{-2d}, so absolute
    accuracy decays toward the boundary; read interior rows.
    """
    datum = M.datum
    span = W.height_span()
    if M.depth < span:
        raise ValueError("Verma truncation too shallow for this W")
    T = tensor_module(M, W)
    q2rho = np.kron(np.eye(M.dim), np.diag(W.qh(2 * datum.rho)))
    p = flip_index(W, M)  # R21 on M (x) W is R_{W,M} under p, and `_crossing` flips by p too
    kap, N = _r_factors(W, M)
    inner = unitriangular_solve(kap[p], N[p][:, p], q2rho, span)
    X = unitriangular_solve(*_r_factors(M, W), inner, span)
    O = partial_trace(X, T, 1)
    scalar = character(W, -2 * (M.hw + datum.rho))
    return GradedMap(M, M, O), scalar


# ---------------------------------------------------------------------------
# relation checks

def relation_residuals(V: WeightModule) -> float:
    """Max residual over the defining relations on this module's matrices.

    For truncated Vermas the F-side relations are only read on rows deep
    enough that no dropped term can contaminate them.
    """
    d = V.datum
    q = V.q
    r = d.rank
    A = d.cartan_matrix
    n = V.dim
    worst = 0.0

    def acc(res, m, scale=1.0):
        # relative residual: float error grows with the entry magnitudes
        nonlocal worst
        if isinstance(V, TruncatedVerma):
            res = res[:, V.exact_mask(m)]
        if res.size:
            worst = max(worst, float(np.max(np.abs(res))) / max(scale, 1.0))

    for i in range(r):
        alpha_i = d.simple_roots[i]
        Ki = V.K[i]
        qi = q ** d.d[i]
        for j in range(r):
            alpha_j = d.simple_roots[j]
            # K_i E_j K_i^{-1} = q^{<alpha_i, alpha_j>} E_j
            c = q ** float(d.pairing(alpha_i, alpha_j))
            sE = float(np.max(np.abs(V.E[j]))) if V.E[j].size else 0.0
            sF = float(np.max(np.abs(V.F[j]))) if V.F[j].size else 0.0
            acc(Ki[:, None] * V.E[j] * (1.0 / Ki)[None, :] - c * V.E[j], 0, sE)
            acc(Ki[:, None] * V.F[j] * (1.0 / Ki)[None, :] - V.F[j] / c, 1, sF)
            # [E_i, F_j] = delta_ij (K_i - K_i^{-1})/(q_i - q_i^{-1})
            ef = V.E[i] @ V.F[j]
            fe = V.F[j] @ V.E[i]
            comm = ef - fe
            s = max(float(np.max(np.abs(ef))), float(np.max(np.abs(fe)))) if ef.size else 0.0
            if i == j:
                comm = comm - np.diag((Ki - 1.0 / Ki) / (qi - 1.0 / qi))
            acc(comm, 1, s)
            if i != j:
                m = 1 - int(A[i, j])
                for X in (V.E, V.F):
                    s_sum = np.zeros((n, n), dtype=complex)
                    scale = 0.0
                    for s in range(m + 1):
                        term = np.linalg.matrix_power(X[i], s) @ X[j] @ \
                            np.linalg.matrix_power(X[i], m - s)
                        term = qbinom(qi, m, s) * term
                        if term.size:
                            scale = max(scale, float(np.max(np.abs(term))))
                        s_sum += (-1) ** s * term
                    acc(s_sum, m + 1 if X is V.F else 0, scale)
    return worst
