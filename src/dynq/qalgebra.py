"""Weight modules over the quantized enveloping algebra.

Finite-dimensional irreps, truncated Verma modules, duals, tensor products,
the non-dynamical R-matrix, characters, and the central-element action.
Module matrices (E, F) and R-matrices are dense complex128; `r_matrix`
applies the coproduct generators as sparse CSR matrices.

Exact `Weight`s live at module and op granularity: one per distinct weight
of a module (its `weights` share them block by block), one per highest
weight or evaluation point.  Data indexed by basis vector goes through the
integer lattice offsets of a module from its first weight
(`WeightModule.offsets`): q^xi (`qh`), the K_i diagonals (`K`), kappa and
the R-matrix weight matching, the weights of a tensor product, and the
weight classes of slot groups of a tensor word (`slot_classes`).  A
truncated Verma's basis, F and offsets depend only on (datum, q, depth) and
come from a memoized skeleton.

Conventions (fixed once, gated by the consistency suite):
    K_i = q^{d_i h_i},  Delta(E_i) = E_i (x) K_i + 1 (x) E_i,
    Delta(F_i) = F_i (x) 1 + K_i^{-1} (x) F_i,
    S(E_i) = -E_i K_i^{-1},  S(F_i) = -K_i F_i,
    [E_i, F_j] = delta_ij (K_i - K_i^{-1}) / (q_i - q_i^{-1}).
With these, S^2 = Ad q^{2 rho} and the R-matrix normalizes as kappa (1 + N)
with N strictly raising the first slot.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .cache import Memo
from .cartan import CartanDatum, Weight

PIVOT_TOL = 1e-9


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
    """Finite basis, homogeneous basis vectors, generator matrices per node.

    E[i], F[i] are dim x dim complex matrices.  `weights` holds one exact
    Weight per basis vector, the same object across a weight block; every
    per-vector computation reads the integer `offsets` instead, through
    qh(xi) = diag(q^{<xi, wt_b>}) and its simple-root rows K, which is all
    of q^h that ever gets used.
    """

    datum: CartanDatum
    q: float
    kind: str
    weights: tuple
    E: tuple
    F: tuple
    name: str = ""
    parent: "WeightModule" = None
    slots: tuple = None

    def __post_init__(self):
        self.dim = len(self.weights)
        blocks = {}
        for idx, w in enumerate(self.weights):
            blocks.setdefault(w, []).append(idx)
        self.blocks = {w: np.array(ix, dtype=int) for w, ix in blocks.items()}
        if self.slots is None:
            self.slots = (self,)

    @cached_property
    def offsets(self) -> np.ndarray:
        """wt_b - wt_0 in integer simple-root coordinates, one row per b.

        Raises ValueError when the weights do not lie in one coset of the
        root lattice, which no module built here does.
        """
        w0 = self.weights[0]
        rows = {}
        for w in self.blocks:
            diff = (w - w0).coords
            if any(c.denominator != 1 for c in diff):
                raise ValueError(f"weights {w0} and {w} differ by a non-integral vector")
            rows[w] = [int(c) for c in diff]
        out = np.array([rows[w] for w in self.weights], dtype=int)
        out.flags.writeable = False
        return out

    def qh(self, xi: Weight) -> np.ndarray:
        """Diagonal of the q^{xi} action: q^{<xi, wt_b>} per basis vector."""
        zero = np.zeros((1, self.datum.rank), dtype=int)
        return _q_pairings(self.q, self.datum, xi, zero,
                           self.weights[0], self.offsets)[0]

    @cached_property
    def K(self) -> np.ndarray:
        """Read-only diagonals of the K_i: row i is qh(alpha_i)."""
        d = self.datum
        out = _q_pairings(self.q, d, d.zero_weight(), np.eye(d.rank, dtype=int),
                          self.weights[0], self.offsets)
        out.flags.writeable = False
        return out

    def weight_set(self):
        return tuple(self.blocks.keys())

    def block(self, w: Weight) -> np.ndarray:
        return self.blocks.get(w, np.array([], dtype=int))

    def height_span(self) -> int:
        hts = self.offsets.sum(axis=1)
        return int(hts.max() - hts.min())

    @cached_property
    def dual(self) -> "WeightModule":
        """Right dual: (x . f)(v) = f(S(x) v), basis dual to V's, weight -wt."""
        d = self.datum
        weights = tuple(-w for w in self.weights)
        E, F = [], []
        for i, Kdiag in enumerate(self.K):
            Kinv = 1.0 / Kdiag
            E.append(-(self.E[i] * Kinv[None, :]).T)   # S(E_i) = -E_i K_i^{-1}
            F.append(-(Kdiag[:, None] * self.F[i]).T)  # S(F_i) = -K_i F_i
        return WeightModule(d, self.q, "dual", weights, tuple(E), tuple(F),
                            name=f"({self.name})*", parent=self)

    @cached_property
    def left_dual(self) -> "WeightModule":
        """Left dual through S^{-1}; used to contract m^op((S^{-1} (x) id) . )."""
        d = self.datum
        weights = tuple(-w for w in self.weights)
        E, F = [], []
        for i, Kdiag in enumerate(self.K):
            Kinv = 1.0 / Kdiag
            E.append(-(Kinv[:, None] * self.E[i]).T)   # S^{-1}(E_i) = -K_i^{-1} E_i
            F.append(-(self.F[i] * Kdiag[None, :]).T)  # S^{-1}(F_i) = -F_i K_i
        return WeightModule(d, self.q, "ldual", weights, tuple(E), tuple(F),
                            name=f"*({self.name})", parent=self)

    def __repr__(self):
        return f"<{self.kind} {self.name or ''} dim={self.dim}>"


@dataclass(eq=False)
class TruncatedVerma(WeightModule):
    hw: Weight = None
    depth: int = 0
    depths: np.ndarray = None

    @property
    def hw_vector(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[0] = 1.0
        return v

    def exact_mask(self, margin: int) -> np.ndarray:
        """Rows whose depth keeps `margin` away from the truncation boundary."""
        return self.depths <= self.depth - margin


def same_space(a: WeightModule, b: WeightModule) -> bool:
    return a is b or (a.dim == b.dim and a.weights == b.weights)


@dataclass(eq=False)
class GradedMap:
    """Linear map source -> target shifting every weight by `degree`."""

    source: WeightModule
    target: WeightModule
    degree: Weight
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.shape != (self.target.dim, self.source.dim):
            raise ValueError(f"matrix shape {self.matrix.shape} does not fit the modules")

    def __matmul__(self, other: "GradedMap") -> "GradedMap":
        if not same_space(self.source, other.target):
            raise ValueError("graded maps not composable")
        return GradedMap(other.source, self.target, self.degree + other.degree,
                         self.matrix @ other.matrix)

    def __add__(self, other: "GradedMap") -> "GradedMap":
        if self.degree != other.degree:
            raise ValueError("cannot add graded maps of different degrees")
        return GradedMap(self.source, self.target, self.degree,
                         self.matrix + other.matrix)

    def __mul__(self, scalar) -> "GradedMap":
        return GradedMap(self.source, self.target, self.degree, scalar * self.matrix)

    __rmul__ = __mul__

    def inverse(self) -> "GradedMap":
        if not self.degree.is_zero():
            raise ValueError("only degree-0 maps invert within the grading")
        return GradedMap(self.target, self.source, self.degree,
                         np.linalg.inv(self.matrix))

    def graded_residual(self) -> float:
        """Largest entry living outside the declared weight grading."""
        bad = 0.0
        for w, cols in self.source.blocks.items():
            want = w + self.degree
            rows_ok = self.target.block(want)
            mask = np.ones(self.target.dim, dtype=bool)
            mask[rows_ok] = False
            if cols.size:
                sub = self.matrix[np.ix_(np.where(mask)[0], cols)]
                if sub.size:
                    bad = max(bad, float(np.max(np.abs(sub))))
        return bad

    @staticmethod
    def identity(module: WeightModule) -> "GradedMap":
        return GradedMap(module, module, module.datum.zero_weight(),
                         np.eye(module.dim, dtype=complex))


def _q_pairings(q: float, datum: CartanDatum, v0: Weight, x: np.ndarray,
                w0: Weight, y: np.ndarray) -> np.ndarray:
    """q^{<v0 + x_a, w0 + y_b>} for integer offset rows x_a and y_b.

    Over a common denominator D of the coordinates of v0 and w0 every
    weight here is an integer vector over D, so each exponent is one exact
    quotient of Python ints by D^2 and rounds as float(Fraction) does.
    """
    r = datum.rank
    D = math.lcm(*(c.denominator for c in v0.coords + w0.coords))
    B = [[int(b) for b in row] for row in datum.bilinear]
    v = [c.numerator * (D // c.denominator) for c in v0.coords]
    w = [c.numerator * (D // c.denominator) for c in w0.coords]
    # (v0 + x_a) B, and w0 + y_b, both scaled by D
    left = [[sum((v[i] + D * row[i]) * B[i][j] for i in range(r)) for j in range(r)]
            for row in x.tolist()]
    right = [[w[j] + D * row[j] for j in range(r)] for row in y.tolist()]
    D2 = D * D
    return np.array([[q ** (sum(a * b for a, b in zip(la, wb)) / D2) for wb in right]
                     for la in left])


# ---------------------------------------------------------------------------
# tensor utilities


def flip_index(V: WeightModule, W: WeightModule) -> np.ndarray:
    """p with flip_matrix(V, W) @ X == X[p] and X @ flip_matrix(W, V) == X[:, p]."""
    return np.arange(V.dim * W.dim).reshape(V.dim, W.dim).T.ravel()


def flip_matrix(V: WeightModule, W: WeightModule) -> np.ndarray:
    """Permutation matrix of v (x) w -> w (x) v, domain index a*dimW + b."""
    return np.eye(V.dim * W.dim)[flip_index(V, W)]


def tensor_module(V: WeightModule, W: WeightModule, name: str = "") -> WeightModule:
    """V (x) W with the coproduct action; slot lists flatten.

    Weights and offsets come from the factors' integer lattice offsets:
    one Weight per distinct weight, shared by its whole block.
    """
    if V.datum is not W.datum or V.q != W.q:
        raise ValueError("tensor factors over different Cartan data or q")
    dv, dw = V.dim, W.dim
    off = (V.offsets[:, None, :] + W.offsets[None, :, :]).reshape(dv * dw, -1)
    rows = [tuple(o) for o in off.tolist()]
    base = V.weights[0] + W.weights[0]
    shared = {o: base + Weight(o) for o in dict.fromkeys(rows)}
    weights = tuple(shared[o] for o in rows)
    Iv, Iw = np.eye(dv), np.eye(dw)
    E, F = [], []
    for i in range(V.datum.rank):
        Kw = np.diag(W.K[i])
        Kinv_v = np.diag(1.0 / V.K[i])
        E.append(np.kron(V.E[i], Kw) + np.kron(Iv, W.E[i]))
        F.append(np.kron(V.F[i], Iw) + np.kron(Kinv_v, W.F[i]))
    T = WeightModule(V.datum, V.q, "tensor", weights, tuple(E), tuple(F),
                     name=name or f"({V.name})x({W.name})",
                     slots=V.slots + W.slots)
    off.flags.writeable = False
    T.offsets = off  # already known; fills the cached property
    return T


def tensor_many(mods) -> WeightModule:
    mods = list(mods)
    out = mods[0]
    for m in mods[1:]:
        out = tensor_module(out, m)
    return out


def trivial_module(datum: CartanDatum, q: float) -> WeightModule:
    zero = datum.zero_weight()
    z = np.zeros((1, 1), dtype=complex)
    r = datum.rank
    return WeightModule(datum, q, "trivial", (zero,), (z,) * r, (z,) * r, name="1")


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
            base = base + mods[s].weights[0]
        offs.append(off.reshape(-1, r))
        bases.append(base)
    index = {}
    for n, row in enumerate(map(tuple, np.hstack(offs).tolist())):
        index.setdefault(row, []).append(n)
    return {tuple(b + Weight(row[g * r:(g + 1) * r]) for g, b in enumerate(bases)):
            np.array(ix) for row, ix in index.items()}


def embed_slots(T: WeightModule, X: np.ndarray, slots) -> np.ndarray:
    """Extend an operator on the listed slots (in that order) by identity."""
    dims, digits = slot_index_arrays(T)
    rest = [j for j in range(len(dims)) if j not in slots]
    order = list(slots) + rest
    # n_of[old linear] = linear index in the reordered basis
    n_of = np.zeros(T.dim, dtype=int)
    for j in order:
        n_of = n_of * dims[j] + digits[j]
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
# Verma modules

def _words_of_content(content):
    """Distinct words with letter i used content[i] times, lexicographic."""
    out = []
    counts = list(content)
    word = []

    def rec():
        if not any(counts):
            out.append(tuple(word))
            return
        for i, c in enumerate(counts):
            if c:
                counts[i] -= 1
                word.append(i)
                rec()
                word.pop()
                counts[i] += 1

    rec()
    return out


def _rref(rows: np.ndarray, tol: float = PIVOT_TOL):
    """Reduced row echelon form; columns scanned left to right."""
    m = np.array(rows, dtype=complex)
    if m.size == 0:
        return m.reshape(0, rows.shape[1] if rows.ndim == 2 else 0), []
    # scale-normalize rows so the absolute pivot tolerance is meaningful
    norms = np.max(np.abs(m), axis=1)
    keep = norms > tol
    m = m[keep] / norms[keep, None]
    pivots = []
    r = 0
    for c in range(m.shape[1]):
        if r == m.shape[0]:
            break
        p = r + int(np.argmax(np.abs(m[r:, c])))
        if abs(m[p, c]) <= tol:
            continue
        m[[r, p]] = m[[p, r]]
        m[r] = m[r] / m[r, c]
        col = m[:, c].copy()
        col[r] = 0.0
        m -= np.outer(col, m[r])
        pivots.append(c)
        r += 1
    return m[:r], pivots


def _serre_generators(datum: CartanDatum, q: float):
    """Serre elements in the free algebra on the F_i, as {content: rows}."""
    gens = {}
    A = datum.cartan_matrix
    r = datum.rank
    for i in range(r):
        qi = q ** datum.d[i]
        for j in range(r):
            if i == j:
                continue
            m = 1 - int(A[i, j])
            content = [0] * r
            content[i] = m
            content[j] = 1
            content = tuple(content)
            words = _words_of_content(content)
            widx = {w: t for t, w in enumerate(words)}
            row = np.zeros(len(words), dtype=complex)
            for s in range(m + 1):
                w = (i,) * s + (j,) + (i,) * (m - s)
                row[widx[w]] += (-1) ** s * qbinom(qi, m, s)
            gens.setdefault(content, []).append(row)
    return gens


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


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
    """The highest-weight-free part of a truncated Verma: basis and F."""

    contents: list     # contents by height, in basis order
    words: dict        # content -> ordered word list
    widx: dict         # content -> word -> position
    basis_loc: dict    # content -> positions of basis words
    expand: dict       # content -> (n_words x n_basis) expansion of classes
    ideal: dict        # content -> reduced spanning rows of the ideal slice
    start: dict        # content -> global index of its first basis vector
    betas: dict        # content -> its weight below the highest weight
    pairs: dict        # content -> <beta, alpha_i> for each i, as ints
    offsets: np.ndarray  # -content per basis vector: the Verma's offsets
    depths: np.ndarray
    F: tuple

    def span(self, content) -> slice:
        """Global indices of the basis vectors of one content."""
        return slice(self.start[content],
                     self.start[content] + len(self.basis_loc[content]))


def _content_minus(content, i):
    c = list(content)
    c[i] -= 1
    return tuple(c) if c[i] >= 0 else None


def _verma_skeleton(datum: CartanDatum, q: float, depth: int) -> _VermaSkeleton:
    """Basis classes and F matrices of a Verma truncated below `depth`.

    Basis classes of words in the F_i are fixed degree by degree: the degree
    slice of the two-sided Serre ideal is row reduced (lexicographic word
    order) and the non-pivot words survive.  None of this depends on the
    highest weight; the Serre rows depend on q.  F out of the last degree is
    dropped.  The arrays are shared by every Verma built on the skeleton and
    are read-only.
    """
    r = datum.rank
    serre = _serre_generators(datum, q)

    zero_content = (0,) * r
    contents = [zero_content]
    words = {zero_content: [()]}
    widx = {zero_content: {(): 0}}
    basis_loc = {zero_content: [0]}
    expand = {zero_content: np.eye(1, dtype=complex)}
    ideal = {zero_content: np.zeros((0, 1), dtype=complex)}

    for h in range(1, depth + 1):
        for content in _compositions(h, r):
            contents.append(content)
            wl = _words_of_content(content)
            wl.sort()
            wi = {w: t for t, w in enumerate(wl)}
            words[content] = wl
            widx[content] = wi
            rows = []
            for i in range(r):
                if content[i] == 0:
                    continue
                sub = list(content)
                sub[i] -= 1
                sub = tuple(sub)
                subwords = words[sub]
                for row in ideal[sub]:
                    pre = np.zeros(len(wl), dtype=complex)
                    post = np.zeros(len(wl), dtype=complex)
                    for t, c in enumerate(row):
                        if c != 0:
                            pre[wi[(i,) + subwords[t]]] += c
                            post[wi[subwords[t] + (i,)]] += c
                    rows.append(pre)
                    rows.append(post)
            for g in serre.get(content, []):
                rows.append(g.astype(complex))
            rows = np.array(rows) if rows else np.zeros((0, len(wl)), dtype=complex)
            red, pivots = _rref(rows)
            ideal[content] = red
            piv = set(pivots)
            bl = [t for t in range(len(wl)) if t not in piv]
            basis_loc[content] = bl
            bpos = {t: s for s, t in enumerate(bl)}
            exp = np.zeros((len(wl), len(bl)), dtype=complex)
            for t in bl:
                exp[t, bpos[t]] = 1.0
            for rr, p in zip(red, pivots):
                exp[p, :] = -rr[bl]
            expand[content] = exp

    # global basis, ordered by (height, content, local word order)
    B = [[int(b) for b in row] for row in datum.bilinear]
    start = {}
    betas = {}
    pairs = {}
    offsets = []
    for content in contents:
        start[content] = len(offsets)
        betas[content] = Weight(content)
        pairs[content] = tuple(sum(c * B[j][i] for j, c in enumerate(content))
                               for i in range(r))
        offsets.extend([[-c for c in content]] * len(basis_loc[content]))
    offsets = np.array(offsets, dtype=int)
    depths = -offsets.sum(axis=1)
    sk = _VermaSkeleton(contents, words, widx, basis_loc, expand, ideal,
                        start, betas, pairs, offsets, depths, ())

    # F_i into each content, read off the class expansion of F_i w
    Fmats = [np.zeros((len(depths),) * 2, dtype=complex) for _ in range(r)]
    for content in contents[1:]:
        for i in range(r):
            sub = _content_minus(content, i)
            if sub is None:
                continue
            for s, t in enumerate(basis_loc[sub]):
                w = words[sub][t]
                Fmats[i][sk.span(content), start[sub] + s] = \
                    expand[content][widx[content][(i,) + w]]
    for arr in Fmats + [offsets, depths]:
        arr.flags.writeable = False
    sk.F = tuple(Fmats)
    return sk


def _build_verma(datum: CartanDatum, q, hw: Weight, depth: int) -> TruncatedVerma:
    """Verma module with highest weight hw, truncated below depth `depth`.

    The basis, F, the depths and the offsets come from `_verma_skeleton`,
    memoized on (datum, q, depth) since they do not depend on hw.  Only E
    and the weights hw - beta are built here; hw is paired with each simple
    root once, and the skeleton's integer pairings do the rest.  E is exact
    everywhere; F out of the last degree is dropped, which is what the
    depth-margin contract of every downstream computation accounts for.
    All matrices are dense.
    """
    q = check_q(q)
    depth = int(depth)
    sk = _SKELETON_MEMO.get((datum, q, depth),
                            lambda: _verma_skeleton(datum, q, depth))
    r = datum.rank
    span = sk.span
    N = len(sk.depths)

    # E_i out of each content, built by the commutation
    # [E_i, F_j] = delta_ij (K_i - K_i^{-1})/(q_i - q_i^{-1}); the block of
    # E_i from `content` into content - e_i is a view into Emats[i]
    hw_pair = [datum.pairing(hw, alpha) for alpha in datum.simple_roots]
    Emats = [np.zeros((N, N), dtype=complex) for _ in range(r)]
    for content in sk.contents[1:]:
        for i in range(r):
            tgt = _content_minus(content, i)
            if tgt is None:
                continue
            qi = q ** datum.d[i]
            # <hw - beta, alpha_i> at beta = tgt, exact until this float
            x = float(hw_pair[i] - sk.pairs[tgt][i])
            cst = (q**x - q**(-x)) / (qi - 1.0 / qi)
            blk = Emats[i][span(tgt), span(content)]
            for s, t in enumerate(sk.basis_loc[content]):
                w = sk.words[content][t]
                j = w[0]
                sub = _content_minus(content, j)
                u = sk.expand[sub][sk.widx[sub][w[1:]]]
                # F_j E_i u
                subsub = _content_minus(sub, i)
                if subsub is not None:
                    eu = Emats[i][span(subsub), span(sub)] @ u
                    blk[:, s] += sk.F[j][span(tgt), span(subsub)] @ eu
                if i == j:
                    blk[:, s] += cst * u

    wts = []
    for content in sk.contents:
        wts.extend([hw - sk.betas[content]] * len(sk.basis_loc[content]))
    name = f"M[{','.join(str(float(c)) for c in hw.coords)}]"
    M = TruncatedVerma(datum, q, "verma", tuple(wts),
                       tuple(Emats), sk.F, name=name,
                       hw=hw, depth=depth, depths=sk.depths)
    M.offsets = sk.offsets  # already known; fills the cached property
    return M


# ---------------------------------------------------------------------------
# irreducibles

def lowest_weight(datum: CartanDatum, hw: Weight) -> Weight:
    """w_0(hw) computed by walking into the antidominant chamber."""
    nu = hw
    moved = True
    while moved:
        moved = False
        for alpha in datum.simple_roots:
            c = datum.coroot_pairing(nu, alpha)
            if c > 0:
                nu = nu - c * alpha
                moved = True
    return nu


def build_irrep(datum: CartanDatum, q, hw: Weight) -> WeightModule:
    """Simple module V(hw) as the contravariant-form quotient of a Verma."""
    q = check_q(q)
    if not datum.is_dominant_integral(hw):
        raise ValueError(f"{hw} is not dominant integral")
    lw = lowest_weight(datum, hw)
    depth = int((hw - lw).height())
    M = build_verma(datum, q, hw, depth)

    # contravariant form per weight block, built by C(F_i u, y) = C(u, E_i y)
    contents = M.blocks
    order = sorted(contents, key=lambda w: (int((hw - w).height()), w.coords))
    Cblocks = {}
    keep = {}
    proj = {}
    for w in order:
        ix = np.array(contents[w], dtype=int)
        n = len(ix)
        if w == hw:
            C = np.eye(1, dtype=complex)
        else:
            # C(F_i u, y) = C(u, E_i y); a block may need the F-images of
            # several simple roots together, so solve the stacked system
            Fcols, Gs = [], []
            for i in range(datum.rank):
                up = w + datum.simple_roots[i]
                if up not in contents:
                    continue
                ixu = np.array(contents[up], dtype=int)
                Fcols.append(M.F[i][np.ix_(ix, ixu)])
                Gs.append(Cblocks[up] @ M.E[i][np.ix_(ixu, ix)])
            Fall = np.hstack(Fcols)
            G = np.vstack(Gs)
            sol, _, _, _ = scipy.linalg.lstsq(Fall, np.eye(n, dtype=complex),
                                              lapack_driver="gelsy")
            if np.linalg.norm(Fall @ sol - np.eye(n)) > 1e-8:
                raise RuntimeError(f"contravariant recursion stuck at {w}")
            C = sol.T @ G
        Cblocks[w] = C
        red, pivots = _rref(C)
        keep[w] = np.array(pivots, dtype=int)
        # kernel basis from the RREF rows
        npiv = [c for c in range(n) if c not in set(pivots)]
        K = np.zeros((n, len(npiv)), dtype=complex)
        for t, c in enumerate(npiv):
            K[c, t] = 1.0
            for rr, p in zip(red, pivots):
                K[p, t] = -rr[c]
        A = np.zeros((n, n), dtype=complex)
        for t, p in enumerate(keep[w]):
            A[p, t] = 1.0
        A[:, len(keep[w]):] = K
        proj[w] = np.linalg.inv(A)[: len(keep[w]), :]
        # irreducibility of the quotient: restricted form stays full rank
        sub = C[np.ix_(keep[w], keep[w])]
        if len(keep[w]) and np.linalg.matrix_rank(sub, tol=PIVOT_TOL) < len(keep[w]):
            raise RuntimeError("contravariant form degenerate on the quotient")

    new_index = []
    for w in order:
        ix = contents[w]
        for p in keep[w]:
            new_index.append((w, ix[p]))
    dim = len(new_index)
    wts = tuple(w for w, _ in new_index)
    carrier = np.zeros((M.dim, dim), dtype=complex)   # quotient basis into M
    for t, (w, gi) in enumerate(new_index):
        carrier[gi, t] = 1.0
    lift = np.zeros((dim, M.dim), dtype=complex)      # projection M -> quotient
    for w in order:
        ix = np.array(contents[w], dtype=int)
        nk = len(keep[w])
        rows = [s for s, (wc, _) in enumerate(new_index) if wc == w]
        lift[np.ix_(rows, ix)] = proj[w]
    E = tuple(lift @ M.E[i] @ carrier for i in range(datum.rank))
    F = tuple(lift @ M.F[i] @ carrier for i in range(datum.rank))
    name = "V(" + ",".join(str(datum.coroot_pairing(hw, a)) for a in datum.simple_roots) + ")"
    return WeightModule(datum, q, "irrep", wts, E, F, name=name)


# ---------------------------------------------------------------------------
# R-matrix

def _kappa_diag(V: WeightModule, W: WeightModule) -> np.ndarray:
    """q^{<wt_a, wt_b>} on the basis of V (x) W, row-major."""
    return _q_pairings(V.q, V.datum, V.weights[0], V.offsets,
                       W.weights[0], W.offsets).ravel()


def _kron_csr(*pairs) -> sp.csr_matrix:
    """Sum of A (x) B over pairs of dense factors, as a canonical CSR matrix.

    Built by index arithmetic: on small modules scipy's own kron costs more
    than every product the matrix then takes part in.  Column indices
    ascend within each row, so a product sums its terms in the order a
    dense product does.
    """
    n = pairs[0][0].shape[0] * pairs[0][1].shape[0]
    m = pairs[0][0].shape[1] * pairs[0][1].shape[1]
    rows, cols, vals = [], [], []
    for A, B in pairs:
        ai, aj = np.nonzero(A)
        bk, bl = np.nonzero(B)
        rows.append((ai[:, None] * B.shape[0] + bk[None, :]).ravel())
        cols.append((aj[:, None] * B.shape[1] + bl[None, :]).ravel())
        vals.append((A[ai, aj][:, None] * B[bk, bl][None, :]).ravel())
    rows, cols, vals = (np.concatenate(x) for x in (rows, cols, vals))
    order = np.lexsort((cols, rows))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    out = sp.csr_matrix((vals[order], cols[order], indptr), shape=(n, m))
    out.sum_duplicates()
    return out


def r_matrix(V: WeightModule, W: WeightModule, T: WeightModule = None,
             tol: float = 1e-10) -> GradedMap:
    """R-matrix endomorphism of V (x) W, normalized kappa (1 + N).

    N strictly raises the first slot; it is solved degree by degree from the
    E-generator intertwining of P R with the coproduct. A rank drop in any
    degree slice means a resonance; that raises with the nullity reported.

    The coproduct generators (1 (x) E, E (x) K, kappa-scaled E (x) 1) act as
    sparse matrices, and the final guard is formed only on the rows and
    columns it reads.  N, R and each slice's residual stay dense n x n.
    Weights enter as integer lattice offsets from each module's first
    weight, so V and W must each lie in one root-lattice coset.
    """
    datum, q = V.datum, V.q
    if T is None:
        T = tensor_module(V, W)
    dv, dw = V.dim, W.dim
    n = dv * dw
    r = datum.rank
    kap = _kappa_diag(V, W)
    xv, xw = V.offsets, W.offsets

    # candidate raising shifts: differences of V-weights realizable in W too
    betas = {}
    vset = {tuple(o) for o in xv.tolist()}
    wset = {tuple(o) for o in xw.tolist()}
    for mu in vset:
        for mu2 in vset:
            b = tuple(c2 - c1 for c1, c2 in zip(mu, mu2))
            h = sum(b)
            if h <= 0 or any(c < 0 for c in b):
                continue
            if any(tuple(c - cb for c, cb in zip(nu, b)) in wset for nu in wset):
                betas[b] = h
    beta_order = sorted(betas, key=lambda b: (betas[b], b))
    units = [tuple(int(i == j) for j in range(r)) for i in range(r)]

    # second-slot truncation data (for Verma in the second slot)
    w_depth = None
    if isinstance(W, TruncatedVerma):
        w_depth = W.depths
    w_height = xw.sum(axis=1)

    def positions(shift_v, shift_w, hb):
        """(rows, cols) where the V weight moves by shift_v and the W weight
        by shift_w, sorted by column, then row; Verma columns too deep for
        height hb are dropped."""
        mv = (xv[None, :, :] == xv[:, None, :] + shift_v).all(axis=2)
        mw = (xw[None, :, :] == xw[:, None, :] + shift_w).all(axis=2)
        cols, rows = np.nonzero(np.kron(mv, mw))
        if w_depth is not None:
            ok = w_depth[cols % dw] + hb <= W.depth
            rows, cols = rows[ok], cols[ok]
        return rows, cols

    def by_col(rows, cols):
        heads, first = np.unique(cols, return_index=True)
        return dict(zip(heads.tolist(), np.split(rows, first[1:])))

    N = np.zeros((n, n), dtype=complex)
    Nparts = {}
    Iv, Iw = np.eye(dv), np.eye(dw)

    ops = []
    for i in range(r):
        A0 = _kron_csr((Iv, W.E[i]))
        A1 = _kron_csr((V.E[i], np.diag(W.K[i])))
        B1 = _kron_csr((V.E[i], Iw))
        rows = np.repeat(np.arange(n), np.diff(B1.indptr))
        B1.data = (1.0 / kap)[rows] * B1.data * kap[B1.indices]
        ops.append((A0, A1, B1, W.E[i]))

    def a0_at(WE, rows, cols):
        """Entries of A0 = 1 (x) WE at broadcast index arrays."""
        return np.where(rows // dw == cols // dw, WE[rows % dw, cols % dw], 0)

    for beta in beta_order:
        hb = betas[beta]
        bvec = np.array(beta)
        ut, us = positions(bvec, -bvec, hb)
        if ut.size == 0:
            continue
        inhom = []
        eqs = []
        for i, (A0, A1, B1, WE) in enumerate(ops):
            eqs.append(positions(bvec, np.array(units[i]) - bvec, hb))
            Nprev = Nparts.get(tuple(c - u for c, u in zip(beta, units[i])))
            C = np.zeros((n, n), dtype=complex)
            if beta == units[i]:
                C += (B1 - A1).toarray()
            if Nprev is not None:
                C += B1 @ Nprev - Nprev @ A1
            inhom.append(C)
        Nb = np.zeros((n, n), dtype=complex)
        if w_depth is None:
            # finite second slot: constraints flow both ways along raising
            # chains (raising dies at the top), so solve the slice globally;
            # all entries are O(1)-scaled here and one equilibrated least
            # squares is accurate
            rows_all = []
            rhs_all = []
            for i, (A0, A1, B1, WE) in enumerate(ops):
                et, es = eqs[i]
                if not et.size:
                    continue
                # (A0 N - N A0)[t, s] over the unknowns (ut, us) of N
                eq = (np.where(us[None, :] == es[:, None],
                               a0_at(WE, et[:, None], ut[None, :]), 0)
                      - np.where(ut[None, :] == et[:, None],
                                 a0_at(WE, us[None, :], es[:, None]), 0))
                rows_all.append(eq)
                rhs_all.append(-inhom[i][et, es])
            if not rows_all:
                continue
            eq = np.vstack(rows_all)
            rhs = np.concatenate(rhs_all)
            rs = np.max(np.abs(eq), axis=1)
            rs[rs == 0] = 1.0
            eq = eq / rs[:, None]
            rhs = rhs / rs
            cs = np.max(np.abs(eq), axis=0)
            cs[cs == 0] = 1.0
            eq = eq / cs[None, :]
            sol, _, rank, _ = scipy.linalg.lstsq(eq, rhs, lapack_driver="gelsy")
            if rank < ut.size:
                raise ValueError(
                    f"resonant weight data solving R at shift {Weight(beta)}: "
                    f"nullity {ut.size - rank}")
            Nb[ut, us] = sol / cs
        else:
            # Verma second slot: the equation at source column s couples its
            # unknowns only to columns one simple raise up, so descending
            # second-slot height is exact back substitution; a global least
            # squares would mix depth scales q^{-k} and lose the deep rows
            unk = by_col(ut, us)
            eq_by_col = [by_col(*e) for e in eqs]
            for s in sorted(unk, key=lambda s: -w_height[s % dw]):
                uts = unk[s]
                a, b = divmod(s, dw)
                rows = []
                rhs = []
                for i, (A0, A1, B1, WE) in enumerate(ops):
                    ts = eq_by_col[i].get(s)
                    if ts is None:
                        continue
                    rows.append(a0_at(WE, ts[:, None], uts[None, :]))
                    # (N A0)[t, s] over the columns already solved
                    cross = 0.0
                    for b2 in np.nonzero(WE[:, b])[0]:
                        cross = cross + WE[b2, b] * Nb[ts, a * dw + b2]
                    rhs.append(cross - inhom[i][ts, s])
                if not rows:
                    continue
                eq = np.vstack(rows)
                rhs = np.concatenate(rhs)
                rs = np.max(np.abs(eq), axis=1)
                rs[rs == 0] = 1.0
                eq = eq / rs[:, None]
                rhs = rhs / rs
                sol, _, rank, _ = scipy.linalg.lstsq(eq, rhs,
                                                     lapack_driver="gelsy")
                if rank < uts.size:
                    raise ValueError(
                        f"resonant weight data solving R at shift {Weight(beta)}: "
                        f"nullity {uts.size - rank}")
                Nb[uts, s] = sol
        # slice consistency, including columns that carry no unknowns
        for i, (A0, A1, B1, WE) in enumerate(ops):
            left, right = A0 @ Nb, Nb @ A0
            full = left - right + inhom[i]
            scale = 1.0 + float(np.max(np.abs(np.abs(left) + np.abs(right)
                                              + np.abs(inhom[i]))))
            et, es = eqs[i]
            bad = np.abs(full[et, es]) > tol * scale
            if bad.any():
                k = int(np.argmax(bad))
                raise ValueError(
                    f"R solve inconsistent at shift {Weight(beta)}: "
                    f"{abs(full[et[k], es[k]]):.2e}")
        Nparts[beta] = Nb
        N += Nb

    R = kap[:, None] * (np.eye(n) + N)

    # final guard: commutation with the full coproduct on safe rows/cols
    margin = max(betas.values(), default=0)
    mask = np.ones(n, dtype=bool)
    if w_depth is not None:
        mask &= np.tile(w_depth, dv) + 2 * margin + 1 <= W.depth
    if isinstance(V, TruncatedVerma):
        mask &= np.repeat(V.depths, dw) + 2 * margin + 1 <= V.depth
    keep = np.flatnonzero(mask)
    if keep.size:
        _check_intertwines(V, W, R, keep, tol)
    return GradedMap(T, T, datum.zero_weight(), R)


def _check_intertwines(V: WeightModule, W: WeightModule, R: np.ndarray,
                       keep: np.ndarray, tol: float) -> None:
    """Raise unless R Delta(x) = Delta^op(x) R for every generator x, read on
    the `keep` rows and columns and formed only there."""
    Iv, Iw = np.eye(V.dim), np.eye(W.dim)
    R_rows, R_cols = R[keep, :], R[:, keep]
    absR_rows, absR_cols = np.abs(R_rows), np.abs(R_cols)
    for i in range(V.datum.rank):
        KV, KW = np.diag(V.K[i]), np.diag(W.K[i])
        KVinv, KWinv = np.diag(1.0 / V.K[i]), np.diag(1.0 / W.K[i])
        for DX, DOX in (
            (_kron_csr((V.E[i], KW), (Iv, W.E[i])),
             _kron_csr((KV, W.E[i]), (V.E[i], Iw))),
            (_kron_csr((V.F[i], Iw), (KVinv, W.F[i])),
             _kron_csr((Iv, W.F[i]), (V.F[i], KWinv))),
        ):
            sub = np.abs((R_rows @ DX)[:, keep] - (DOX @ R_cols)[keep])
            # entrywise backward-error bound: entries span q^{+-depth}, so a
            # single global scale would either mask shallow errors or reject
            # harmless roundoff in the deep rows
            bsub = (absR_rows @ abs(DX))[:, keep] + (abs(DOX) @ absR_cols)[keep]
            if np.max(sub - 100 * tol * (bsub + 1.0)) > 0:
                worst = float(np.max(sub / (bsub + 1.0)))
                raise ValueError(
                    f"R fails to intertwine the coproduct: {worst:.2e}")


def r21_matrix(V: WeightModule, W: WeightModule, T: WeightModule = None,
               RWV: GradedMap = None) -> GradedMap:
    """R^{21} on V (x) W: flip-conjugated R of (W, V)."""
    if T is None:
        T = tensor_module(V, W)
    if RWV is None:
        RWV = r_matrix(W, V)
    p = flip_index(W, V)
    return GradedMap(T, T, V.datum.zero_weight(), RWV.matrix[np.ix_(p, p)])


# ---------------------------------------------------------------------------
# characters and central scalars

def character(W: WeightModule, xi: Weight) -> float:
    """chi_W evaluated at q^{xi}: sum_b q^{<xi, wt_b>}."""
    return float(sum(W.qh(xi)))


def casimir_ratio(datum: CartanDatum, q, lam1: Weight, lam2: Weight) -> float:
    """Ratio of the central scalars on two Vermas: q^{<l1+l2+2rho, l1-l2>}."""
    q = check_q(q)
    return q ** float(datum.pairing(lam1 + lam2 + 2 * datum.rho, lam1 - lam2))


def unitriangular_solve(R: np.ndarray, B: np.ndarray, cap: int) -> np.ndarray:
    """Solve R X = B for R = diag(kappa)(1 + N) with N nilpotent, N^(cap+1) = 0.

    The finite Neumann series keeps each row's error relative to its own
    scale; a dense LU would smear the deep rows' magnitude everywhere.
    """
    kap = np.diag(R)
    N = R / kap[:, None]
    np.fill_diagonal(N, 0.0)
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
    R = r_matrix(M, W, T)
    R21 = r21_matrix(M, W, T)
    q2rho = np.kron(np.eye(M.dim), np.diag(W.qh(2 * datum.rho)))
    X = unitriangular_solve(R.matrix, unitriangular_solve(R21.matrix, q2rho, span), span)
    O = partial_trace(X, T, 1)
    scalar = character(W, -2 * (M.hw + datum.rho))
    return GradedMap(M, M, datum.zero_weight(), O), scalar


# ---------------------------------------------------------------------------
# relation checks

def relation_residuals(V: WeightModule, depth_margin: int = None) -> float:
    """Max residual over the defining relations on this module's matrices.

    For truncated Vermas the F-side relations are only read on rows deep
    enough that no dropped term can contaminate them.
    """
    d = V.datum
    q = V.q
    r = d.rank
    A = d.cartan_matrix
    n = V.dim
    mask_for = None
    if isinstance(V, TruncatedVerma):
        mask_for = lambda m: V.depths <= V.depth - m
    worst = 0.0

    def acc(res, m, scale=1.0):
        # relative residual: float error grows with the entry magnitudes
        nonlocal worst
        if mask_for is not None:
            cols = mask_for(m)
            res = res[:, cols]
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
