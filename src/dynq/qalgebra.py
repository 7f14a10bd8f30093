"""Weight modules over the quantized enveloping algebra.

Finite-dimensional irreps, truncated Verma modules, duals, tensor products,
the non-dynamical R-matrix, characters, and the central-element action. All
matrices are dense complex128; weight bookkeeping rides on the exact rational
Weight coordinates from cartan.

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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np
import scipy.linalg

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

    E[i], F[i] are dim x dim complex matrices; the Cartan part acts through
    qh(xi) = diag(q^{<xi, wt_b>}), which is all of q^h that ever gets used.
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

    def qh(self, xi: Weight) -> np.ndarray:
        """Diagonal of the q^{xi} action: q^{<xi, wt_b>} per basis vector."""
        d = self.datum
        return np.array([self.q ** float(d.pairing(xi, w)) for w in self.weights])

    def weight_set(self):
        return tuple(self.blocks.keys())

    def block(self, w: Weight) -> np.ndarray:
        return self.blocks.get(w, np.array([], dtype=int))

    def height_span(self) -> int:
        hts = [w.height() for w in self.blocks]
        return int(max(hts) - min(hts))

    @cached_property
    def dual(self) -> "WeightModule":
        """Right dual: (x . f)(v) = f(S(x) v), basis dual to V's, weight -wt."""
        d = self.datum
        weights = tuple(-w for w in self.weights)
        E, F = [], []
        for i, alpha in enumerate(d.simple_roots):
            Kinv = 1.0 / self.qh(alpha)
            Kdiag = self.qh(alpha)
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
        for i, alpha in enumerate(d.simple_roots):
            Kinv = 1.0 / self.qh(alpha)
            Kdiag = self.qh(alpha)
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


# ---------------------------------------------------------------------------
# tensor utilities


def flip_matrix(V: WeightModule, W: WeightModule) -> np.ndarray:
    """Permutation matrix of v (x) w -> w (x) v, domain index a*dimW + b."""
    dv, dw = V.dim, W.dim
    src = np.arange(dv * dw)
    a, b = np.divmod(src, dw)
    P = np.zeros((dv * dw, dv * dw))
    P[b * dv + a, src] = 1.0
    return P


def tensor_module(V: WeightModule, W: WeightModule, name: str = "") -> WeightModule:
    """V (x) W with the coproduct action; slot lists flatten."""
    if V.datum is not W.datum or V.q != W.q:
        raise ValueError("tensor factors over different Cartan data or q")
    dv, dw = V.dim, W.dim
    weights = tuple(V.weights[a] + W.weights[b]
                    for a in range(dv) for b in range(dw))
    Iv, Iw = np.eye(dv), np.eye(dw)
    E, F = [], []
    for i, alpha in enumerate(V.datum.simple_roots):
        Kw = np.diag(W.qh(alpha))
        Kinv_v = np.diag(1.0 / V.qh(alpha))
        E.append(np.kron(V.E[i], Kw) + np.kron(Iv, W.E[i]))
        F.append(np.kron(V.F[i], Iw) + np.kron(Kinv_v, W.F[i]))
    return WeightModule(V.datum, V.q, "tensor", weights, tuple(E), tuple(F),
                        name=name or f"({V.name})x({W.name})",
                        slots=V.slots + W.slots)


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


def build_verma(datum: CartanDatum, q, hw: Weight, depth: int) -> TruncatedVerma:
    """Memoized front end for `_build_verma`; treat the result as immutable.

    Dynamical operators rebuild the same truncated Vermas at many shifted
    highest weights, so construction is looked up in a bounded `cache.Memo`
    keyed on the datum itself, float q, the exact highest weight and depth.
    """
    return _VERMA_MEMO.get((datum, float(q), hw, int(depth)),
                           lambda: _build_verma(datum, q, hw, depth))


def _build_verma(datum: CartanDatum, q, hw: Weight, depth: int) -> TruncatedVerma:
    """Verma module with highest weight hw, truncated below depth `depth`.

    Basis classes of words in the F_i are fixed degree by degree: the degree
    slice of the two-sided Serre ideal is row reduced (lexicographic word
    order) and the non-pivot words survive. E is exact everywhere; F out of
    the last degree is dropped, which is what the depth-margin contract of
    every downstream computation accounts for.
    """
    q = check_q(q)
    r = datum.rank
    serre = _serre_generators(datum, q)

    words = {}        # content -> ordered word list
    widx = {}         # content -> word -> position
    basis_loc = {}    # content -> positions of basis words
    expand = {}       # content -> (n_words x n_basis) expansion of classes
    ideal = {}        # content -> reduced spanning rows of the ideal slice

    zero_content = (0,) * r
    words[zero_content] = [()]
    widx[zero_content] = {(): 0}
    basis_loc[zero_content] = [0]
    expand[zero_content] = np.eye(1, dtype=complex)
    ideal[zero_content] = np.zeros((0, 1), dtype=complex)

    contents_by_ht = {0: [zero_content]}
    for h in range(1, depth + 1):
        contents_by_ht[h] = []
        for content in _compositions(h, r):
            contents_by_ht[h].append(content)
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
    order = []
    for h in range(depth + 1):
        for content in contents_by_ht[h]:
            for s in range(len(basis_loc[content])):
                order.append((content, s))
    gidx = {key: n for n, key in enumerate(order)}
    N = len(order)
    wts = []
    depths = []
    for content, s in order:
        beta = Weight(tuple(Fraction(c) for c in content))
        wts.append(hw - beta)
        depths.append(sum(content))
    depths = np.array(depths, dtype=int)

    Emats = [np.zeros((N, N), dtype=complex) for _ in range(r)]
    Fmats = [np.zeros((N, N), dtype=complex) for _ in range(r)]

    # per-content blocks of E_i (into content - e_i) built by the commutation
    # [E_i, F_j] = delta_ij (K_i - K_i^{-1})/(q_i - q_i^{-1})
    Eblocks = {}
    Fblocks = {}

    def content_minus(content, i):
        c = list(content)
        c[i] -= 1
        return tuple(c) if c[i] >= 0 else None

    for h in range(1, depth + 1):
        for content in contents_by_ht[h]:
            nb = len(basis_loc[content])
            # F blocks into this content
            for i in range(r):
                sub = content_minus(content, i)
                if sub is None:
                    continue
                nbs = len(basis_loc[sub])
                blk = np.zeros((nb, nbs), dtype=complex)
                for s, t in enumerate(basis_loc[sub]):
                    w = words[sub][t]
                    blk[:, s] = expand[content][widx[content][(i,) + w]]
                Fblocks[(i, sub)] = blk
            # E blocks out of this content
            for i in range(r):
                tgt = content_minus(content, i)
                qi = q ** datum.d[i]
                alpha = datum.simple_roots[i]
                nt = len(basis_loc[tgt]) if tgt is not None else 0
                blk = np.zeros((nt, nb), dtype=complex)
                if tgt is not None:
                    for s, t in enumerate(basis_loc[content]):
                        w = words[content][t]
                        j = w[0]
                        wsub = w[1:]
                        sub = content_minus(content, j)
                        u = expand[sub][widx[sub][wsub]]
                        # F_j E_i u
                        subsub = content_minus(sub, i)
                        if subsub is not None and (i, sub) in Eblocks:
                            eu = Eblocks[(i, sub)] @ u
                            if (j, subsub) in Fblocks:
                                blk[:, s] += Fblocks[(j, subsub)] @ eu
                        if i == j:
                            mu = hw - Weight(tuple(Fraction(c) for c in sub))
                            x = float(datum.pairing(mu, alpha))
                            cst = (q**x - q**(-x)) / (qi - 1.0 / qi)
                            blk[:, s] += cst * u
                Eblocks[(i, content)] = blk

    for h in range(1, depth + 1):
        for content in contents_by_ht[h]:
            cols = [gidx[(content, s)] for s in range(len(basis_loc[content]))]
            for i in range(r):
                sub = content_minus(content, i)
                if sub is not None:
                    rows_sub = [gidx[(sub, s)] for s in range(len(basis_loc[sub]))]
                    if rows_sub and cols:
                        Emats[i][np.ix_(rows_sub, cols)] = Eblocks[(i, content)]
                        Fmats[i][np.ix_(cols, rows_sub)] = Fblocks[(i, sub)]

    name = f"M[{','.join(str(float(c)) for c in hw.coords)}]"
    return TruncatedVerma(datum, q, "verma", tuple(wts),
                          tuple(Emats), tuple(Fmats), name=name,
                          hw=hw, depth=depth, depths=depths)


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
    contents = {}
    for idx, w in enumerate(M.weights):
        contents.setdefault(w, []).append(idx)
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
    d = V.datum
    q = V.q
    out = np.empty(V.dim * W.dim)
    for a in range(V.dim):
        for b in range(W.dim):
            out[a * W.dim + b] = q ** float(d.pairing(V.weights[a], W.weights[b]))
    return out


def r_matrix(V: WeightModule, W: WeightModule, T: WeightModule = None,
             tol: float = 1e-10) -> GradedMap:
    """R-matrix endomorphism of V (x) W, normalized kappa (1 + N).

    N strictly raises the first slot; it is solved degree by degree from the
    E-generator intertwining of P R with the coproduct. A rank drop in any
    degree slice means a resonance; that raises with the nullity reported.
    """
    datum, q = V.datum, V.q
    if T is None:
        T = tensor_module(V, W)
    dv, dw = V.dim, W.dim
    n = dv * dw
    kap = _kappa_diag(V, W)

    vwt = [V.weights[a] for a in range(dv)]
    wwt = [W.weights[b] for b in range(dw)]

    # candidate raising shifts: differences of V-weights realizable in W too
    betas = {}
    vset = set(vwt)
    wset = set(wwt)
    for mu in vset:
        for mu2 in vset:
            b = mu2 - mu
            h = b.height()
            if h <= 0 or any(c < 0 for c in b.coords):
                continue
            if any((nu - b) in wset for nu in wset):
                betas[b] = int(h)
    beta_order = sorted(betas, key=lambda b: (betas[b], b.coords))

    # second-slot truncation data (for Verma in the second slot)
    w_depth = None
    if isinstance(W, TruncatedVerma):
        w_depth = W.depths

    N = np.zeros((n, n), dtype=complex)
    Nparts = {}
    Iv, Iw = np.eye(dv), np.eye(dw)

    ops = []
    for i, alpha in enumerate(datum.simple_roots):
        A0 = np.kron(Iv, W.E[i])
        A1 = np.kron(V.E[i], np.diag(W.qh(alpha)))
        B1 = (1.0 / kap)[:, None] * np.kron(V.E[i], Iw) * kap[None, :]
        ops.append((alpha, A0, A1, B1))

    def positions(shift_v: Weight, total: Weight):
        """(row, col) pairs with wtV jump shift_v and total jump `total`."""
        out = []
        for col in range(n):
            a, b = divmod(col, dw)
            wv = vwt[a] + shift_v
            ww = wwt[b] + (total - shift_v)
            if wv not in V.blocks or ww not in W.blocks:
                continue
            for ra in V.blocks[wv]:
                for rb in W.blocks[ww]:
                    out.append((ra * dw + rb, col))
        return out

    zero = datum.zero_weight()
    for beta in beta_order:
        unk = positions(beta, zero)
        if w_depth is not None:
            hb = betas[beta]
            unk = [(t, s) for (t, s) in unk
                   if w_depth[s % dw] + hb <= W.depth]
        if not unk:
            continue
        by_col: dict = {}
        for t, s in unk:
            by_col.setdefault(s, []).append(t)
        inhom = []
        eq_by_col = []
        for alpha, A0, A1, B1 in ops:
            eqpos = positions(beta, alpha)
            if w_depth is not None:
                hb = betas[beta]
                eqpos = [(t, s) for (t, s) in eqpos
                         if w_depth[s % dw] + hb <= W.depth]
            grouped: dict = {}
            for t, s in eqpos:
                grouped.setdefault(s, []).append(t)
            eq_by_col.append(grouped)
            Nprev = Nparts.get(beta - alpha)
            C = np.zeros((n, n), dtype=complex)
            if beta == Weight(alpha.coords):
                C += B1 - A1
            if Nprev is not None:
                C += B1 @ Nprev - Nprev @ A1
            inhom.append(C)
        Nb = np.zeros((n, n), dtype=complex)
        if w_depth is None:
            # finite second slot: constraints flow both ways along raising
            # chains (raising dies at the top), so solve the slice globally;
            # all entries are O(1)-scaled here and one equilibrated least
            # squares is accurate
            upos = {ts: k for k, ts in enumerate(unk)}
            rows_all = []
            rhs_all = []
            for i, (alpha, A0, A1, B1) in enumerate(ops):
                eqpos = [(t, s) for s, ts in eq_by_col[i].items() for t in ts]
                if not eqpos:
                    continue
                eq = np.zeros((len(eqpos), len(unk)), dtype=complex)
                rhs = np.zeros(len(eqpos), dtype=complex)
                for e, (t, s) in enumerate(eqpos):
                    for (ut, us), k in upos.items():
                        if us == s and abs(A0[t, ut]) > 0:
                            eq[e, k] += A0[t, ut]
                        if ut == t and abs(A0[us, s]) > 0:
                            eq[e, k] -= A0[us, s]
                    rhs[e] = -inhom[i][t, s]
                rows_all.append(eq)
                rhs_all.append(rhs)
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
            if rank < len(unk):
                raise ValueError(
                    f"resonant weight data solving R at shift {beta}: nullity "
                    f"{len(unk) - rank}")
            sol = sol / cs
            for (t, s), k in upos.items():
                Nb[t, s] = sol[k]
        else:
            # Verma second slot: the equation at source column s couples its
            # unknowns only to columns one simple raise up, so descending
            # second-slot height is exact back substitution; a global least
            # squares would mix depth scales q^{-k} and lose the deep rows
            order = sorted(by_col, key=lambda s: -wwt[s % dw].height())
            for s in order:
                uts = by_col[s]
                kidx = {t: k for k, t in enumerate(uts)}
                rows = []
                rhs = []
                for i, (alpha, A0, A1, B1) in enumerate(ops):
                    for t in eq_by_col[i].get(s, ()):
                        row = np.zeros(len(uts), dtype=complex)
                        for ut in uts:
                            if A0[t, ut] != 0:
                                row[kidx[ut]] += A0[t, ut]
                        cross = 0.0
                        for us in np.nonzero(A0[:, s])[0]:
                            cross += A0[us, s] * Nb[t, us]
                        rows.append(row)
                        rhs.append(cross - inhom[i][t, s])
                if not rows:
                    continue
                eq = np.asarray(rows)
                rhs = np.asarray(rhs)
                rs = np.max(np.abs(eq), axis=1)
                rs[rs == 0] = 1.0
                eq = eq / rs[:, None]
                rhs = rhs / rs
                sol, _, rank, _ = scipy.linalg.lstsq(eq, rhs,
                                                     lapack_driver="gelsy")
                if rank < len(uts):
                    raise ValueError(
                        f"resonant weight data solving R at shift {beta}: "
                        f"nullity {len(uts) - rank}")
                for t, k in kidx.items():
                    Nb[t, s] = sol[k]
        # slice consistency, including columns that carry no unknowns
        for i, (alpha, A0, A1, B1) in enumerate(ops):
            full = A0 @ Nb - Nb @ A0 + inhom[i]
            scale = 1.0 + float(np.max(np.abs(np.abs(A0 @ Nb) + np.abs(Nb @ A0)
                                              + np.abs(inhom[i]))))
            for s, ts in eq_by_col[i].items():
                for t in ts:
                    if abs(full[t, s]) > tol * scale:
                        raise ValueError(
                            f"R solve inconsistent at shift {beta}: "
                            f"{abs(full[t, s]):.2e}")
        Nparts[beta] = Nb
        N += Nb

    R = kap[:, None] * (np.eye(n) + N)

    # final guard: commutation with the full coproduct on safe rows/cols
    margin = max([betas[b] for b in betas], default=0)
    mask = np.ones(n, dtype=bool)
    if w_depth is not None:
        mask &= np.tile(w_depth, dv) + 2 * margin + 1 <= W.depth
    if isinstance(V, TruncatedVerma):
        mask &= np.repeat(V.depths, dw) + 2 * margin + 1 <= V.depth
    for i, alpha in enumerate(datum.simple_roots):
        for DX, DOX in (
            (np.kron(V.E[i], np.diag(W.qh(alpha))) + np.kron(Iv, W.E[i]),
             np.kron(np.diag(V.qh(alpha)), W.E[i]) + np.kron(V.E[i], Iw)),
            (np.kron(V.F[i], Iw) + np.kron(np.diag(1.0 / V.qh(alpha)), W.F[i]),
             np.kron(Iv, W.F[i]) + np.kron(V.F[i], np.diag(1.0 / W.qh(alpha)))),
        ):
            rsd = np.abs(R @ DX - DOX @ R)
            # entrywise backward-error bound: entries span q^{+-depth}, so a
            # single global scale would either mask shallow errors or reject
            # harmless roundoff in the deep rows
            bnd = np.abs(R) @ np.abs(DX) + np.abs(DOX) @ np.abs(R)
            sub = rsd[np.ix_(mask, mask)]
            bsub = bnd[np.ix_(mask, mask)]
            if sub.size and np.max(sub - 100 * tol * (bsub + 1.0)) > 0:
                worst = float(np.max(sub / (bsub + 1.0)))
                raise ValueError(
                    f"R fails to intertwine the coproduct: {worst:.2e}")
    return GradedMap(T, T, zero, R)


def r21_matrix(V: WeightModule, W: WeightModule, T: WeightModule = None,
               RWV: GradedMap = None) -> GradedMap:
    """R^{21} on V (x) W: flip-conjugated R of (W, V)."""
    if T is None:
        T = tensor_module(V, W)
    if RWV is None:
        RWV = r_matrix(W, V)
    P = flip_matrix(W, V)
    return GradedMap(T, T, V.datum.zero_weight(),
                     P @ RWV.matrix @ flip_matrix(V, W))


# ---------------------------------------------------------------------------
# characters and central scalars

def character(W: WeightModule, xi: Weight) -> float:
    """chi_W evaluated at q^{xi}: sum_b q^{<xi, wt_b>}."""
    d = W.datum
    return float(sum(W.q ** float(d.pairing(xi, w)) for w in W.weights))


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
        Ki = V.qh(alpha_i)
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
