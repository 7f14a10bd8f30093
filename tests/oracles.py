"""Test-side operator forms the library itself only indexes with, and
second routes kept to cross-check the library's one route."""

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from dynq.cartan import CartanDatum, Weight
from dynq.diffops import _check_index
from dynq.dynamical import _fused, embedded_shifted, exchange, fusion
from dynq.qalgebra import (
    GradedMap, TruncatedVerma, WeightModule, _compositions, _kappa_diag,
    _csr, _raising_shifts, _VermaSkeleton, character, dual_module,
    embed_slots, flip_index, mirror_index, partial_trace, qbinom, r21_matrix,
    r_matrix, slot_classes, tensor_many, tensor_module, trivial_module,
)
from dynq.vertexops import expectation, vertex_operator

_DECOMP_TOL = 1e-9


def _rref(rows: np.ndarray, tol: float = 1e-9):
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
    return GradedMap(T, trivial_module(V.datum, V.q), row)


def coeval_map(V: WeightModule, dual: WeightModule = None) -> GradedMap:
    """iota_V : 1 -> V (x) V*, 1 -> sum_b b (x) b*."""
    Vd = dual or dual_module(V)
    T = tensor_module(V, Vd)
    col = np.eye(V.dim, dtype=complex).reshape(-1, 1)
    return GradedMap(trivial_module(V.datum, V.q), T, col)


def eval_twisted(V: WeightModule, dual: WeightModule = None) -> GradedMap:
    """e~_V : V (x) V* -> 1, v (x) f -> f(q^{2 rho} v)."""
    Vd = dual or dual_module(V)
    T = tensor_module(V, Vd)
    row = np.diag(V.qh(2 * V.datum.rho)).astype(complex).reshape(1, -1)
    return GradedMap(T, trivial_module(V.datum, V.q), row)


def coeval_twisted(V: WeightModule, dual: WeightModule = None) -> GradedMap:
    """iota~_V : 1 -> V* (x) V, 1 -> sum_b b* (x) q^{-2 rho} b."""
    Vd = dual or dual_module(V)
    T = tensor_module(Vd, V)
    col = np.diag(1.0 / V.qh(2 * V.datum.rho)).astype(complex).reshape(-1, 1)
    return GradedMap(trivial_module(V.datum, V.q), T, col)


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


def fusion_by_legs(S, lam, depth: int) -> np.ndarray:
    """j_S(lam) column by column from the public vertex operator on a
    source Verma padded to `depth`: column n is the expectation value of
    the composite operator whose legs carry the n-th basis vectors."""
    dims = tuple(V.dim for V in S)
    cols = []
    for digits in np.ndindex(*dims):
        vlist = [np.eye(V.dim, dtype=complex)[d] for V, d in zip(S, digits)]
        cols.append(expectation(vertex_operator(lam, S, vlist, depth)))
    return np.column_stack(cols)


def dressed_exchange(S, T, lam) -> np.ndarray:
    """R_{S,T}(lam) of two words by the fusion cocycle: the exchange of the
    fused pair (F(S), F(T)) framed by each word's fusion at shifted weights,
    (j_S^{-1} (x) j_T(lam - h^(1))^{-1}) R_{F(S),F(T)} (j_S(lam - h^(2)) (x) j_T).
    """
    FS, FT = _fused(S), _fused(T)
    core = exchange((FS,), (FT,), lam).matrix
    jS = lambda mu: fusion(S, mu).matrix
    jT = lambda mu: fusion(T, mu).matrix
    pre = pair_first_shifted(jS, jT(lam), FS, FT, lam)
    post = pair_second_shifted(
        np.linalg.inv(jS(lam)), lambda mu: np.linalg.inv(jT(mu)), FS, FT, lam)
    return post @ core @ pre


# ---------------------------------------------------------------------------
# fused-operator identities of the non-dynamical layer, as residuals


def fusion_mr_residual(S, W: WeightModule, i: int, lam: Weight) -> float:
    """Push the diagonal trace multiplier through the fusion operator.

    Left side: the fusion operator times the diagonal whose entry is the
    character of W at 2(lam+rho) minus twice the tail of slot weights past
    i.  Right side: the auxiliary trace of flipped-inverse and plain
    braiding numerators around the W weighting, composed with the fusion
    operator.  Returns the scaled entrywise gap on all of F(S).
    """
    S = tuple(S)
    k = len(S)
    _check_index(i, 0, k)
    datum, q = S[0].datum, S[0].q
    TW = tensor_many((W,) + S)
    jmat = fusion(S, lam).matrix
    xi = 2 * (lam + datum.rho)

    dvals = np.zeros(jmat.shape[0])
    for (tail,), idx in slot_classes(S, (range(i, k),)).items():
        dvals[idx] = character(W, xi - 2 * tail)
    lhs = jmat @ np.diag(dvals)

    wvals = np.zeros(TW.dim)
    groups = ((0,), range(1, k + 1))
    for (beta, tot), idx in slot_classes((W,) + S, groups).items():
        wvals[idx] = q ** float(datum.pairing(beta, xi - tot))
    mat = np.diag(wvals).astype(complex)
    if i > 0:
        X = _fused(S[:i])
        mat = embed_slots(TW, r_matrix(W, X), tuple(range(i + 1))) @ mat
    if i < k:
        Y = _fused(S[i:])
        mat = embed_slots(TW, np.linalg.inv(r21_matrix(W, Y)),
                          (0,) + tuple(range(i + 1, k + 1))) @ mat
    rhs = partial_trace(mat, TW, 0) @ jmat
    scale = max(float(np.max(np.abs(lhs))), 1e-300)
    return float(np.max(np.abs(lhs - rhs))) / scale


def fusion_qkz_residual(S, i: int, lam: Weight) -> float:
    """Closed braid equation for the inverse fusion operator on F(S).

    The inverse fusion at -lam-2rho is reproduced by framing it with the
    flipped braiding of slot i against the later block, two diagonal
    theta/kappa dressings, and the inverse flipped braiding of the earlier
    block against slot i.
    """
    S = tuple(S)
    k = len(S)
    _check_index(i, 1, k)
    datum, q = S[0].datum, S[0].q
    base = -1 * lam - 2 * datum.rho
    T = tensor_many(S)
    jhat = np.linalg.inv(fusion(S, base).matrix)

    dt = np.zeros(T.dim, dtype=complex)
    ups = np.zeros(T.dim, dtype=complex)
    groups = ((i - 1,), range(i, k), [j for j in range(k) if j != i - 1])
    for (xi_i, tail, rest), idx in slot_classes(S, groups).items():
        tt = float(datum.two_theta(base, xi_i))
        dt[idx] = q ** (tt - 2 * float(datum.pairing(xi_i, tail)))
        ups[idx] = q ** (float(datum.pairing(xi_i, rest)) - tt)

    rhs = jhat
    if i < k:
        Y = _fused(S[i:])
        rhs = rhs @ embed_slots(T, r21_matrix(S[i - 1], Y),
                                tuple(range(i - 1, k)))
    rhs = np.diag(dt) @ rhs @ np.diag(ups)
    if i > 1:
        X = _fused(S[:i - 1])
        rhs = rhs @ np.linalg.inv(
            embed_slots(T, r21_matrix(X, S[i - 1]), tuple(range(i))))
    scale = max(float(np.max(np.abs(jhat))), 1e-300)
    return float(np.max(np.abs(jhat - rhs))) / scale


def _kron_entries(pairs) -> list:
    """(rows, cols, values, shape) of the sum of A (x) B over pairs of
    factors, for `qalgebra._csr`; a factor is a dense matrix, a vector
    standing for its diagonal, or a pair (matrix, index tuple of the entries
    to read), and is otherwise read on its np.nonzero."""
    rows, cols, vals = [], [], []
    for pair in pairs:
        (A, a), (B, b) = (X if isinstance(X, tuple) else (X, np.nonzero(X)) for X in pair)
        (ai, aj), (bk, bl) = (x if len(x) == 2 else x * 2 for x in (a, b))
        rows.append((ai[:, None] * B.shape[0] + bk[None, :]).ravel())
        cols.append((aj[:, None] * B.shape[-1] + bl[None, :]).ravel())
        vals.append((A[a][:, None] * B[b][None, :]).ravel())
    shape = (A.shape[0] * B.shape[0], A.shape[-1] * B.shape[-1])
    return [np.concatenate(x) for x in (rows, cols, vals)] + [shape]


# ---------------------------------------------------------------------------
# Verma-slot R-matrix by back substitution at the Verma's highest weight


def r_matrix_backsub(V: WeightModule, M: TruncatedVerma) -> np.ndarray:
    """kappa (1 + N) on V (x) M with N solved from the E-intertwining.

    The E-equations read the Verma's E, so this solve depends on M's highest
    weight.  The equation at source column s couples its unknowns only to
    columns one simple raise up, so descending second-slot height is exact
    back substitution, one small least squares per column.  Columns too
    deep for a degree's height are dropped.  No guard runs here.
    """
    dv, dw = V.dim, M.dim
    n = dv * dw
    r = V.datum.rank
    kap = _kappa_diag(V, M)
    xv, xw = V.offsets, M.offsets
    betas = _raising_shifts(V, M)
    units = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    w_height = xw.sum(axis=1)

    def by_col(shift_v, shift_w, hb):
        mv = (xv[None, :, :] == xv[:, None, :] + shift_v).all(axis=2)
        mw = (xw[None, :, :] == xw[:, None, :] + shift_w).all(axis=2)
        cols, rows = np.nonzero(np.kron(mv, mw))
        ok = M.depths[cols % dw] + hb <= M.depth
        rows, cols = rows[ok], cols[ok]
        heads, first = np.unique(cols, return_index=True)
        return dict(zip(heads.tolist(), np.split(rows, first[1:])))

    Iv, Iw = np.eye(dv), np.eye(dw)
    ops = []
    for i in range(r):
        A1 = _csr(*_kron_entries([(V.E[i], M.K[i])]))
        B1 = _csr(*_kron_entries([(V.E[i], Iw)]))
        rows = np.repeat(np.arange(n), np.diff(B1.indptr))
        B1.data = (1.0 / kap)[rows] * B1.data * kap[B1.indices]
        ops.append((A1, B1, M.E[i]))

    N = np.zeros((n, n), dtype=complex)
    parts = {}
    for beta, hb in betas.items():
        bvec = np.array(beta)
        unk = by_col(bvec, -bvec, hb)
        if not unk:
            continue
        inhom, eqs = [], []
        for i, (A1, B1, WE) in enumerate(ops):
            eqs.append(by_col(bvec, np.array(units[i]) - bvec, hb))
            prev = parts.get(tuple(c - u for c, u in zip(beta, units[i])))
            C = np.zeros((n, n), dtype=complex)
            if beta == units[i]:
                C += (B1 - A1).toarray()
            if prev is not None:
                C += B1 @ prev - prev @ A1
            inhom.append(C)
        Nb = np.zeros((n, n), dtype=complex)
        for s in sorted(unk, key=lambda s: -w_height[s % dw]):
            uts = unk[s]
            a, b = divmod(s, dw)
            rows, rhs = [], []
            for i, (A1, B1, WE) in enumerate(ops):
                ts = eqs[i].get(s)
                if ts is None:
                    continue
                # (1 (x) E) N over the unknowns; (N (1 (x) E))[t, s] is known
                rows.append(np.where(ts[:, None] // dw == uts[None, :] // dw,
                                     WE[ts[:, None] % dw, uts[None, :] % dw], 0))
                cross = 0.0
                for b2 in np.nonzero(WE[:, b])[0]:
                    cross = cross + WE[b2, b] * Nb[ts, a * dw + b2]
                rhs.append(cross - inhom[i][ts, s])
            if not rows:
                continue
            eq, rhs = np.vstack(rows), np.concatenate(rhs)
            rs = np.max(np.abs(eq), axis=1)
            rs[rs == 0] = 1.0
            sol, _, rank, _ = scipy.linalg.lstsq(eq / rs[:, None], rhs / rs,
                                                 lapack_driver="gelsy")
            if rank < uts.size:
                raise ValueError(f"back substitution rank drop at {Weight(beta)}")
            Nb[uts, s] = sol
        parts[beta] = Nb
        N += Nb
    return kap[:, None] * (np.eye(n) + N)


def guard_residuals(V: WeightModule, W: WeightModule, R, plan) -> tuple:
    """The R guard's products in scipy, on the kept rows and patterns of
    `plan` (a `qalgebra._GuardPlan`): (sub, bsub) as dense k x (2 r k)
    arrays, sub = |R Delta(x) - Delta^op(x) R| and bsub = |R| |Delta(x)| +
    |Delta^op(x)| |R| on the kept rows and columns, generator g = 2 i (E_i)
    or 2 i + 1 (F_i) in columns g k to (g + 1) k.  R is the factors
    (kappa, N) of one crossing, as the guard reads them.
    """
    r = V.datum.rank
    mask = plan.mask
    keep, pos = np.flatnonzero(mask), np.cumsum(mask) - 1
    n, k = mask.size, keep.size
    R = sp.csr_matrix(sp.diags(R[0]) @ (sp.identity(n) + R[1]))

    def stack(gens, flip):
        # the matrices of gens (flip: transposed), cut to the kept columns
        # and set side by side, so that each product below is formed once
        parts = []
        for g, pairs in enumerate(gens):
            rr, c, v, _ = _kron_entries(pairs)
            rr, c = (c, rr) if flip else (rr, c)
            ok = mask[c]
            parts.append((rr[ok], pos[c[ok]] + g * k, v[ok]))
        out = _csr(*(np.concatenate(x) for x in zip(*parts)), (n, len(gens) * k))
        out.sum_duplicates()
        return out

    def beside(P):  # P's k x k blocks, stacked down, set side by side
        P = P.tocoo()
        return _csr(P.row % k, P.row - P.row % k + P.col, P.data, (k, P.shape[0]))

    WE = [(W.E[i], plan.pW[i]) for i in range(r)]
    WF = [(W.F[i], plan.pW[r + i]) for i in range(r)]
    Iv, Iw = np.ones(V.dim), np.ones(W.dim)
    cop, opp = [], []
    for i in range(r):
        cop += [((V.E[i], W.K[i]), (Iv, WE[i])), ((V.F[i], Iw), (1 / V.K[i], WF[i]))]
        opp += [((V.K[i], WE[i]), (V.E[i], Iw)), ((Iv, WF[i]), (V.F[i], 1 / W.K[i]))]
    DX, DOX = stack(cop, False), stack(opp, True).T
    R_rows, R_cols = R[keep], R[:, keep]
    sub = abs(R_rows @ DX - beside(DOX @ R_cols))
    bsub = abs(R_rows) @ abs(DX) + beside(abs(DOX) @ abs(R_cols))
    return sub.toarray(), bsub.toarray()


# ---------------------------------------------------------------------------
# unitriangular solve on a dense R-matrix


def unitriangular_solve_dense(R: np.ndarray, B: np.ndarray, cap: int) -> np.ndarray:
    """Solve R X = B for a dense R = diag(kappa)(1 + N), N^(cap+1) = 0.

    kappa is read off the diagonal and divided out of R to get N back; the
    finite Neumann series then takes dense products.
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


# ---------------------------------------------------------------------------
# vertex-operator leg by least squares against the lowering blocks


def extend_by_lstsq(src: TruncatedVerma, tgt: TruncatedVerma, V: WeightModule,
                    top: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """The leg src -> tgt (x) V of `vertexops._extend_by_lowering`, with
    each depth-h column block solved against the stacked lowering block
    G_h (the F_i from depth h - 1 to depth h, columns i-major) by least
    squares, behind a rank guard and a consistency guard."""
    n, dv = tgt.dim, V.dim
    Kinv = 1.0 / tgt.K
    phi = np.zeros((n * dv, src.dim), dtype=complex)
    phi[:, 0] = top.ravel()
    for h in range(1, src.depth + 1):
        ch = np.flatnonzero(src.depths == h)
        cp = np.flatnonzero(src.depths == h - 1)
        G = np.hstack([F[np.ix_(ch, cp)] for F in src.F])
        sol, _, rank, _ = scipy.linalg.lstsq(
            G, np.eye(ch.size, dtype=complex), lapack_driver="gelsy")
        if rank < ch.size:
            raise ValueError(f"lowering operators do not span depth {h}")
        if np.max(np.abs(G @ sol - np.eye(ch.size))) > tol * max(
                1.0, float(np.max(np.abs(G)))):
            raise ValueError(f"column extension inconsistent at depth {h}")
        P = phi[:, cp].reshape(n, dv, cp.size)
        B = np.concatenate(
            [(Ft @ P.reshape(n, -1)).reshape(P.shape)
             + k[:, None, None] * np.matmul(Fv, P)
             for Ft, Fv, k in zip(tgt.F, V.F, Kinv)], axis=2)
        phi[:, ch] = B.reshape(n * dv, -1) @ sol
    return phi


# ---------------------------------------------------------------------------
# Verma skeleton from words in the F_i and the two-sided Serre ideal


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


def word_skeleton(datum: CartanDatum, q: float, depth: int) -> _VermaSkeleton:
    """The skeleton of `qalgebra._verma_skeleton` in a basis of words.

    Degree by degree, the slice of the two-sided Serre ideal is row reduced
    (lexicographic word order) and the non-pivot words are the basis; F is
    read off the class expansions, and a basis word (j,) + w lifts to w
    one level up.  Normal words of a two-sided ideal are closed under taking
    factors, so w is itself a basis word; a tail that is not raises.  It
    enumerates all 2^(depth + 1) - 1 words, so it is for shallow depths
    only.
    """
    r = datum.rank
    serre = _serre_generators(datum, q)

    def minus(content, i):
        c = list(content)
        c[i] -= 1
        return tuple(c) if c[i] >= 0 else None

    zero_content = (0,) * r
    words = {zero_content: [()]}
    widx = {zero_content: {(): 0}}
    basis_loc = {zero_content: [0]}
    expand = {zero_content: np.eye(1, dtype=complex)}
    ideal = {zero_content: np.zeros((0, 1), dtype=complex)}

    for h in range(1, depth + 1):
        for content in _compositions(h, r):
            wl = sorted(_words_of_content(content))
            wi = {w: t for t, w in enumerate(wl)}
            words[content] = wl
            widx[content] = wi
            rows = []
            for i in range(r):
                sub = minus(content, i)
                if sub is None:
                    continue
                for row in ideal[sub]:
                    pre = np.zeros(len(wl), dtype=complex)
                    post = np.zeros(len(wl), dtype=complex)
                    for t, c in enumerate(row):
                        if c != 0:
                            pre[wi[(i,) + words[sub][t]]] += c
                            post[wi[words[sub][t] + (i,)]] += c
                    rows.append(pre)
                    rows.append(post)
            rows += serre.get(content, [])
            rows = np.array(rows) if rows else np.zeros((0, len(wl)), dtype=complex)
            red, pivots = _rref(rows)
            ideal[content] = red
            bl = [t for t in range(len(wl)) if t not in set(pivots)]
            basis_loc[content] = bl
            exp = np.zeros((len(wl), len(bl)), dtype=complex)
            exp[bl, np.arange(len(bl))] = 1.0
            for rr, p in zip(red, pivots):
                exp[p, :] = -rr[bl]
            expand[content] = exp

    # global basis, ordered by (height, content, local word order)
    start, offsets = {}, []
    for content, bl in basis_loc.items():
        start[content] = len(offsets)
        offsets.extend([[-c for c in content]] * len(bl))
    offsets = np.array(offsets, dtype=int)
    depths = -offsets.sum(axis=1)
    top = np.searchsorted(depths, np.arange(depth + 1))

    Fmats = [np.zeros((len(depths),) * 2, dtype=complex) for _ in range(r)]
    lift = [[([], []) for _ in range(r)] for _ in range(depth)]
    for content, bl in list(basis_loc.items())[1:]:
        h = sum(content)
        here = slice(start[content], start[content] + len(bl))
        for i in range(r):
            sub = minus(content, i)
            if sub is None:
                continue
            for s, t in enumerate(basis_loc[sub]):
                Fmats[i][here, start[sub] + s] = \
                    expand[content][widx[content][(i,) + words[sub][t]]]
        for s, t in enumerate(bl):
            w = words[content][t]
            sub = minus(content, w[0])
            tail = widx[sub][w[1:]]
            if tail not in basis_loc[sub]:
                raise ValueError(f"tail of basis word {w} is not a basis word")
            cols, parents = lift[h - 1][w[0]]
            cols.append(start[content] + s)
            parents.append(start[sub] - top[h - 1] + basis_loc[sub].index(tail))
    lift = tuple(tuple((np.array(cols, dtype=int), np.array(parents, dtype=int))
                       for cols, parents in pairs) for pairs in lift)
    return _VermaSkeleton(offsets, depths, tuple(Fmats), lift)
