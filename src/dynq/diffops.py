"""Difference operators in the weight arguments of the trace functions.

Four commuting families act on functions of one weight variable valued in
the zero-weight block of a tensor product: two q-KZB style families whose
coefficients are ordered products of dynamical exchange matrices with one
slot projected on a weight, and two Macdonald-Ruijsenaars style families
whose coefficients are partial traces over an auxiliary dual module of
such products.  Each family is normalized so that the trace functions are
eigenfunctions; the companion diagonal multipliers carry the eigenvalues.
The coefficient matrices act on the row-major tensor basis, and every
dynamical argument shift is resolved blockwise by the actual weight of the
named slots (spectator slots for the q-KZB families, the closed span from
the auxiliary slot through the acting slot for the trace families).
"""

import math
from dataclasses import dataclass

import numpy as np

from .cache import Memo
from .cartan import Weight
from .dynamical import (
    _fused, embedded_shifted, exchange, exchange21, exchange_inverse, fusion,
)
from .qalgebra import (
    WeightModule, character, dual_module, dual_tuple, embed_slots,
    partial_trace, r21_matrix, r_matrix, slot_classes, slot_index_arrays,
    tensor_many,
)
from .traces import pairing_matrix

FAMILIES = ("qkzb", "dual-qkzb", "coord-mr", "dual-coord-mr")


@dataclass(eq=False)
class DifferenceOperator:
    """One member of a commuting family of weight-shift operators.

    coefficient(at, sigma) returns the matrix that multiplies the sample
    f(at + step*sigma) in (L f)(at); the matrices act on the row-major
    tensor basis of `space` and preserve its weight blocks.  shifts lists
    the distinct sigma values.
    """
    family: str
    modules: tuple
    index: int
    space: tuple
    variable: str
    step: int
    shifts: tuple
    coefficient: object
    aux: WeightModule = None


def apply(op: DifferenceOperator, f, at: Weight):
    """(L f)(at) = sum over shifts of coefficient(at, s) @ f(at + step*s)."""
    out = None
    for s in op.shifts:
        term = op.coefficient(at, s) @ np.asarray(f(at + op.step * s))
        out = term if out is None else out + term
    return out


def transpose(A: np.ndarray, S, direction: str = "T") -> np.ndarray:
    """Dual-basis transpose between endomorphisms of F(S) and of F(S*).

    "T" carries End F(S) to End F(S*) through the slotwise pairing; "T*"
    is its inverse direction.  transpose(transpose(A, S, "T"), S, "T*")
    returns A exactly (the pairing matrix is a permutation).
    """
    E = pairing_matrix(S)
    if direction == "T":
        return E.T @ A.T @ E
    if direction == "T*":
        return (E @ A @ E.T).T
    raise ValueError(f"unknown transpose direction {direction!r}")


def _check_index(i: int, lo: int, hi: int) -> None:
    if not lo <= i <= hi:
        raise ValueError(f"slot index {i} outside {lo}..{hi}")


def _slot_projector(T: WeightModule, slot: int, w: Weight) -> np.ndarray:
    """Diagonal projector on the basis vectors whose slot digit has weight w."""
    dims, digits = slot_index_arrays(T)
    hits = np.zeros(dims[slot])
    hits[T.slots[slot].block(w)] = 1.0
    return np.diag(hits[digits[slot]])


def _pair_cache(depth: int, tol: float):
    """Evaluation cache of one operator for its two-slot dynamical matrices."""
    memo = Memo()

    def make(kind: str, A: WeightModule, B: WeightModule, z: Weight):
        if kind == "R":
            return exchange(A, B, z, depth, tol).matrix
        if kind == "Rinv":
            return exchange_inverse(A, B, z, depth, tol).matrix
        if kind == "R21":
            return exchange21(A, B, z, depth, tol).matrix
        return np.linalg.inv(exchange21(A, B, z, depth, tol).matrix)

    def get(kind: str, A: WeightModule, B: WeightModule, z: Weight):
        return memo.get((kind, A, B, z), lambda: make(kind, A, B, z))

    return get


def qkzb_operator(S, i: int, depth: int = 2, tol: float = 1e-10
                  ) -> DifferenceOperator:
    """Shift family in the first weight argument, coefficients on F(S).

    The coefficient at shift sigma conjugates the slot-i projector by
    inverse exchange factors against the later slots (argument -lam-2rho
    minus the spectator tail) and plain exchange factors against the
    earlier slots (argument additionally lowered by sigma).
    """
    S = tuple(S)
    k = len(S)
    _check_index(i, 1, k)
    datum = S[0].datum
    T = tensor_many(S)
    pair = _pair_cache(depth, tol)

    def coefficient(lam: Weight, sigma: Weight) -> np.ndarray:
        base = -1 * lam - 2 * datum.rho
        out = np.eye(T.dim, dtype=complex)
        for j in range(i - 1, 0, -1):
            spect = tuple(range(j, i - 1)) + tuple(range(i, k))
            fn = lambda z, A=S[j - 1], B=S[i - 1]: pair("R", A, B, z)
            out = embedded_shifted(T, fn, (j - 1, i - 1), spect,
                                   base - sigma) @ out
        out = _slot_projector(T, i - 1, sigma) @ out
        for j in range(k, i, -1):
            spect = tuple(range(j, k))
            fn = lambda z, A=S[i - 1], B=S[j - 1]: pair("Rinv", A, B, z)
            out = embedded_shifted(T, fn, (i - 1, j - 1), spect, base) @ out
        return out

    return DifferenceOperator("qkzb", S, i, S, "lam", +1,
                              S[i - 1].weight_set(), coefficient)


def dual_qkzb_operator(S, i: int, depth: int = 2, tol: float = 1e-10
                       ) -> DifferenceOperator:
    """Second-argument shift family with coefficients directly on F(S*).

    Inverse exchange factors of the slot-i dual against the earlier duals
    (argument mu minus the leading spectator weights) follow the projector
    on weight -sigma, preceded by plain exchange factors of the later
    duals against slot i at argument mu + sigma.  On the zero-weight block
    this equals the renormalization conjugate of the dual-basis transpose
    of the flipped-exchange kernel on F(S); the tests keep that kernel as
    an oracle.
    """
    S = tuple(S)
    k = len(S)
    _check_index(i, 1, k)
    sstar = dual_tuple(S)
    T = tensor_many(sstar)
    pair = _pair_cache(depth, tol)

    def pos(j):
        # slot of the j-th dual inside F(S*)
        return k - j

    def coefficient(mu: Weight, sigma: Weight) -> np.ndarray:
        out = np.eye(T.dim, dtype=complex)
        for j in range(i + 1, k + 1):
            spect = tuple(pos(m) for m in range(1, i)) \
                + tuple(pos(m) for m in range(i + 1, j))
            fn = lambda z, A=sstar[pos(j)], B=sstar[pos(i)]: pair("R", A, B, z)
            out = embedded_shifted(T, fn, (pos(j), pos(i)), spect,
                                   mu + sigma) @ out
        out = _slot_projector(T, pos(i), -1 * sigma) @ out
        for j in range(1, i):
            spect = tuple(pos(m) for m in range(1, j))
            fn = lambda z, A=sstar[pos(i)], B=sstar[pos(j)]: \
                pair("Rinv", A, B, z)
            out = embedded_shifted(T, fn, (pos(i), pos(j)), spect, mu) @ out
        return out

    return DifferenceOperator("dual-qkzb", S, i, sstar, "mu", +1,
                              S[i - 1].weight_set(), coefficient)


def coord_mr_operator(S, W: WeightModule, i: int, depth: int = 2,
                      tol: float = 1e-10) -> DifferenceOperator:
    """Trace family in the first argument: coefficients on F(S).

    The product over the auxiliary dual slot carries inverse flipped
    exchange factors against slots 1..i and plain ones against i+1..k,
    every argument -lam-2rho raised by the closed span of slots from the
    auxiliary through the acting one; the sigma coefficient traces the
    auxiliary slot over its weight -sigma block.
    """
    S = tuple(S)
    k = len(S)
    _check_index(i, 0, k)
    ws = dual_module(W)
    T = tensor_many((ws,) + S)
    pair = _pair_cache(depth, tol)
    datum = S[0].datum
    memo = Memo()

    def product(lam: Weight) -> np.ndarray:
        base = -1 * lam - 2 * datum.rho
        out = np.eye(T.dim, dtype=complex)
        for j in range(1, i + 1):
            hull = tuple(range(j + 1))
            fn = lambda z, B=S[j - 1]: pair("R21inv", ws, B, z)
            out = embedded_shifted(T, fn, (0, j), hull, base, sign=+1) @ out
        for j in range(i + 1, k + 1):
            hull = tuple(range(j + 1))
            fn = lambda z, B=S[j - 1]: pair("R", ws, B, z)
            out = embedded_shifted(T, fn, (0, j), hull, base, sign=+1) @ out
        return out

    def coefficient(lam: Weight, sigma: Weight) -> np.ndarray:
        keep = [int(n) for n in ws.block(-1 * sigma)]
        return partial_trace(memo.get(lam, lambda: product(lam)), T, 0,
                             keep=keep)

    return DifferenceOperator("coord-mr", S, i, S, "lam", +1,
                              W.weight_set(), coefficient, aux=W)


def dual_coord_mr_operator(S, W: WeightModule, i: int, depth: int = 2,
                           tol: float = 1e-10) -> DifferenceOperator:
    """Trace family in the second argument: coefficients on F(S*).

    Plain exchange factors of the auxiliary dual against the first i dual
    slots and inverse flipped ones against the rest, arguments mu raised
    by the span through the acting slot; samples step backwards, f(mu -
    sigma).
    """
    S = tuple(S)
    k = len(S)
    _check_index(i, 0, k)
    ws = dual_module(W)
    sstar = dual_tuple(S)
    T = tensor_many((ws,) + sstar)
    pair = _pair_cache(depth, tol)
    memo = Memo()

    def pos(j):
        return 1 + k - j

    def product(mu: Weight) -> np.ndarray:
        out = np.eye(T.dim, dtype=complex)
        for j in range(k, i, -1):
            hull = tuple(range(pos(j) + 1))
            fn = lambda z, B=sstar[pos(j) - 1]: pair("R21inv", ws, B, z)
            out = embedded_shifted(T, fn, (0, pos(j)), hull, mu,
                                   sign=+1) @ out
        for j in range(i, 0, -1):
            hull = tuple(range(pos(j) + 1))
            fn = lambda z, B=sstar[pos(j) - 1]: pair("R", ws, B, z)
            out = embedded_shifted(T, fn, (0, pos(j)), hull, mu,
                                   sign=+1) @ out
        return out

    def coefficient(mu: Weight, sigma: Weight) -> np.ndarray:
        keep = [int(n) for n in ws.block(-1 * sigma)]
        return partial_trace(memo.get(mu, lambda: product(mu)), T, 0,
                             keep=keep)

    return DifferenceOperator("dual-coord-mr", S, i, sstar, "mu", -1,
                              W.weight_set(), coefficient, aux=W)


def operator(family: str, S, i: int, W: WeightModule = None, depth: int = 2,
             tol: float = 1e-10) -> DifferenceOperator:
    """Uniform constructor over the four families."""
    if family == "qkzb":
        return qkzb_operator(S, i, depth, tol)
    if family == "dual-qkzb":
        return dual_qkzb_operator(S, i, depth, tol)
    if family == "coord-mr":
        if W is None:
            raise ValueError("coord-mr needs the auxiliary module W")
        return coord_mr_operator(S, W, i, depth, tol)
    if family == "dual-coord-mr":
        if W is None:
            raise ValueError("dual-coord-mr needs the auxiliary module W")
        return dual_coord_mr_operator(S, W, i, depth, tol)
    raise ValueError(f"unknown family {family!r}; known: {FAMILIES}")


# ---------------------------------------------------------------------------
# diagonal multipliers


# family -> (acts on F(S*), lowest i, spectator modules of slot i as
# 1-based positions in S, base point a*at + b*rho as (a, b))
_MULTIPLIERS = {
    "qkzb": (True, 1, lambda i, k: range(1, i), (1, 0)),
    "coord-mr": (True, 0, lambda i, k: range(1, i + 1), (2, 2)),
    "dual-qkzb": (False, 1, lambda i, k: range(i + 1, k + 1), (-1, -2)),
    "dual-coord-mr": (False, 0, lambda i, k: range(i + 1, k + 1), (-2, -2)),
}


def multiplier(family: str, S, i: int, at: Weight,
               W: WeightModule = None) -> np.ndarray:
    """Diagonal eigenvalue companion of the family's difference operator.

    The q-KZB multipliers act on the side opposite to their operator
    (plain on F(S*) at the second argument, dual on F(S) at the first):
    q^{2 theta(base)} on slot i against the spectator weight.  Likewise for
    the trace families, whose entries are characters of W at the base point
    lowered by twice the spectator weight.  Each value is computed once per
    weight class of (slot i, spectators).
    """
    if family not in _MULTIPLIERS:
        raise ValueError(f"unknown family {family!r}; known: {FAMILIES}")
    S = tuple(S)
    k = len(S)
    datum, q = S[0].datum, S[0].q
    dual, lo, spectators, (a, b) = _MULTIPLIERS[family]
    _check_index(i, lo, k)
    space = dual_tuple(S) if dual else S
    pos = (lambda j: k - j) if dual else (lambda j: j - 1)  # slot of S[j - 1]
    rest = tuple(pos(j) for j in spectators(i, k))
    base = a * at + b * datum.rho
    vals = np.zeros(math.prod(V.dim for V in S), dtype=complex)
    if family.endswith("qkzb"):
        for (eta, tot), idx in slot_classes(space, ((pos(i),), rest)).items():
            vals[idx] = q ** (float(datum.two_theta(base, eta))
                              - 2 * float(datum.pairing(eta, tot)))
    else:
        for (tot,), idx in slot_classes(space, (rest,)).items():
            vals[idx] = character(W, base - 2 * tot)
    return np.diag(vals)


# ---------------------------------------------------------------------------
# fused-operator identities of the non-dynamical layer


def fusion_mr_residual(S, W: WeightModule, i: int, lam: Weight,
                       depth: int = 2, tol: float = 1e-10) -> float:
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
    jmat = fusion(S, lam, depth, tol).matrix
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
        mat = embed_slots(TW, r_matrix(W, X).matrix,
                          tuple(range(i + 1))) @ mat
    if i < k:
        Y = _fused(S[i:])
        mat = embed_slots(TW, np.linalg.inv(r21_matrix(W, Y).matrix),
                          (0,) + tuple(range(i + 1, k + 1))) @ mat
    rhs = partial_trace(mat, TW, 0) @ jmat
    scale = max(float(np.max(np.abs(lhs))), 1e-300)
    return float(np.max(np.abs(lhs - rhs))) / scale


def fusion_qkz_residual(S, i: int, lam: Weight, depth: int = 2,
                        tol: float = 1e-10) -> float:
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
    jhat = np.linalg.inv(fusion(S, base, depth, tol).matrix)

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
        rhs = rhs @ embed_slots(T, r21_matrix(S[i - 1], Y).matrix,
                                tuple(range(i - 1, k)))
    rhs = np.diag(dt) @ rhs @ np.diag(ups)
    if i > 1:
        X = _fused(S[:i - 1])
        rhs = rhs @ np.linalg.inv(
            embed_slots(T, r21_matrix(X, S[i - 1]).matrix, tuple(range(i))))
    scale = max(float(np.max(np.abs(jhat))), 1e-300)
    return float(np.max(np.abs(jhat - rhs))) / scale
