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

Two private builders make all four families: `_projected_product` for
the q-KZB families (acting slot a, 0-based; arguments left, projector
weight, right) and `_traced_product` for the trace families (split s:
inverse flipped factors against slots 1..s, plain ones against the rest;
one argument).  A dual family is the plain builder on the mirrored word
S* = dual_tuple(S), where the dual of the j-th module of S sits at 0-based
slot k - j (`qalgebra.mirror_index` maps the two bases):

    family         word  slot/split  arguments
    qkzb           S     a = i - 1   -lam-2rho-sigma, sigma, -lam-2rho
    dual-qkzb      S*    a = k - i   mu+sigma, -sigma, mu
    coord-mr       S     s = i       -lam-2rho
    dual-coord-mr  S*    s = k - i   mu
"""

import math
from dataclasses import dataclass

import numpy as np

from .cache import Memo
from .cartan import Weight
from .dynamical import embedded_shifted, exchange, exchange21, exchange_inverse
from .qalgebra import (
    WeightModule, character, dual_module, dual_tuple, mirror_index,
    partial_trace, slot_classes, slot_index_arrays, tensor_many,
)

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
    returns A exactly (the pairing is a permutation of basis vectors).
    """
    if direction == "T":
        back = mirror_index(S[::-1])
        return A.T[np.ix_(back, back)]
    if direction == "T*":
        mirror = mirror_index(S)
        return A[np.ix_(mirror, mirror)].T
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


def _projected_product(S: tuple, a: int, args):
    """q-KZB coefficients on F(S), acting slot a (0-based).

    args(at, sigma) gives (left, w, right).  Right to left, the product
    applies exchange factors of each earlier slot b against slot a (b = a-1
    first) at left minus the weight of every slot past b but a, then the
    projector of slot a on weight w, then inverse exchange factors of slot
    a against each later slot b (the last first) at right minus the weight
    of the slots past b.
    """
    k = len(S)
    T = tensor_many(S)

    def coefficient(at: Weight, sigma: Weight) -> np.ndarray:
        left, w, right = args(at, sigma)
        out = np.eye(T.dim, dtype=complex)
        for b in range(a - 1, -1, -1):
            spect = tuple(range(b + 1, a)) + tuple(range(a + 1, k))
            fn = lambda z, A=S[b], B=S[a]: exchange(A, B, z).matrix
            out = embedded_shifted(T, fn, (b, a), spect, left) @ out
        out = _slot_projector(T, a, w) @ out
        for b in range(k - 1, a, -1):
            fn = lambda z, A=S[a], B=S[b]: exchange_inverse(A, B, z).matrix
            out = embedded_shifted(T, fn, (a, b), tuple(range(b + 1, k)),
                                   right) @ out
        return out

    return coefficient


def _traced_product(S: tuple, W: WeightModule, split: int, arg):
    """Trace-family coefficients on F(S), auxiliary module W.

    On W* (x) F(S) the product carries inverse flipped exchange factors of
    W* against slots 1..split of S and plain ones against the rest, in slot
    order, each at arg(at) raised by the weight of W* through that slot; the
    sigma coefficient traces W* over its weight -sigma block.
    """
    ws = dual_module(W)
    T = tensor_many((ws,) + S)
    memo = Memo()

    def product(at: Weight) -> np.ndarray:
        z0 = arg(at)
        out = np.eye(T.dim, dtype=complex)
        for j, B in enumerate(S, 1):
            if j <= split:
                fn = lambda z, B=B: np.linalg.inv(exchange21(ws, B, z).matrix)
            else:
                fn = lambda z, B=B: exchange(ws, B, z).matrix
            out = embedded_shifted(T, fn, (0, j), tuple(range(j + 1)), z0,
                                   sign=+1) @ out
        return out

    def coefficient(at: Weight, sigma: Weight) -> np.ndarray:
        keep = [int(n) for n in ws.block(-1 * sigma)]
        return partial_trace(memo.get(at, lambda: product(at)), T, 0,
                             keep=keep)

    return coefficient


def qkzb_operator(S, i: int) -> DifferenceOperator:
    """Shift family in the first weight argument, coefficients on F(S).

    The coefficient at shift sigma conjugates the slot-i projector by
    inverse exchange factors against the later slots (argument -lam-2rho
    minus the spectator tail) and plain exchange factors against the
    earlier slots (argument additionally lowered by sigma).
    """
    S = tuple(S)
    _check_index(i, 1, len(S))
    rho2 = 2 * S[0].datum.rho

    def args(lam: Weight, sigma: Weight):
        base = -1 * lam - rho2
        return base - sigma, sigma, base

    return DifferenceOperator(
        "qkzb", i, S, "lam", +1, S[i - 1].weight_set(),
        _projected_product(S, i - 1, args))


def dual_qkzb_operator(S, i: int) -> DifferenceOperator:
    """Second-argument shift family with coefficients directly on F(S*).

    The q-KZB product on the mirrored word S*, acting on the dual of slot i
    (0-based slot k - i) with arguments mu + sigma, projector weight
    -sigma, and mu.  On the zero-weight block this equals the
    renormalization conjugate of the dual-basis transpose of the
    flipped-exchange kernel on F(S); the tests keep that kernel as an
    oracle.
    """
    S = tuple(S)
    k = len(S)
    _check_index(i, 1, k)
    sstar = dual_tuple(S)
    return DifferenceOperator(
        "dual-qkzb", i, sstar, "mu", +1, S[i - 1].weight_set(),
        _projected_product(sstar, k - i, lambda mu, s: (mu + s, -1 * s, mu)))


def coord_mr_operator(S, W: WeightModule, i: int) -> DifferenceOperator:
    """Trace family in the first argument: coefficients on F(S).

    The product over the auxiliary dual slot carries inverse flipped
    exchange factors against slots 1..i and plain ones against i+1..k,
    every argument -lam-2rho raised by the closed span of slots from the
    auxiliary through the acting one; the sigma coefficient traces the
    auxiliary slot over its weight -sigma block.
    """
    S = tuple(S)
    _check_index(i, 0, len(S))
    rho2 = 2 * S[0].datum.rho
    return DifferenceOperator(
        "coord-mr", i, S, "lam", +1, W.weight_set(),
        _traced_product(S, W, i, lambda lam: -1 * lam - rho2),
        aux=W)


def dual_coord_mr_operator(S, W: WeightModule, i: int) -> DifferenceOperator:
    """Trace family in the second argument: coefficients on F(S*).

    The trace product on the mirrored word S*, split k - i, at mu: plain
    exchange factors of the auxiliary dual against the duals of slots
    1..i and inverse flipped ones against the rest.  Samples step
    backwards, f(mu - sigma).
    """
    S = tuple(S)
    k = len(S)
    _check_index(i, 0, k)
    return DifferenceOperator(
        "dual-coord-mr", i, dual_tuple(S), "mu", -1, W.weight_set(),
        _traced_product(dual_tuple(S), W, k - i, lambda mu: mu),
        aux=W)


def operator(family: str, S, i: int, W: WeightModule = None) -> DifferenceOperator:
    """Uniform constructor over the four families."""
    if family == "qkzb":
        return qkzb_operator(S, i)
    if family == "dual-qkzb":
        return dual_qkzb_operator(S, i)
    if family == "coord-mr":
        if W is None:
            raise ValueError("coord-mr needs the auxiliary module W")
        return coord_mr_operator(S, W, i)
    if family == "dual-coord-mr":
        if W is None:
            raise ValueError("dual-coord-mr needs the auxiliary module W")
        return dual_coord_mr_operator(S, W, i)
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
    if W is None and not family.endswith("qkzb"):
        raise ValueError(f"{family} needs the auxiliary module W")
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
