"""Weight-dependent operator layer: fusion, exchange, Q, and dressed dualities.

Everything here is an operator-valued function of a regular weight lam.  The
fusion operator j_S(lam) is assembled column by column from expectation values
of composite vertex operators.  Fusion corrections always lower the first
tensor leg, so every j_S(lam) is block-unitriangular with identity diagonal
and in particular invertible.

Every other operator is the dynamical twist of one module map, and
`_transport` is the only code that applies it: A: F(S) -> F(T) becomes
j_T(lam)^{-1} A j_S(lam).  The twist is strict monoidal, so `_transport`
owns the unit object, an empty word whose fusion is the identity.
The exchange operator of two words is the twist of their braiding from
S + T to T + S, flipped back; by the fusion cocycle this equals the braiding
of F(S), F(T) dressed with each word's fusion at shifted weights.  The dressed
(co)evaluations and the ribbon twist are twists of the plain maps, and Q_V is
read off the dressed twisted evaluation of V.

Shift semantics: on a tensor module, A(lam - h^(2)) (x) B means "apply A at
lam - nu on the part whose second-slot weight is nu"; `embedded_shifted`
builds such operators.

Fusion operators, braiding numerators and the tensor products F(S) of
module tuples are memoized in bounded `cache.Memo` tables keyed on the
module objects themselves, the weight, and every argument that changes the
result; duals are stored on their module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cache import Memo
from .cartan import Weight
from .qalgebra import (
    GradedMap,
    WeightModule,
    casimir_ratio,
    dual_module,
    dual_tuple,
    embed_slots,
    flip_index,
    left_dual_module,
    mirror_index,
    r_matrix,
    slot_classes,
    tensor_many,
    trivial_module,
)
from .vertexops import _check_regular, _leg_chain, expectation

__all__ = [
    "EvaluatedOperator",
    "fusion", "dynamical_twist", "exchange", "exchange21", "exchange_inverse",
    "q_operator", "q_operator_inverse", "dyn_structure", "embedded_shifted",
]


@dataclass(eq=False)
class EvaluatedOperator:
    """A GradedMap frozen at one evaluation point."""

    gmap: GradedMap
    lam: Weight
    family: str = "generic"

    @property
    def matrix(self) -> np.ndarray:
        return self.gmap.matrix

    @property
    def source(self) -> WeightModule:
        return self.gmap.source

    @property
    def target(self) -> WeightModule:
        return self.gmap.target

    def __repr__(self):
        return f"<{self.family} at {self.lam} on dim {self.source.dim}>"


_FUSION_MEMO = Memo()
_RMAT_MEMO = Memo()
_FUSED_MEMO = Memo()
_dual_of = dual_module  # older private name; the benchmark workloads call it


def _basis_vector(V: WeightModule, n: int) -> np.ndarray:
    v = np.zeros(V.dim, dtype=complex)
    v[n] = 1.0
    return v


# ---------------------------------------------------------------------------
# weight-shifted application


def embedded_shifted(T: WeightModule, fn, act, shift, lam: Weight,
                     sign: int = -1) -> np.ndarray:
    """Operator on the tensor module T: fn(lam + sign*h_shift) on slots `act`.

    fn(mu) returns a matrix on the kron of T.slots[act] in the given order;
    `shift` names the slots whose total weight drives the evaluation point.
    Columns are assembled per shift-weight class of the input basis vector.
    That weight is the output's too, because the embedded operator preserves
    the total weight of the shift slots: it is the identity on shift slots
    outside `act`, and fn(mu) preserves weight on the acted slots, which may
    themselves be shift slots (the trace families act on (0, j) and shift by
    slots 0..j).
    """
    out = np.zeros((T.dim, T.dim), dtype=complex)
    for (w,), idxs in slot_classes(T.slots, (shift,)).items():
        emb = embed_slots(T, fn(lam + sign * w), act)
        out[:, idxs] = emb[:, idxs]
    return out


# ---------------------------------------------------------------------------
# fusion


def fusion(S, lam: Weight) -> EvaluatedOperator:
    """Fusion operator j_S(lam) on the tensor product of the modules in S.

    Column n is the expectation value of the composite vertex operator whose
    legs carry the n-th basis vectors.  Columns walk one leg chain with a
    table keyed on basis-index suffixes, so columns that agree on their
    rightmost legs share those legs.  The expectation value reads only
    column 0, so the chain starts at the depth-0 source Verma, which holds
    m_lam alone.  That is exact: leg j is read only on source columns of
    depth at most the raises of the legs right of it, each target is at
    least that deep, and truncated Verma bases agree on their common
    prefix.  S must not be empty: the twist sends the unit object to
    itself, and `_transport` supplies that identity.
    """
    S = tuple(S)

    def make():
        T = _fused(S)
        if len(S) == 1:
            return EvaluatedOperator(GradedMap(T, T, np.eye(T.dim)), lam, "fusion")
        _check_regular(S[0].datum, lam, len(S))
        dims = tuple(V.dim for V in S)
        cols = np.empty((T.dim, T.dim), dtype=complex)
        legs = {}
        for n in range(T.dim):
            digits = tuple(int(d) for d in np.unravel_index(n, dims))
            vlist = [_basis_vector(V, d) for V, d in zip(S, digits)]
            phi = _leg_chain(lam, S, vlist, 0, legs, digits)
            cols[:, n] = expectation(phi)
        return EvaluatedOperator(GradedMap(T, T, cols), lam, "fusion")

    return _FUSION_MEMO.get((S, lam), make)


# ---------------------------------------------------------------------------
# dynamical twist of a module map


def _transport(A, S, T, lam: Weight) -> GradedMap:
    """j_T(lam)^{-1} o A o j_S(lam), a GradedMap F(S) -> F(T).

    A is a GradedMap or a plain matrix F(S) -> F(T).  This is the only
    conjugation by fusion operators and owns the unit object: an empty word,
    whose fusion operator is the identity, as the twist is strict.
    """
    S, T = tuple(S), tuple(T)
    if not S + T:
        raise ValueError("both words are empty: twist between unit objects ()")
    A_mat = A.matrix if isinstance(A, GradedMap) else np.asarray(A, dtype=complex)
    ref = (S + T)[0]
    one = None if S and T else trivial_module(ref.datum, ref.q)
    jS, jT = (fusion(w, lam) if w else GradedMap(one, one, np.eye(1)) for w in (S, T))
    cond = np.linalg.cond(jT.matrix)
    if not np.isfinite(cond) or cond > 1e12:
        raise np.linalg.LinAlgError(
            f"target fusion operator numerically singular, cond {cond:.2e}")
    mat = np.linalg.solve(jT.matrix, A_mat @ jS.matrix)
    return GradedMap(jS.source, jT.source, mat)


def dynamical_twist(A, S, T, lam: Weight) -> EvaluatedOperator:
    """Conjugate a module map F(S) -> F(T) into the dynamical category.

    A may be a GradedMap or a plain matrix; the result is
    j_T(lam)^{-1} o A o j_S(lam).  For length-1 tuples this is A itself.
    """
    return EvaluatedOperator(_transport(A, S, T, lam), lam, "generic")


# ---------------------------------------------------------------------------
# exchange operators


def _fused(S) -> WeightModule:
    """F(S), one module object per tuple of module objects."""
    S = tuple(S)
    if not S:
        raise ValueError("the empty word () has no tensor product F(S)")
    return S[0] if len(S) == 1 else _FUSED_MEMO.get(S, lambda: tensor_many(S))


def _plain_r(V: WeightModule, W: WeightModule) -> np.ndarray:
    """Braiding numerator on V (x) W, cached (it does not depend on lam)."""
    return _RMAT_MEMO.get((V, W), lambda: r_matrix(V, W))


def exchange(S, T, lam: Weight) -> EvaluatedOperator:
    """Exchange operator R_{S,T}(lam) on F(S) (x) F(T).

    The braiding F(S) (x) F(T) -> F(T) (x) F(S) transported from the word
    S + T to T + S, with the flip undone on the rows.
    """
    S = (S,) if isinstance(S, WeightModule) else tuple(S)
    T = (T,) if isinstance(T, WeightModule) else tuple(T)
    FS, FT = _fused(S), _fused(T)
    braid = _plain_r(FS, FT)[flip_index(FS, FT)]
    mat = _transport(braid, S + T, T + S, lam).matrix
    pair = _fused((FS, FT))
    gm = GradedMap(pair, pair, mat[flip_index(FT, FS)])
    return EvaluatedOperator(gm, lam, "exchange")


def exchange21(S, T, lam: Weight) -> EvaluatedOperator:
    """R^{21}_{S,T}(lam) = P o R_{T,S}(lam) o P, an operator on F(S) (x) F(T)."""
    S = (S,) if isinstance(S, WeightModule) else tuple(S)
    T = (T,) if isinstance(T, WeightModule) else tuple(T)
    FS, FT = _fused(S), _fused(T)
    R = exchange(T, S, lam)
    p = flip_index(FT, FS)
    mat = R.matrix[np.ix_(p, p)]
    pair = _fused((FS, FT))
    gm = GradedMap(pair, pair, mat)
    return EvaluatedOperator(gm, lam, "exchange")


def exchange_inverse(S, T, lam: Weight) -> EvaluatedOperator:
    R = exchange(S, T, lam)
    gm = GradedMap(R.source, R.source, np.linalg.inv(R.matrix))
    return EvaluatedOperator(gm, lam, "exchange")


# ---------------------------------------------------------------------------
# Q-operators


def q_operator(V: WeightModule, lam: Weight) -> EvaluatedOperator:
    """Q_V(lam), read off the dressed twisted evaluation of V: its entry at
    (v (x) f) is f(q^{2rho} Q_V(lam) v)."""
    r = dyn_structure("r-eval", (V,), lam).matrix
    mat = r.reshape(V.dim, V.dim).T / V.qh(2 * V.datum.rho)[:, None]
    gm = GradedMap(V, V, mat)
    if not gm.graded_residual() < 1e-8:
        raise ArithmeticError("Q operator lost the weight grading")
    return EvaluatedOperator(gm, lam, "Q")


def q_operator_inverse(V: WeightModule, lam: Weight) -> EvaluatedOperator:
    """Q_V(lam)^{-1} by the weight-blockwise contraction of the inverted
    fusion operator of (*V, V); cross-checked against direct inversion.

    On the block V[nu] the operator is b -> sum_c M[(b,a),(c,c)] with
    M = j_{(*V,V)}(lam+nu)^{-1}.  Disagreement with the numerically inverted
    q_operator beyond 1e-10 of its scale signals a convention fault somewhere
    upstream, so it raises.
    """
    direct = np.linalg.inv(q_operator(V, lam).matrix)
    lV = left_dual_module(V)
    d = V.dim
    out = np.zeros((d, d), dtype=complex)
    for nu, cols in V.blocks.items():
        M = np.linalg.inv(fusion((lV, V), lam + nu).matrix)
        op = np.einsum("bacc->ab", M.reshape(d, d, d, d))
        out[:, cols] = op[:, cols]
    scale = max(1.0, float(np.max(np.abs(direct))))
    if np.max(np.abs(out - direct)) > 1e-10 * scale:
        raise ArithmeticError(
            "Q inverse routes disagree beyond tolerance (convention fault)")
    gm = GradedMap(V, V, out)
    return EvaluatedOperator(gm, lam, "Q")


# ---------------------------------------------------------------------------
# dressed duality structure


def _ribbon_matrix(V: WeightModule) -> np.ndarray:
    """Twist on a tensor product of irreducible slots, normalized at the unit.

    Slot values enter only as casimir_ratio against the zero weight and
    products of two braidings; no absolute ribbon constant is introduced.
    """
    slots = V.slots
    if len(slots) == 1:
        hw = max(V.weight_set(), key=lambda w: w.height())
        s = casimir_ratio(V.datum, V.q, hw, V.datum.zero_weight())
        return s * np.eye(V.dim, dtype=complex)
    A = _fused(slots[:-1])
    B = slots[-1]
    thA = _ribbon_matrix(A)
    thB = _ribbon_matrix(B)
    p = flip_index(B, A)
    dbl = _plain_r(B, A)[np.ix_(p, p)] @ _plain_r(A, B)
    return np.kron(thA, thB) @ dbl


def dyn_structure(tag: str, S, lam: Weight) -> EvaluatedOperator:
    """Dressed duality data of the tuple S: the plain map, transported.

    tag: 'eval'     e_S o j_{S* x S}(lam)          F(S*) (x) F(S) -> unit
         'coeval'   j_{S x S*}(lam)^{-1} o iota_S   unit -> F(S) (x) F(S*)
         'r-eval'   etilde_S o j_{S x S*}(lam)      F(S) (x) F(S*) -> unit
         'r-coeval' j_{S* x S}(lam)^{-1} o itilde_S unit -> F(S*) (x) F(S)
         'twist'    j_S(lam)^{-1} o theta_{F(S)} o j_S(lam) on F(S)
    """
    S = (S,) if isinstance(S, WeightModule) else tuple(S)
    Sstar = dual_tuple(S)
    FS = _fused(S)
    df, rho2 = FS.dim, 2 * FS.datum.rho
    mirror = mirror_index(S)
    # b (x) b* sits at pairs[b] in F(S x S*), b* (x) b at dual[b] in F(S* x S)
    pairs, dual = np.arange(df) * df + mirror, mirror * df + np.arange(df)

    def row(idx, vals) -> np.ndarray:
        out = np.zeros((1, df * df), dtype=complex)
        out[0, idx] = vals
        return out

    entries = {  # tag -> (source word, target word, plain map, family)
        "eval": lambda: (Sstar + S, (), row(dual, 1.0), "dyn-eval"),
        "r-eval": lambda: (S + Sstar, (), row(pairs, FS.qh(rho2)), "dyn-eval"),
        "coeval": lambda: ((), S + Sstar, row(pairs, 1.0).T, "dyn-coeval"),
        "r-coeval": lambda: ((), Sstar + S, row(dual, FS.qh(-rho2)).T,
                             "dyn-coeval"),
        "twist": lambda: (S, S, _ribbon_matrix(FS), "dyn-twist"),
    }
    if tag not in entries:
        raise ValueError(f"unknown structure tag {tag!r}")
    src, tgt, plain, family = entries[tag]()
    return EvaluatedOperator(_transport(plain, src, tgt, lam), lam, family)
