"""Weight-dependent operator layer: fusion, exchange, Q, and dressed dualities.

Everything here is an operator-valued function of a regular weight lam.  The
fusion operator j_S(lam) is assembled column by column from expectation values
of composite vertex operators; exchange operators, Q-operators and the dressed
(co)evaluation / twist maps are built from it.  Fusion corrections always lower
the first tensor leg, so every j_S(lam) is block-unitriangular with identity
diagonal and in particular invertible.

Shift semantics: for a pair space V (x) W, an expression A(lam - h^(2)) (x) B
means "apply A at lam - nu on the part whose second-slot weight is nu".  Both
ways of factoring such a product (shifted factor first or last) must agree;
`pair_first_shifted` / `pair_second_shifted` check that.

Fusion operators and braiding numerators are memoized in bounded
`cache.Memo` tables keyed on the module objects themselves, the weight, and
every argument that changes the result; duals are stored on their module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cache import Memo
from .cartan import CartanDatum, Weight
from .qalgebra import (
    GradedMap,
    WeightModule,
    casimir_ratio,
    dual_module,
    dual_tuple,
    embed_slots,
    eval_twisted,
    flip_index,
    left_dual_module,
    r_matrix,
    slot_classes,
    tensor_many,
    tensor_module,
    trivial_module,
)
from .vertexops import _leg_chain, expectation

__all__ = [
    "EvaluatedOperator", "DynamicalFamily",
    "fusion", "dynamical_twist", "exchange", "exchange21", "exchange_inverse",
    "q_operator", "q_operator_inverse", "dyn_structure",
    "fusion_family", "exchange_family", "q_family",
    "pair_first_shifted", "pair_second_shifted", "embedded_shifted",
]

_DECOMP_TOL = 1e-9


@dataclass(eq=False)
class EvaluatedOperator:
    """A weight-preserving GradedMap frozen at one evaluation point."""

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


class DynamicalFamily:
    """lam -> EvaluatedOperator, memoized per family in a `cache.Memo`.

    Repeated evaluation at equal lam returns the very same object, so results
    are bit-identical by construction.  The closure must be pure.
    """

    def __init__(self, fn):
        self._fn = fn
        self._memo = Memo()

    def __call__(self, lam: Weight) -> EvaluatedOperator:
        return self._memo.get(lam, lambda: self._fn(lam))

    def matrix(self, lam: Weight) -> np.ndarray:
        return self(lam).matrix


_FUSION_MEMO = Memo()
_RMAT_MEMO = Memo()
_dual_of = dual_module  # older private name, still used by callers


def _basis_vector(V: WeightModule, n: int) -> np.ndarray:
    v = np.zeros(V.dim, dtype=complex)
    v[n] = 1.0
    return v


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
                       lam: Weight, sign: int = -1) -> np.ndarray:
    """Matrix of (A(lam + sign*h^(2)) (x) B) on V (x) W.

    fnA(mu) must return a dim(V) square matrix.  Both factorization orders are
    formed and must agree; B_mat has to preserve W-weights for that.
    """
    T = tensor_module(V, W)
    nv = len(V.slots)
    lead = embedded_shifted(T, fnA, tuple(range(nv)),
                            tuple(range(nv, len(T.slots))), lam, sign)
    return _both_orders(lead, np.kron(np.eye(V.dim), B_mat))


def pair_second_shifted(A_mat: np.ndarray, fnB, V: WeightModule, W: WeightModule,
                        lam: Weight, sign: int = -1) -> np.ndarray:
    """Matrix of (A (x) B(lam + sign*h^(1))) on V (x) W."""
    T = tensor_module(V, W)
    nv = len(V.slots)
    lead = embedded_shifted(T, fnB, tuple(range(nv, len(T.slots))),
                            tuple(range(nv)), lam, sign)
    return _both_orders(lead, np.kron(A_mat, np.eye(W.dim)))


def embedded_shifted(T: WeightModule, fn, act, shift, lam: Weight,
                     sign: int = -1) -> np.ndarray:
    """Operator on the tensor module T: fn(lam + sign*h_shift) on slots `act`.

    fn(mu) returns a matrix on the kron of T.slots[act] in the given order;
    `shift` names the slots whose total weight drives the evaluation point.
    Columns are assembled per shift-weight class, which is consistent because
    the embedded operator does not touch the shift slots.
    """
    out = np.zeros((T.dim, T.dim), dtype=complex)
    for (w,), idxs in slot_classes(T.slots, (shift,)).items():
        emb = embed_slots(T, fn(lam + sign * w), act)
        out[:, idxs] = emb[:, idxs]
    return out


# ---------------------------------------------------------------------------
# fusion


def fusion(S, lam: Weight, depth: int = 2, tol: float = 1e-10,
           datum: CartanDatum = None, q: float = None) -> EvaluatedOperator:
    """Fusion operator j_S(lam) on the tensor product of the modules in S.

    Column n is the expectation value of the composite vertex operator whose
    legs carry the n-th basis vectors.  Columns walk one leg chain with a
    table keyed on basis-index suffixes, so columns that agree on their
    rightmost legs share those legs.  The truncation depth only pads the
    source Verma; the expectation value is exact for any depth >= 1 because
    per-stage budgets grow with each leg.
    """
    S = tuple(S)
    if not S:
        if datum is None or q is None:
            raise ValueError("empty tuple needs datum and q for its unit object")
        T = trivial_module(datum, q)
        return EvaluatedOperator(GradedMap.identity(T), lam, "fusion")

    def make():
        T = tensor_many(S) if len(S) > 1 else S[0]
        dz = S[0].datum.zero_weight()
        if len(S) == 1:
            return EvaluatedOperator(
                GradedMap(T, T, dz, np.eye(T.dim, dtype=complex)), lam, "fusion")
        dims = tuple(V.dim for V in S)
        cols = np.empty((T.dim, T.dim), dtype=complex)
        legs = {}
        for n in range(T.dim):
            digits = tuple(int(d) for d in np.unravel_index(n, dims))
            vlist = [_basis_vector(V, d) for V, d in zip(S, digits)]
            phi = _leg_chain(lam, S, vlist, depth, tol, legs, digits)
            cols[:, n] = expectation(phi)
        return EvaluatedOperator(GradedMap(T, T, dz, cols), lam, "fusion")

    return _FUSION_MEMO.get((S, lam, int(depth), float(tol)), make)


def fusion_family(S, depth: int = 2, tol: float = 1e-10) -> DynamicalFamily:
    return DynamicalFamily(lambda lam: fusion(S, lam, depth, tol))


# ---------------------------------------------------------------------------
# dynamical twist of a module map


def dynamical_twist(A, S, T, lam: Weight, depth: int = 2,
                    tol: float = 1e-10) -> EvaluatedOperator:
    """Conjugate a module map F(S) -> F(T) into the dynamical category.

    A may be a GradedMap or a plain matrix; the result is
    j_T(lam)^{-1} o A o j_S(lam).  For length-1 tuples this is A itself.
    """
    S, T = tuple(S), tuple(T)
    A_mat = A.matrix if isinstance(A, GradedMap) else np.asarray(A, dtype=complex)
    jS = fusion(S, lam, depth, tol)
    jT = fusion(T, lam, depth, tol)
    cond = np.linalg.cond(jT.matrix)
    if not np.isfinite(cond) or cond > 1e12:
        raise np.linalg.LinAlgError(
            f"target fusion operator numerically singular, cond {cond:.2e}")
    mat = np.linalg.solve(jT.matrix, A_mat @ jS.matrix)
    gm = GradedMap(jS.source, jT.source, jS.source.datum.zero_weight(), mat)
    return EvaluatedOperator(gm, lam, "generic")


# ---------------------------------------------------------------------------
# exchange operators


def _fused(S) -> WeightModule:
    S = tuple(S)
    return S[0] if len(S) == 1 else tensor_many(S)


def _plain_r(V: WeightModule, W: WeightModule) -> np.ndarray:
    """Braiding numerator on V (x) W, cached (it does not depend on lam)."""
    return _RMAT_MEMO.get(
        (V, W), lambda: r_matrix(V, W, tensor_module(V, W)).matrix)


def _exchange_pair(V: WeightModule, W: WeightModule, lam: Weight,
                   depth: int, tol: float) -> np.ndarray:
    """R_{V,W}(lam) for single modules: conjugate the braiding by fusions."""
    jVW = fusion((V, W), lam, depth, tol).matrix
    jWV = fusion((W, V), lam, depth, tol).matrix
    out = np.linalg.solve(jWV, _plain_r(V, W)[flip_index(V, W)] @ jVW)
    return out[flip_index(W, V)]


def exchange(S, T, lam: Weight, depth: int = 2,
             tol: float = 1e-10) -> EvaluatedOperator:
    """Exchange operator R_{S,T}(lam) on F(S) (x) F(T).

    Tuples of length one reduce to the conjugated braiding; longer tuples
    dress that pair operator with shifted fusion factors on either side.
    """
    S = (S,) if isinstance(S, WeightModule) else tuple(S)
    T = (T,) if isinstance(T, WeightModule) else tuple(T)
    FS, FT = _fused(S), _fused(T)
    core = _exchange_pair(FS, FT, lam, depth, tol)
    if len(S) == 1 and len(T) == 1:
        pair = tensor_module(FS, FT)
        gm = GradedMap(pair, pair, FS.datum.zero_weight(), core)
        return EvaluatedOperator(gm, lam, "exchange")

    jS = lambda mu: fusion(S, mu, depth, tol).matrix
    jT = lambda mu: fusion(T, mu, depth, tol).matrix
    pre = pair_first_shifted(jS, jT(lam), FS, FT, lam)
    post = pair_second_shifted(
        np.linalg.inv(jS(lam)), lambda mu: np.linalg.inv(jT(mu)), FS, FT, lam)
    pair = tensor_module(FS, FT)
    gm = GradedMap(pair, pair, FS.datum.zero_weight(), post @ core @ pre)
    return EvaluatedOperator(gm, lam, "exchange")


def exchange21(S, T, lam: Weight, depth: int = 2,
               tol: float = 1e-10) -> EvaluatedOperator:
    """R^{21}_{S,T}(lam) = P o R_{T,S}(lam) o P, an operator on F(S) (x) F(T)."""
    S = (S,) if isinstance(S, WeightModule) else tuple(S)
    T = (T,) if isinstance(T, WeightModule) else tuple(T)
    FS, FT = _fused(S), _fused(T)
    R = exchange(T, S, lam, depth, tol)
    p = flip_index(FT, FS)
    mat = R.matrix[np.ix_(p, p)]
    pair = tensor_module(FS, FT)
    gm = GradedMap(pair, pair, FS.datum.zero_weight(), mat)
    return EvaluatedOperator(gm, lam, "exchange")


def exchange_inverse(S, T, lam: Weight, depth: int = 2,
                     tol: float = 1e-10) -> EvaluatedOperator:
    R = exchange(S, T, lam, depth, tol)
    gm = GradedMap(R.source, R.source, R.source.datum.zero_weight(),
                   np.linalg.inv(R.matrix))
    return EvaluatedOperator(gm, lam, "exchange")


def exchange_family(S, T, depth: int = 2, tol: float = 1e-10) -> DynamicalFamily:
    return DynamicalFamily(lambda lam: exchange(S, T, lam, depth, tol))


# ---------------------------------------------------------------------------
# Q-operators


def q_operator(V: WeightModule, lam: Weight, depth: int = 2,
               tol: float = 1e-10) -> EvaluatedOperator:
    """Q_V(lam), fixed entrywise by contracting j_{(V,V*)}(lam) with the
    twisted evaluation: row (v (x) f) -> f(q^{2rho} Q_V(lam) v)."""
    datum = V.datum
    Vd = dual_module(V)
    j = fusion((V, Vd), lam, depth, tol).matrix
    row = eval_twisted(V, Vd).matrix.ravel()
    r = (row @ j).reshape(V.dim, V.dim)
    q2r = V.qh(2 * datum.rho)
    mat = r.T / q2r[:, None]
    gm = GradedMap(V, V, datum.zero_weight(), mat)
    if not gm.graded_residual() < 1e-8:
        raise ArithmeticError("Q operator lost the weight grading")
    return EvaluatedOperator(gm, lam, "Q")


def q_operator_inverse(V: WeightModule, lam: Weight, depth: int = 2,
                       tol: float = 1e-8) -> EvaluatedOperator:
    """Q_V(lam)^{-1} by the weight-blockwise contraction of the inverted
    fusion operator of (*V, V); cross-checked against direct inversion.

    On the block V[nu] the operator is b -> sum_c M[(b,a),(c,c)] with
    M = j_{(*V,V)}(lam+nu)^{-1}.  Disagreement with the numerically inverted
    q_operator signals a convention fault somewhere upstream, so it raises.
    """
    direct = np.linalg.inv(q_operator(V, lam, depth).matrix)
    lV = left_dual_module(V)
    d = V.dim
    out = np.zeros((d, d), dtype=complex)
    for nu, cols in V.blocks.items():
        M = np.linalg.inv(fusion((lV, V), lam + nu, depth, tol).matrix)
        op = np.einsum("bacc->ab", M.reshape(d, d, d, d))
        out[:, cols] = op[:, cols]
    scale = max(1.0, float(np.max(np.abs(direct))))
    if np.max(np.abs(out - direct)) > tol * scale:
        raise ArithmeticError(
            "Q inverse routes disagree beyond tolerance (convention fault)")
    gm = GradedMap(V, V, V.datum.zero_weight(), out)
    return EvaluatedOperator(gm, lam, "Q")


def q_family(V: WeightModule, depth: int = 2, tol: float = 1e-10) -> DynamicalFamily:
    return DynamicalFamily(lambda lam: q_operator(V, lam, depth, tol))


# ---------------------------------------------------------------------------
# dressed duality structure


def _pair_permutation(S) -> np.ndarray:
    """For each linear index of F(S), the linear index of its mirror in F(S*).

    F(S*) runs over the duals in reversed order, so the multi-index simply
    reverses.
    """
    dims = tuple(V.dim for V in S)
    rev = tuple(reversed(dims))
    out = np.empty(int(np.prod(dims)), dtype=int)
    for n, A in enumerate(np.ndindex(*dims)):
        out[n] = np.ravel_multi_index(tuple(reversed(A)), rev)
    return out


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
    A = slots[0] if len(slots) == 2 else tensor_many(slots[:-1])
    B = slots[-1]
    thA = _ribbon_matrix(A)
    thB = _ribbon_matrix(B)
    p = flip_index(B, A)
    dbl = _plain_r(B, A)[np.ix_(p, p)] @ _plain_r(A, B)
    return np.kron(thA, thB) @ dbl


def dyn_structure(tag: str, S, lam: Weight, depth: int = 2,
                  tol: float = 1e-10) -> EvaluatedOperator:
    """Dressed duality data of the tuple S.

    tag: 'eval'     e_S o j_{S* x S}(lam)          F(S*) (x) F(S) -> unit
         'coeval'   j_{S x S*}(lam)^{-1} o iota_S   unit -> F(S) (x) F(S*)
         'r-eval'   etilde_S o j_{S x S*}(lam)      F(S) (x) F(S*) -> unit
         'r-coeval' j_{S* x S}(lam)^{-1} o itilde_S unit -> F(S*) (x) F(S)
         'twist'    j_S(lam)^{-1} o theta_{F(S)} o j_S(lam) on F(S)
    """
    S = (S,) if isinstance(S, WeightModule) else tuple(S)
    Sstar = dual_tuple(S)
    datum, qv = S[0].datum, S[0].q
    triv = trivial_module(datum, qv)
    FS = _fused(S)
    df = FS.dim
    mirror = _pair_permutation(S)
    zero = datum.zero_weight()

    if tag == "twist":
        j = fusion(S, lam, depth, tol)
        mat = np.linalg.solve(j.matrix, _ribbon_matrix(FS) @ j.matrix)
        gm = GradedMap(j.source, j.source, zero, mat)
        return EvaluatedOperator(gm, lam, "dyn-twist")

    if tag == "eval":
        row = np.zeros(df * df, dtype=complex)
        row[mirror * df + np.arange(df)] = 1.0
        j = fusion(Sstar + S, lam, depth, tol)
        gm = GradedMap(j.source, triv, zero, (row @ j.matrix)[None, :])
        return EvaluatedOperator(gm, lam, "dyn-eval")

    if tag == "r-eval":
        row = np.zeros(df * df, dtype=complex)
        row[np.arange(df) * df + mirror] = FS.qh(2 * datum.rho)
        j = fusion(S + Sstar, lam, depth, tol)
        gm = GradedMap(j.source, triv, zero, (row @ j.matrix)[None, :])
        return EvaluatedOperator(gm, lam, "dyn-eval")

    if tag == "coeval":
        col = np.zeros(df * df, dtype=complex)
        col[np.arange(df) * df + mirror] = 1.0
        j = fusion(S + Sstar, lam, depth, tol)
        gm = GradedMap(triv, j.source, zero,
                       np.linalg.solve(j.matrix, col)[:, None])
        return EvaluatedOperator(gm, lam, "dyn-coeval")

    if tag == "r-coeval":
        col = np.zeros(df * df, dtype=complex)
        col[mirror * df + np.arange(df)] = FS.qh(-2 * datum.rho)
        j = fusion(Sstar + S, lam, depth, tol)
        gm = GradedMap(triv, j.source, zero,
                       np.linalg.solve(j.matrix, col)[:, None])
        return EvaluatedOperator(gm, lam, "dyn-coeval")

    raise ValueError(f"unknown structure tag {tag!r}")
