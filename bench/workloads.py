"""The four dynq benchmark workloads.

Each workload builds its modules and lambda-independent data once
(`__init__`, the set-up), then runs ops.  An op evaluates the workload's
objects at one freshly drawn weight (`op`); `check` then tests the result
against a paper identity at the test suite's tolerance and returns
`(name, residual, tolerance)` triples.  Why each workload exists is in
README.md next to this file.

Library calls go through module attributes (`dyn.fusion`, not a bare
`fusion`), so the traced run sees them after it patches the modules.
"""

import random

import numpy as np

from dynq import cartan, diffops, dynamical as dyn, qalgebra, traces, vertexops

Q = 0.5

# Regularity margin of every draw.  Coroot pairings move by integers under
# weight-lattice shifts, so a draw regular at this margin keeps every
# lattice-shifted weight an op evaluates regular at the library's own 0.05.
DRAW_MARGIN = 0.1


class WeightDraws:
    """Seeded stream of fresh weights in fundamental-weight coordinates.

    Coordinates have three decimals, as a user types them, and enter the
    library as floats.  A draw is kept only if `accept(weights)` holds and
    no weight w of it has w or -w in the class, modulo the weight lattice,
    of a weight of an earlier draw.  Ops evaluate at lattice shifts of w and
    of -w (traces at -lam - 2 rho), so ops of one run never hit each
    other's memo entries.
    """

    def __init__(self, seed, datum, ranges, accept):
        self._rng = random.Random(seed)
        self._datum = datum
        self._ranges = ranges
        self._accept = accept
        self._seen = set()

    def __iter__(self):
        return self

    def __next__(self):
        for _ in range(100_000):
            coords = [tuple(round(self._rng.uniform(lo, hi), 3) for lo, hi in point)
                      for point in self._ranges]
            keys = {tuple(round(sign * c % 1.0, 3) for c in point)
                    for point in coords for sign in (1, -1)}
            if keys & self._seen:
                continue
            weights = [self._weight(point) for point in coords]
            if all(self._datum.is_regular(w, DRAW_MARGIN) for w in weights) \
                    and self._accept(weights):
                self._seen |= keys
                return weights
        raise RuntimeError("no fresh regular weight left in the draw ranges")

    def _weight(self, coeffs):
        lam = self._datum.zero_weight()
        for c, om in zip(coeffs, self._datum.fundamental_weights, strict=True):
            lam = lam + c * om
        return lam


def _rel_gap(lhs, rhs):
    scale = max(float(np.max(np.abs(rhs))), 1e-300)
    return float(np.max(np.abs(lhs - rhs))) / scale


class _A2:
    """A2 at q = 1/2 with its two fundamental irreps."""

    def __init__(self):
        self.datum = cartan.preset("A2")
        o1, o2 = self.datum.fundamental_weights
        self.V1 = qalgebra.build_irrep(self.datum, Q, o1)
        self.V2 = qalgebra.build_irrep(self.datum, Q, o2)

    def draws(self, seed):
        return WeightDraws(seed, self.datum, [[(-5.0, -2.0), (-5.0, -2.0)]],
                           lambda ws: True)


class Fusion3A2(_A2):
    """Cold 3-leg fusion j_(V1,V2,V1)(lam)."""

    def __init__(self):
        super().__init__()
        self.V21 = qalgebra.tensor_module(self.V2, self.V1)

    def op(self, k, point):
        (lam,) = point
        return dyn.fusion((self.V1, self.V2, self.V1), lam)

    def check(self, k, point, j):
        (lam,) = point
        V1, V2 = self.V1, self.V2
        J = j.matrix
        # unitriangular: 1 on the diagonal, and an off-diagonal entry is
        # nonzero only where the first slot whose weight differs is lowered
        dims, digits = qalgebra.slot_index_arrays(j.source)
        slot_wts = [[j.source.slots[s].weights[d] for d in digits[s]]
                    for s in range(len(dims))]
        structure = 0.0
        for r in range(J.shape[0]):
            for c in range(J.shape[1]):
                if r == c:
                    structure = max(structure, abs(J[r, c] - 1.0))
                    continue
                drop = next((w[c] - w[r] for w in slot_wts if w[c] != w[r]), None)
                if drop is not None and all(x >= 0 for x in drop.coords):
                    continue
                structure = max(structure, abs(J[r, c]))
        rhs = (dyn.fusion((V1, self.V21), lam).matrix
               @ np.kron(np.eye(V1.dim), dyn.fusion((V2, V1), lam).matrix))
        cocycle = float(np.max(np.abs(J - rhs)))
        return [("structure", structure, 1e-12),
                ("grading", j.gmap.graded_residual(), 1e-12),
                ("cocycle", cocycle, 1e-10)]


class YbeA2(_A2):
    """Shifted triple identity on the rotations of (V1, V2, V1)."""

    def __init__(self):
        super().__init__()
        V1, V2 = self.V1, self.V2
        for A in (V1, V2):
            for B in (V1, V2):
                dyn._plain_r(A, B)
        self.triples = [(T, qalgebra.tensor_many(T))
                        for T in ((V1, V2, V1), (V2, V1, V1), (V1, V1, V2))]

    def op(self, k, point):
        (lam,) = point
        out = []
        for (A, B, C), T3 in self.triples:
            RAB = lambda mu, A=A, B=B: dyn.exchange((A,), (B,), mu).matrix
            RAC = lambda mu, A=A, C=C: dyn.exchange((A,), (C,), mu).matrix
            RBC = lambda mu, B=B, C=C: dyn.exchange((B,), (C,), mu).matrix
            emb = dyn.embedded_shifted
            lhs = (emb(T3, RBC, (1, 2), (0,), lam) @ emb(T3, RAC, (0, 2), (), lam)
                   @ emb(T3, RAB, (0, 1), (2,), lam))
            rhs = (emb(T3, RAB, (0, 1), (), lam) @ emb(T3, RAC, (0, 2), (1,), lam)
                   @ emb(T3, RBC, (1, 2), (), lam))
            out.append((lhs, rhs))
        return out

    def check(self, k, point, pairs):
        return [("triple", float(np.max(np.abs(lhs - rhs)))
                 / max(1.0, float(np.max(np.abs(rhs)))), 1e-9)
                for lhs, rhs in pairs]


class DualA2(_A2):
    """One-leg dual vertex operator, one basis vector of V1* or V2* per op."""

    DEPTH = 6

    def __init__(self):
        super().__init__()
        self.shapes = [(D, n) for D in (dyn._dual_of(self.V1), dyn._dual_of(self.V2))
                       for n in range(D.dim)]

    def op(self, k, point):
        (lam,) = point
        D, n = self.shapes[k % len(self.shapes)]
        g = np.zeros(D.dim, dtype=complex)
        g[n] = 1.0
        return vertexops.dual_vertex_operator(lam, (D,), [g], self.DEPTH)

    def check(self, k, point, phi):
        return [("intertwiner", vertexops.intertwiner_residual(phi), 1e-9)]


class TracesA1:
    """q-KZB and coord-MR equations for the renormalized trace F(lam, mu)."""

    DEPTH = 30
    # lam-shifts the difference operators sample: weights of V and V(2 omega)
    SHIFTS = (-2, -1, 0, 1, 2)

    def __init__(self):
        self.datum = cartan.preset("A1")
        (om,) = self.datum.fundamental_weights
        self.omega = om
        V = qalgebra.build_irrep(self.datum, Q, om)
        self.W2 = qalgebra.build_irrep(self.datum, Q, 2 * om)
        self.S = (V, V)
        W2s = dyn._dual_of(self.W2)
        for A, B in ((V, V), (V, W2s), (W2s, V)):
            dyn._plain_r(A, B)
        self.qkzb = {i: diffops.qkzb_operator(self.S, i) for i in (1, 2)}
        self.mr = {i: diffops.coord_mr_operator(self.S, self.W2, i) for i in (0, 1, 2)}

    def _in_cone(self, lam):
        for s in self.SHIFTS:
            try:
                traces.check_cone(self.datum, 2 * (lam + s * self.omega + self.datum.rho))
            except ValueError:
                return False
        return True

    def draws(self, seed):
        return WeightDraws(seed, self.datum, [[(-8.0, -6.5)], [(-7.0, -5.0)]],
                           lambda ws: self._in_cone(ws[0]))

    def op(self, k, point):
        lam, mu = point
        S = self.S
        memo = {}

        def f(at):
            if at not in memo:
                memo[at] = traces.universal_f(S, at, mu, self.DEPTH).value
            return memo[at]

        out = []
        for i, op in self.qkzb.items():
            Dm = diffops.multiplier("qkzb", S, i, mu)
            out.append(("qkzb", diffops.apply(op, lambda at: f(at) @ Dm, lam), f(lam)))
        for i, op in self.mr.items():
            Dm = diffops.multiplier("coord-mr", S, i, mu, W=self.W2)
            out.append(("coord-mr", diffops.apply(op, f, lam), f(lam) @ Dm))
        return out

    def check(self, k, point, eqs):
        return [(name, _rel_gap(lhs, rhs), 1e-9) for name, lhs, rhs in eqs]


WORKLOADS = {
    "fusion3-a2": Fusion3A2,
    "ybe-a2": YbeA2,
    "traces-a1": TracesA1,
    "dual-a2": DualA2,
}
