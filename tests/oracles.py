"""Test-side operator forms the library itself only indexes with."""

import numpy as np

from dynq.qalgebra import WeightModule, flip_index, mirror_index


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
