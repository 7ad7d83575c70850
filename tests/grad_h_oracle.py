"""The covariant gradient of h on all eight (i, j, k) components, kept only
as a test oracle.

`surfaces.covariant_grad_h` computes h and grad h on the index pairs
i <= j alone, since both are symmetric in (i, j) bit for bit.  This module
computes every component the long way: h[i, j] from all four entries of
W[s, i, j], e_k(h_ij) and its normal part for all (i, j, k), and both
connection terms h_mj omega[k, m, i] and h_im omega[k, m, j] as their own
einsums, so a test can check that the short route gives the same bits.
"""

import numpy as np

from minimal_gap_lab.surfaces import (
    CovariantGradH,
    ShapePair,
    Taylor,
    _normal_part,
    _tangent_connection,
)


def _tangent_basis(jet, frame, degree: int) -> Taylor:
    """X, e1, e2 on a first value axis, each lifted and then stacked."""
    X = Taylor.lift(jet, [([(0, 0)], degree)])[0][0]
    return Taylor.stack([X, frame.e1.truncate(degree), frame.e2.truncate(degree)])


def h_series(jet, frame, degree: int) -> Taylor:
    """h[i, j, x] for all four (i, j), as a series of the given degree."""
    slots = Taylor.stack([Taylor.lift(jet, [([key], degree)])[0][0]
                          for key in ((2, 0), (1, 1), (0, 2))])
    normal = _normal_part(slots, _tangent_basis(jet, frame, degree), "s")
    L = frame.chart_to_frame.truncate(degree)
    LL = Taylor.einsum("ic...,jd...->cdij...", L, L)
    W = Taylor.stack([LL[0, 0], LL[0, 1] + LL[1, 0], LL[1, 1]])
    return Taylor.einsum("sij...,sx...->ijx...", W, normal)


def covariant_grad_h(jet, frame) -> CovariantGradH:
    """grad3[i, j, k, x] on all eight components, and the Codazzi residual
    as the max over all |grad3 - grad3 with k swapped for i, or for j|."""
    h = h_series(jet, frame, 1)
    h0 = h.c[0]
    L = frame.chart_to_frame.c[0]
    omega_t = _tangent_connection(frame)
    ekh = Taylor(np.einsum("kc...,cijx...->ijkx...", L, h.c[1:])[None])
    grad3 = _normal_part(ekh, _tangent_basis(jet, frame, 0), "ijk").c[0]
    grad3 += np.einsum("mjx...,kmi...->ijkx...", h0, omega_t)
    grad3 += np.einsum("imx...,kmj...->ijkx...", h0, omega_t)
    shape = ShapePair(a=h0[0, 0].copy(), b=h0[0, 1].copy(),
                      minimality_residual=np.max(np.abs(h0[0, 0] + h0[1, 1]), axis=0))

    def asymmetry(axis):
        diff = np.abs(grad3 - np.swapaxes(grad3, axis, 2))
        return np.max(diff, axis=(0, 1, 2, 3))

    return CovariantGradH(
        shape=shape,
        a1=grad3[0, 0, 0],
        a2=grad3[0, 0, 1],
        grad3=grad3,
        b1_direct=np.einsum("ijkx...,ijkx...->...", grad3, grad3),
        codazzi_residual=np.maximum(asymmetry(0), asymmetry(1)),
    )
