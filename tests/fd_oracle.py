"""Richardson-extrapolated finite differences, kept only as a test oracle.

The program differentiates with exact jets and truncated Taylor series; these
stencils are an independent route to the same derivatives.  Each estimator
has an even error series in the step, so one extrapolation stage per halving
of the step cancels the leading h^2 term, and the disagreement between the
last two diagonal entries of the table estimates the remaining error.
"""

import numpy as np

from minimal_gap_lab.invariants import _metric_christoffel
from minimal_gap_lab.surfaces import adapted_frame, eval_jet, second_fundamental_form

from gram_oracle import h_stack


def richardson(estimates):
    """Extrapolate a list of same-shaped estimates at steps h, h/2, h/4, ...

    Returns (value, disagreement); disagreement is elementwise |last - prev|
    over the final two diagonal entries (zero if only one estimate given).
    """
    diag = []
    row = [np.asarray(estimates[0], dtype=float)]
    diag.append(row[0])
    for i in range(1, len(estimates)):
        new_row = [np.asarray(estimates[i], dtype=float)]
        for j in range(1, i + 1):
            factor = 4.0 ** j
            new_row.append((factor * new_row[j - 1] - row[j - 1]) / (factor - 1.0))
        row = new_row
        diag.append(row[-1])
    if len(diag) == 1:
        return diag[0], np.zeros_like(diag[0])
    return diag[-1], np.abs(diag[-1] - diag[-2])


def first_derivative(sample, step: float, refinements: int = 2):
    """d/dx at 0 from sample(offset) -> array, via central differences."""
    steps = [step / 2 ** k for k in range(refinements + 1)]
    estimates = [(sample(h) - sample(-h)) / (2 * h) for h in steps]
    return richardson(estimates)


def second_derivative(sample, step: float, refinements: int = 2):
    """d^2/dx^2 at 0; sample(0.0) is evaluated once and reused."""
    center = sample(0.0)
    steps = [step / 2 ** k for k in range(refinements + 1)]
    estimates = [(sample(h) - 2 * center + sample(-h)) / h ** 2 for h in steps]
    return richardson(estimates)


def mixed_derivative(sample2, step: float, refinements: int = 2):
    """d^2/dxdy at (0,0) from sample2(hx, hy) via the four-corner stencil."""
    steps = [step / 2 ** k for k in range(refinements + 1)]
    estimates = [
        (sample2(h, h) - sample2(h, -h) - sample2(-h, h) + sample2(-h, -h))
        / (4 * h * h)
        for h in steps
    ]
    return richardson(estimates)


def laplace_beltrami(spec, scalar_field, u, v, step: float = 1e-3,
                     refinements: int = 2):
    """Chart Laplace-Beltrami of scalar_field(U, V) at (u, v) by stencils.

    Metric terms and Christoffel symbols come exactly from jets; the field
    derivatives are Richardson-extrapolated central differences, with `step`
    the finest sample spacing.  Returns (laplacian, disagreement).
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    step = step * 2 ** refinements
    ginv, gamma = _metric_christoffel(eval_jet(spec, (u, v), order=2))

    d1 = np.empty(u.shape + (2,))
    d2 = np.empty(u.shape + (2, 2))
    d1[..., 0], gap_u = first_derivative(lambda h: scalar_field(u + h, v), step,
                                         refinements)
    d1[..., 1], gap_v = first_derivative(lambda h: scalar_field(u, v + h), step,
                                         refinements)
    d2[..., 0, 0], gap_uu = second_derivative(lambda h: scalar_field(u + h, v),
                                              step, refinements)
    d2[..., 1, 1], gap_vv = second_derivative(lambda h: scalar_field(u, v + h),
                                              step, refinements)
    duv, gap_uv = mixed_derivative(lambda hu, hv: scalar_field(u + hu, v + hv),
                                   step, refinements)
    d2[..., 0, 1] = d2[..., 1, 0] = duv
    disagree = np.max([gap_u, gap_v, gap_uu, gap_vv, gap_uv], axis=0)

    # the exact metric terms come with the points last
    lap = (np.einsum("cd...,...cd->...", ginv, d2)
           - np.einsum("e...,...e->...", gamma, d1))
    return lap, disagree


def frozen_frame_grad3(spec, point, step: float = 1e-4, refinements: int = 2):
    """h_ijk from central differences of the ambient h: the normal part of its
    chart derivatives in the frame at `point`, plus the tangent connection
    terms of the same finite differences of e1 and e2.  The tangent frame is
    smooth, so nothing needs freezing between the samples."""
    step = step * 2 ** refinements
    base_jet = eval_jet(spec, point, order=2)
    base = adapted_frame(base_jet)
    h0 = h_stack(second_fundamental_form(base_jet, base))
    u, v = base_jet.u, base_jet.v

    def fields_at(du, dv):
        jet = eval_jet(spec, (u + du, v + dv), order=2)
        fr = adapted_frame(jet)
        return h_stack(second_fundamental_form(jet, fr)), fr.e1.c[0], fr.e2.c[0]

    def chart_derivative(slot, c):
        def sample(h):
            return fields_at(h, 0.0)[slot] if c == 0 else fields_at(0.0, h)[slot]
        return first_derivative(sample, step, refinements)[0]

    # chart direction c stacked first: d_h[c, i, j, x], d_e[c, x]
    d_h, d_e1, d_e2 = (
        np.stack([chart_derivative(slot, c) for c in (0, 1)]) for slot in range(3))
    L = base.chart_to_frame.c[0]
    de = np.stack([d_e1, d_e2], axis=1)                # (c, m, C, ...)
    basis = np.stack([base_jet.derivs[0, 0], base.e1.c[0], base.e2.c[0]])
    ee = basis[1:]                                     # (i, C, ...)
    omega_t = np.einsum("lk...,kmi...->lmi...", L,
                        np.einsum("kmc...,ic...->kmi...", de, ee))
    omega_t = 0.5 * (omega_t - np.swapaxes(omega_t, 1, 2))
    ekh = np.einsum("kc...,cijx...->ijkx...", L, d_h)
    normal = ekh - np.einsum("ijkb...,bx...->ijkx...",
                             np.einsum("ijkx...,bx...->ijkb...", ekh, basis), basis)
    return (normal
            + np.einsum("mjx...,kmi...->ijkx...", h0, omega_t)
            + np.einsum("imx...,kmj...->ijkx...", h0, omega_t))
