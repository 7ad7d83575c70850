"""Pointwise scalar invariants of the second fundamental form.

Every quantity the theorems consume is computed here from a ShapePair by its
closed form in a and b; the identities behind those forms are proved exactly
by `identities` (`rho0_closed_form`, `charpoly_rank_two`).  B1 has two routes
here, the Simons identity and the direct third-order norm, and their
disagreement is a residual, never hidden.

The two B1 routes share only the jet.  The Simons route takes the chart
Laplacian of the frame-free S from its trace series (its value, its
derivatives along two orthonormal directions and the trace of its chart
Hessian); the direct route is |grad h|^2 from the degree-1 coefficients of
the ambient h and the tangent frame (`surfaces.covariant_grad_h`).  Both
are exact up to rounding, so their disagreement measures rounding, not a
step size.

The eigenvalue gap is evaluated as sqrt((|a|^2-|b|^2)^2 + 4<a,b>^2), which is
free of the catastrophic cancellation that the equivalent sqrt(S^2 - rho0)
suffers near the DDVV equality case; S^2 - rho0 itself is kept only as the
reported DDVV slack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from minimal_gap_lab.errors import DomainError, InvariantViolation
from minimal_gap_lab.surfaces import (
    Jet,
    ShapePair,
    Taylor,
    first_fundamental_form,
    second_norm_field,
    trace_directions,
)

S_EPS = 1e-12                 # below this, the surface point is totally geodesic
DDVV_SLACK_TOL = -1e-10       # slack may be this negative from rounding only
B1_CROSS_TOL = 1e-4


@dataclass
class PointInvariants:
    """All pointwise scalars, and the input's minimality residual."""

    S: np.ndarray
    normA2: np.ndarray
    rho0: np.ndarray              # 16 (|a|^2 |b|^2 - <a, b>^2)
    rho_perp: np.ndarray          # sqrt(rho0)/2
    lambda1: np.ndarray
    lambda2: np.ndarray
    u: np.ndarray                 # S + lambda2
    t: np.ndarray                 # pinching parameter in [0, 1]
    K: np.ndarray                 # Gauss curvature (2 - S)/2
    ddvv_slack: np.ndarray        # S^2 - rho0 >= 0 (DDVV)
    hopf_re: np.ndarray           # |a|^2 - |b|^2
    hopf_im: np.ndarray           # -2 <a, b>
    minimality_residual: np.ndarray


def point_invariants(sp: ShapePair) -> PointInvariants:
    """Every field has the shape of the points; `sp` is points last."""
    a, b = sp.a, sp.b
    lead = a.shape[1:]
    na = np.einsum("a...,a...->...", a, a)
    nb = np.einsum("a...,a...->...", b, b)
    ab = np.einsum("a...,a...->...", a, b)

    S = 2.0 * (na + nb)
    normA2 = 4.0 * na ** 2 + 4.0 * nb ** 2 + 8.0 * ab ** 2
    rho0 = 16.0 * (na * nb - ab ** 2)

    slack = S ** 2 - rho0
    bad = slack < DDVV_SLACK_TOL * np.maximum(1.0, S ** 2)
    if np.any(bad):
        worst = float(np.min(slack[bad] if lead else slack))
        raise InvariantViolation(
            f"DDVV slack S^2 - rho0 = {worst:.3e} below tolerance; "
            "the inequality is a theorem, so this is a computation bug")

    # half the eigenvalue gap, cancellation-free
    d = np.sqrt((na - nb) ** 2 + 4.0 * ab ** 2)
    lambda1 = S / 2.0 + d
    lambda2 = S / 2.0 - d
    u = S + lambda2
    geodesic = S < S_EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(geodesic, 1.0, 2.0 * d / np.where(geodesic, 1.0, S))
    t = np.clip(t, 0.0, 1.0)

    return PointInvariants(
        S=S, normA2=normA2, rho0=rho0, rho_perp=np.sqrt(np.maximum(rho0, 0.0)) / 2.0,
        lambda1=lambda1, lambda2=lambda2, u=u, t=t, K=(2.0 - S) / 2.0,
        ddvv_slack=slack, hopf_re=na - nb, hopf_im=-2.0 * ab,
        minimality_residual=sp.minimality_residual,
    )


# ---------------------------------------------------------------------------
# Laplace-Beltrami of scalar fields and the Simons route to B1
# ---------------------------------------------------------------------------

def laplace_beltrami(field: Taylor, gamma: np.ndarray, directions) -> np.ndarray:
    """Chart Laplace-Beltrami g^cd f_cd - gamma^e f_e of a scalar field.

    `field` is the field's trace series (f, d_1 f, d_2 f, T f) along
    `directions` = (L, g^-1), the `trace_directions` of the metric, and
    `gamma` the contracted Christoffel symbols at the same points (both as
    `surfaces.second_norm_field` returns them): T f is g^cd f_cd, and
    f_u, f_v follow from d_i f = L[i, c] f_c with L lower triangular.  The
    metric terms come exactly from the jet, so no step size or truncation
    error enters.
    """
    f = field.c
    L, _ = directions
    f_u = f[1] / L[0, 0]
    f_v = (f[2] - L[1, 0] * f_u) / L[1, 1]
    return f[3] - gamma[0] * f_u - gamma[1] * f_v


@dataclass
class SimonsB1:
    """B1 recovered from the Simons identity."""

    b1: np.ndarray
    laplacian_S: np.ndarray


def b1_from_laplacian(laplacian_S: np.ndarray, invariants: PointInvariants) -> SimonsB1:
    """B1 = (1/2) Lap S - 2 S + |A|^2 + rho0, the Simons identity."""
    b1 = 0.5 * laplacian_S - 2.0 * invariants.S + invariants.normA2 + invariants.rho0
    return SimonsB1(b1=b1, laplacian_S=laplacian_S)


# Not called by the pipeline, which runs `laplace_beltrami` and
# `b1_from_laplacian` itself; kept because perfbench/tracer.py's TRACED table
# wraps it by name and its install() raises if it is missing.
def b1_simons(jet: Jet, invariants: PointInvariants) -> SimonsB1:
    """B1 via the chart Laplacian of S (`b1_from_laplacian`).

    `jet` has order >= 4 and `invariants` are its points'; Lap S comes from
    the trace series of the frame-free S, never from grad h.
    """
    if jet.order < 4:
        raise DomainError(f"b1_simons needs a jet of order >= 4, got {jet.order}")
    directions = trace_directions(first_fundamental_form(jet))
    laplacian = laplace_beltrami(*second_norm_field(jet, directions), directions)
    return b1_from_laplacian(laplacian, invariants)
