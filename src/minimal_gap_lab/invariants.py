"""Pointwise scalar invariants of the second fundamental form.

Every quantity the theorems consume is computed here from a ShapePair, with
an independent second route wherever one exists: the squared commutator sum
vs its closed form, the closed-form eigenvalues vs a dense symmetric
eigensolver, and the Simons-identity route to B1 vs the direct third-order
norm.  Route disagreements are recorded as residuals, never hidden.

The two B1 routes share only the jet.  The Simons route takes the chart
Laplacian of the frame-free S from the degree-2 coefficients of its Taylor
series; the direct route is |grad h|^2 from the frame's degree-1
coefficients (`surfaces.covariant_grad_h`).  Both are exact up to rounding,
so their disagreement measures rounding, not a step size.

The eigenvalue gap is evaluated as sqrt((|a|^2-|b|^2)^2 + 4<a,b>^2), which is
free of the catastrophic cancellation that the equivalent sqrt(S^2 - rho0)
suffers near the DDVV equality case; S^2 - rho0 itself is kept only as the
reported DDVV slack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from minimal_gap_lab.errors import InvariantViolation
from minimal_gap_lab.surfaces import (
    JET_ORDER_MAX,
    ImmersionSpec,
    Jet,
    ShapePair,
    Taylor,
    adapted_frame,
    covariant_grad_h,
    first_fundamental_form,
    jet_at,
    second_fundamental_form,
    second_norm_field,
)

S_EPS = 1e-12                 # below this, the surface point is totally geodesic
DDVV_SLACK_TOL = -1e-10       # slack may be this negative from rounding only
B1_CROSS_TOL = 1e-4


@dataclass
class FundamentalMatrix:
    """The q x q Gram matrix of shape operators, by both displayed routes."""

    matrix: np.ndarray            # (q, q, *points) outer-product form
    gram_residual: np.ndarray     # max |outer form - <S_alpha, S_beta>| entrywise

    @property
    def trace(self) -> np.ndarray:
        return np.einsum("aa...->...", self.matrix)


def fundamental_matrix(sp: ShapePair) -> FundamentalMatrix:
    outer = 2.0 * (np.einsum("a...,b...->ab...", sp.a, sp.a)
                   + np.einsum("a...,b...->ab...", sp.b, sp.b))
    h = sp.h
    gram = np.einsum("ija...,ijb...->ab...", h, h)
    residual = np.max(np.abs(outer - gram), axis=(0, 1), initial=0.0)
    return FundamentalMatrix(matrix=outer, gram_residual=residual)


@dataclass
class PointInvariants:
    """All pointwise scalars, plus the cross-route residuals."""

    S: np.ndarray
    normA2: np.ndarray
    rho0: np.ndarray              # closed form (primary route)
    rho_perp: np.ndarray          # sqrt(rho0)/2
    lambda1: np.ndarray
    lambda2: np.ndarray
    u: np.ndarray                 # S + lambda2
    t: np.ndarray                 # pinching parameter in [0, 1]
    K: np.ndarray                 # Gauss curvature (2 - S)/2
    ddvv_slack: np.ndarray        # S^2 - rho0 >= 0 (DDVV)
    hopf_re: np.ndarray           # |a|^2 - |b|^2
    hopf_im: np.ndarray           # -2 <a, b>
    rho0_commutator_residual: np.ndarray
    eig_residual: np.ndarray      # closed form vs dense eigensolver
    eig_tail: np.ndarray          # max |lambda_3..q| from the eigensolver
    gram_residual: np.ndarray
    minimality_residual: np.ndarray


def point_invariants(sp: ShapePair, eig_check: bool = True) -> PointInvariants:
    """Every field has the shape of the points; `sp` is points last."""
    a, b = sp.a, sp.b
    q = a.shape[0]
    lead = a.shape[1:]
    na = np.einsum("a...,a...->...", a, a)
    nb = np.einsum("a...,a...->...", b, b)
    ab = np.einsum("a...,a...->...", a, b)

    S = 2.0 * (na + nb)
    normA2 = 4.0 * na ** 2 + 4.0 * nb ** 2 + 8.0 * ab ** 2
    rho0 = 16.0 * (na * nb - ab ** 2)

    # independent route: sum of squared commutator norms over ordered pairs
    # of the shape operators S_alpha = h[:, :, alpha]; with P[a, b] = S_a S_b,
    # the commutator [S_a, S_b] is P[a, b] - P[b, a]
    h = sp.h
    products = np.einsum("ija...,jkb...->abik...", h, h)
    comm = products - np.swapaxes(products, 0, 1)
    rho0_comm = np.einsum("abik...,abik...->...", comm, comm)
    rho0_residual = np.abs(rho0 - rho0_comm)

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

    fm = fundamental_matrix(sp)
    if eig_check and q:
        # ascending, with the points first: eigvalsh wants the matrix axes last
        lam = np.linalg.eigvalsh(np.moveaxis(fm.matrix, (0, 1), (-2, -1)))
        top = lam[..., ::-1][..., :2] if q >= 2 else None
        if q == 1:
            eig_residual = np.abs(lambda1 - lam[..., 0]) + np.abs(lambda2)
            eig_tail = np.zeros(lead)
        else:
            eig_residual = (np.abs(lambda1 - top[..., 0])
                            + np.abs(lambda2 - top[..., 1]))
            eig_tail = np.max(np.abs(lam[..., : q - 2]), axis=-1, initial=0.0)
    else:
        eig_residual = np.zeros(lead)
        eig_tail = np.zeros(lead)

    return PointInvariants(
        S=S, normA2=normA2, rho0=rho0, rho_perp=np.sqrt(np.maximum(rho0, 0.0)) / 2.0,
        lambda1=lambda1, lambda2=lambda2, u=u, t=t, K=(2.0 - S) / 2.0,
        ddvv_slack=slack, hopf_re=na - nb, hopf_im=-2.0 * ab,
        rho0_commutator_residual=rho0_residual,
        eig_residual=eig_residual, eig_tail=eig_tail,
        gram_residual=fm.gram_residual,
        minimality_residual=sp.minimality_residual,
    )


# ---------------------------------------------------------------------------
# Laplace-Beltrami of scalar fields and the Simons route to B1
# ---------------------------------------------------------------------------

def _metric_christoffel(jet: Jet):
    """Inverse metric g^cd and contracted Christoffel symbols
    gamma^e = g^cd Gamma^e_cd (all the Laplacian needs), points last, exact
    from a jet of order >= 2."""
    Xu, Xv = jet.derivs[1, 0], jet.derivs[0, 1]
    E, F, G = first_fundamental_form(jet)
    ginv = np.stack([np.stack([G, -F]), np.stack([-F, E])]) / (E * G - F * F)
    # g^cd Gamma_{f,cd} = <g^cd d_c d_d X, d_f X>
    trace = (ginv[0, 0] * jet.derivs[2, 0] + 2.0 * ginv[0, 1] * jet.derivs[1, 1]
             + ginv[1, 1] * jet.derivs[0, 2])
    first_kind = np.stack([np.einsum("x...,x...->...", trace, Xu),
                           np.einsum("x...,x...->...", trace, Xv)])
    return ginv, np.einsum("ef...,f...->e...", ginv, first_kind)


def laplace_beltrami(jet: Jet, field: Taylor) -> np.ndarray:
    """Chart Laplace-Beltrami g^cd f_cd - gamma^e f_e of a scalar field.

    `field` is the field's degree-2 Taylor series at the jet's points: its
    degree-1 coefficients are f_u, f_v and its degree-2 ones f_uu / 2, f_uv,
    f_vv / 2.  The metric terms come exactly from the jet, so no step size
    or truncation error enters.
    """
    f = field.c
    ginv, gamma = _metric_christoffel(jet)
    # f_uu = 2 f[3], f_uv = f[4], f_vv = 2 f[5]
    return (2.0 * (ginv[0, 0] * f[3] + ginv[0, 1] * f[4] + ginv[1, 1] * f[5])
            - gamma[0] * f[1] - gamma[1] * f[2])


@dataclass
class SimonsB1:
    """B1 recovered from the Simons identity."""

    b1: np.ndarray
    laplacian_S: np.ndarray


def b1_simons(spec: ImmersionSpec, point,
              invariants: PointInvariants | None = None) -> SimonsB1:
    """B1 = (1/2) Lap S - 2 S + |A|^2 + rho0 via the chart Laplacian of S.

    `point` is (u, v) or a Jet of order JET_ORDER_MAX evaluated there; Lap S
    comes from the degree-2 series of the frame-free S, never from grad h.
    """
    jet = jet_at(spec, point, JET_ORDER_MAX)
    if invariants is None:
        sp = second_fundamental_form(jet, adapted_frame(jet))
        invariants = point_invariants(sp, eig_check=False)
    lap = laplace_beltrami(jet, second_norm_field(spec, jet, degree=2))
    b1 = 0.5 * lap - 2.0 * invariants.S + invariants.normA2 + invariants.rho0
    return SimonsB1(b1=b1, laplacian_S=lap)


def b1_cross_check(spec: ImmersionSpec, point) -> np.ndarray:
    """|B1(Simons route) - 4(|a1|^2 + |a2|^2)|; threshold B1_CROSS_TOL."""
    jet = jet_at(spec, point, JET_ORDER_MAX)
    grad = covariant_grad_h(spec, jet)
    direct = 4.0 * (np.einsum("a...,a...->...", grad.a1, grad.a1)
                    + np.einsum("a...,a...->...", grad.a2, grad.a2))
    simons = b1_simons(spec, jet)
    return np.abs(simons.b1 - direct)
