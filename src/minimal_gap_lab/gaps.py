"""Closed-form constants, threshold functions, and theorem certificates.

Theorems are encoded as hypothesis -> conclusion consistency checks over
measured field extremes: a certificate entry asserts "not falsified at this
resolution", never a proof.  A "violated" verdict is impossible for a valid
minimal surface, so any violation hard-fails the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from minimal_gap_lab.errors import DomainError, InvariantViolation
from minimal_gap_lab.geoquad import IntegralReport, SurfaceFields
from minimal_gap_lab.surfaces import SPHERE, ImmersionSpec

TAU_STAR = math.sqrt(9.0 + 3.0 * math.sqrt(5.0)) / 4.0
CONSTANCY_TOL = 1e-8
FLAT_NORMAL_TOL = 1e-8
MARGIN_TOL = 1e-8
WINDOW_TOL = 1e-6
# grid points per threshold or pinching table at most: each point is one
# Python row, and 10**5 of both tables took 0.6 s and 64 MB peak RSS on a
# 2-vCPU x86-64 box (10**6 took 6.5 s and 374 MB)
TABLE_POINTS_MAX = 100_000


# ---------------------------------------------------------------------------
# closed-form constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CalabiConstants:
    """Constants of the rigid constant-curvature minimal 2-sphere of degree s."""

    s: int
    r: float
    K: Fraction | float
    S: Fraction | float
    u: Fraction | float            # 3 S / 2
    ambient_dim: int               # N = 2 s (sphere S^N)
    area: float                    # 2 pi s (s + 1) for r = 1


def calabi_constants(s: int, r: float = 1.0) -> CalabiConstants:
    if s < 1:
        raise DomainError("degree s must be a positive integer")
    if r <= 0:
        raise DomainError("radius r must be positive")
    if r == 1:
        K = Fraction(2, s * (s + 1))
        S = 2 - 2 * K
        u = Fraction(3, 2) * S
    else:
        K = 2.0 / (s * (s + 1) * r * r)
        S = 2.0 - 2.0 * K
        u = 1.5 * S
    return CalabiConstants(s=s, r=float(r), K=K, S=S, u=u,
                           ambient_dim=2 * s,
                           area=2.0 * math.pi * s * (s + 1) * r * r)


def calabi_S(s: int) -> Fraction:
    """Exact S value 2(s-1)(s+2)/(s(s+1)) of the degree-s Calabi sphere."""
    return Fraction(2 * (s - 1) * (s + 2), s * (s + 1))


# ---------------------------------------------------------------------------
# threshold functions and pinching roots
# ---------------------------------------------------------------------------

def threshold_T(tau: float):
    """(T_A, T_B, That_A, That_B, sigma) at pinching parameter tau.

    Domain: tau_star <= tau <= 1 with tau_star = sqrt(9 + 3 sqrt 5)/4, the
    largest root of the discriminant (8 tau^2 - 9/2)^2 - 45/4.  The
    discriminant is nonnegative again for tau <= ~0.378, so the domain is
    tested on tau itself, not on the sign of the discriminant.
    """
    if not (TAU_STAR - 1e-12 <= tau <= 1.0 + 1e-12):      # NaN fails too
        raise DomainError(
            f"tau={tau!r} outside [{TAU_STAR!r}, 1], whose lower end is the "
            f"largest root of the discriminant (8 tau^2 - 9/2)^2 - 45/4")
    disc = (8.0 * tau * tau - 4.5) ** 2 - 11.25
    root = math.sqrt(max(disc, 0.0))
    den = 18.0 - 9.0 * tau * tau
    mid = 27.0 - 8.0 * tau * tau
    T_A = (mid + root) / den
    T_B = (mid - root) / den
    hat = (3.0 - tau) / 2.0
    That_A, That_B = hat * T_A, hat * T_B
    return T_A, T_B, That_A, That_B, That_A - That_B


@dataclass
class ThresholdTable:
    tau: np.ndarray
    T_A: np.ndarray
    T_B: np.ndarray
    That_A: np.ndarray
    That_B: np.ndarray
    sigma: np.ndarray

    def check_monotone(self, tol: float = 1e-12):
        """That_A nondecreasing, That_B nonincreasing on the grid."""
        da = np.diff(self.That_A)
        db = np.diff(self.That_B)
        if np.any(da < -tol):
            raise InvariantViolation("That_A failed to be nondecreasing")
        if np.any(db > tol):
            raise InvariantViolation("That_B failed to be nonincreasing")


def threshold_table(n: int = 1000, lo: float = TAU_STAR, hi: float = 1.0) -> ThresholdTable:
    if n < 2:
        raise DomainError("threshold table needs at least 2 grid points")
    for end in (lo, hi):          # an infinite end would reach the grid as NaN
        threshold_T(end)
    if lo > hi:
        raise DomainError(f"tau interval [{lo!r}, {hi!r}] is reversed: "
                          "lo must not exceed hi")
    taus = np.linspace(lo, hi, n)
    rows = [threshold_T(float(t)) for t in taus]
    cols = list(zip(*rows))
    return ThresholdTable(tau=taus, T_A=np.array(cols[0]), T_B=np.array(cols[1]),
                          That_A=np.array(cols[2]), That_B=np.array(cols[3]),
                          sigma=np.array(cols[4]))


@dataclass(frozen=True)
class PinchingRoots:
    """Roots of 9 S^2 + (9 gamma/2 - 20) S - 8 gamma = 0 and the gamma bound."""

    gamma: float
    S0: float
    S0_prime: float
    gamma_bound: float             # (40 + 12 gamma) / (18 + 9 gamma)


def pinching_roots(gamma: float) -> PinchingRoots:
    if not 0.0 <= gamma <= 4.0:
        raise DomainError(f"gamma={gamma!r} outside [0, 4]")
    b = 4.5 * gamma - 20.0
    disc = b * b + 288.0 * gamma       # = 81 g^2 + 432 g + 1600... / 4 scaling below
    root = math.sqrt(disc)
    qq = 0.5 * (root - b)              # b < 0 on [0, 4], so this is the stable branch
    S0 = qq / 9.0
    S0_prime = -8.0 * gamma / qq
    return PinchingRoots(gamma=float(gamma), S0=S0, S0_prime=S0_prime,
                         gamma_bound=(40.0 + 12.0 * gamma) / (18.0 + 9.0 * gamma))


def pinching_table(n: int = 401, lo: float = 0.0, hi: float = 4.0) -> list[PinchingRoots]:
    if n < 2:
        raise DomainError("pinching table needs at least 2 grid points")
    return [pinching_roots(float(g)) for g in np.linspace(lo, hi, n)]


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

@dataclass
class TheoremEntry:
    theorem: str
    verdict: str                   # "consistent" | "inapplicable" | "violated"
    hypothesis: str
    conclusion: str
    margin: float | None = None
    notes: str = ""


@dataclass
class GapCertificate:
    surface: str
    entries: list[TheoremEntry]

    @property
    def violated(self) -> bool:
        return any(e.verdict == "violated" for e in self.entries)

    def entry(self, theorem: str) -> TheoremEntry:
        for e in self.entries:
            if e.theorem == theorem:
                return e
        raise KeyError(theorem)


def _is_constant(values: np.ndarray, tol: float = CONSTANCY_TOL) -> bool:
    spread = float(np.max(values) - np.min(values))
    return spread < tol * (1.0 + float(np.max(np.abs(values))))


def _entry(theorem, ok, hypothesis, conclusion, margin=None, notes=""):
    return TheoremEntry(theorem=theorem,
                        verdict="consistent" if ok else "violated",
                        hypothesis=hypothesis, conclusion=conclusion,
                        margin=margin, notes=notes)


def _inapplicable(theorem, hypothesis, notes=""):
    return TheoremEntry(theorem=theorem, verdict="inapplicable",
                        hypothesis=hypothesis, conclusion="(not triggered)",
                        margin=None, notes=notes)


def certify(spec: ImmersionSpec, fields: SurfaceFields,
            report: IntegralReport,
            raise_on_violation: bool = True) -> GapCertificate:
    """Evaluate every theorem's hypotheses on measured extremes and check the
    asserted conclusion; by default raise on any violation (it would mean a
    pipeline bug, since every encoded statement is a theorem).
    """
    inv = fields.inv
    is_two_sphere = spec.chart == SPHERE and spec.euler_char == 2
    min_u, max_u = float(np.min(inv.u)), float(np.max(inv.u))
    min_S, max_S = float(np.min(inv.S)), float(np.max(inv.S))
    mean_S = float(np.mean(inv.S))
    min_t, max_t = float(np.min(inv.t)), float(np.max(inv.t))
    max_rho = float(np.max(inv.rho_perp))
    min_rho = float(np.min(inv.rho_perp))
    entries = []

    # pointwise structure of minimal 2-spheres: the holomorphic quartic form
    # vanishes, so |a| = |b|, <a,b> = 0 and lambda_1 = lambda_2 = S/2
    if is_two_sphere:
        resid = max(float(np.max(np.abs(inv.hopf_re))),
                    float(np.max(np.abs(inv.hopf_im))),
                    float(np.max(inv.lambda1 - inv.lambda2)))
        scale = 1.0 + max_S
        entries.append(_entry(
            "lemma_ab", resid < CONSTANCY_TOL * scale,
            hypothesis="surface is a minimal 2-sphere",
            conclusion="|a|^2 = |b|^2 = S/4, <a,b> = 0, lambda_1 = lambda_2",
            margin=resid))
        inside = (min_S > 4.0 / 3.0 + WINDOW_TOL
                  and max_S < 5.0 / 3.0 - WINDOW_TOL)
        entries.append(_entry(
            "simon_window", not inside,
            hypothesis="4/3 <= S <= 5/3 on a minimal 2-sphere",
            conclusion="S does not sit strictly inside (4/3, 5/3) uniformly",
            margin=min(min_S - 4.0 / 3.0, 5.0 / 3.0 - max_S)))
    else:
        entries.append(_inapplicable("lemma_ab", "surface is a minimal 2-sphere"))
        entries.append(_inapplicable("simon_window",
                                     "surface is a minimal 2-sphere"))

    # first gap rigidity for 2-spheres
    if is_two_sphere and _is_constant(inv.u):
        s_match = min(range(1, 65), key=lambda s: abs(mean_S - float(calabi_S(s))))
        margin = abs(mean_S - float(calabi_S(s_match)))
        entries.append(_entry(
            "main1_constant", _is_constant(inv.K) and margin < 1e-6,
            hypothesis="2-sphere with S + lambda_2 constant",
            conclusion="K constant; S equals a degree-s harmonic sphere value",
            margin=margin,
            notes=f"matched degree s={s_match}, S(s)={float(calabi_S(s_match)):.12g}"))
    else:
        entries.append(_inapplicable(
            "main1_constant", "2-sphere with S + lambda_2 constant"))

    if is_two_sphere and min_u > 2.0 + MARGIN_TOL:
        entries.append(_entry(
            "main1_gap", max_u >= 2.5 - MARGIN_TOL,
            hypothesis="2-sphere with S + lambda_2 > 2",
            conclusion="max (S + lambda_2) >= 5/2",
            margin=max_u - 2.5))
    else:
        entries.append(_inapplicable(
            "main1_gap", "2-sphere with S + lambda_2 > 2"))

    # theorems for surfaces whose universal cover is not a 2-sphere
    not_sphere_cover = spec.euler_char <= 0
    if not_sphere_cover:
        case1 = max_u >= 8.0 / 3.0 - MARGIN_TOL
        bound2 = 3.0 - math.sqrt(max(0.0, 1.0 - min_rho ** 2))
        case2 = min_rho <= 1.0 + MARGIN_TOL and max_u >= bound2 - MARGIN_TOL
        entries.append(_entry(
            "main4", case1 or case2,
            hypothesis="universal cover not a 2-sphere",
            conclusion="max u >= 8/3, or max u >= 3 - sqrt(1 - min rho_perp^2) "
                       "with min rho_perp <= 1",
            margin=max(max_u - 8.0 / 3.0, max_u - bound2)))
        entries.append(_entry(
            "main4.5", max_u >= report.bound_445 - MARGIN_TOL,
            hypothesis="universal cover not a 2-sphere",
            conclusion="max u >= 1 + sqrt(1 + mean (rho_perp)^2)",
            margin=max_u - report.bound_445))
    else:
        entries.append(_inapplicable("main4", "universal cover not a 2-sphere"))
        entries.append(_inapplicable("main4.5", "universal cover not a 2-sphere"))

    # torus pinching: 2 <= S <= S0(gamma) and rho_perp <= sqrt(gamma |K|)/2
    feasible = []
    for gamma in np.linspace(0.0, 4.0, 41):
        roots = pinching_roots(float(gamma))
        rho_cap = 0.5 * np.sqrt(gamma * np.abs(inv.K))
        if (min_S >= 2.0 - MARGIN_TOL and max_S <= roots.S0 + MARGIN_TOL
                and np.all(inv.rho_perp <= rho_cap + MARGIN_TOL)):
            feasible.append(float(gamma))
    if feasible:
        ok = _is_constant(inv.S) and abs(mean_S - 2.0) < 1e-6
        entries.append(_entry(
            "main5_pinch", ok,
            hypothesis="2 <= S <= S0(gamma), rho_perp <= sqrt(gamma|K|)/2",
            conclusion="S = 2 identically (the square torus in S^3)",
            margin=abs(mean_S - 2.0),
            notes=f"feasible gamma values: {feasible[:5]}..."
                  if len(feasible) > 5 else f"feasible gamma values: {feasible}"))
    else:
        entries.append(_inapplicable(
            "main5_pinch",
            "2 <= S <= S0(gamma) and rho_perp <= sqrt(gamma |K|)/2 for some "
            "gamma in [0, 4]"))

    # normal-curvature pinching with the u-coupled cap
    entry = _inapplicable(
        "main5_coupled",
        "u > 2 and rho_perp <= sqrt((u - 2) gamma S)/2 for some gamma in [0, 2/3]",
        notes="synthetic-only coverage: catalog surfaces never satisfy the "
              "hypothesis nontrivially")
    if min_u > 2.0 + MARGIN_TOL:
        for gamma in np.linspace(0.0, 2.0 / 3.0, 21):
            cap = 0.5 * np.sqrt(np.maximum(inv.u - 2.0, 0.0) * gamma * inv.S)
            if np.all(inv.rho_perp <= cap + MARGIN_TOL):
                bound = (40.0 + 12.0 * gamma) / (18.0 + 9.0 * gamma)
                entry = _entry(
                    "main5_coupled", max_S > bound - MARGIN_TOL
                    and max_u >= max_S - MARGIN_TOL,
                    hypothesis="u > 2 and rho_perp <= sqrt((u-2) gamma S)/2",
                    conclusion="max u >= max S > (40 + 12 gamma)/(18 + 9 gamma)",
                    margin=max_S - bound,
                    notes=f"checked at gamma={gamma:.6g}")
                break
    entries.append(entry)

    # integral lower bound from the pinching parameter: the hypothesis
    # rho_perp >= sqrt(1 - tau^2) S / 2 holds pointwise iff tau >= max t
    tau1 = max_t
    bound61 = (3.0 - tau1) * (1.0 - 2.0 * math.pi * spec.euler_char / report.area)
    entries.append(_entry(
        "main6_integral", max_u >= bound61 - MARGIN_TOL,
        hypothesis=f"rho_perp >= sqrt(1 - tau^2) S/2 with tau = max t = {tau1:.12g}",
        conclusion="max u >= (3 - tau)(1 - 2 pi chi / area)",
        margin=max_u - bound61))

    # threshold jump: needs tau <= min t with tau in [tau_star, 1] and
    # min u above That_B(tau)
    if min_t >= TAU_STAR - 1e-12:
        tau2 = min(min_t, 1.0)
        _, _, that_a, that_b, _ = threshold_T(tau2)
        if min_u > that_b + MARGIN_TOL:
            entries.append(_entry(
                "main6_jump", max_u >= that_a - MARGIN_TOL,
                hypothesis=f"rho_perp <= sqrt(1 - tau^2) S/2 and u > That_B at "
                           f"tau = min t = {tau2:.12g}",
                conclusion="max u >= That_A(tau)",
                margin=max_u - that_a))
        else:
            entries.append(_inapplicable(
                "main6_jump",
                f"u > That_B(tau) = {that_b:.12g} at tau = {tau2:.12g}",
                notes="min u does not exceed That_B"))
    else:
        entries.append(_inapplicable(
            "main6_jump", "min t >= tau_star (normal curvature small enough)"))

    # flat normal bundle special case
    if max_rho < FLAT_NORMAL_TOL:
        if min_u > 2.0 + MARGIN_TOL:
            entries.append(_entry(
                "main6_flat", max_u >= 20.0 / 9.0 - MARGIN_TOL,
                hypothesis="flat normal bundle and u > 2",
                conclusion="max u > 20/9",
                margin=max_u - 20.0 / 9.0))
        else:
            entries.append(_inapplicable(
                "main6_flat", "flat normal bundle and u > 2",
                notes="u does not exceed 2"))
    else:
        entries.append(_inapplicable(
            "main6_flat", f"flat normal bundle (max rho_perp = {max_rho:.3e})"))

    # nonexistence exclusion: constant S > 2 never occurs for minimal
    # surfaces in spheres
    if _is_constant(inv.S) and mean_S > 2.0 + WINDOW_TOL:
        entries.append(TheoremEntry(
            theorem="bryant_exclusion", verdict="violated",
            hypothesis="S constant",
            conclusion=f"no minimal surface in a sphere has S = {mean_S:.6g} > 2",
            margin=mean_S - 2.0))
    else:
        entries.append(_entry(
            "bryant_exclusion", True,
            hypothesis="S constant",
            conclusion="constant S <= 2 (or S not constant)",
            margin=2.0 - max_S))

    cert = GapCertificate(surface=spec.name, entries=entries)
    if cert.violated and raise_on_violation:
        bad = [e.theorem for e in entries if e.verdict == "violated"]
        raise InvariantViolation(
            f"{spec.name}: certificate violated for {', '.join(bad)}; "
            "this cannot happen for a valid minimal surface")
    return cert
