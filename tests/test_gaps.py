"""Tests for closed-form constants, thresholds, roots, and certificates."""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from minimal_gap_lab.errors import DomainError, InvariantViolation
from minimal_gap_lab.gaps import (
    TAU_STAR,
    calabi_S,
    calabi_constants,
    certify,
    pinching_roots,
    pinching_table,
    threshold_T,
    threshold_table,
)
from minimal_gap_lab.geoquad import SurfaceFields
from minimal_gap_lab.invariants import PointInvariants


# ------------------------------------------------------ Calabi constants

def test_calabi_constants_exact_values():
    c1 = calabi_constants(1)
    assert c1.K == 1 and c1.S == 0 and c1.u == 0
    c2 = calabi_constants(2)
    assert c2.K == Fraction(1, 3)
    assert c2.S == Fraction(4, 3)
    assert c2.u == 2
    assert c2.ambient_dim == 4
    c3 = calabi_constants(3)
    assert c3.K == Fraction(1, 6)
    assert c3.S == Fraction(5, 3)
    assert c3.u == Fraction(5, 2)
    assert abs(c3.area - 24.0 * math.pi) < 1e-12


def test_calabi_monotonicity():
    ks = [calabi_constants(s).K for s in range(1, 12)]
    ss = [calabi_constants(s).S for s in range(1, 12)]
    assert all(a > b for a, b in zip(ks, ks[1:]))
    assert all(a < b for a, b in zip(ss, ss[1:]))
    assert ss[0] == 0


def test_calabi_domain_errors():
    with pytest.raises(DomainError):
        calabi_constants(0)
    with pytest.raises(DomainError):
        calabi_constants(2, r=0.0)


def test_calabi_S_closed_form():
    for s in range(1, 30):
        assert calabi_S(s) == 2 - 2 * Fraction(2, s * (s + 1))


# ------------------------------------------------------ thresholds

def test_threshold_endpoints():
    _, _, ta1, tb1, _ = threshold_T(1.0)
    assert abs(ta1 - 20.0 / 9.0) < 1e-12
    assert abs(tb1 - 2.0) < 1e-12
    _, _, tas, tbs, sigma = threshold_T(TAU_STAR)
    assert abs(tas - tbs) < 1e-10
    assert abs(sigma) < 1e-10
    endpoint = (30 + 2 * math.sqrt(5)) / 11 \
        - (15 + math.sqrt(5)) * math.sqrt(9 + 3 * math.sqrt(5)) / 66
    assert abs(tas - endpoint) < 1e-12


def test_threshold_sigma_at_0991():
    assert threshold_T(0.991)[4] > 0.02


def test_threshold_domain_error_names_discriminant():
    with pytest.raises(DomainError) as err:
        threshold_T(0.9)
    assert "discriminant" in str(err.value)
    with pytest.raises(DomainError):
        threshold_T(1.2)


@pytest.mark.parametrize("tau", [0.3, 0.1, 0.378, 0.0])
def test_threshold_domain_excludes_low_tau_branch(tau):
    # (8 tau^2 - 9/2)^2 - 45/4 >= 0 here too, but tau is below tau_star
    assert (8 * tau * tau - 4.5) ** 2 - 11.25 >= 0
    with pytest.raises(DomainError, match="outside"):
        threshold_T(tau)
    with pytest.raises(DomainError, match="outside"):
        threshold_table(10, lo=min(tau, 0.1), hi=0.3)


def test_threshold_table_monotone_10k():
    table = threshold_table(10_000)
    assert np.all(np.diff(table.That_A) >= -1e-12)
    assert np.all(np.diff(table.That_B) <= 1e-12)
    table.check_monotone()
    assert abs(table.tau[0] - TAU_STAR) < 1e-15
    assert abs(table.sigma[0]) < 1e-10
    assert abs(table.That_A[-1] - 20.0 / 9.0) < 1e-12
    assert abs(table.That_B[-1] - 2.0) < 1e-12


def test_threshold_factorization_link():
    # at S in {T_A(t), T_B(t)} the quartic integrand vanishes
    for t in np.linspace(TAU_STAR, 1.0, 257):
        T_A, T_B, _, _, _ = threshold_T(float(t))
        for S in (T_A, T_B):
            value = S * (3 * S - 4) * (3 * S - 5) \
                + 0.5 * (16 - 9 * S) * t * t * S * S
            assert abs(value) < 1e-9


# ------------------------------------------------------ pinching roots

def test_pinching_root_endpoints():
    r0 = pinching_roots(0.0)
    assert abs(r0.S0 - 20.0 / 9.0) < 1e-12
    assert r0.S0_prime == 0.0
    r4 = pinching_roots(4.0)
    assert abs(r4.S0 - 2.0) < 1e-12
    assert r4.S0_prime < 0.0
    assert abs(pinching_roots(2.0 / 3.0).gamma_bound - 2.0) < 1e-12


def test_pinching_root_satisfies_quadratic():
    for r in pinching_table(401):
        value = 9 * r.S0 ** 2 + (4.5 * r.gamma - 20) * r.S0 - 8 * r.gamma
        assert abs(value) < 1e-10
        assert r.S0 >= 2.0 - 1e-12
        assert r.S0_prime <= 1e-12


def test_pinching_root_monotone_decreasing():
    roots = [r.S0 for r in pinching_table(801)]
    assert all(a >= b - 1e-12 for a, b in zip(roots, roots[1:]))


def test_pinching_domain_error():
    with pytest.raises(DomainError):
        pinching_roots(-0.1)
    with pytest.raises(DomainError):
        pinching_roots(4.1)


# ------------------------------------------------------ certificates

EXPECTED_VERDICTS = {
    "equator": {"lemma_ab": "consistent", "main1_constant": "consistent",
                "main1_gap": "inapplicable", "main4": "inapplicable",
                "main6_integral": "consistent", "main6_flat": "inapplicable"},
    "veronese": {"lemma_ab": "consistent", "simon_window": "consistent",
                 "main1_constant": "consistent", "main1_gap": "inapplicable",
                 "main4": "inapplicable", "main4.5": "inapplicable",
                 "main5_pinch": "inapplicable"},
    "calabi3": {"main1_constant": "consistent", "main1_gap": "consistent",
                "simon_window": "consistent"},
    "calabi4": {"main1_constant": "consistent", "main1_gap": "consistent"},
    "clifford": {"main4": "consistent", "main4.5": "consistent",
                 "main5_pinch": "consistent", "main6_jump": "inapplicable",
                 "main6_flat": "inapplicable", "lemma_ab": "inapplicable"},
    "mixed_torus": {"main4": "consistent", "main4.5": "consistent",
                    "main6_integral": "consistent",
                    "bryant_exclusion": "consistent"},
}


@pytest.mark.parametrize("name", sorted(EXPECTED_VERDICTS))
def test_certificates(name, bundle):
    cert = bundle(name).cert
    assert not cert.violated
    for theorem, verdict in EXPECTED_VERDICTS[name].items():
        assert cert.entry(theorem).verdict == verdict, theorem


def test_calabi3_attains_main1_bound(bundle):
    entry = bundle("calabi3").cert.entry("main1_gap")
    assert entry.verdict == "consistent"
    assert abs(entry.margin) < 1e-8      # equality case of the 5/2 bound


def test_calabi3_main1_constant_matches_degree_3(bundle):
    entry = bundle("calabi3").cert.entry("main1_constant")
    assert "s=3" in entry.notes


def test_clifford_main5_conclusion(bundle):
    entry = bundle("clifford").cert.entry("main5_pinch")
    assert entry.verdict == "consistent"
    assert entry.margin < 1e-8           # S = 2 exactly


def test_main6_integral_attained_on_catalog(bundle):
    for name in ("equator", "veronese", "calabi3", "calabi4", "clifford"):
        entry = bundle(name).cert.entry("main6_integral")
        assert entry.verdict == "consistent"
        assert -1e-8 <= entry.margin < 1e-6


def test_main5_coupled_synthetic_coverage():
    # constant synthetic fields satisfying the coupled hypothesis:
    # S = 2.4, lambda2 = 0.05 -> u = 2.45, rho0 = S^2 - (S - 2 l2)^2
    n = 16
    S = np.full(n, 2.4)
    lam2 = np.full(n, 0.05)
    rho0 = S ** 2 - (S - 2 * lam2) ** 2
    inv = PointInvariants(
        S=S, normA2=(2 * S ** 2 - rho0) / 2, rho0=rho0,
        rho_perp=np.sqrt(rho0) / 2, lambda1=S - lam2, lambda2=lam2,
        u=S + lam2, t=(S - 2 * lam2) / S, K=(2 - S) / 2,
        ddvv_slack=S ** 2 - rho0, hopf_re=np.zeros(n), hopf_im=np.zeros(n),
        minimality_residual=np.zeros(n))
    zeros = np.zeros(n)
    fields = SurfaceFields(
        inv=inv, b1_simons=zeros, b1_direct=zeros, b1_cross=zeros,
        delta_S=zeros, codazzi_residual=zeros, flagged=zeros.astype(bool))
    spec = SimpleNamespace(chart="torus", euler_char=0, name="synthetic")
    report = SimpleNamespace(bound_445=1.5, area=10.0)
    cert = certify(spec, fields, report, raise_on_violation=False)
    entry = cert.entry("main5_coupled")
    assert entry.verdict == "consistent"
    assert "gamma" in entry.notes


def test_bryant_exclusion_violation_detected():
    # constant S = 2.2 > 2 cannot happen; the certificate must flag it
    n = 8
    S = np.full(n, 2.2)
    lam2 = np.zeros(n)
    inv = PointInvariants(
        S=S, normA2=S ** 2, rho0=np.zeros(n), rho_perp=np.zeros(n),
        lambda1=S, lambda2=lam2, u=S, t=np.ones(n), K=(2 - S) / 2,
        ddvv_slack=S ** 2, hopf_re=np.zeros(n), hopf_im=np.zeros(n),
        minimality_residual=np.zeros(n))
    zeros = np.zeros(n)
    fields = SurfaceFields(
        inv=inv, b1_simons=zeros, b1_direct=zeros, b1_cross=zeros,
        delta_S=zeros, codazzi_residual=zeros, flagged=zeros.astype(bool))
    spec = SimpleNamespace(chart="torus", euler_char=0, name="impossible")
    report = SimpleNamespace(bound_445=1.0, area=10.0)
    cert = certify(spec, fields, report, raise_on_violation=False)
    assert cert.violated
    assert cert.entry("bryant_exclusion").verdict == "violated"
    with pytest.raises(InvariantViolation):
        certify(spec, fields, report)
