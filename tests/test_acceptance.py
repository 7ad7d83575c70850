"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  The heavy per-surface bundles (64x128 sphere grids, 64x64
torus grids) are shared with the rest of the test session.
"""

import math
import subprocess
import sys
import time

import numpy as np

from minimal_gap_lab.gaps import TAU_STAR, pinching_roots, threshold_T, threshold_table
from minimal_gap_lab.identities import run_identity_suite
from minimal_gap_lab.invariants import point_invariants
from minimal_gap_lab.surfaces import ShapePair

CATALOG = ("equator", "veronese", "calabi3", "calabi4", "clifford")


def _line(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status}  {detail}".rstrip())
    return ok


def test_criterion_01_symbolic_suite():
    start = time.monotonic()
    reports = run_identity_suite(qmax=6)
    elapsed = time.monotonic() - start
    ok = all(r.proved for r in reports) and elapsed < 60.0
    assert _line(1, "symbolic-suite",
                 ok, f"{len(reports)} identities, {elapsed:.1f}s")


def test_criterion_02_eigenvalue_formula():
    rng = np.random.default_rng(2024)
    worst_pair, worst_tail = 0.0, 0.0
    for q in range(1, 9):
        n = 10_000 // 8
        a = rng.standard_normal((n, q))
        b = rng.standard_normal((n, q))
        A = 2 * np.einsum("ni,nj->nij", a, a) + 2 * np.einsum("ni,nj->nij", b, b)
        S = np.einsum("nii->n", A)
        na, nb = np.einsum("ni,ni->n", a, a), np.einsum("ni,ni->n", b, b)
        ab = np.einsum("ni,ni->n", a, b)
        d = np.sqrt((na - nb) ** 2 + 4 * ab ** 2)
        lam = np.linalg.eigvalsh(A)[:, ::-1]
        scale = np.maximum(1.0, S)
        if q == 1:
            err = np.abs(S / 2 + d - lam[:, 0]) / scale
        else:
            err = np.maximum(np.abs(S / 2 + d - lam[:, 0]),
                             np.abs(S / 2 - d - lam[:, 1])) / scale
            if q > 2:
                worst_tail = max(worst_tail,
                                 float(np.max(np.abs(lam[:, 2:]) / S[:, None])))
        worst_pair = max(worst_pair, float(np.max(err)))
    ok = worst_pair < 1e-10 and worst_tail < 1e-10
    assert _line(2, "eigenvalue-closed-form", ok,
                 f"max rel err {worst_pair:.2e}, tail {worst_tail:.2e}")


def test_criterion_03_ddvv(bundle):
    rng = np.random.default_rng(7)
    worst = -np.inf
    for q in range(1, 9):
        a = rng.standard_normal((1000, q))
        b = rng.standard_normal((1000, q))
        sp = ShapePair(a=a.T, b=b.T, minimality_residual=np.zeros(1000))
        inv = point_invariants(sp, eig_check=False)
        worst = max(worst, float(np.max(-inv.ddvv_slack)))
    for name in CATALOG:
        inv = bundle(name).fields.inv
        worst = max(worst, float(np.max(-inv.ddvv_slack)))
    equality_worst = 0.0
    for q in (2, 4, 6):
        a, b = np.zeros(q), np.zeros(q)
        a[0] = b[1] = 1.5
        sp = ShapePair(a=a, b=b, minimality_residual=np.zeros(()))
        inv = point_invariants(sp, eig_check=False)
        equality_worst = max(equality_worst, abs(float(inv.ddvv_slack)))
    ok = worst < 1e-10 and equality_worst < 1e-12
    assert _line(3, "ddvv-inequality", ok,
                 f"worst slack deficit {worst:.2e}, equality {equality_worst:.2e}")


CATALOG_REGRESSION = {
    "equator": {"S": 0.0},
    "clifford": {"S": 2.0, "K": 0.0, "area": 2 * math.pi ** 2,
                 "rho_perp": 0.0, "u": 2.0},
    "veronese": {"S": 4.0 / 3.0, "K": 1.0 / 3.0, "area": 12 * math.pi, "u": 2.0},
    "calabi3": {"S": 5.0 / 3.0, "K": 1.0 / 6.0, "area": 24 * math.pi, "u": 2.5},
}


def test_criterion_04_catalog_regression(bundle):
    ok = True
    details = []
    for name, expected in CATALOG_REGRESSION.items():
        b = bundle(name)
        inv = b.fields.inv
        for field, value in expected.items():
            if field == "area":
                err = abs(b.report.area - value)
                tol = 1e-6 * value
            else:
                err = float(np.max(np.abs(getattr(inv, field) - value)))
                tol = 1e-8 if (name, field) == ("calabi3", "u") else 1e-6
            if err > tol:
                ok = False
                details.append(f"{name}.{field} err {err:.2e}")
    assert _line(4, "catalog-regression", ok, "; ".join(details) or "all fields")


def test_criterion_05_gauss_bonnet(bundle):
    ok = True
    worst = 0.0
    for name in CATALOG:
        rep = bundle(name).report
        gb = abs(rep.gauss_bonnet_residual) / (1.0 + abs(rep.int_K))
        ds = abs(rep.int_delta_S)
        worst = max(worst, gb, ds)
        ok = ok and gb < 1e-6 and ds < 1e-6
    assert _line(5, "gauss-bonnet", ok, f"worst residual {worst:.2e}")


def test_criterion_06_first_gap_integral(bundle):
    ok = True
    details = []
    for name in ("clifford", "veronese", "calabi3"):
        rep = bundle(name).report
        if rep.gap1_residual_rel >= 1e-4:
            ok = False
            details.append(f"{name} rel {rep.gap1_residual_rel:.2e}")
    rep3 = bundle("calabi3").report
    value_err = abs(rep3.gap1_lhs - 40 * math.pi) / (40 * math.pi)
    ok = ok and value_err < 1e-4
    assert _line(6, "first-gap-integral", ok,
                 "; ".join(details) or f"calabi3 = 40*pi (rel {value_err:.1e})")


def test_criterion_07_second_gap_integral(bundle):
    ok = True
    details = []
    for name in CATALOG:
        rep = bundle(name).report
        if rep.gap2_residual_rel >= 1e-6 \
                or rep.gap2_form1 / rep.area < -1e-6 \
                or rep.gap2_form2 / rep.area < -1e-6:
            ok = False
            details.append(name)
    for name in ("veronese", "calabi3"):
        rep = bundle(name).report
        if abs(rep.gap2_form1) / rep.area >= 1e-5:
            ok = False
            details.append(f"{name} nonzero")
    assert _line(7, "second-gap-integral", ok, "; ".join(details) or "all surfaces")


def test_criterion_08_two_route_b1(bundle):
    ok = True
    details = []
    for name in CATALOG:
        fields = bundle(name).fields
        frac = float(np.mean(fields.b1_cross < 1e-4))
        if frac < 0.99:
            ok = False
            details.append(f"{name} {frac:.3f}")
    f3 = bundle("calabi3").fields
    both = max(float(np.max(np.abs(f3.b1_simons - 5 / 6))),
               float(np.max(np.abs(f3.b1_direct - 5 / 6))))
    ok = ok and both < 1e-4
    assert _line(8, "two-route-b1", ok,
                 "; ".join(details) or f"calabi3 routes within {both:.1e} of 5/6")


def test_criterion_09_thresholds():
    checks = [
        abs(threshold_T(1.0)[2] - 20 / 9) < 1e-12,
        abs(threshold_T(1.0)[3] - 2.0) < 1e-12,
        abs(threshold_T(TAU_STAR)[2] - threshold_T(TAU_STAR)[3]) < 1e-10,
        threshold_T(0.991)[4] > 0.02,
        abs(pinching_roots(0.0).S0 - 20 / 9) < 1e-12,
        abs(pinching_roots(4.0).S0 - 2.0) < 1e-12,
    ]
    table = threshold_table(10_000)
    checks.append(bool(np.all(np.diff(table.That_A) >= -1e-12)))
    checks.append(bool(np.all(np.diff(table.That_B) <= 1e-12)))
    ok = all(checks)
    assert _line(9, "thresholds", ok, f"{sum(checks)}/{len(checks)} checks")


def test_criterion_10_bound_attained_on_clifford(bundle):
    rep = bundle("clifford").report
    err = max(abs(rep.bound_445 - 2.0), abs(rep.max_u - 2.0),
              abs(rep.bound_445 - rep.max_u))
    ok = err < 1e-8
    assert _line(10, "torus-bound-attained", ok, f"max deviation {err:.2e}")


def test_criterion_11_determinism():
    cmd = [sys.executable, "-m", "minimal_gap_lab", "verify",
           "--surface", "calabi3"]
    run1 = subprocess.run(cmd + ["--workers", "1"], capture_output=True)
    run8 = subprocess.run(cmd + ["--workers", "8"], capture_output=True)
    ok = (run1.returncode == run8.returncode == 0
          and run1.stdout == run8.stdout and len(run1.stdout) > 0)
    assert _line(11, "byte-identical-reports", ok,
                 f"{len(run1.stdout)} bytes each")
