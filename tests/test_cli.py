"""Tests for the command-line front end: exit codes, reports, determinism."""

import json
import math

import pytest

from minimal_gap_lab import gaps, geoquad, identities
from minimal_gap_lab.cli import main
from minimal_gap_lab.ratpoly import RatPoly
from minimal_gap_lab.surfaces import catalog_entry, serialize_spec


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_identities_default_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "identities", "--qmax", "2")
    assert code == 0
    assert "proved" in out
    assert "failed: 0" in out


def test_identities_json_output(capsys, tmp_path):
    path = tmp_path / "ids.json"
    code, _, _ = run_cli(capsys, "identities", "--qmax", "1", "--json", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    suite = doc["minimal-gap-lab"]["identity_suite"]["q1"]
    assert suite["charpoly_rank_two"] == "proved"
    assert len(suite) == 13


def test_identities_q1_rho0_degenerates(capsys):
    # every rho0 appearance is structurally zero in codimension one
    code, out, _ = run_cli(capsys, "identities", "--qmax", "1")
    assert code == 0
    assert out.count("proved") >= 13


def test_identities_corrupted_coefficient_exits_one(capsys, monkeypatch):
    def corrupted(q):
        from minimal_gap_lab.identities import IdentityReport

        bad = RatPoly.variable("S") - 1     # a nonzero residual
        return IdentityReport("b2_laplacian_part", q, "failed", bad)

    monkeypatch.setattr(identities, "check_b2_decomposition", corrupted)
    code, out, err = run_cli(capsys, "identities", "--qmax", "2")
    assert code == 1
    assert "failed: 2" in out
    assert "nonzero residual" in err
    assert "1  1" in err        # dump of S - 1: "1  1" then "-1  0"


def test_verify_fine_polar_grid_near_the_pole_margin(capsys):
    # the nodes nearest the poles sit ~4.7e-3 from them, a few multiples of
    # the 1e-3 pole margin; nothing may step across the margin
    code, out, err = run_cli(capsys, "verify", "--surface", "veronese",
                             "--resolution", "512x8")
    assert code == 0, err
    assert "nodes: 4096" in out


def test_verify_calabi3_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--surface", "calabi3",
                           "--resolution", "16x32")
    assert code == 0
    assert "calabi3" in out
    assert "verdict: consistent" in out
    assert "exit_status: 0" in out


def test_verify_report_determinism_across_workers(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--surface", "veronese",
                             "--resolution", "16x32", "--workers", "1")
    code4, out4, _ = run_cli(capsys, "verify", "--surface", "veronese",
                             "--resolution", "16x32", "--workers", "4")
    assert code1 == code4 == 0
    assert out1 == out4


def test_verify_rejects_non_unit_spec(capsys, tmp_path):
    doc = json.loads(serialize_spec(catalog_entry("equator")))
    for comp in doc["components"]:
        for term in comp:
            term["coeff"] *= 1.05
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "verify", "--surface", str(path))
    assert code == 2
    assert "unit sphere" in err


def test_verify_rejects_malformed_spec(capsys, tmp_path):
    path = tmp_path / "malformed.json"
    path.write_text('{"name": "x", "chart": "sphere"}')
    code, _, err = run_cli(capsys, "verify", "--surface", str(path))
    assert code == 2
    assert "missing required field" in err


def test_verify_unknown_tolerance_key(capsys):
    code, _, err = run_cli(capsys, "verify", "--surface", "clifford",
                           "--tol", "nope=1")
    assert code == 2
    assert "unknown tolerance" in err


@pytest.mark.parametrize("override", [
    "minimality=nan", "minimality=inf", "codazzi=nan", "b1_cross=nan",
    "b1_cross=-inf", "flagged_budget=-0.5",
])
def test_verify_rejects_non_finite_or_negative_tolerance(capsys, tmp_path, override):
    # the non-minimal torus of test_non_minimal_immersion_rejected: a NaN or
    # infinite minimality tolerance would let it through to the integrals
    doc = {"name": "rect_torus", "chart": "torus", "ambient_dim": 4,
           "euler_char": 0, "components": [
               [{"coeff": 0.8, "type": "cos", "freq": [1, 0]}],
               [{"coeff": 0.8, "type": "sin", "freq": [1, 0]}],
               [{"coeff": 0.6, "type": "cos", "freq": [0, 1]}],
               [{"coeff": 0.6, "type": "sin", "freq": [0, 1]}]]}
    path = tmp_path / "rect.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", "--surface", str(path),
                             "--resolution", "8x8", "--tol", override)
    assert code == 2
    assert out == ""
    assert f"--tol {override.partition('=')[0]}" in err
    assert "finite" in err


@pytest.mark.parametrize("field,value", [
    ("coeff", math.nan), ("coeff", math.inf), ("coeff", -math.inf),
    ("freq", [math.nan, 1]), ("freq", [1, math.inf]),
])
def test_verify_rejects_non_finite_spec_number(capsys, tmp_path, field, value):
    # json reads NaN and Infinity; a NaN coeff once got through to "field
    # evaluation failed at node 0" and exit 1
    doc = json.loads(serialize_spec(catalog_entry("clifford")))
    doc["components"][0][0][field] = value
    path = tmp_path / "clifford_bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", "--surface", str(path),
                             "--resolution", "16x16")
    assert code == 2
    assert out == ""
    assert f"components[0][0].{field}" in err


def test_verify_rejects_euler_char_contradicted_by_gauss_bonnet(capsys, tmp_path):
    doc = json.loads(serialize_spec(catalog_entry("clifford")))
    doc["euler_char"] = 2
    path = tmp_path / "clifford_chi2.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", "--surface", str(path),
                             "--resolution", "16x16")
    assert code == 2
    assert out == ""
    assert "euler_char" in err and "Gauss-Bonnet" in err


def test_verify_tolerance_override_echoed(capsys):
    code, out, _ = run_cli(capsys, "verify", "--surface", "clifford",
                           "--resolution", "8x8", "--tol", "b1_cross=0.001")
    assert code == 0
    assert "b1_cross: 0.001" in out


def test_identities_qmax_above_limit_exits_two(capsys, monkeypatch):
    def not_started(qmax):
        raise AssertionError("the suite must not start")

    monkeypatch.setattr(identities, "run_identity_suite", not_started)
    code, out, err = run_cli(capsys, "identities", "--qmax",
                             str(identities.QMAX_LIMIT + 1))
    assert code == 2
    assert out == ""
    assert "--qmax" in err
    assert str(identities.QMAX_LIMIT) in err


def test_verify_distrust_exit_code(capsys):
    # an absurdly tight cross-route tolerance flags every node -> exit 3
    code, out, _ = run_cli(capsys, "verify", "--surface", "clifford",
                           "--resolution", "8x8", "--tol", "b1_cross=1e-300")
    assert code == 3
    assert "exit_status: 3" in out


def test_thresholds_default(capsys, tmp_path):
    prefix = str(tmp_path / "tables_")
    code, out, _ = run_cli(capsys, "thresholds", "--tau-points", "50",
                           "--gamma-points", "17", "--csv", prefix)
    assert code == 0
    thr = (tmp_path / "tables_thresholds.csv").read_text().splitlines()
    assert thr[0] == "tau,T_A,T_B,That_A,That_B,sigma"
    first = thr[1].split(",")
    assert abs(float(first[0]) - 0.9908394147293549) < 1e-12
    assert abs(float(first[5])) < 1e-10        # sigma(tau*) = 0
    pin = (tmp_path / "tables_pinching.csv").read_text().splitlines()
    assert pin[0] == "gamma,S0,S0_prime,gamma_bound"
    assert abs(float(pin[-1].split(",")[1]) - 2.0) < 1e-12   # S0(4) = 2
    assert abs(float(pin[1].split(",")[1]) - 20.0 / 9.0) < 1e-12


def test_thresholds_domain_error(capsys):
    code, _, err = run_cli(capsys, "thresholds", "--tau-lo", "0.9")
    assert code == 2
    assert "discriminant" in err


@pytest.mark.parametrize("argv", [
    ("--tau-lo", "0.3", "--tau-hi", "0.3"),
    ("--tau-lo", "0.1", "--tau-hi", "0.3"),
])
def test_thresholds_rejects_tau_below_tau_star(capsys, argv):
    # the discriminant is nonnegative again for tau <= ~0.378
    code, out, err = run_cli(capsys, "thresholds", "--tau-points", "10", *argv)
    assert code == 2
    assert out == ""
    assert "outside" in err and "discriminant" in err
    assert f"tau={float(argv[1])!r}" in err


@pytest.mark.parametrize("flag,value", [
    ("--tau-hi", "nan"), ("--tau-lo", "nan"), ("--tau-hi", "inf"),
])
def test_thresholds_rejects_non_finite_tau(capsys, flag, value):
    code, out, err = run_cli(capsys, "thresholds", "--tau-points", "10", flag, value)
    assert code == 2
    assert out == ""
    assert "outside" in err


def test_thresholds_rejects_reversed_tau_interval(capsys):
    code, out, err = run_cli(capsys, "thresholds", "--tau-points", "10",
                             "--tau-lo", "1", "--tau-hi", "0.995")
    assert code == 2
    assert out == ""
    assert "[1.0, 0.995] is reversed" in err



@pytest.mark.parametrize("workers", ["0", "-3"])
def test_verify_nonpositive_workers_exit_two(capsys, monkeypatch, workers):
    def not_started(*args, **kwargs):
        raise AssertionError("no grid may be built")

    monkeypatch.setattr(geoquad, "build_grid", not_started)
    code, out, err = run_cli(capsys, "verify", "--surface", "clifford",
                             "--resolution", "8x8", "--workers", workers)
    assert code == 2
    assert out == ""
    assert f"--workers must be >= 1, got {workers}" in err

@pytest.mark.parametrize("flag", ["--tau-points", "--gamma-points"])
def test_thresholds_points_above_limit_exit_two(capsys, monkeypatch, flag):
    def not_started(*args, **kwargs):
        raise AssertionError("no table may be built")

    monkeypatch.setattr(gaps, "threshold_table", not_started)
    monkeypatch.setattr(gaps, "pinching_table", not_started)
    code, out, err = run_cli(capsys, "thresholds", flag,
                             str(gaps.TABLE_POINTS_MAX + 1))
    assert code == 2
    assert out == ""
    assert f"{flag} {gaps.TABLE_POINTS_MAX + 1}" in err
    assert f"limit {gaps.TABLE_POINTS_MAX}" in err


def test_catalog_list(capsys):
    code, out, _ = run_cli(capsys, "catalog", "list")
    assert code == 0
    for name in ("equator", "veronese", "calabi3", "calabi4", "clifford"):
        assert name in out


def test_report_float_formatting():
    from minimal_gap_lab.report import fmt

    assert fmt(0.0) == "0"
    assert fmt(-0.0) == "0"
    assert fmt(2.5) == "2.5"
    assert fmt(1.0 / 3.0) == "0.33333333333333331"
    assert fmt(True) == "true"
    assert fmt(17) == "17"
    # numpy scalars render as at the eager-numpy report module
    import numpy as np

    assert fmt(np.float64(0.1)) == "0.10000000000000001"
    assert fmt(np.float64(-0.0)) == "0"
    assert fmt(np.float32(0.1)) == "0.10000000149011612"
    assert fmt(np.int64(-7)) == "-7"
    assert fmt(np.bool_(True)) == "True"
    assert fmt(2 ** 70) == "1180591620717411303424"
