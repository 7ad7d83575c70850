"""Tests for the command-line front end: exit codes, reports, determinism."""

import json
import math
import re
from dataclasses import fields

import numpy as np
import pytest

from minimal_gap_lab import cli, gaps, geoquad, identities, surfaces
from minimal_gap_lab.cli import main
from minimal_gap_lab.invariants import PointInvariants
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
    def corrupted(q, sides=None):
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


@pytest.mark.parametrize("resolution", ["0x8", "8x3", "-8x8"])
def test_verify_rejects_a_resolution_below_8_nodes_per_axis(capsys, resolution):
    # exit 2 before any node is evaluated, naming the flag and its value
    code, out, err = run_cli(capsys, "verify", "--surface", "equator",
                             f"--resolution={resolution}")
    assert code == 2
    assert out == ""
    assert err == f"error: --resolution {resolution}: at least 8 nodes per axis\n"


@pytest.mark.parametrize("resolution", ["-8x8", "-1x16"])
def test_verify_resolution_written_with_a_space_reaches_the_same_message(capsys,
                                                                         resolution):
    # argparse takes `-8x8` for an option; written with a space it still
    # reaches build_grid's message, as it does written with '='
    runs = [run_cli(capsys, "verify", "--surface", "equator", *flag)
            for flag in (("--resolution", resolution), (f"--resolution={resolution}",))]
    assert runs[0] == runs[1]
    assert runs[0][0] == 2
    assert runs[0][2] == f"error: --resolution {resolution}: at least 8 nodes per axis\n"


def test_verify_calabi3_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--surface", "calabi3",
                           "--resolution", "16x32")
    assert code == 0
    assert "calabi3" in out
    assert "verdict: consistent" in out
    assert "exit_status: 0" in out


def test_verify_json_invariants_are_the_point_invariants_fields(capsys, tmp_path):
    # one list of names: the report's invariant keys are PointInvariants'
    # fields, in order, and the re-checks that moved to the test oracle are gone
    path = tmp_path / "verify.json"
    code, _, _ = run_cli(capsys, "verify", "--surface", "calabi3",
                         "--resolution", "16x32", "--json", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    keys = list(doc["minimal-gap-lab"]["surfaces"]["calabi3"]["invariants"])
    assert keys == [f.name for f in fields(PointInvariants)]
    assert not {"rho0_commutator_residual", "eig_residual", "eig_tail",
                "gram_residual"} & set(keys)


def test_verify_report_determinism_across_workers(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--surface", "veronese",
                             "--resolution", "16x32", "--workers", "1")
    code4, out4, _ = run_cli(capsys, "verify", "--surface", "veronese",
                             "--resolution", "16x32", "--workers", "4")
    assert code1 == code4 == 0
    assert out1 == out4


@pytest.mark.parametrize("argv", [
    [], ["--surface", "calabi3", "--surface", "calabi4", "--resolution", "96x192"],
], ids=["catalog", "bench"])
def test_verify_report_does_not_depend_on_the_tiles(capsys, monkeypatch, tmp_path, argv):
    # node sums are kept per grid row and every other part of a summary
    # merges exactly, so stdout and --json are the same bytes with tiles of
    # 3072 nodes, 2048 nodes and one row (of each 128-column sphere grid of
    # the catalog; each 64-column torus grid then gets two rows a tile)
    path = tmp_path / "verify.json"
    reports = []
    for chunk in (3072, 2048, 192 if argv else 128):
        monkeypatch.setattr(geoquad, "NODE_CHUNK", chunk)
        code, out, _ = run_cli(capsys, "verify", *argv, "--json", str(path))
        assert code == 0
        reports.append((out, path.read_bytes()))
    assert reports[1] == reports[0] and reports[2] == reports[0]


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


@pytest.mark.parametrize("case", ["spec_files", "catalog_name"])
def test_two_sources_of_one_surface_name_exit_two_before_any_grid(
        capsys, monkeypatch, tmp_path, case):
    # the report keys each surface by its spec's name: two sources that
    # gave one name once exited 0 with one report, the second source's (a
    # "clifford" whose spec was the Veronese sphere), and a catalog name
    # given twice was evaluated twice and reported once
    if case == "spec_files":
        torus, sphere = tmp_path / "a.json", tmp_path / "b.json"
        torus.write_text(serialize_spec(catalog_entry("clifford")))
        doc = json.loads(serialize_spec(catalog_entry("veronese")))
        sphere.write_text(json.dumps(dict(doc, name="clifford")))
        sources, name = [str(torus), str(sphere)], "clifford"
    else:
        sources, name = ["calabi4", "calabi4"], "calabi4"

    def not_started(*args, **kwargs):
        raise AssertionError("no grid may be built")

    monkeypatch.setattr(geoquad, "build_grid", not_started)
    code, out, err = run_cli(capsys, "verify", "--surface", sources[0],
                             "--surface", sources[1], "--resolution", "16x16")
    assert code == 2
    assert out == ""
    assert err == (f"error: --surface: {sources[0]!r} and {sources[1]!r} both name the "
                   f"surface {name!r}; the report keys each surface by its name\n")


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
    ("freq", [True, 0]), ("exps", [True, 0, 0]), ("exps", [1, False, 0]),
])
def test_verify_rejects_non_finite_spec_number(capsys, tmp_path, field, value):
    # json reads NaN and Infinity; a NaN coeff once got through to "field
    # evaluation failed at node 0" and exit 1.  json's true and false are
    # ints to Python, and once verified as 1 and 0.
    source = "veronese" if field == "exps" else "clifford"
    doc = json.loads(serialize_spec(catalog_entry(source)))
    doc["components"][0][0][field] = value
    path = tmp_path / f"{source}_bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", "--surface", str(path),
                             "--resolution", "16x16")
    assert code == 2
    assert out == ""
    assert f"components[0][0].{field}" in err


@pytest.mark.parametrize("degree,code", [(surfaces.MAX_DEGREE, 0),
                                         (surfaces.MAX_DEGREE + 1, 2)])
def test_verify_caps_the_term_degree(capsys, tmp_path, degree, code):
    # a degree-20000 term once took gigabytes to verify, and a larger one
    # escaped main with an _ArrayMemoryError; the cap admits the harmonic
    # spheres that MAX_AMBIENT_DIM admits (degree <= 31)
    doc = json.loads(serialize_spec(catalog_entry("veronese")))
    doc["components"][2].append({"coeff": 1e-300, "exps": [0, 0, degree]})
    term = len(doc["components"][2]) - 1
    path = tmp_path / "veronese_deg.json"
    path.write_text(json.dumps(doc))
    got, out, err = run_cli(capsys, "verify", "--surface", str(path),
                            "--resolution", "16x16")
    assert got == code
    if code == 2:
        assert out == ""
        assert (f"components[2][{term}].exps: degree {degree} is above the "
                f"limit {surfaces.MAX_DEGREE}") in err


@pytest.mark.parametrize("freq,code", [
    (surfaces.MAX_FREQUENCY, 0), (surfaces.MAX_FREQUENCY + 1, 2),
    (-(surfaces.MAX_FREQUENCY + 1), 2), (10 ** 400, 2)])
def test_verify_caps_the_torus_frequency(capsys, tmp_path, freq, code):
    # a frequency of 10**400 escaped main with an OverflowError from the
    # phase m * u + n * v
    doc = json.loads(serialize_spec(catalog_entry("clifford")))
    doc["components"][1].append({"coeff": 1e-300, "type": "cos", "freq": [0, freq]})
    term = len(doc["components"][1]) - 1
    path = tmp_path / "clifford_freq.json"
    path.write_text(json.dumps(doc))
    got, out, err = run_cli(capsys, "verify", "--surface", str(path),
                            "--resolution", "16x16")
    assert got == code
    if code == 2:
        assert out == ""
        assert (f"components[1][{term}].freq: frequency {abs(freq)} is above "
                f"the limit {surfaces.MAX_FREQUENCY}") in err


@pytest.mark.parametrize("extra,code", [(0, 0), (1, 2)])
def test_verify_caps_the_term_count(capsys, tmp_path, extra, code):
    # 20000 zero-coefficient torus terms once made a 16x16 verify take 2.6 s
    # against 0.3 s, linearly in the count; the cap admits the harmonic
    # spheres that MAX_AMBIENT_DIM admits (at most 33264 terms)
    doc = json.loads(serialize_spec(catalog_entry("clifford")))
    total = surfaces.MAX_TERMS + extra
    doc["components"][0] += [{"coeff": 0.0, "type": "cos", "freq": [1, 1]}] * (total - 4)
    path = tmp_path / "clifford_terms.json"
    path.write_text(json.dumps(doc))
    got, out, err = run_cli(capsys, "verify", "--surface", str(path),
                            "--resolution", "16x16")
    assert got == code
    if code == 2:
        assert out == ""
        assert err == (f"error: components: {total} terms in all, above the limit "
                       f"{surfaces.MAX_TERMS}\n")


def _tiny_terms(v_pairs: list, u_pairs: list) -> list:
    """Exponents of sphere terms x^i y^j z^k that realize, for each degree
    a = i + j, v_pairs[a] basis functions sin^j v cos^i v and u_pairs[a]
    basis functions sin^a u cos^k u."""
    terms = []
    for a, (nv, nu) in enumerate(zip(v_pairs, u_pairs)):
        terms += [[a - t % nv, t % nv, t % nu] for t in range(max(nv, nu))]
    return terms


@pytest.mark.parametrize("extra,code", [(0, 0), (1, 2)])
def test_verify_caps_the_coefficient_array(capsys, tmp_path, extra, code):
    # a spec is one coefficient array over (component, u-basis, v-basis):
    # dense, a random degree-64 sphere spec would need 64 x 2145 x 2145
    # doubles (2.4 GB).  At the cap here, 8 x 512 x 512: the equator in R^8
    # plus 1e-300 terms over 32 degrees; one more v-basis function is one
    # degree too many
    v_pairs = [a + 1 for a in range(32)]
    v_pairs[-16:] = [a for a in range(16, 32)]            # 528 - 16 = 512 in all
    v_pairs[-1] += extra
    doc = json.loads(serialize_spec(catalog_entry("equator")))
    doc["ambient_dim"] = 8
    doc["components"] += [[] for _ in range(5)]
    doc["components"][0] += [{"coeff": 1e-300, "exps": e}
                             for e in _tiny_terms(v_pairs, [16] * 32)]
    assert 8 * 512 * 512 == surfaces.MAX_COEFFICIENTS
    size = 8 * 512 * (512 + extra)
    path = tmp_path / "equator_wide.json"
    path.write_text(json.dumps(doc))
    got, out, err = run_cli(capsys, "verify", "--surface", str(path),
                            "--resolution", "16x16")
    assert got == code
    if code == 2:
        assert out == ""
        assert err == (f"error: components: the terms need 8 x 512 x 513 = {size} "
                       "coefficients (components x u-basis x v-basis), above the limit "
                       f"{surfaces.MAX_COEFFICIENTS}\n")
    else:
        assert surfaces.parse_spec_dict(doc).coef.size == surfaces.MAX_COEFFICIENTS


@pytest.mark.parametrize("field,value", [("euler_char", False), ("ambient_dim", True)])
def test_verify_rejects_bool_top_level_integer(capsys, tmp_path, field, value):
    # "euler_char": false once verified with exit 0 and echoed false
    doc = json.loads(serialize_spec(catalog_entry("clifford")))
    doc[field] = value
    path = tmp_path / "clifford_bool.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", "--surface", str(path),
                             "--resolution", "16x16")
    assert code == 2
    assert out == ""
    assert f"{field}: must be an integer" in err


def test_verify_rejects_ambient_dim_above_the_cap(capsys, tmp_path):
    # the cap is checked before any component is read: these are not even terms
    n = surfaces.MAX_AMBIENT_DIM + 1
    doc = {"name": "wide", "chart": "sphere", "ambient_dim": n,
           "euler_char": 2, "components": [None] * n}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", "--surface", str(path),
                             "--resolution", "16x16")
    assert code == 2
    assert out == ""
    assert f"ambient_dim: {n} is above the limit {surfaces.MAX_AMBIENT_DIM}" in err


def test_verify_rejects_a_non_immersion_naming_the_node(capsys, tmp_path):
    # a constant map lies on the unit sphere but has no tangent plane
    doc = {"name": "point", "chart": "sphere", "ambient_dim": 3, "euler_char": 2,
           "components": [[{"coeff": 1.0, "exps": [0, 0, 0]}], [], []]}
    path = tmp_path / "point.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", "--surface", str(path),
                             "--resolution", "16x16")
    assert code == 2
    assert out == ""
    assert "point: not an immersion at (u, v) = (" in err
    assert "metric determinant" in err


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


def test_verify_laplace_disagree_gates_nothing(capsys, tmp_path):
    # the key stays accepted and echoed, but the Laplacian of S is exact, so
    # even 0 changes nothing else in the report
    reports = []
    for override in ((), ("--tol", "laplace_disagree=0")):
        path = tmp_path / f"report{len(reports)}.json"
        code, out, _ = run_cli(capsys, "verify", *override, "--json", str(path))
        assert code == 0
        reports.append((out.splitlines(), path.read_text().splitlines()))
    (out, doc), (out0, doc0) = reports
    for default, zero, echo in ((out, out0, "laplace_disagree: 0"),
                                (doc, doc0, '"laplace_disagree": 0.0,')):
        assert len(default) == len(zero)
        changed = [(a, b) for a, b in zip(default, zero) if a != b]
        assert len(changed) == 1
        assert "laplace_disagree" in changed[0][0] and changed[0][1].strip() == echo


def test_verify_distrust_exit_code(capsys):
    # an absurdly tight cross-route tolerance flags every node with a nonzero
    # rounding residual -> exit 3, and stderr says which guard and where
    code, out, err = run_cli(capsys, "verify", "--surface", "clifford",
                             "--resolution", "8x8", "--tol", "b1_cross=1e-300")
    assert code == 3
    assert "exit_status: 3" in out
    lines = err.splitlines()
    assert len(lines) == 1
    match = re.fullmatch(
        r"distrust: clifford: (\d+) of 64 nodes flagged, above the budget 0\.01; "
        r"codazzi 0, b1_cross (\d+); worst b1_cross (\S+) at \(u, v\) = "
        r"\((\S+), (\S+)\)", lines[0])
    assert match is not None, lines[0]
    assert int(match[1]) == int(match[2]) > 0.01 * 64
    assert float(match[3]) > 0.0
    assert 0.0 <= float(match[4]) < 2 * math.pi and 0.0 <= float(match[5]) < 2 * math.pi


@pytest.mark.parametrize("chunk", [16, 32])
def test_distrust_line_equals_a_per_node_recomputation(capsys, monkeypatch, chunk):
    # four tiles of 16 nodes, or two of 32; the residuals are forged from
    # each node's index, so that nodes are flagged in every tile, by both
    # guards, and the largest b1_cross is tied in three 16-node blocks: the
    # line names the earliest of those nodes, the same line in both tilings
    from tile_fields import grid_fields, grid_nodes, tile_slices

    spec = catalog_entry("clifford")
    grid = geoquad.build_grid(spec, (8, 8))
    monkeypatch.setattr(geoquad, "NODE_CHUNK", chunk)
    tiles = tile_slices(grid)
    assert [nodes.stop - nodes.start for _, nodes in tiles] == [chunk] * (64 // chunk)
    real_chunk = geoquad._fields_chunk

    def forged_chunk(spec, u_rows, v_cols, columns=None):
        fields = real_chunk(spec, u_rows, v_cols, columns)
        first = 8 * int(np.searchsorted(grid.u_axis, u_rows[0]))
        block, local = np.divmod(first + np.arange(fields.b1_cross.size), 16)
        fields.b1_cross = np.where((local % 5 == 0) & (block > 0), 7e-4, 1e-6 * block)
        fields.codazzi_residual = np.where(local % 7 == 3, 2e-6, 0.0)
        return fields

    monkeypatch.setattr(geoquad, "_fields_chunk", forged_chunk)
    code, _, err = run_cli(capsys, "verify", "--surface", "clifford",
                           "--resolution", "8x8")
    assert code == 3

    fields = grid_fields(spec, grid, forged_chunk)
    tols = cli.TOLERANCE_DEFAULTS
    over = {key: getattr(fields, name) > tols[key]
            for key, (name, _) in geoquad.GUARDS.items()}
    flagged = over["codazzi"] | over["b1_cross"]
    ties = np.flatnonzero(fields.b1_cross == fields.b1_cross.max())
    assert len({i // 16 for i in ties}) == 3
    assert len({i // chunk for i in np.flatnonzero(flagged)}) == 64 // chunk
    counts = {key: int(mask.sum()) for key, mask in over.items()}
    worst = max(counts, key=counts.get)
    residual = getattr(fields, geoquad.GUARDS[worst][0])
    i = int(residual.argmax())
    assert i == ties[0] == 16
    u, v = grid_nodes(grid)
    expected = (f"distrust: clifford: {flagged.sum()} of 64 nodes flagged, above the "
                f"budget 0.01; codazzi {counts['codazzi']}, b1_cross {counts['b1_cross']}; "
                f"worst {worst} {residual[i]:.3e} at (u, v) = ({u[i]:.6f}, {v[i]:.6f})")
    assert err.splitlines() == [expected]


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



@pytest.mark.parametrize("argv,head", [
    (("--tau-points", "0"), "error: --tau-points 0: a table needs at least 2 grid points"),
    (("--gamma-points", "1"), "error: --gamma-points 1: a table needs at least 2 grid points"),
    (("--tau-lo", "0.5"), "error: --tau-lo 0.5: tau=0.5 outside"),
    (("--tau-lo", "1", "--tau-hi", "0"), "error: --tau-hi 0.0: tau=0.0 outside"),
    (("--tau-lo", "1", "--tau-hi", "0.995"), "error: --tau-lo 1.0, --tau-hi 0.995: "),
])
def test_thresholds_domain_errors_name_their_flag(capsys, monkeypatch, argv, head):
    # each domain error names the flag and the value given, and no table is
    # built (ROADMAP aim 3: the message names the real cause)
    def not_started(*args, **kwargs):
        raise AssertionError("no table may be built")

    monkeypatch.setattr(gaps, "threshold_table", not_started)
    monkeypatch.setattr(gaps, "pinching_table", not_started)
    code, out, err = run_cli(capsys, "thresholds", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(head), err


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


_UNWRITABLE_OUTPUTS = [
    (["identities", "--qmax", "2", "--json", "{missing}/x.json"], "--json",
     "does not exist"),
    (["verify", "--surface", "equator", "--resolution", "16x16", "--json", "{dir}"],
     "--json", "is a directory"),
    (["thresholds", "--csv", "{missing}/p_"], "--csv", "does not exist"),
]


@pytest.mark.parametrize("argv,flag,reason", _UNWRITABLE_OUTPUTS,
                         ids=["identities", "verify", "thresholds"])
def test_unwritable_output_path_exits_two_before_any_work(
        capsys, monkeypatch, tmp_path, argv, flag, reason):
    def not_started(*args, **kwargs):
        raise AssertionError("no work may start")

    for module, name in ((identities, "run_identity_suite"),
                         (surfaces, "load_immersion"), (geoquad, "build_grid"),
                         (gaps, "threshold_table"), (gaps, "pinching_table")):
        monkeypatch.setattr(module, name, not_started)
    argv = [arg.format(missing=tmp_path / "missing", dir=tmp_path) for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag}: ") and reason in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv,flag,writer", [
    (["identities", "--qmax", "1", "--json", "{dir}/x.json"], "--json", "write_json"),
    (["verify", "--surface", "equator", "--resolution", "8x8",
      "--json", "{dir}/x.json"], "--json", "write_json"),
    (["thresholds", "--tau-points", "5", "--gamma-points", "5",
      "--csv", "{dir}/p_"], "--csv", "write_csv"),
], ids=["identities", "verify", "thresholds"])
def test_output_write_error_exits_two_naming_flag_and_reason(
        capsys, monkeypatch, tmp_path, argv, flag, writer):
    def refused(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(cli, writer, refused)
    argv = [arg.format(dir=tmp_path) for arg in argv]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith(f"error: {flag}: cannot write ")
    assert err.rstrip().endswith("Permission denied")


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
