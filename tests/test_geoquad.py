"""Tests for quadrature grids, integration, and the integral identities."""

import dataclasses
import functools
import math
import os
import tracemalloc

import mpmath
import numpy as np
import pytest

from minimal_gap_lab import geoquad
from minimal_gap_lab.errors import DomainError, InvariantViolation
from minimal_gap_lab.geoquad import (
    MAX_NODES,
    NODE_CHUNK,
    _fields_chunk,
    build_grid,
    evaluate_fields,
    gauss_legendre,
    grid_tiles,
    integral_report,
    integrate,
    pool_size,
)
from minimal_gap_lab.invariants import PointInvariants
from minimal_gap_lab.surfaces import catalog_entry


def test_clifford_area_spectral():
    grid = build_grid(catalog_entry("clifford"), (64, 64))
    area = integrate(np.ones_like(grid.u), grid)
    assert abs(area - 2.0 * math.pi ** 2) < 1e-10


@pytest.mark.parametrize("name,expected", [
    ("equator", 4.0 * math.pi),
    ("veronese", 12.0 * math.pi),
    ("calabi3", 24.0 * math.pi),
    ("calabi4", 40.0 * math.pi),
])
def test_sphere_areas(name, expected):
    grid = build_grid(catalog_entry(name), (64, 128))
    area = integrate(np.ones_like(grid.u), grid)
    assert abs(area - expected) < 1e-6 * expected


def test_weights_positive_and_nodes_inside_margin():
    for name in ("veronese", "clifford"):
        spec = catalog_entry(name)
        grid = build_grid(spec)
        assert np.all(grid.weight > 0.0)
        assert np.all(grid.sqrt_det_g > 0.0)
        if spec.chart == "sphere":
            assert np.min(grid.u) > spec.pole_margin
            assert np.max(grid.u) < math.pi - spec.pole_margin


def test_resolution_gate():
    with pytest.raises(DomainError):
        build_grid(catalog_entry("clifford"), (4, 64))


# gauss_legendre works in long double; where that is no wider than double
# (not x86), the recurrence loses about two digits near the ends
EXTENDED = np.finfo(np.longdouble).eps < np.finfo(float).eps


def _mp_gauss_legendre(n, start):
    """Nodes and weights at 40 digits: Newton on P_n in mpmath from `start`."""
    def legendre(x):
        p0, p1 = mpmath.mpf(1), x
        for k in range(1, n):
            p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
        return p1, n * (x * p1 - p0) / (x * x - 1)

    with mpmath.workdps(40):
        nodes, weights = [], []
        for x in map(mpmath.mpf, start):
            for _ in range(6):
                p, dp = legendre(x)
                x -= p / dp
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * legendre(x)[1] ** 2))
        return nodes, weights


@pytest.mark.parametrize("n", [8, 9, 64, 96, 201])
def test_gauss_legendre_matches_mpmath(n):
    x, w = gauss_legendre(n)
    nodes, weights = _mp_gauss_legendre(n, x.tolist())
    assert max(abs(float(a - b)) for a, b in zip(nodes, x)) < 1e-15
    assert max(abs(float((b - a) / a)) for a, b in zip(weights, w)) \
        < (1e-13 if EXTENDED else 1e-12)


@pytest.mark.parametrize("n", [1, 2, 8, 9, 64, 96, 97, 201])
def test_gauss_legendre_is_symmetric_and_exact(n):
    x, w = gauss_legendre(n)
    assert x.shape == w.shape == (n,)
    assert np.all(np.diff(x) > 0.0) and np.all(w > 0.0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert abs(math.fsum(w) - 2.0) <= (4e-16 if EXTENDED else 2e-15)
    # x^k integrates exactly for k <= 2n - 1: 2 / (k + 1) for even k, 0 for odd
    for k in range(2 * n):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(math.fsum((w * x ** k).tolist()) - exact) < 1e-14, k


def test_gauss_legendre_raises_when_newton_does_not_converge(monkeypatch):
    monkeypatch.setattr(geoquad, "NEWTON_MAX", 1)
    with pytest.raises(InvariantViolation, match="did not converge"):
        gauss_legendre(96)


def _refuse(name, *args, **kwargs):
    raise AssertionError(f"{name} was called for a refused grid")


def test_polar_nodes_inside_pole_margin_rejected(monkeypatch):
    # at the default margin 1e-3, 2400 Gauss-Legendre nodes still clear the
    # poles and 2405 do not; the grid must be refused from the node bound,
    # before the nodes themselves or any jet is computed
    spec = catalog_entry("veronese")
    assert build_grid(spec, (2400, 8)).node_count == 2400 * 8
    # 2404 is the largest accepted count: its first node, 1.000135e-3, still
    # clears the margin, so its nodes must be computed
    assert build_grid(spec, (2404, 8)).u_axis[0] > spec.pole_margin

    monkeypatch.setattr("minimal_gap_lab.geoquad.eval_jet",
                        functools.partial(_refuse, "eval_jet"))
    monkeypatch.setattr("minimal_gap_lab.geoquad.gauss_legendre",
                        functools.partial(_refuse, "gauss_legendre"))
    for n_u in (2405, 2500, 10 ** 5):
        with pytest.raises(DomainError) as err:
            build_grid(spec, (n_u, 8))
        assert "--resolution" in str(err.value)
        assert "pole" in str(err.value)


@pytest.mark.parametrize("name,resolution", [
    ("veronese", (64, 10 ** 9)),
    ("clifford", (10 ** 9, 64)),
    ("clifford", (2048, 1024)),
])
def test_node_count_above_limit_rejected(monkeypatch, name, resolution):
    monkeypatch.setattr("minimal_gap_lab.geoquad.eval_jet",
                        functools.partial(_refuse, "eval_jet"))
    monkeypatch.setattr("minimal_gap_lab.geoquad.gauss_legendre",
                        functools.partial(_refuse, "gauss_legendre"))
    with pytest.raises(DomainError) as err:
        build_grid(catalog_entry(name), resolution)
    assert "--resolution" in str(err.value)
    assert f"limit {MAX_NODES}" in str(err.value)


def test_largest_polar_count_builds_in_linear_memory():
    # 2404 polar nodes: the eigensolver route held an n x n matrix (a 44 MB
    # peak); the recurrence holds a few arrays of n / 2 nodes
    spec = catalog_entry("veronese")
    build_grid(spec, (16, 8))           # loads the lazy modules untraced
    tracemalloc.start()
    try:
        build_grid(spec, (2404, 8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_pool_size_is_bounded(monkeypatch):
    cpus = geoquad.usable_cpus()
    assert pool_size(10 ** 6, 3) == min(cpus, 3)
    assert pool_size(10 ** 6, 10 ** 6) == cpus
    assert pool_size(1, 8) == 1
    assert pool_size(0, 8) == 1
    for cpus in (1, 64):
        monkeypatch.setattr(geoquad, "usable_cpus", lambda cpus=cpus: cpus)
        assert pool_size(10 ** 6, 10 ** 6) == cpus
        assert pool_size(2, 6) == min(2, cpus)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="no CPU affinity on this platform")
def test_usable_cpus_follow_the_affinity_mask(monkeypatch):
    # `taskset -c 0 ... --workers 2` runs one tile thread, however many
    # CPUs the machine has
    assert geoquad.usable_cpus() == len(os.sched_getaffinity(0))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert pool_size(2, 6) == 1


@pytest.mark.parametrize("resolution", [
    (8, 8), (96, 192), (64, 128), (192, 384), (1024, 1024), (8, NODE_CHUNK),
    (9, NODE_CHUNK + 1), (8, 3 * NODE_CHUNK - 1), (4000, 8),
])
def test_grid_tiles_cover_the_grid_within_the_budget(resolution):
    n_u, n_v = resolution
    tiles = grid_tiles(resolution)
    # each tile is whole rows or a column segment of one row, so its nodes
    # are one contiguous range of the row-major order; the ranges follow
    # one another and cover every node once
    start = 0
    for rows, cols in tiles:
        assert 0 <= rows.start < rows.stop <= n_u and 0 <= cols.start < cols.stop <= n_v
        assert cols == slice(0, n_v) or rows.stop == rows.start + 1
        assert rows.start * n_v + cols.start == start
        size = (rows.stop - rows.start) * (cols.stop - cols.start)
        assert size <= NODE_CHUNK
        start += size
    assert start == n_u * n_v
    # no more tiles than the budget needs, and even ones
    if n_v <= NODE_CHUNK:
        assert len(tiles) == math.ceil(n_u / (NODE_CHUNK // n_v))
    assert max(rows.stop - rows.start for rows, _ in tiles) \
        - min(rows.stop - rows.start for rows, _ in tiles) <= 1


def test_tiles_and_fields_do_not_depend_on_workers(monkeypatch):
    # the tiles are fixed by the resolution, never by --workers or the CPU
    # count, so the per-node fields are bitwise the same for every split
    spec = catalog_entry("calabi4")
    grid = build_grid(spec, (96, 192))
    expected = sorted((grid.u_axis[rows].tobytes(), grid.v_axis[cols].tobytes())
                      for rows, cols in grid_tiles(grid.resolution))
    assert [rows.stop - rows.start for rows, _ in grid_tiles(grid.resolution)] == [16] * 6
    calls = []

    def recording_chunk(spec, u_rows, v_cols, **tols):
        calls.append((u_rows.tobytes(), v_cols.tobytes()))
        return _fields_chunk(spec, u_rows, v_cols, **tols)

    monkeypatch.setattr("minimal_gap_lab.geoquad._fields_chunk", recording_chunk)
    results = {}
    for workers, cpus in ((1, None), (2, None), (8, None), (400, None), (2, 1), (400, 64)):
        if cpus is not None:
            monkeypatch.setattr(geoquad, "usable_cpus", lambda cpus=cpus: cpus)
        calls.clear()
        results[workers, cpus] = evaluate_fields(spec, grid, workers=workers)
        assert sorted(calls) == expected, (workers, cpus)
    base = results[1, None]
    for fields in results.values():
        for name in (f.name for f in dataclasses.fields(PointInvariants)):
            assert np.array_equal(getattr(base.inv, name), getattr(fields.inv, name)), name
        for name in ("b1_simons", "b1_direct", "b1_cross", "delta_S", "codazzi_residual",
                     "flagged"):
            assert np.array_equal(getattr(base, name), getattr(fields, name)), name


def test_build_grid_memory_is_a_few_arrays_per_node():
    # build_grid keeps u, v, the weight and sqrt(det g) per node (32 bytes)
    # and takes the metric tile by tile; a jet over the whole grid would
    # alone cost 3 * ambient_dim * 8 = 216 bytes per node on calabi4
    spec = catalog_entry("calabi4")
    build_grid(spec, (16, 32))          # loads the lazy modules untraced
    tracemalloc.start()
    try:
        grid = build_grid(spec, (512, 1024))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / grid.node_count < 48.0


def test_integrate_rejects_nan():
    grid = build_grid(catalog_entry("clifford"), (8, 8))
    values = np.ones_like(grid.u)
    values[5] = np.nan
    with pytest.raises(InvariantViolation) as err:
        integrate(values, grid)
    assert "node 5" in str(err.value)


def test_integrate_shape_mismatch():
    grid = build_grid(catalog_entry("clifford"), (8, 8))
    with pytest.raises(ValueError):
        integrate(np.ones(3), grid)


@pytest.mark.parametrize("name", ["equator", "veronese", "calabi3", "clifford"])
def test_gauss_bonnet(name, bundle):
    b = bundle(name)
    rep = b.report
    assert abs(rep.gauss_bonnet_residual) < 1e-6 * (1.0 + abs(rep.int_K))
    assert abs(rep.int_delta_S) < 1e-6


def test_gauss_bonnet_mixed_torus(bundle):
    rep = bundle("mixed_torus").report
    # K changes sign on this torus; its integral must still vanish (chi = 0)
    assert abs(rep.gauss_bonnet_residual) < 1e-9


@pytest.mark.parametrize("name", ["clifford", "veronese", "calabi3", "mixed_torus"])
def test_first_gap_integral_identity(name, bundle):
    rep = bundle(name).report
    assert rep.gap1_residual_rel < 1e-4
    assert rep.gap1_lhs >= -1e-6 * rep.area


def test_first_gap_calabi3_value(bundle):
    rep = bundle("calabi3").report
    assert abs(rep.gap1_lhs - 40.0 * math.pi) < 1e-4 * 40.0 * math.pi
    assert abs(rep.gap1_rhs - 40.0 * math.pi) < 1e-4 * 40.0 * math.pi


@pytest.mark.parametrize("name", ["equator", "clifford", "veronese", "calabi3",
                                  "calabi4", "mixed_torus"])
def test_second_gap_forms_agree(name, bundle):
    rep = bundle(name).report
    assert rep.gap2_residual_rel < 1e-6
    assert rep.gap2_form1 >= -1e-6 * rep.area
    assert rep.gap2_form2 >= -1e-6 * rep.area


def test_second_gap_vanishes_on_veronese_and_calabi3(bundle):
    for name in ("veronese", "calabi3"):
        rep = bundle(name).report
        assert abs(rep.gap2_form1) / rep.area < 1e-5
        assert abs(rep.gap2_form2) / rep.area < 1e-5


def test_bound_445_attained_on_clifford(bundle):
    rep = bundle("clifford").report
    assert abs(rep.bound_445 - 2.0) < 1e-8
    assert abs(rep.max_u - 2.0) < 1e-8


def test_main6_specialization_on_two_spheres(bundle):
    # catalog 2-spheres have t = 0, so the tau = 0 hypothesis holds and
    # max u >= 3 (1 - 2 pi chi / area); equality for the harmonic spheres
    for name in ("equator", "veronese", "calabi3", "calabi4"):
        b = bundle(name)
        bound = 3.0 * (1.0 - 2.0 * math.pi * b.spec.euler_char / b.report.area)
        assert b.report.max_u >= bound - 1e-8
        assert abs(b.report.max_u - bound) < 1e-6   # attained on this catalog


def test_fields_worker_chunking_is_exact(mixed_torus, monkeypatch):
    grid = build_grid(mixed_torus, (16, 16))
    f1 = evaluate_fields(mixed_torus, grid, workers=1)
    f3 = evaluate_fields(mixed_torus, grid, workers=3)
    # one worker, three chunks of the node budget
    monkeypatch.setattr("minimal_gap_lab.geoquad.NODE_CHUNK", 100)
    assert len(grid_tiles(grid.resolution)) == 3
    fb = evaluate_fields(mixed_torus, grid, workers=1)
    # one worker, each row cut into two column segments
    monkeypatch.setattr("minimal_gap_lab.geoquad.NODE_CHUNK", 10)
    assert len(grid_tiles(grid.resolution)) == 32
    fc = evaluate_fields(mixed_torus, grid, workers=1)
    for f in (f3, fb, fc):
        assert np.array_equal(f1.inv.S, f.inv.S)
        assert np.array_equal(f1.b1_direct, f.b1_direct)
        assert np.array_equal(f1.b1_simons, f.b1_simons)
        assert np.array_equal(f1.flagged, f.flagged)


@pytest.mark.parametrize("name", ["equator", "veronese", "calabi3", "calabi4",
                                  "clifford"])
def test_b1_routes_agree_to_rounding(name, bundle):
    # both routes are exact up to rounding, so they agree far below the
    # b1_cross guard of 1e-4
    assert np.max(bundle(name).fields.b1_cross) <= 1e-9


def test_quadrature_convergence_on_synthetic_field():
    # a smooth non-polynomial integrand on the veronese chart; halving the
    # mesh must cut the error at least 4x until the floor
    spec = catalog_entry("veronese")

    def field(grid):
        return np.exp(np.sin(grid.u) * np.cos(grid.v))

    ref_grid = build_grid(spec, (96, 192))
    ref = integrate(field(ref_grid), ref_grid)
    errors = []
    for res in ((8, 16), (16, 32), (32, 64)):
        grid = build_grid(spec, res)
        errors.append(abs(integrate(field(grid), grid) - ref))
    floor = 1e-10 * abs(ref)
    for coarse, fine in zip(errors, errors[1:]):
        assert fine <= max(coarse / 4.0, floor)


def test_report_residuals_do_not_degrade_with_resolution(bundle):
    # constant-field catalog integrands are already at the floor; doubling
    # the resolution must keep each residual at or below max(old/4, floor)
    coarse = bundle("veronese", (32, 64)).report
    fine = bundle("veronese").report       # 64 x 128
    for attr, floor in (("gauss_bonnet_residual", 1e-10),
                        ("int_delta_S", 1e-6),
                        ("gap2_residual_rel", 1e-10),
                        ("gap1_residual_rel", 1e-6)):
        c, f = abs(getattr(coarse, attr)), abs(getattr(fine, attr))
        assert f <= max(c / 4.0, floor)


def test_nonnegativity_guard_trips_on_forged_fields():
    # synthetic S = 1, lambda2 = 0 makes the first gap integrand -2 < 0
    spec = catalog_entry("clifford")
    grid = build_grid(spec, (8, 8))
    n = grid.node_count
    ones, zeros = np.ones(n), np.zeros(n)
    inv = PointInvariants(
        S=ones, normA2=ones, rho0=zeros, rho_perp=zeros, lambda1=ones,
        lambda2=zeros, u=ones, t=ones, K=0.5 * ones, ddvv_slack=ones,
        hopf_re=zeros, hopf_im=zeros, rho0_commutator_residual=zeros,
        eig_residual=zeros, eig_tail=zeros, gram_residual=zeros,
        minimality_residual=zeros)
    from minimal_gap_lab.geoquad import SurfaceFields

    forged = SurfaceFields(
        inv=inv, b1_simons=zeros, b1_direct=zeros, b1_cross=zeros,
        delta_S=zeros, codazzi_residual=zeros, flagged=zeros.astype(bool))
    with pytest.raises(InvariantViolation) as err:
        integral_report(spec, grid, forged)
    assert "nonnegativity" in str(err.value)
