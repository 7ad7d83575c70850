"""Tests for quadrature grids, integration, and the integral identities."""

import functools
import json
import math
import os
import weakref
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minimal_gap_lab import geoquad, surfaces
from minimal_gap_lab.errors import DomainError, InvariantViolation
from minimal_gap_lab.geoquad import (
    MAX_NODES,
    NODE_CHUNK,
    QuadratureGrid,
    _fields_chunk,
    _partials,
    _row_partials,
    build_grid,
    evaluate_fields,
    gauss_legendre,
    grid_tiles,
    integral_report,
    segment_width,
    pool_size,
    reduce_tile,
)
from minimal_gap_lab.gaps import COUPLED_GAMMAS, PINCH_GAMMAS, calabi_S, calabi_constants
from minimal_gap_lab.invariants import b1_simons, point_invariants
from minimal_gap_lab.surfaces import (
    CATALOG_NAMES,
    JET_ORDER_MAX,
    _catalog_sphere_entry,
    adapted_frame,
    catalog_entry,
    column_factor,
    eval_jet,
    jet_keys,
    parse_spec_dict,
    serialize_spec,
    second_fundamental_form,
)

from gram_oracle import second_route_residuals
from tile_fields import (
    INVARIANT_NAMES,
    NODE_ARRAYS,
    SUBSTAGE_MARKERS,
    forged_fields,
    fsum_partials,
    grid_fields,
    grid_nodes,
    peak_bytes,
    per_field_summary,
    stage_peaks,
    summarize,
    tile_slices,
)


def _summary_bits(summary) -> tuple:
    """Every value of a FieldSummary, floats as their bits."""
    def bits(values):
        return np.asarray(values, dtype=float).tobytes()

    return (summary.nodes, bits(summary.low), bits(summary.high),
            [(k, bits(v)) for k, v in summary.sums.items()],
            [(k, bits(v)) for k, v in summary.integrals.items()],
            summary.flagged, [(k, g.count, bits([g.worst]), g.node)
                              for k, g in summary.guards.items()],
            summary.pinch.tobytes(), summary.coupled.tobytes())


def _weights(grid) -> np.ndarray:
    """The chart weight of every node, flattened row-major."""
    return np.outer(grid.u_weight, grid.v_weight).ravel()


@pytest.mark.parametrize("s", [5, 8])
def test_harmonic_sphere_in_high_codimension(s):
    # the degree-s harmonic sphere lies in S^(2s), so q = 2s - 2 (8 and 14),
    # beyond the catalog's q <= 6
    spec = _catalog_sphere_entry(f"harmonic{s}", s)
    grid = build_grid(spec, (16, 32))
    summary = evaluate_fields(spec, grid)
    report = integral_report(spec, grid, summary)
    u = 1.5 * float(calabi_S(s))
    assert abs(report.max_u - u) < 1e-10 and abs(report.min_u - u) < 1e-10
    assert abs(report.area - float(calabi_constants(s).area)) < 1e-9
    assert summary.flagged_fraction == 0.0
    # the second routes agree to rounding at C = 2s + 1 on the grid's nodes
    jet = eval_jet(spec, grid_nodes(grid), order=2)
    sp = second_fundamental_form(jet, adapted_frame(jet))
    inv = point_invariants(sp)
    residuals = second_route_residuals(sp, inv)
    assert np.all(residuals.pop("rho0_commutator_residual")
                  <= 1e-12 * np.maximum(1.0, inv.rho0))
    scale = 1e-12 * np.maximum(1.0, inv.S)
    for residual in residuals.values():
        assert np.all(residual <= scale)


def test_clifford_area_spectral(bundle):
    b = bundle("clifford")
    assert b.grid.resolution == (64, 64)
    assert abs(b.report.area - 2.0 * math.pi ** 2) < 1e-10


@pytest.mark.parametrize("name,expected", [
    ("equator", 4.0 * math.pi),
    ("veronese", 12.0 * math.pi),
    ("calabi3", 24.0 * math.pi),
    ("calabi4", 40.0 * math.pi),
])
def test_sphere_areas(name, expected, bundle):
    b = bundle(name)
    assert b.grid.resolution == (64, 128)
    assert abs(b.report.area - expected) < 1e-6 * expected


def test_weights_positive_and_nodes_inside_margin(bundle):
    for name in ("veronese", "clifford"):
        b = bundle(name)
        assert np.all(b.grid.u_weight > 0.0) and np.all(b.grid.v_weight > 0.0)
        assert np.all(b.fields.sqrt_det_g > 0.0)
        if b.spec.chart == "sphere":
            assert np.min(b.grid.u_axis) > b.spec.pole_margin
            assert np.max(b.grid.u_axis) < math.pi - b.spec.pole_margin


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
    gauss_legendre.cache_clear()        # a cached rule is not solved again
    monkeypatch.setattr(geoquad, "NEWTON_MAX", 1)
    with pytest.raises(InvariantViolation, match="did not converge"):
        gauss_legendre(96)


def _refuse(name, *args, **kwargs):
    raise AssertionError(f"{name} was called for a refused grid")


def test_build_grid_reuses_the_gauss_legendre_rule_of_its_n(monkeypatch):
    # the bench command builds two sphere grids at one resolution: the
    # second reads the first one's rule, read-only, and gets the same bits
    gauss_legendre.cache_clear()
    first = build_grid(catalog_entry("calabi3"), (96, 192))
    monkeypatch.setattr(geoquad, "_legendre", functools.partial(_refuse, "_legendre"))
    second = build_grid(catalog_entry("calabi4"), (96, 192))
    for axis in ("u_axis", "v_axis", "u_weight", "v_weight"):
        assert getattr(second, axis).tobytes() == getattr(first, axis).tobytes()
    x, w = gauss_legendre(96)
    assert not (x.flags.writeable or w.flags.writeable)
    monkeypatch.undo()
    fresh = gauss_legendre.__wrapped__(96)
    assert fresh[0].tobytes() == x.tobytes() and fresh[1].tobytes() == w.tobytes()


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
    assert peak_bytes(build_grid, spec, (2404, 8)) < 4 * 2 ** 20


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
    # count, so every tile and so the summary is bitwise the same for every
    # split
    spec = catalog_entry("calabi4")
    grid = build_grid(spec, (96, 192))
    expected = sorted((grid.u_axis[rows].tobytes(), grid.v_axis[cols].tobytes())
                      for rows, cols in grid_tiles(grid.resolution))
    assert [rows.stop - rows.start for rows, _ in grid_tiles(grid.resolution)] == [16] * 6
    calls = []

    def recording_chunk(spec, u_rows, v_cols, columns):
        calls.append((u_rows.tobytes(), v_cols.tobytes()))
        return _fields_chunk(spec, u_rows, v_cols, columns)

    monkeypatch.setattr("minimal_gap_lab.geoquad._fields_chunk", recording_chunk)
    results = {}
    for workers, cpus in ((1, None), (2, None), (8, None), (400, None), (2, 1), (400, 64)):
        if cpus is not None:
            monkeypatch.setattr(geoquad, "usable_cpus", lambda cpus=cpus: cpus)
        calls.clear()
        results[workers, cpus] = evaluate_fields(spec, grid, workers=workers)
        assert sorted(calls) == expected, (workers, cpus)
    base = _summary_bits(results[1, None])
    for summary in results.values():
        assert _summary_bits(summary) == base


def test_build_grid_memory_is_a_few_arrays_per_node():
    # build_grid keeps the 1-D axes and weights and no per-node array: it
    # kept u, v, the weight and sqrt(det g) per node (32 bytes) before each
    # tile took its area element from its own jet
    spec = catalog_entry("calabi4")
    build_grid(spec, (16, 32))          # loads the lazy modules untraced
    assert peak_bytes(build_grid, spec, (512, 1024)) / (512 * 1024) < 1.0


def test_evaluate_fields_memory_does_not_grow_with_the_grid():
    # each tile is reduced as soon as it is evaluated, so a grid of 32 tiles
    # peaks like one of 4 (3072-node tiles on both; 27.8 against 10.5 MB
    # when the fields of every node were kept)
    spec = catalog_entry("clifford")
    evaluate_fields(spec, build_grid(spec, (16, 16)))   # loads the lazy modules
    peaks = [peak_bytes(lambda r: evaluate_fields(spec, build_grid(spec, r)), resolution)
             for resolution in ((64, 192), (256, 512))]
    assert peaks[1] <= 1.25 * peaks[0], peaks


@pytest.mark.parametrize("name,degree,limit", [
    # C = 9: 5299 B/node while each vector Taylor product was built whole
    # before it was subtracted, 4243 while S ran on six-coefficient chart
    # series with the order-4 derivatives alive, 3259 while the frame route
    # held the jet and the frame to its end, 2891 while the Simons route
    # held the order-3 jet, 2276 while the frame route built h's weights
    # from copies of L, and 1949 now that the Simons route forms seven of
    # the twelve coefficients of X's series at their reads
    ("calabi4", 4, 1988),
    # C = 17: 9715 B/node before, 7603 on chart series, 5819, 5195, 3867, 3421
    ("harmonic8", 8, 3489),
    # C = 7: 1987 while the frame route built h's weights from copies, 1580
    ("calabi3", 3, 1612),
], ids=["calabi4", "harmonic8", "calabi3"])
def test_tile_peak_bytes_per_node(name, degree, limit):
    # one 3072-node tile (rows 0:16 of the 96x192 grid) under tracemalloc,
    # reading the column factor that evaluate_fields forms once per grid
    spec = _catalog_sphere_entry(name, degree)
    grid = build_grid(spec, (96, 192))
    u, v = grid.u_axis[:16], grid.v_axis
    columns = column_factor(spec, v)
    _fields_chunk(spec, u, v, columns)
    per_node = peak_bytes(_fields_chunk, spec, u, v, columns) / (u.size * v.size)
    assert per_node <= limit, f"{per_node:.0f} B/node"


@pytest.mark.parametrize("name,degree,limits", [
    # each array of a tile is freed at its last read and no tile holds a
    # jet: S's route peaks at 1949 B/node (2171 while it stored all twelve
    # coefficients of X's series, 2891 while it held the order-3 jet) and
    # the frame route at 1803 (2275 while h's weights were built from
    # copies of L, 2298)
    ("calabi4", 4, {"simons": 1988, "frame": 1839}),
    # C = 17: 3421 (3836, 5195) and 3212 (3867, 4218)
    ("harmonic8", 8, {"simons": 3489, "frame": 3276}),
    # C = 7: 1580 (1817) and 1451 (1987)
    ("calabi3", 3, {"simons": 1612, "frame": 1480}),
], ids=["calabi4", "harmonic8", "calabi3"])
def test_each_route_peak_bytes_per_node(name, degree, limits):
    # each route of one 3072-node tile (rows 0:16 of the 96x192 grid) under
    # tracemalloc, with what earlier stages left alive: either may set the
    # tile's peak, so each is gated on its own
    spec = _catalog_sphere_entry(name, degree)
    grid = build_grid(spec, (96, 192))
    peaks = stage_peaks(spec, grid.u_axis[:16], grid.v_axis)
    assert list(peaks) == ["jet", "simons", "frame", "invariants"]
    over = {stage: round(peaks[stage]) for stage, limit in limits.items()
            if peaks[stage] > limit}
    assert not over, f"B/node above the limits {limits}: {over}"


@pytest.mark.parametrize("name,degree,limits", [
    # the sub-stages of each route on one 3072-node tile, each with what
    # earlier stages left alive, about 2% above what they read now
    ("calabi4", 4, {"jet": 190, "simons.lift": 1506, "simons.ginv": 1668,
                    "simons.projection": 1988, "simons.assembly": 1285,
                    "simons.laplacian": 175, "frame.lift": 1432, "frame.frame": 1733,
                    "frame.connection": 1651, "frame.h": 1839, "frame.grad_h": 1733,
                    "invariants": 340}),
    ("harmonic8", 8, {"jet": 321, "simons.lift": 2747, "simons.ginv": 2974,
                      "simons.projection": 3489, "simons.assembly": 2069,
                      "simons.laplacian": 175, "frame.lift": 2673, "frame.frame": 2966,
                      "frame.connection": 2826, "frame.h": 3276, "frame.grad_h": 3040,
                      "invariants": 471}),
], ids=["calabi4", "harmonic8"])
def test_each_substage_peak_bytes_per_node(name, degree, limits):
    # the Simons route's lift, g^-1, projection, assembly and Laplacian and
    # the frame route's lift, frame, connection, h and grad h, each gated on
    # its own, so a memory change sees which of them binds
    spec = _catalog_sphere_entry(name, degree)
    grid = build_grid(spec, (96, 192))
    peaks = stage_peaks(spec, grid.u_axis[:16], grid.v_axis, SUBSTAGE_MARKERS)
    assert list(peaks) == list(limits)
    over = {stage: round(peaks[stage]) for stage, limit in limits.items()
            if peaks[stage] > limit}
    assert not over, f"B/node above the limits {limits}: {over}"


def _counted(monkeypatch, owner, names) -> dict:
    """Replace each named function of `owner` by one that counts its calls."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _call=getattr(owner, name), **kwargs):
            counts[_name] += 1
            return _call(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return counts


REDUCTIONS = ("stack", "isfinite", "any", "all", "min", "max", "sum")


def test_tile_work_is_gated_by_call_counts(monkeypatch):
    # a deterministic gate on duplicated work: the calls one 3072-node
    # calabi4 tile makes to np.einsum and to the Taylor kernel
    # surfaces._apply, and those one reduce_tile makes to numpy's
    # reductions, repeat exactly.  The tile made 198 einsum and 276 _apply
    # calls on six-coefficient chart series, 158 and 189 on trace series,
    # 157 once the Laplacian read the trace coefficient of X's series, and
    # 144 now: it forms 27 derivatives from the grid's column factor (the
    # metric's 2, the Simons route's 15, the frame route's 10) instead of
    # 15 from its own 25 column contractions.  Now 262 and 276: the Simons
    # route forms seven coefficients of X's series at their reads, so its
    # products read one coefficient (`_product_by_coefficient`) and one key
    # at a time instead of all at once, and the frame route projects its
    # slots, forms h's weights and grad h's connection terms one slot, pair
    # or k at a time, each a smaller call.  reduce_tile made 128
    # reductions before it reduced its fields stacked.  A change that moves
    # one has to say why
    spec = catalog_entry("calabi4")
    grid = build_grid(spec, (96, 192))
    u, v = grid.u_axis[:16], grid.v_axis
    columns = column_factor(spec, v)
    fields = _fields_chunk(spec, u, v, columns)
    einsum_counts = _counted(monkeypatch, np, ["einsum"])
    apply_counts = _counted(monkeypatch, surfaces, ["_apply"])
    _fields_chunk(spec, u, v, columns)
    assert einsum_counts | apply_counts == {"einsum": 262, "_apply": 276}
    reduction_counts = _counted(monkeypatch, np, REDUCTIONS)
    reduce_tile(fields, grid, (slice(0, 16), slice(0, 192)))
    assert sum(reduction_counts.values()) == 25, reduction_counts


def _derivatives_seen(monkeypatch):
    # weakrefs to every derivative `Jet.derivative` forms and to its base,
    # keyed by (i, j) in the order they are formed
    formed = []

    def derivative_seen(jet, i, j, _call=surfaces.Jet.derivative):
        d = _call(jet, i, j)
        formed.append(((i, j), weakref.ref(d), weakref.ref(d.base)))
        return d

    monkeypatch.setattr(surfaces.Jet, "derivative", derivative_seen)
    return formed


def _is_alive(refs):
    return any(ref() is not None for ref in refs)


def test_every_derivative_a_tile_forms_is_freed_when_its_reader_returns(monkeypatch):
    # no tile holds a jet: each derivative d_u^i d_v^j X is formed inside
    # the one call that reads it, the metric (X_u, X_v) or a route's lift
    # (every derivative once, in `jet_keys` order: 15 for the Simons
    # route's trace series, 10 for the frame route's chart series), and is
    # dead when that call returns
    spec = catalog_entry("calabi4")
    grid = build_grid(spec, (96, 192))
    formed = _derivatives_seen(monkeypatch)
    alive = []

    def reader_seen(call):
        def run(*args, **kwargs):
            result = call(*args, **kwargs)
            alive.append([key for key, *refs in formed if _is_alive(refs)])
            return result
        return run

    monkeypatch.setattr(surfaces.Taylor, "lift",
                        classmethod(reader_seen(surfaces.Taylor.lift.__func__)))
    monkeypatch.setattr(geoquad, "first_fundamental_form",
                        reader_seen(geoquad.first_fundamental_form))
    _fields_chunk(spec, grid.u_axis[:16], grid.v_axis)
    assert [key for key, *_ in formed] == [(1, 0), (0, 1)] + jet_keys(4) + jet_keys(3)
    assert alive == [[], [], []]


def test_order4_derivatives_are_freed_before_the_simons_projection(monkeypatch):
    # the Hessian slots are the only readers of the order-4 derivatives, so
    # they are formed inside the Simons route's lift and are dead (5 C
    # doubles a node) before S's projection makes its first subtraction
    spec = catalog_entry("calabi4")
    grid = build_grid(spec, (96, 192))
    formed = _derivatives_seen(monkeypatch)
    alive = []

    def first_subtraction(*args, _call=surfaces._subtract_product):
        if not alive:
            alive.append([_is_alive(refs) for key, *refs in formed if sum(key) == 4])
        return _call(*args)

    monkeypatch.setattr(surfaces, "_subtract_product", first_subtraction)
    _fields_chunk(spec, grid.u_axis[:16], grid.v_axis)
    assert sum(sum(key) == 4 for key, *_ in formed) == 5 and alive == [[False] * 5]


def test_jet_and_frame_are_freed_before_grad_h_is_assembled(monkeypatch):
    # covariant_grad_h is the last reader of the jet and builds the frame
    # itself: every derivative the tile forms (27, up to order 4) and the
    # frame's series (X, e1, e2 and L) are dead before the connection terms
    # and grad3, the tile's two last `_symmetric_view` reads, are formed
    spec = catalog_entry("calabi4")
    grid = build_grid(spec, (96, 192))
    formed = _derivatives_seen(monkeypatch)
    frame_refs, alive = [], []

    def adapted_frame_seen(*args, _call=surfaces.adapted_frame):
        frame = _call(*args)
        frame_refs.extend(weakref.ref(series.c) for series in (frame.basis, frame.chart_to_frame))
        return frame

    def symmetric_view_seen(*args, _call=surfaces._symmetric_view, **kwargs):
        alive.append([_is_alive(refs) for _, *refs in formed]
                     + [ref() is not None for ref in frame_refs])
        return _call(*args, **kwargs)

    monkeypatch.setattr(surfaces, "adapted_frame", adapted_frame_seen)
    monkeypatch.setattr(surfaces, "_symmetric_view", symmetric_view_seen)
    _fields_chunk(spec, grid.u_axis[:16], grid.v_axis)
    assert len(formed) == 27 and len(frame_refs) == 2
    assert alive[-2:] == [[False] * 29] * 2, alive[-2:]


def test_the_benchmark_reads_the_layers_the_pipeline_runs(monkeypatch):
    # perfbench's tracer wraps `eval_jet` and `second_norm_field` under the
    # bindings geoquad holds, and `invariants.b1_simons` by name: each tile
    # reaches the first two exactly once, and the third gives a tile's
    # b1_simons bit for bit
    spec = catalog_entry("calabi4")
    grid = build_grid(spec, (96, 192))
    u, v = grid.u_axis[:16], grid.v_axis
    calls = _counted(monkeypatch, geoquad, ["eval_jet", "second_norm_field"])
    evaluate_fields(spec, grid, workers=2)
    tiles = len(grid_tiles(grid.resolution))
    assert tiles == 6 and calls == {"eval_jet": tiles, "second_norm_field": tiles}
    fields = _fields_chunk(spec, u, v)
    tile = eval_jet(spec, (u[:, None], v[None, :]), order=JET_ORDER_MAX)
    jet = replace(tile, u=tile.u.ravel(), v=tile.v.ravel())
    assert b1_simons(jet, fields.inv).b1.tobytes() == fields.b1_simons.tobytes()


@pytest.mark.parametrize("name", ["clifford", "calabi4"])
def test_column_segment_tiles_read_their_segments_column_factor_bit_for_bit(monkeypatch, name):
    # above NODE_CHUNK columns each tile is a column segment of one row and
    # reads the column factor that evaluate_fields forms once for the
    # segment's tiles; every per-node field has the bits of the tile
    # evaluated from its own columns alone
    spec = catalog_entry(name)
    grid = build_grid(spec, (8, 4096))
    tiles = grid_tiles(grid.resolution)
    assert len(tiles) == 16 and all(cols.stop - cols.start == 2048 for _, cols in tiles)
    evaluated = {}

    def chunk(spec, u_rows, v_cols, columns):
        assert all(c.shape[2] == v_cols.size for c in columns)
        fields = _fields_chunk(spec, u_rows, v_cols, columns)
        evaluated[u_rows.tobytes(), v_cols.tobytes()] = fields
        return fields

    monkeypatch.setattr(geoquad, "_fields_chunk", chunk)
    evaluate_fields(spec, grid, workers=2)
    monkeypatch.undo()
    got = grid_fields(spec, grid, lambda spec, u, v: evaluated[u.tobytes(), v.tobytes()])
    expected = grid_fields(spec, grid)
    for name in NODE_ARRAYS:
        assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name
    for name in INVARIANT_NAMES:
        assert getattr(got.inv, name).tobytes() == getattr(expected.inv, name).tobytes(), name


def test_narrow_column_segments_keep_each_factor_within_its_budget(monkeypatch):
    # segment_width cuts a grid's rows into column segments whose column
    # factor, C x P x columns x (JET_ORDER_MAX + 1) doubles, stays within
    # COLUMN_BYTES.  Every catalog surface keeps NODE_CHUNK-wide segments;
    # under a budget of 40 calabi4 columns, 16x192 becomes 80 one-row tiles
    # in 5 segments, each factor that evaluate_fields forms is within the
    # budget, and every per-node field keeps the bits of whole-row tiles
    assert {segment_width(catalog_entry(name)) for name in CATALOG_NAMES} == {NODE_CHUNK}
    spec = catalog_entry("calabi4")
    column = 9 * 5 * (JET_ORDER_MAX + 1) * 8
    assert spec.coef.shape[:2] == (9, 5)
    monkeypatch.setattr(geoquad, "COLUMN_BYTES", 40 * column + column - 1)
    assert segment_width(spec) == 40
    grid = build_grid(spec, (16, 192))
    tiles = grid_tiles(grid.resolution, 40)
    assert len(tiles) == 80 and {cols.stop - cols.start for _, cols in tiles} == {38, 39}
    factors, evaluated = [], {}

    def factor(spec, v, order=JET_ORDER_MAX, _call=column_factor):
        columns = _call(spec, v, order)
        factors.append(sum(c.nbytes for c in columns))
        return columns

    def chunk(spec, u_rows, v_cols, columns):
        fields = _fields_chunk(spec, u_rows, v_cols, columns)
        evaluated[u_rows.tobytes(), v_cols.tobytes()] = fields
        return fields

    monkeypatch.setattr(geoquad, "column_factor", factor)
    monkeypatch.setattr(geoquad, "_fields_chunk", chunk)
    evaluate_fields(spec, grid, workers=2)
    monkeypatch.undo()
    assert len(factors) == 5 and max(factors) <= 40 * column
    got = grid_fields(spec, grid, lambda spec, u, v: evaluated[u.tobytes(), v.tobytes()],
                      width=40)
    expected = grid_fields(spec, grid)
    for name in NODE_ARRAYS:
        assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name
    for name in INVARIANT_NAMES:
        assert getattr(got.inv, name).tobytes() == getattr(expected.inv, name).tobytes(), name


def _wide_torus():
    # the Clifford torus in R^64 with 1e-20 terms in cos and sin of m u,
    # m <= 64, in every component: C x P x Q = 64 x 129 x 3, a spec the CLI
    # accepts whose column factor takes 330 kB a column
    doc = json.loads(serialize_spec(catalog_entry("clifford")))
    doc["ambient_dim"] = 64
    doc["components"] += [[] for _ in range(60)]
    for terms in doc["components"]:
        terms += [{"coeff": 1e-20, "type": kind, "freq": [m, 0]}
                  for m in range(65) for kind in ("cos", "sin") if (m, kind) != (0, "sin")]
    return parse_spec_dict(doc)


def test_a_wide_basis_evaluates_within_the_column_budget():
    # the wide torus at 8x256 gets 3 segments of at most 101 columns, and
    # evaluate_fields holds one segment's factor (27 MiB) and one small tile
    # at once, where a factor over whole rows would hold 81 MiB
    spec = _wide_torus()
    assert spec.coef.shape == (64, 129, 3) and segment_width(spec) == 101
    grid = build_grid(spec, (8, 256))
    assert len(grid_tiles(grid.resolution, segment_width(spec))) == 8 * 3
    peak = peak_bytes(evaluate_fields, spec, grid)
    assert peak <= geoquad.COLUMN_BYTES + 2 ** 23, f"{peak / 2 ** 20:.1f} MiB"


@pytest.mark.parametrize("resolution,tiles,segments", [
    ((16, 32), 1, 1), ((96, 192), 6, 1), ((8, 4096), 16, 2), ((8, 3 * NODE_CHUNK), 24, 3),
], ids=["16x32", "96x192", "8x4096", "8x9216"])
def test_the_v_basis_is_evaluated_once_per_column_segment(monkeypatch, resolution, tiles,
                                                          segments):
    # the column half of the jets, which the v-basis feeds, is the same for
    # every tile of a column segment: evaluate_fields forms it once per
    # segment, so once per grid whose rows fit a tile, whatever the tiles
    # or the workers, and each tile evaluates its own u-basis
    spec = catalog_entry("calabi4")
    grid = build_grid(spec, resolution)
    assert len(grid_tiles(resolution)) == tiles
    assert len({(cols.start, cols.stop) for _, cols in grid_tiles(resolution)}) == segments
    axes = []

    def basis_seen(chart, exps, x, order, _call=surfaces._basis_derivatives):
        axes.append(("v", x.size) if exps is spec.v_exps else ("u", x.size))
        return _call(chart, exps, x, order)

    monkeypatch.setattr(surfaces, "_basis_derivatives", basis_seen)
    for workers in (1, 2):
        axes.clear()
        evaluate_fields(spec, grid, workers=workers)
        v_sizes = [size for axis, size in axes if axis == "v"]
        assert len(v_sizes) == segments and sum(v_sizes) == resolution[1], workers
        assert len(axes) - len(v_sizes) == tiles, workers


def test_integrate_rejects_nan(monkeypatch):
    # a NaN in a later tile names its global node and (u, v), whichever
    # integrand it is in and whichever thread evaluates the tile
    spec = catalog_entry("clifford")
    grid = build_grid(spec, (8, 8))
    monkeypatch.setattr(geoquad, "NODE_CHUNK", 16)
    tiles = tile_slices(grid)
    assert len(tiles) == 4
    node = 37                                   # row 4, column 5: the third tile
    (rows, _), nodes = tiles[2]
    assert nodes.start <= node < nodes.stop
    u, v = grid.node(node)
    assert (u, v) == (grid.u_axis[4], grid.v_axis[5])
    for field in ("K", "delta_S"):
        def chunk(spec, u_rows, v_cols, columns):
            fields = _fields_chunk(spec, u_rows, v_cols, columns)
            if u_rows[0] == grid.u_axis[rows.start]:
                holder = fields.inv if field in INVARIANT_NAMES else fields
                getattr(holder, field)[node - nodes.start] = np.nan
            return fields

        monkeypatch.setattr(geoquad, "_fields_chunk", chunk)
        for workers in (1, 2):
            with pytest.raises(InvariantViolation) as err:
                evaluate_fields(spec, grid, workers=workers)
            assert f"node {node} (u={u:.6f}, v={v:.6f})" in str(err.value), (field, workers)


@pytest.mark.parametrize("case", ["signed_zeros", "subnormals", "cancelling"])
def test_integrate_equals_fsum_of_the_list(case, monkeypatch):
    # the integral merged from the tiles' partials, each read through a
    # memoryview, rounds to the float of one fsum over the list of every
    # node's product, bit for bit
    grid = build_grid(catalog_entry("calabi3"), (16, 32))
    monkeypatch.setattr(geoquad, "NODE_CHUNK", 100)
    assert len(grid_tiles(grid.resolution)) == 6
    rng = np.random.default_rng(7)
    n = grid.node_count
    values = rng.standard_normal(n)
    if case == "signed_zeros":
        values[:] = 0.0
        values[::3] = -0.0
    elif case == "subnormals":
        values *= 5e-324 * 2 ** rng.integers(0, 40, n)
    else:
        values *= 1e300
        values[1::2] = -values[::2]           # pairs that cancel, up to the weights
        values[7] = 1.0
    area_element = rng.uniform(0.5, 2.0, n)
    summary = summarize(forged_fields(n, K=values, sqrt_det_g=area_element), grid)
    expected = math.fsum((_weights(grid) * area_element * values).tolist())
    got = summary.integral("K")
    assert got == expected and math.copysign(1.0, got) == math.copysign(1.0, expected)


_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300]),
)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(_FLOATS, min_size=1, max_size=60),
       cancel=st.booleans(), cuts=st.lists(st.integers(0, 120), max_size=12))
def test_merged_partials_equal_one_fsum(values, cancel, cuts):
    # tiles of uneven size, 1-node tiles among them, merged in node order as
    # FieldSummary.merge merges them: one fsum over the merged partials is
    # one fsum over every value, bit for bit
    if cancel:
        values = values + [-x for x in reversed(values)]
    bounds = sorted({0, len(values), *(c % (len(values) + 1) for c in cuts)})
    tiles = [values[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    merged = functools.reduce(lambda a, b: _partials(a + b),
                              (_partials(memoryview(np.array(t))) for t in tiles))
    got, expected = math.fsum(merged), math.fsum(values)
    assert got == expected and math.copysign(1.0, got) == math.copysign(1.0, expected)
    # each partial is the rounded remainder of the ones before it, so the
    # partials are 2^53 apart in size at least: the 2098 binary exponents
    # of a double hold 40 of them
    assert len(merged) <= 40


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(st.lists(
    st.one_of(_FLOATS, st.sampled_from([2e307, -2e307, math.nan, math.inf])),
    min_size=n, max_size=n), min_size=1, max_size=6)))
def test_row_partials_are_each_rows_partials(rows):
    # the extraction runs on every row at once, each with its own sigma (2e307
    # needs one scaled by a power of two), and a row that is not all finite
    # gives its fsum alone: each row's partials are its own, bit for bit
    got = _row_partials(np.array(rows))
    assert [[x.hex() for x in r] for r in got] == [[x.hex() for x in fsum_partials(r)]
                                                   for r in rows]


_WIDE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e60, max_value=1e60),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0]),
)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_stacked_reduce_tile_equals_the_per_field_reference(data):
    # one isfinite, min, max and sum over the stacked fields, the integral
    # partials extracted from all integrands at once and the gamma caps
    # found by bisection give the per-field summary bit for bit.  Each node
    # i has rho0 = a_i |K_i| = b_i (u_i - 2) S_i, so the pinch caps flip at
    # gamma = max a_i and the coupled ones at max b_i, partway along each
    # grid; one node sits on a grid gamma exactly
    n_u, n_v = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 16))
    n = n_u * n_v

    def draw(strategy):
        return np.array(data.draw(st.lists(strategy, min_size=n, max_size=n)))

    rho0 = draw(st.floats(0.0, 1.0))
    a, b = draw(st.floats(0.05, 4.5)), draw(st.floats(0.01, 0.75))
    node = data.draw(st.integers(0, n - 1))
    a[node] = PINCH_GAMMAS[data.draw(st.integers(1, 40))]
    b[node] = COUPLED_GAMMAS[data.draw(st.integers(1, 20))]
    S = draw(st.floats(0.5, 3.0))
    values = {name: draw(_WIDE) for name in ("normA2", "rho_perp", "lambda1", "lambda2", "t",
                                             "ddvv_slack", "hopf_re", "hopf_im",
                                             "minimality_residual", "b1_simons",
                                             "b1_cross", "codazzi_residual")}
    values.update({name: draw(_FLOATS) for name in ("b1_direct", "delta_S")})
    fields = forged_fields(n, rho0=rho0, K=-rho0 / a, S=S, u=2.0 + rho0 / (b * S),
                           sqrt_det_g=draw(st.floats(0.1, 10.0)), **values)
    grid = QuadratureGrid(spec_name="forged", chart="torus", resolution=(n_u, n_v),
                          u_axis=np.zeros(n_u), v_axis=np.zeros(n_v),
                          u_weight=draw(st.floats(0.01, 3.0))[:n_u],
                          v_weight=draw(st.floats(0.01, 3.0))[:n_v])
    tile = (slice(0, n_u), slice(0, n_v))
    got = reduce_tile(fields, grid, tile)
    assert _summary_bits(got) == _summary_bits(per_field_summary(fields, grid, tile))


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
    # every node's fields are bitwise the same in any tiling, and so is
    # every part of the summary but the node means, whose per-tile sums
    # follow the tiles
    grid = build_grid(mixed_torus, (16, 16))
    tols = {"b1_cross": 1e-15}                  # flags some nodes
    f1 = grid_fields(mixed_torus, grid)
    s1 = evaluate_fields(mixed_torus, grid, workers=1, tols=tols)
    s3 = evaluate_fields(mixed_torus, grid, workers=3, tols=tols)
    assert _summary_bits(s1) == _summary_bits(s3)
    assert 0 < s1.flagged < grid.node_count
    per_node, summaries = [], []
    # one worker, three chunks of the node budget; then each row cut into
    # two column segments
    for chunk, tiles in ((100, 3), (10, 32)):
        monkeypatch.setattr("minimal_gap_lab.geoquad.NODE_CHUNK", chunk)
        assert len(grid_tiles(grid.resolution)) == tiles
        per_node.append(grid_fields(mixed_torus, grid))
        summaries.append(evaluate_fields(mixed_torus, grid, workers=1, tols=tols))
    for f in per_node:
        for name in INVARIANT_NAMES:
            assert np.array_equal(getattr(f1.inv, name), getattr(f.inv, name)), name
        for name in NODE_ARRAYS:
            assert np.array_equal(getattr(f1, name), getattr(f, name)), name
    base = _summary_bits(s1)
    for s in summaries:
        bits = _summary_bits(s)
        assert bits[:3] == base[:3] and bits[4:] == base[4:]
        for name in s.sums:
            assert s.mean(name) == pytest.approx(s1.mean(name), rel=1e-14, abs=1e-300)


@pytest.mark.parametrize("name", ["equator", "veronese", "calabi3", "calabi4",
                                  "clifford"])
def test_b1_routes_agree_to_rounding(name, bundle):
    # both routes are exact up to rounding, so they agree far below the
    # b1_cross guard of 1e-4
    assert bundle(name).summary.max("b1_cross") <= 1e-9


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_laplacian_of_S_is_rounding_noise_on_the_catalog(name, bundle):
    # S is constant on every catalog surface, so its Laplacian is rounding
    assert bundle(name).summary.abs_max("delta_S") <= 1e-11


def test_quadrature_convergence_on_synthetic_field():
    # a smooth non-polynomial integrand on the veronese chart; halving the
    # mesh must cut the error at least 4x until the floor
    spec = catalog_entry("veronese")

    def integrate_field(resolution):
        grid = build_grid(spec, resolution)
        u, v = grid_nodes(grid)
        area_element = grid_fields(spec, grid).sqrt_det_g
        return math.fsum((_weights(grid) * area_element
                          * np.exp(np.sin(u) * np.cos(v))).tolist())

    ref = integrate_field((96, 192))
    errors = [abs(integrate_field(res) - ref) for res in ((8, 16), (16, 32), (32, 64))]
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
    forged = summarize(forged_fields(
        grid.node_count, S=1.0, normA2=1.0, lambda1=1.0, u=1.0, t=1.0, K=0.5,
        ddvv_slack=1.0), grid)
    with pytest.raises(InvariantViolation) as err:
        integral_report(spec, grid, forged)
    assert "nonnegativity" in str(err.value)
