"""Per-node fields of a whole grid, for tests that read them node by node,
and the `tracemalloc` peak of a call and of each stage of a tile.

`geoquad.evaluate_fields` reduces each tile as soon as it is evaluated and
keeps no per-node array.  These helpers concatenate `_fields_chunk` over
`grid_tiles`, forge per-node fields, and fold `reduce_tile` over the tiles
of forged fields, so a test can compare a summary with a per-node
recomputation; `per_field_summary` is `reduce_tile` written one field and
one gamma at a time.
"""

import contextlib
import functools
import math
import tracemalloc
from dataclasses import fields as dc_fields
from unittest import mock

import numpy as np

from minimal_gap_lab import geoquad, surfaces
from minimal_gap_lab.gaps import CAP_REL_TOL, COUPLED_GAMMAS, PINCH_GAMMAS
from minimal_gap_lab.geoquad import (
    FIELD_NAMES,
    GUARDS,
    FieldSummary,
    Guard,
    SurfaceFields,
    _fields_chunk,
    _integrands,
    grid_tiles,
    reduce_tile,
)
from minimal_gap_lab.invariants import PointInvariants
from minimal_gap_lab.surfaces import column_factor

INVARIANT_NAMES = [f.name for f in dc_fields(PointInvariants)]
NODE_ARRAYS = [f.name for f in dc_fields(SurfaceFields) if f.name != "inv"]


def _rebuild(parts, combine) -> SurfaceFields:
    """One SurfaceFields whose every array is `combine` of the parts' arrays."""
    inv = PointInvariants(**{name: combine([getattr(p.inv, name) for p in parts])
                             for name in INVARIANT_NAMES})
    return SurfaceFields(inv=inv, **{name: combine([getattr(p, name) for p in parts])
                                     for name in NODE_ARRAYS})


def take(fields: SurfaceFields, nodes) -> SurfaceFields:
    """The fields at the given nodes (an index array or a slice)."""
    return _rebuild([fields], lambda arrays: arrays[0][nodes])


def peak_bytes(fn, *args) -> int:
    """The `tracemalloc` peak of fn(*args): the most it held at once beyond
    what was allocated before the call.  Call fn once untraced first, so
    that lazy module loading and caches are not counted."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# the stages of `_fields_chunk`: the tile's jet and metric, the Simons
# route (S's trace series, their projection and the Laplacian of S), the
# frame route (the chart series, the frame, h and grad h), and the pointwise
# invariants and B1.  Each is begun by the first call of a function under
# the name its owner binds it by, once the stage before it has begun, or by
# that function's return when the edge is "return".
STAGE_MARKERS = (("jet", geoquad, "eval_jet", "call"),
                 ("simons", geoquad, "trace_directions", "call"),
                 ("frame", geoquad, "covariant_grad_h", "call"),
                 ("invariants", geoquad, "point_invariants", "call"))
# the same, with each route cut into its sub-stages
SUBSTAGE_MARKERS = (
    ("jet", geoquad, "eval_jet", "call"),
    ("simons.lift", geoquad, "trace_directions", "call"),
    ("simons.ginv", surfaces, "_product_by_coefficient", "call"),
    ("simons.projection", surfaces, "_symmetric_view", "call"),
    ("simons.assembly", surfaces, "_dot", "call"),
    ("simons.laplacian", geoquad, "laplace_beltrami", "call"),
    ("frame.lift", geoquad, "covariant_grad_h", "call"),
    ("frame.frame", surfaces, "adapted_frame", "call"),
    ("frame.connection", surfaces, "_tangent_connection", "call"),
    ("frame.h", surfaces, "_h_series", "call"),
    ("frame.grad_h", surfaces, "_h_series", "return"),
    ("invariants", geoquad, "point_invariants", "call"),
)


def stage_peaks(spec, u, v, markers=STAGE_MARKERS) -> dict:
    """Stage name (`markers`) -> the `tracemalloc` peak of that stage of
    one `_fields_chunk` call on the tile u x v, in bytes per node: the most
    the call held at once from its stage's beginning to the next stage's,
    arrays left by earlier stages included, so the tile's peak is the
    largest of them.  The tile reads its `column_factor`, formed before the
    trace as `evaluate_fields` forms it before the tiles run, and is
    evaluated once untraced first."""
    columns = column_factor(spec, v)
    _fields_chunk(spec, u, v, columns)
    peaks = {}
    pending = list(markers)

    def begin(owner, name, edge):
        if pending and pending[0][1:] == (owner, name, edge):
            if peaks:
                peaks[next(reversed(peaks))] = \
                    tracemalloc.get_traced_memory()[1] / (u.size * v.size)
            tracemalloc.reset_peak()
            peaks[pending.pop(0)[0]] = None

    def marked(owner, name, call):
        def run(*args, **kwargs):
            begin(owner, name, "call")
            result = call(*args, **kwargs)
            begin(owner, name, "return")
            return result
        return run

    with contextlib.ExitStack() as stack:
        for owner, name in dict.fromkeys((owner, name) for _, owner, name, _ in markers):
            stack.enter_context(mock.patch.object(
                owner, name, marked(owner, name, getattr(owner, name))))
        tracemalloc.start()
        try:
            _fields_chunk(spec, u, v, columns)
            peaks[next(reversed(peaks))] = \
                tracemalloc.get_traced_memory()[1] / (u.size * v.size)
        finally:
            tracemalloc.stop()
    return peaks


def tile_slices(grid):
    """(tile, node slice) of each tile of the grid, in node order."""
    n_v = grid.resolution[1]
    out = []
    for rows, cols in grid_tiles(grid.resolution):
        start = rows.start * n_v + cols.start
        size = (rows.stop - rows.start) * (cols.stop - cols.start)
        out.append(((rows, cols), slice(start, start + size)))
    return out


def grid_nodes(grid):
    """The (u, v) of every node, flattened row-major."""
    n_u, n_v = grid.resolution
    return np.repeat(grid.u_axis, n_v), np.tile(grid.v_axis, n_u)


def grid_fields(spec, grid, chunk=_fields_chunk, width=None) -> SurfaceFields:
    """The fields at every node of the grid: `chunk` (by default
    `_fields_chunk`) of each of its `grid_tiles` at `width`, concatenated
    in node order."""
    tiles = [chunk(spec, grid.u_axis[rows], grid.v_axis[cols])
             for rows, cols in grid_tiles(grid.resolution, width)]
    return _rebuild(tiles, np.concatenate)


def forged_fields(n: int, **values) -> SurfaceFields:
    """Per-node fields on n nodes: each one named in `values` (a scalar or an
    array), every other invariant and residual 0, the area element 1."""
    def field(name, default):
        return np.broadcast_to(np.asarray(values.pop(name, default), float), (n,)).copy()

    inv = PointInvariants(**{name: field(name, 0.0) for name in INVARIANT_NAMES})
    arrays = {name: field(name, 1.0 if name == "sqrt_det_g" else 0.0)
              for name in NODE_ARRAYS}
    assert not values, f"unknown fields {sorted(values)}"
    return SurfaceFields(inv=inv, **arrays)


def summarize(fields: SurfaceFields, grid, tols=None) -> FieldSummary:
    """`reduce_tile` of each tile's part of per-node `fields`, merged in node
    order, as `evaluate_fields` merges its tiles."""
    parts = [reduce_tile(take(fields, nodes), grid, tile, tols)
             for tile, nodes in tile_slices(grid)]
    return functools.reduce(FieldSummary.merge, parts)


def fsum_partials(values) -> list[float]:
    """What `geoquad._partials` computes, by its definition: s_k =
    fsum(values, -s_0, ..., -s_(k-1)) until one is 0, or the fsum alone of
    values that are not all finite."""
    values = [float(x) for x in values]
    if not all(math.isfinite(x) for x in values):
        return [math.fsum(values)]
    parts = []
    while True:
        total = math.fsum(values + [-s for s in parts])
        if total == 0.0:
            return parts or [total]
        parts.append(total)


def per_field_summary(fields: SurfaceFields, grid, tile, tols=None) -> FieldSummary:
    """`reduce_tile` one field at a time: each extremum and node sum its own
    numpy call, each integral by `fsum_partials`, and each gamma cap tested
    at every node."""
    rows, cols = tile
    start = rows.start * grid.resolution[1] + cols.start
    inv = fields.inv
    reported = [getattr(inv, name) for name in INVARIANT_NAMES] + \
        [getattr(fields, name) for name in FIELD_NAMES]
    extrema = reported + [inv.lambda1 - inv.lambda2]
    weight = np.outer(grid.u_weight[rows], grid.v_weight[cols]).ravel() * fields.sqrt_det_g
    tols = tols or {}
    flagged = np.zeros(weight.shape, dtype=bool)
    guards = {}
    for key, (name, default) in GUARDS.items():
        residual = getattr(fields, name)
        over = residual > tols.get(key, default)
        flagged |= over
        i = int(np.argmax(residual))
        guards[key] = Guard(int(over.sum()), float(residual[i]), start + i)
    tol = CAP_REL_TOL * np.maximum(1.0, inv.S ** 2)
    coupled_scale = np.maximum(inv.u - 2.0, 0.0) * inv.S
    return FieldSummary(
        nodes=weight.size,
        low=np.array([np.min(x) for x in extrema]),
        high=np.array([np.max(x) for x in extrema]),
        sums={name: [float(np.sum(x))]
              for name, x in zip(INVARIANT_NAMES + list(FIELD_NAMES), reported)},
        integrals={name: fsum_partials(weight * values)
                   for name, values in _integrands(fields).items()},
        flagged=int(flagged.sum()),
        guards=guards,
        pinch=np.array([bool(np.all(inv.rho0 <= gamma * np.abs(inv.K) + tol))
                        for gamma in PINCH_GAMMAS]),
        coupled=np.array([bool(np.all(inv.rho0 <= gamma * coupled_scale + tol))
                          for gamma in COUPLED_GAMMAS]),
    )
