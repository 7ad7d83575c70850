"""Per-node fields of a whole grid, for tests that read them node by node,
and the `tracemalloc` peak of a call.

`geoquad.evaluate_fields` reduces each tile as soon as it is evaluated and
keeps no per-node array.  These helpers concatenate `_fields_chunk` over
`grid_tiles`, forge per-node fields, and fold `reduce_tile` over the tiles
of forged fields, so a test can compare a summary with a per-node
recomputation.
"""

import functools
import tracemalloc
from dataclasses import fields as dc_fields

import numpy as np

from minimal_gap_lab.geoquad import (
    FieldSummary,
    SurfaceFields,
    _fields_chunk,
    grid_tiles,
    reduce_tile,
)
from minimal_gap_lab.invariants import PointInvariants

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


def grid_fields(spec, grid, chunk=_fields_chunk) -> SurfaceFields:
    """The fields at every node of the grid: `chunk` (by default
    `_fields_chunk`) of each tile, concatenated in node order."""
    tiles = [chunk(spec, grid.u_axis[rows], grid.v_axis[cols])
             for rows, cols in grid_tiles(grid.resolution)]
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
