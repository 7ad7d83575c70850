"""Surface quadrature and the integral identities.

Sphere charts get Gauss-Legendre nodes in cos(theta) tensored with a uniform
phi grid; torus charts get the uniform tensor grid (spectrally accurate for
trigonometric integrands).  Every per-node layer runs on tiles of the grid:
blocks of whole u-rows, which the resolution alone fixes, each evaluated from
its 1-D axes.  Each tile is reduced at once to a fixed-size `FieldSummary`
(extrema, node sums, guard counts, exact integral partials), and no array
over the whole grid is ever built.  The integrals are exactly rounded sums,
so they are bit-identical whatever the tiles, and so are the node sums,
exactly rounded sums of row sums, whatever tiles of whole rows.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, fields as dc_fields, replace
from typing import NamedTuple

import numpy as np

from minimal_gap_lab.errors import DomainError, InvariantViolation, ValidationError
from minimal_gap_lab.gaps import coupled_caps_hold, pinch_caps_hold
from minimal_gap_lab.invariants import (
    B1_CROSS_TOL,
    PointInvariants,
    b1_from_laplacian,
    laplace_beltrami,
    point_invariants,
)
from minimal_gap_lab.surfaces import (
    CODAZZI_TOL,
    JET_ORDER_MAX,
    SPHERE,
    ImmersionSpec,
    column_factor,
    covariant_grad_h,
    eval_jet,
    first_fundamental_form,
    second_norm_field,
    trace_directions,
)

DEFAULT_RESOLUTION = {"sphere": (64, 128), "torus": (64, 64)}
GAP_NONNEG_TOL = 1e-6
# Smaller tiles lower peak RSS but cost CPU; a report depends on them only
# where they cut rows, on grids wider than NODE_CHUNK columns.
# Against 3072 nodes, `verify` of calabi3 and calabi4 at 96x192 (2 vCPUs,
# one thread, 40 alternating rounds) peaks at 35.1 against 37.3 MB RSS for
# 1.1% more CPU.  Below 2048, a 64x64 torus would take more than the two
# tiles that perfbench's tests pin.
NODE_CHUNK = 2048       # nodes per tile at most: bounds the per-tile arrays
COLUMN_BYTES = 2 ** 25  # a segment's column factor at most, unless one column is more
MAX_NODES = 2 ** 20     # grid nodes at most (1024x1024): bounds the work of a run
BESSEL_J0_ZERO = 2.404825557695773     # j_{0,1}, the first zero of J_0
NEWTON_MAX = 16         # Newton steps per Gauss-Legendre solve; 4-5 suffice
NEWTON_STEP_TOL = 1e-15  # a Newton step this small leaves a node exact to rounding

# The accuracy guards: a node is flagged when one of these residuals exceeds
# its tolerance.  `--tol` key -> (SurfaceFields residual, default tolerance).
GUARDS = {"codazzi": ("codazzi_residual", CODAZZI_TOL),
          "b1_cross": ("b1_cross", B1_CROSS_TOL)}


def _legendre(n: int, x: np.ndarray):
    """P_n(x) and P_n'(x) by the three-term recurrence, for |x| < 1."""
    p0, p1 = np.ones_like(x), x
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    return p1, n * (x * p1 - p0) / ((x - 1) * (x + 1))


@functools.lru_cache(maxsize=None)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre nodes (ascending) and weights on [-1, 1],
    as read-only arrays, computed once per n (a run asks for the n of its
    one resolution, for every sphere surface it verifies).

    Newton's method on the Legendre recurrence finds the negative nodes from
    cos(pi (k - 1/4) / (n + 1/2)); the positive ones are their mirror images,
    and 0 is the middle node of an odd n, so the nodes are exactly symmetric.
    The weights are 2 / ((1 - x^2) P_n'(x)^2).  The work runs in long double
    (extended precision on x86), which keeps the weights to an ulp or two
    near the ends, where the recurrence in double loses two digits.  Memory
    is O(n), and no LAPACK routine runs.
    """
    k = np.arange(1, n // 2 + 1, dtype=np.longdouble)
    x = -np.cos(np.pi * (k - 0.25) / (n + 0.5))
    for _ in range(NEWTON_MAX):
        p, dp = _legendre(n, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step), initial=0.0) <= NEWTON_STEP_TOL:
            break
    else:
        raise InvariantViolation(
            f"Gauss-Legendre nodes for n = {n} did not converge in "
            f"{NEWTON_MAX} Newton steps")
    if n % 2:
        x = np.append(x, 0.0)
    w = 2 / ((1 - x) * (1 + x) * _legendre(n, x)[1] ** 2)
    x, w = x.astype(float), w.astype(float)
    nodes = np.concatenate([x, -x[: n // 2][::-1]])
    weights = np.concatenate([w, w[: n // 2][::-1]])
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@dataclass
class QuadratureGrid:
    """Tensor-product nodes with chart-measure weights.

    Node i * n_v + j sits at (u_axis[i], v_axis[j]) with the chart weight
    u_weight[i] * v_weight[j]; each tile takes its area element from its
    own jet, so the grid keeps no per-node array.
    """

    spec_name: str
    chart: str
    resolution: tuple            # (n_u, n_v)
    u_axis: np.ndarray           # (n_u,)
    v_axis: np.ndarray           # (n_v,)
    u_weight: np.ndarray         # (n_u,)
    v_weight: np.ndarray         # (n_v,)

    @property
    def node_count(self) -> int:
        return self.resolution[0] * self.resolution[1]

    def node(self, index: int) -> tuple[float, float]:
        """(u, v) of the node with row-major index `index`."""
        row, col = divmod(index, self.resolution[1])
        return float(self.u_axis[row]), float(self.v_axis[col])


def build_grid(spec: ImmersionSpec, resolution=None) -> QuadratureGrid:
    """Quadrature nodes and weights for one surface, as 1-D axes."""
    if resolution is None:
        resolution = DEFAULT_RESOLUTION[spec.chart]
    n_u, n_v = resolution
    if n_u < 8 or n_v < 8:
        raise DomainError(f"--resolution {n_u}x{n_v}: at least 8 nodes per axis")
    if n_u * n_v > MAX_NODES:
        raise DomainError(f"--resolution {n_u}x{n_v} has {n_u * n_v} nodes, above "
                          f"the limit {MAX_NODES}")

    def too_polar(angle):
        return DomainError(
            f"{spec.name}: --resolution {n_u}x{n_v} puts Gauss-Legendre "
            f"nodes within {spec.pole_margin:g} of a chart pole (polar "
            f"angle {angle}); use fewer polar nodes")

    if spec.chart == SPHERE:
        # the first node has theta_1 < j_{0,1} / (n_u + 1/2) (Szego,
        # Orthogonal Polynomials, sec. 6.3), within ~1e-8 relative near the
        # limit: refuse from it before the nodes are computed
        theta_bound = BESSEL_J0_ZERO / (n_u + 0.5)
        if theta_bound < spec.pole_margin:
            raise too_polar(f"below {theta_bound:.3g}")
        x, w = gauss_legendre(n_u)
        theta = np.arccos(x[::-1])             # ascending theta, never at a pole
        if theta[0] < spec.pole_margin or theta[-1] > math.pi - spec.pole_margin:
            raise too_polar(f"{theta[0]:.3g}")
        w_theta = w[::-1] / np.sin(theta)      # d(theta) weight for f*sqrt(g)
    else:
        theta = np.arange(n_u) * (2.0 * math.pi / n_u)
        w_theta = np.full(n_u, 2.0 * math.pi / n_u)
    return QuadratureGrid(
        spec_name=spec.name, chart=spec.chart, resolution=(n_u, n_v),
        u_axis=theta, v_axis=np.arange(n_v) * (2.0 * math.pi / n_v),
        u_weight=w_theta, v_weight=np.full(n_v, 2.0 * math.pi / n_v))


# ---------------------------------------------------------------------------
# per-node field evaluation
# ---------------------------------------------------------------------------

@dataclass
class SurfaceFields:
    """All pointwise fields on one tile, its nodes in row-major order."""

    inv: PointInvariants
    b1_simons: np.ndarray
    b1_direct: np.ndarray
    b1_cross: np.ndarray
    delta_S: np.ndarray
    codazzi_residual: np.ndarray
    sqrt_det_g: np.ndarray        # the area element


def _fields_chunk(spec: ImmersionSpec, u_rows: np.ndarray, v_cols: np.ndarray,
                  columns: tuple | None = None) -> SurfaceFields:
    """The fields on the tile u_rows x v_cols, its nodes in row-major order;
    `columns` is the tile's part of its grid's `column_factor`, formed here
    when not passed."""
    # the tile's jet is its row factor and the grid's column factor, and no
    # derivative outlives the call that reads it.  Each route lifts its
    # series in one pass, which forms each derivative once and frees it
    # after its last write (`Taylor.lift`): the Simons route, inside
    # second_norm_field, the trace series of the Hessian slots and the part
    # of X's it cannot form from them, the frame route, inside
    # covariant_grad_h, the chart series of X and of the slots.  Every array
    # is freed at its last read; of grad h only the fields below outlive it.
    tile = eval_jet(spec, (u_rows[:, None], v_cols[None, :]), JET_ORDER_MAX, columns)
    jet = replace(tile, u=tile.u.ravel(), v=tile.v.ravel())
    del tile
    E, F, G = metric = first_fundamental_form(jet)
    directions = trace_directions(metric)
    sqrt_det_g = np.sqrt(E * G - F * F)
    del E, F, G, metric
    S, gamma = second_norm_field(jet, directions)
    laplacian_S = laplace_beltrami(S, gamma, directions)
    del S, gamma, directions
    grad = covariant_grad_h(jet)
    b1_direct, codazzi_residual, shape = grad.b1_direct, grad.codazzi_residual, grad.shape
    del grad
    inv = point_invariants(shape)
    simons = b1_from_laplacian(laplacian_S, inv)
    return SurfaceFields(
        inv=inv,
        b1_simons=simons.b1,
        b1_direct=b1_direct,
        b1_cross=np.abs(simons.b1 - b1_direct),
        delta_S=simons.laplacian_S,
        codazzi_residual=codazzi_residual,
        sqrt_det_g=sqrt_det_g,
    )


# ---------------------------------------------------------------------------
# the per-tile reduction
# ---------------------------------------------------------------------------

# the fields the report summarizes, in report order
INVARIANT_NAMES = tuple(f.name for f in dc_fields(PointInvariants))
FIELD_NAMES = ("b1_simons", "b1_direct", "b1_cross", "delta_S", "codazzi_residual")
# the fields with extrema: the reported ones, and lambda1 - lambda2
_EXTREMA = {name: i for i, name in
            enumerate(INVARIANT_NAMES + FIELD_NAMES + ("lambda_gap",))}


def _integrands(f: SurfaceFields) -> dict:
    """Integrand name -> its per-node values; `integral_report` reads each
    one's integral from `FieldSummary.integral`."""
    inv = f.inv
    S = inv.S
    s2l2 = (S - 2.0 * inv.lambda2) ** 2
    return {
        "area": np.ones_like(S),
        "K": inv.K,
        "S": S,
        "delta_S": f.delta_S,
        "gap1": S * (3.0 * S - 4.0) - s2l2,              # S(3S-4) - (S-2 l2)^2
        "b1_direct": f.b1_direct,
        "gap2_form1": S * (3.0 * S - 4.0) * (3.0 * S - 5.0) + 0.5 * (16.0 - 9.0 * S) * s2l2,
        "gap2_form2": 0.5 * S * (S - 2.0) * (9.0 * S - 20.0)
        + 2.0 * inv.rho_perp ** 2 * (9.0 * S - 16.0),
        "rho_perp2": inv.rho_perp ** 2,
        "u": inv.u,
    }


def _partials(values) -> list[float]:
    """Floats whose exact sum is the exact sum of `values` (an iterable of
    floats): s_k = fsum(values, -s_0, ..., -s_(k-1)) until one is 0, each
    the rounded remainder of the ones before it.  Values that are not all
    finite give their fsum alone.  One `math.fsum` over the partials of
    several sets rounds to the same float as one `fsum` over all their
    values (Shewchuk, DCG 1997), and so do the partials of those partials,
    which is how tile summaries merge."""
    parts = []
    while True:
        total = math.fsum(itertools.chain(values, [-s for s in parts]))
        if total == 0.0 or not math.isfinite(total):
            return parts or [total]
        parts.append(total)


def _row_partials(p: np.ndarray) -> list[list[float]]:
    """`_partials` of each row of the 2-D array `p`, which is overwritten.

    Each row is first reduced, exactly, to a few sums by error-free
    extraction (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31, 2008), and
    `_partials` runs over those.  With sigma = 2^k >= (n + 2) max |p| for
    the n terms p of a row, q = (sigma + p) - sigma rounds each term to a
    multiple of 2^(k - 53), so sum(q) is exact in any order, and so is
    p - q; the sums are extracted from p - q until it is all zero.  Where
    sigma would pass 2^1020, q is extracted from the terms scaled by an
    exact power of two.  The extraction runs on every row at once, each
    row with its own sigma; a row that is already all zero extracts zeros
    and keeps its zeros.
    """
    width = math.ceil(math.log2(p.shape[1] + 2))
    top = np.max(np.abs(p), axis=1, initial=0.0)
    finite = np.isfinite(top)
    done = [None if ok else _partials(row.tolist()) for ok, row in zip(finite, p)]
    p[~finite] = 0.0
    top[~finite] = 0.0
    sums = [[] for _ in done]
    while np.any(top):
        k = np.frexp(top)[1] + width             # top < 2^(k - width)
        shift = np.maximum(0, k - 1020)
        sigma = np.ldexp(1.0, k - shift)[:, None]
        q = p * np.ldexp(1.0, -shift)[:, None]
        q += sigma
        q -= sigma
        for row, total in zip(np.flatnonzero(top), np.sum(q[top > 0.0], axis=1)):
            sums[row].append(math.ldexp(float(total), int(shift[row])))
        q *= np.ldexp(1.0, shift)[:, None]
        p -= q
        top = np.max(np.abs(p), axis=1, initial=0.0)
    for row, row_sums in enumerate(sums):
        if done[row] is None:
            # a zero sum keeps the sign fsum gives it: that of the zeros left
            done[row] = _partials(row_sums or [-0.0 if p.shape[1] and np.all(np.signbit(p[row]))
                                               else 0.0])
    return done


class Guard(NamedTuple):
    """One guard's tally: flagged nodes, its largest residual and the first
    node with it."""

    count: int
    worst: float
    node: int

    def merge(self, other: "Guard") -> "Guard":
        """The tally of both sets of nodes, in either order: the worst node
        is the one np.argmax would pick over all of them, the earliest of a
        tie, and a NaN above any number."""
        first, last = sorted((self, other), key=lambda g: g.node)
        worse = last.worst > first.worst or (math.isnan(last.worst)
                                             and not math.isnan(first.worst))
        worst = last if worse else first
        return Guard(self.count + other.count, worst.worst, worst.node)


@dataclass
class FieldSummary:
    """The fields of a grid, or of some of its tiles, reduced to a fixed size.

    `low`/`high` hold the extrema of each `_EXTREMA` field, `sums` the exact
    partials of each reported field's per-row `np.sum` (for its node mean),
    `integrals` the exact partials of sum w sqrt(det g) f of each
    `_integrands` entry.  `pinch` and `coupled` say, for each gamma of
    `gaps.PINCH_GAMMAS` and `gaps.COUPLED_GAMMAS`, whether its rho_perp cap
    holds at every node.  Every part merges exactly and in any order, so a
    grid's summary is the same whatever tiles of whole rows cut it; only an
    extremum of 0 may take either sign, as np.minimum and np.min keep
    either zero of a tie.
    """

    nodes: int
    low: np.ndarray
    high: np.ndarray
    sums: dict
    integrals: dict
    flagged: int                  # nodes that any guard flags
    guards: dict                  # `GUARDS` key -> Guard
    pinch: np.ndarray
    coupled: np.ndarray

    def min(self, name: str) -> float:
        return float(self.low[_EXTREMA[name]])

    def max(self, name: str) -> float:
        return float(self.high[_EXTREMA[name]])

    def abs_max(self, name: str) -> float:
        """max |field|, which one of the extrema attains."""
        return max(abs(self.min(name)), abs(self.max(name)))

    def mean(self, name: str) -> float:
        return math.fsum(self.sums[name]) / self.nodes

    def stats(self, name: str) -> dict:
        return {"min": self.min(name), "max": self.max(name), "mean": self.mean(name)}

    def integral(self, name: str) -> float:
        return math.fsum(self.integrals[name])

    @property
    def flagged_fraction(self) -> float:
        return self.flagged / self.nodes

    def merge(self, other: "FieldSummary") -> "FieldSummary":
        """The summary of these nodes and `other`'s, in either order."""
        return FieldSummary(
            nodes=self.nodes + other.nodes,
            # np.minimum/np.maximum keep a NaN, as np.min/np.max do
            low=np.minimum(self.low, other.low),
            high=np.maximum(self.high, other.high),
            sums={k: _partials(v + other.sums[k]) for k, v in self.sums.items()},
            integrals={k: _partials(v + other.integrals[k])
                       for k, v in self.integrals.items()},
            flagged=self.flagged + other.flagged,
            guards={k: g.merge(other.guards[k]) for k, g in self.guards.items()},
            pinch=self.pinch & other.pinch,
            coupled=self.coupled & other.coupled,
        )


def reduce_tile(fields: SurfaceFields, grid: QuadratureGrid, tile,
                tols: dict | None = None) -> FieldSummary:
    """The summary of one tile's fields; `tile` is its (rows, cols) slices
    of `grid`, and `tols` maps `GUARDS` keys to tolerances (a missing key
    takes the default).  A node sum is kept as the exact partials of the
    tile's row sums, so it is the same whatever rows share its tile.  An
    integrand that is not finite raises, naming the node."""
    rows, cols = tile
    start = rows.start * grid.resolution[1] + cols.start
    integrands = _integrands(fields)
    values = np.stack(list(integrands.values()))
    bad = ~np.isfinite(values)
    if np.any(bad):
        # the first node of the first integrand that is not finite
        node = start + int(np.argmax(bad[np.argmax(np.any(bad, axis=1))]))
        u, v = grid.node(node)
        raise InvariantViolation(
            f"field evaluation failed at node {node} (u={u:.6f}, v={v:.6f})")
    inv = fields.inv
    # the reported fields, then lambda1 - lambda2: the rows of `_EXTREMA`
    extrema = np.stack([getattr(inv, name) for name in INVARIANT_NAMES]
                       + [getattr(fields, name) for name in FIELD_NAMES]
                       + [inv.lambda1 - inv.lambda2])
    reported = INVARIANT_NAMES + FIELD_NAMES
    n_rows = rows.stop - rows.start
    row_sums = np.sum(extrema[:len(reported)].reshape(len(reported), n_rows, -1), axis=-1)
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
    return FieldSummary(
        nodes=weight.size,
        low=np.min(extrema, axis=1),
        high=np.max(extrema, axis=1),
        sums=dict(zip(reported, map(_partials, row_sums.tolist()))),
        integrals=dict(zip(integrands, _row_partials(values * weight))),
        flagged=int(flagged.sum()),
        guards=guards,
        pinch=pinch_caps_hold(inv),
        coupled=coupled_caps_hold(inv),
    )


def _even_split(n: int, parts: int) -> list[slice]:
    bounds = [n * k // parts for k in range(parts + 1)]
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def grid_tiles(resolution, width: int | None = None) -> list[tuple[slice, slice]]:
    """The tiles of an (n_u, n_v) grid as (rows, cols) slices, in node order.

    A tile is a block of whole u-rows, or one row cut into even column
    segments of at most `width` columns (by default `NODE_CHUNK`) when a row
    alone is wider; either way it has at most `NODE_CHUNK` nodes.  The
    resolution and the width alone fix the tiles, so each node is computed
    in the same tile in every run.
    """
    n_u, n_v = resolution
    width = min(NODE_CHUNK, width or NODE_CHUNK)
    if n_v <= width:
        rows_per_tile = NODE_CHUNK // n_v
        return [(rows, slice(0, n_v))
                for rows in _even_split(n_u, math.ceil(n_u / rows_per_tile))]
    segments = _even_split(n_v, math.ceil(n_v / width))
    return [(slice(i, i + 1), cols) for i in range(n_u) for cols in segments]


def segment_width(spec: ImmersionSpec) -> int:
    """The widest column segment of `spec`'s tiles: its column factor
    (`surfaces.column_factor`), C x P x columns x (JET_ORDER_MAX + 1)
    doubles, stays within `COLUMN_BYTES`, or is one column when one column
    is more.  Every catalog surface has NODE_CHUNK; only a spec with a wide
    u-basis in many components gets narrower segments."""
    n_comp, n_u, _ = spec.coef.shape
    column = n_comp * n_u * (JET_ORDER_MAX + 1) * 8
    return max(1, min(NODE_CHUNK, COLUMN_BYTES // column))


def evaluate_fields(spec: ImmersionSpec, grid: QuadratureGrid,
                    tols: dict | None = None) -> FieldSummary:
    """The summary of every pointwise field on the grid, its guards at the
    tolerances `tols` (see `reduce_tile`).

    The grid is evaluated tile by tile (`grid_tiles`), in the calling
    thread, which bounds the memory of one tile whatever the grid.  Each
    tile is reduced as soon as it is evaluated, and its summary is merged
    at once into the summary of the tiles before it, so no more than two
    summaries are alive whatever the tile count.

    The tiles of one column segment, which are all the tiles when a tile is
    whole rows, share the column half of their jets
    (`surfaces.column_factor`): it is formed once per segment, before that
    segment's tiles run, and one segment's at a time.  The segments are
    `segment_width(spec)` columns at most, so that factor stays within
    `COLUMN_BYTES` whatever the spec and the grid.
    """
    segments = {}
    for rows, cols in grid_tiles(grid.resolution, segment_width(spec)):
        segments.setdefault((cols.start, cols.stop), []).append(rows)
    summary = None
    for (start, stop), row_blocks in segments.items():
        cols = slice(start, stop)
        columns = column_factor(spec, grid.v_axis[cols], JET_ORDER_MAX)
        for rows in row_blocks:
            part = reduce_tile(
                _fields_chunk(spec, grid.u_axis[rows], grid.v_axis[cols], columns),
                grid, (rows, cols), tols)
            # FieldSummary.merge takes its parts in any order, and the
            # segments run one after another, not in node order
            summary = part if summary is None else summary.merge(part)
        del columns
    return summary


# ---------------------------------------------------------------------------
# the integral report
# ---------------------------------------------------------------------------

@dataclass
class IntegralReport:
    surface: str
    resolution: tuple
    area: float
    int_K: float
    gauss_bonnet_residual: float   # int K - 2 pi euler_char
    int_S: float
    int_delta_S: float
    gap1_lhs: float                # int [S(3S-4) - (S - 2 lambda2)^2]
    gap1_rhs: float                # 2 int B1 (direct route)
    gap1_residual_rel: float
    gap2_form1: float              # int [S(3S-4)(3S-5) + (16-9S)(S-2l2)^2/2]
    gap2_form2: float              # int [S/2 (S-2)(9S-20) + 2 rho_perp^2 (9S-16)]
    gap2_residual_rel: float
    bound_445: float               # 1 + sqrt(1 + int(rho_perp^2)/area)
    mean_u: float
    max_u: float
    min_u: float
    min_rho_perp: float
    max_rho_perp: float
    flagged_fraction: float


def integral_report(spec: ImmersionSpec, grid: QuadratureGrid, summary: FieldSummary,
                    nonneg_tol: float = GAP_NONNEG_TOL) -> IntegralReport:
    area = summary.integral("area")
    int_K = summary.integral("K")
    gap1_lhs = summary.integral("gap1")
    gap1_rhs = 2.0 * summary.integral("b1_direct")
    gap1_rel = abs(gap1_lhs - gap1_rhs) / max(abs(gap1_lhs), abs(gap1_rhs), area)
    gap2_form1 = summary.integral("gap2_form1")
    gap2_form2 = summary.integral("gap2_form2")
    gap2_rel = abs(gap2_form1 - gap2_form2) / max(abs(gap2_form1),
                                                  abs(gap2_form2), area)

    for label, value in (("first", gap1_lhs), ("second", gap2_form1)):
        if value / area < -nonneg_tol:
            raise InvariantViolation(
                f"{spec.name}: the {label} gap integrand integrated to "
                f"{value:.6e} (area-normalized {value / area:.3e}), but "
                "nonnegativity is a theorem for closed minimal surfaces")

    # Gauss-Bonnet: int K = 2 pi chi.  A declared chi it contradicts is a bad
    # input, and `certify` would build its bounds from it (NaN fails too).
    chi = int_K / (2.0 * math.pi)
    if not abs(chi - spec.euler_char) < 0.5:
        raise ValidationError(
            f"euler_char: {spec.name} declares {spec.euler_char}, but "
            f"Gauss-Bonnet gives int K / 2 pi = {chi:.6g}")

    return IntegralReport(
        surface=spec.name,
        resolution=grid.resolution,
        area=area,
        int_K=int_K,
        gauss_bonnet_residual=int_K - 2.0 * math.pi * spec.euler_char,
        int_S=summary.integral("S"),
        int_delta_S=summary.integral("delta_S"),
        gap1_lhs=gap1_lhs,
        gap1_rhs=gap1_rhs,
        gap1_residual_rel=gap1_rel,
        gap2_form1=gap2_form1,
        gap2_form2=gap2_form2,
        gap2_residual_rel=gap2_rel,
        bound_445=1.0 + math.sqrt(1.0 + summary.integral("rho_perp2") / area),
        mean_u=summary.integral("u") / area,
        max_u=summary.max("u"),
        min_u=summary.min("u"),
        min_rho_perp=summary.min("rho_perp"),
        max_rho_perp=summary.max("rho_perp"),
        flagged_fraction=summary.flagged_fraction,
    )
