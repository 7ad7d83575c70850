"""Surface quadrature and the integral identities.

Sphere charts get Gauss-Legendre nodes in cos(theta) tensored with a uniform
phi grid; torus charts get the uniform tensor grid (spectrally accurate for
trigonometric integrands).  Every per-node layer runs on tiles of the grid:
blocks of whole u-rows, which the resolution alone fixes, each evaluated from
its 1-D axes.  The reduction is an exactly-rounded fixed-order sum, so
integrals are bit-identical whatever the worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields as dc_fields

import numpy as np

# The package loads its submodules lazily, and on Python 3.11 a lazy module
# is not thread-safe while it loads.  These `from ... import` lines load
# every module that the `evaluate_fields` pool threads reach (`surfaces`,
# `invariants`, `harmonics`, `errors`) here, in the importing thread, before
# any pool starts.  Keep them as name imports.
from minimal_gap_lab.errors import DomainError, InvariantViolation, ValidationError
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
    Jet,
    adapted_frame,
    covariant_grad_h,
    eval_jet,
    first_fundamental_form,
    second_norm_field,
)

DEFAULT_RESOLUTION = {"sphere": (64, 128), "torus": (64, 64)}
GAP_NONNEG_TOL = 1e-6
NODE_CHUNK = 3072       # nodes per tile at most: bounds the per-tile arrays
MAX_NODES = 2 ** 20     # grid nodes at most (1024x1024): bounds the grid arrays
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


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre nodes (ascending) and weights on [-1, 1].

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
    return (np.concatenate([x, -x[: n // 2][::-1]]),
            np.concatenate([w, w[: n // 2][::-1]]))


@dataclass
class QuadratureGrid:
    """Tensor-product nodes with chart-measure weights.

    `u_axis` and `v_axis` are the 1-D axes; every per-node array is
    flattened row-major, so node i * n_v + j sits at (u_axis[i], v_axis[j]).
    """

    spec_name: str
    chart: str
    resolution: tuple            # (n_u, n_v)
    u_axis: np.ndarray           # (n_u,)
    v_axis: np.ndarray           # (n_v,)
    u: np.ndarray                # (n,)
    v: np.ndarray
    weight: np.ndarray           # chart weight; area element kept separately
    sqrt_det_g: np.ndarray

    @property
    def node_count(self) -> int:
        return self.u.size


def build_grid(spec: ImmersionSpec, resolution=None) -> QuadratureGrid:
    """Quadrature nodes, weights, and cached area elements for one surface."""
    if resolution is None:
        resolution = DEFAULT_RESOLUTION[spec.chart]
    n_u, n_v = resolution
    if n_u < 8 or n_v < 8:
        raise DomainError("resolution must be at least 8 nodes per axis")
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
        phi = np.arange(n_v) * (2.0 * math.pi / n_v)
        w_phi = np.full(n_v, 2.0 * math.pi / n_v)
    else:
        theta = np.arange(n_u) * (2.0 * math.pi / n_u)
        w_theta = np.full(n_u, 2.0 * math.pi / n_u)
        phi = np.arange(n_v) * (2.0 * math.pi / n_v)
        w_phi = np.full(n_v, 2.0 * math.pi / n_v)

    sqrt_det_g = np.empty((n_u, n_v))
    for rows, cols in grid_tiles((n_u, n_v)):
        E, F, G = first_fundamental_form(
            eval_jet(spec, (theta[rows, None], phi[None, cols]), order=1))
        sqrt_det_g[rows, cols] = np.sqrt(E * G - F * F)
    return QuadratureGrid(
        spec_name=spec.name, chart=spec.chart, resolution=(n_u, n_v),
        u_axis=theta, v_axis=phi, u=np.repeat(theta, n_v), v=np.tile(phi, n_u),
        weight=np.outer(w_theta, w_phi).ravel(), sqrt_det_g=sqrt_det_g.ravel())


def integrate(values, grid: QuadratureGrid) -> float:
    """Sum w * sqrt(det g) * f with an exactly-rounded fixed-order reduction."""
    values = np.asarray(values, dtype=float)
    if values.shape != grid.u.shape:
        raise ValueError("field values do not match the grid nodes")
    bad = ~np.isfinite(values)
    if np.any(bad):
        node = int(np.argmax(bad))
        raise InvariantViolation(
            f"field evaluation failed at node {node} "
            f"(u={grid.u[node]:.6f}, v={grid.v[node]:.6f})")
    # a memoryview hands fsum the floats one by one, with no list of them
    return math.fsum(memoryview(grid.weight * grid.sqrt_det_g * values))


# ---------------------------------------------------------------------------
# per-node field evaluation
# ---------------------------------------------------------------------------

@dataclass
class SurfaceFields:
    """All pointwise fields evaluated on a grid, plus trust flags."""

    inv: PointInvariants
    b1_simons: np.ndarray
    b1_direct: np.ndarray
    b1_cross: np.ndarray
    delta_S: np.ndarray
    codazzi_residual: np.ndarray
    flagged: np.ndarray

    @property
    def flagged_fraction(self) -> float:
        return float(np.mean(self.flagged))


def _fields_chunk(spec: ImmersionSpec, u_rows: np.ndarray, v_cols: np.ndarray,
                  tols: dict | None = None) -> SurfaceFields:
    """The fields on the tile u_rows x v_cols, its nodes in row-major order;
    `tols` maps `GUARDS` keys to tolerances, and a missing key takes the
    default."""
    # one jet serves every layer: the Taylor series of S reads it to order 4,
    # the frame, h and grad h to order 3.  The Simons route runs first, while
    # the jet is the only other tile array alive, and of grad h only the
    # fields below outlive it.
    tile = eval_jet(spec, (u_rows[:, None], v_cols[None, :]), order=JET_ORDER_MAX)
    jet = Jet(spec, tile.u.ravel(), tile.v.ravel(), tile.order,
              {key: d.reshape(len(d), -1) for key, d in tile.derivs.items()})
    laplacian_S = laplace_beltrami(jet, second_norm_field(jet))
    grad = covariant_grad_h(jet, adapted_frame(jet))
    b1_direct, codazzi_residual, shape = grad.b1_direct, grad.codazzi_residual, grad.shape
    del grad
    inv = point_invariants(shape)
    simons = b1_from_laplacian(laplacian_S, inv)
    fields = SurfaceFields(
        inv=inv,
        b1_simons=simons.b1,
        b1_direct=b1_direct,
        b1_cross=np.abs(simons.b1 - b1_direct),
        delta_S=simons.laplacian_S,
        codazzi_residual=codazzi_residual,
        flagged=np.zeros(jet.u.shape, dtype=bool),
    )
    tols = tols or {}
    for key, (name, default) in GUARDS.items():
        fields.flagged |= getattr(fields, name) > tols.get(key, default)
    return fields


def _gather_fields(chunks, nodes: int) -> SurfaceFields:
    """Copy each tile's fields, in node order, into whole-grid arrays.

    A tile covers consecutive nodes and is dropped once copied, so the tiles
    never all live beside the whole-grid arrays.
    """
    inv_names = [f.name for f in dc_fields(PointInvariants)]
    names = [f.name for f in dc_fields(SurfaceFields) if f.name != "inv"]
    out, start = None, 0
    for chunk in chunks:
        parts = [getattr(chunk.inv, name) for name in inv_names] + \
            [getattr(chunk, name) for name in names]
        if out is None:
            out = [np.empty(nodes, part.dtype) for part in parts]
        stop = start + parts[0].size
        for whole, part in zip(out, parts):
            whole[start:stop] = part
        start = stop
    return SurfaceFields(inv=PointInvariants(**dict(zip(inv_names, out))),
                         **dict(zip(names, out[len(inv_names):])))


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where there is one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pool_size(workers: int, chunks: int) -> int:
    """Worker threads for `chunks` chunks: never more than the usable CPUs."""
    return max(1, min(workers, usable_cpus(), chunks))


def _even_split(n: int, parts: int) -> list[slice]:
    bounds = [n * k // parts for k in range(parts + 1)]
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def grid_tiles(resolution) -> list[tuple[slice, slice]]:
    """The tiles of an (n_u, n_v) grid as (rows, cols) slices, in node order.

    A tile is a block of whole u-rows, or one row cut into column segments
    when a row alone exceeds the budget; either way it has at most
    `NODE_CHUNK` nodes.  The resolution alone fixes the tiles, never the
    worker or CPU count, so each node is computed in the same tile whatever
    runs it.
    """
    n_u, n_v = resolution
    if n_v <= NODE_CHUNK:
        rows_per_tile = NODE_CHUNK // n_v
        return [(rows, slice(0, n_v))
                for rows in _even_split(n_u, math.ceil(n_u / rows_per_tile))]
    segments = _even_split(n_v, math.ceil(n_v / NODE_CHUNK))
    return [(slice(i, i + 1), cols) for i in range(n_u) for cols in segments]


def evaluate_fields(spec: ImmersionSpec, grid: QuadratureGrid,
                    workers: int = 1, tols: dict | None = None) -> SurfaceFields:
    """Evaluate every pointwise field at every grid node, its guards at the
    tolerances `tols` (see `_fields_chunk`).

    Node evaluation is pure, so the grid is evaluated tile by tile
    (`grid_tiles`), which bounds the memory of one tile whatever the grid;
    tiles are merged back in node order, and at most `pool_size` threads run
    them.  The tiles do not depend on the worker count, so neither does the
    result.
    """
    tiles = grid_tiles(grid.resolution)
    threads = pool_size(max(1, int(workers)), len(tiles))

    def run(tile):
        rows, cols = tile
        return _fields_chunk(spec, grid.u_axis[rows], grid.v_axis[cols], tols=tols)

    if threads == 1:
        return _gather_fields(map(run, tiles), grid.node_count)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return _gather_fields(pool.map(run, tiles), grid.node_count)


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


def integral_report(spec: ImmersionSpec, grid: QuadratureGrid, fields: SurfaceFields,
                    nonneg_tol: float = GAP_NONNEG_TOL) -> IntegralReport:
    inv = fields.inv
    area = integrate(np.ones_like(grid.u), grid)
    int_K = integrate(inv.K, grid)
    int_S = integrate(inv.S, grid)
    int_delta_S = integrate(fields.delta_S, grid)

    s2l2 = (inv.S - 2.0 * inv.lambda2) ** 2
    gap1_lhs = integrate(inv.S * (3.0 * inv.S - 4.0) - s2l2, grid)
    gap1_rhs = 2.0 * integrate(fields.b1_direct, grid)
    gap1_rel = abs(gap1_lhs - gap1_rhs) / max(abs(gap1_lhs), abs(gap1_rhs), area)

    form1 = inv.S * (3.0 * inv.S - 4.0) * (3.0 * inv.S - 5.0) \
        + 0.5 * (16.0 - 9.0 * inv.S) * s2l2
    form2 = 0.5 * inv.S * (inv.S - 2.0) * (9.0 * inv.S - 20.0) \
        + 2.0 * inv.rho_perp ** 2 * (9.0 * inv.S - 16.0)
    gap2_form1 = integrate(form1, grid)
    gap2_form2 = integrate(form2, grid)
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

    int_rho2 = integrate(inv.rho_perp ** 2, grid)
    return IntegralReport(
        surface=spec.name,
        resolution=grid.resolution,
        area=area,
        int_K=int_K,
        gauss_bonnet_residual=int_K - 2.0 * math.pi * spec.euler_char,
        int_S=int_S,
        int_delta_S=int_delta_S,
        gap1_lhs=gap1_lhs,
        gap1_rhs=gap1_rhs,
        gap1_residual_rel=gap1_rel,
        gap2_form1=gap2_form1,
        gap2_form2=gap2_form2,
        gap2_residual_rel=gap2_rel,
        bound_445=1.0 + math.sqrt(1.0 + int_rho2 / area),
        mean_u=integrate(inv.u, grid) / area,
        max_u=float(np.max(inv.u)),
        min_u=float(np.min(inv.u)),
        min_rho_perp=float(np.min(inv.rho_perp)),
        max_rho_perp=float(np.max(inv.rho_perp)),
        flagged_fraction=fields.flagged_fraction,
    )
