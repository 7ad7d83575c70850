"""Immersion catalog, spec parsing, exact jets, truncated Taylor series, the
tangent frame, and the second fundamental form with its first covariant
derivative.

Immersions are analytic: polynomial in (x, y, z) restricted to the unit
2-sphere chart, or trigonometric polynomials in the torus chart angles.  All
chart derivatives up to order 4 are therefore exact calculus (the only
floating-point ingredient is coefficient rounding).  Everything built on top
of the jets is differentiated the same way: the tangent frame, h and the
frame-free S run on `Taylor` series in the chart offsets whose coefficients
come straight from the jets.  The degree-1 coefficients give the chart
derivatives of the frame and of h that the covariant gradient of h needs;
S runs on trace series, which carry its value, its first derivatives and
the trace of its Hessian, all that its Laplacian reads.  No finite
difference is taken anywhere.

No basis of the normal space is built.  h_ij is an ambient vector in R^C:
the chart Hessian in the tangent frame minus its components along X, e1 and
e2.  Every invariant the package reports is an O(q)-invariant of h and its
gradient, so it reads the same from these vectors as from their components
in any orthonormal normal frame.

Every array-valued operation is batch-native: chart parameters may be scalars
or arrays of any shape, and every per-node array has one layout, points last:
its value axes (component, frame slot, ambient index, ...) come first and the
shape of the chart parameters last, from the jet through the frame, h and
grad h to the invariants.  Small contractions then run over long contiguous
rows of points even when the value axes are tiny.
"""

from __future__ import annotations

import functools
import json
import math
import string
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from minimal_gap_lab.errors import (
    DomainError,
    FrameError,
    ParseError,
    ValidationError,
)
from minimal_gap_lab.harmonics import unit_immersion_components

SPHERE, TORUS = "sphere", "torus"
DEFAULT_POLE_MARGIN = 1e-3
JET_ORDER_MAX = 4

MAX_AMBIENT_DIM = 64         # spec components at most: bounds the per-node work
MAX_DEGREE = 64              # sphere term degree at most: bounds the power tables
MAX_FREQUENCY = 64           # torus |frequency| at most: keeps every phase a float
MAX_TERMS = 40_000           # spec terms in all at most: bounds parsing
MAX_COEFFICIENTS = 2 ** 21   # spec coefficient array entries at most: bounds its memory
UNIT_GRID = (64, 64)         # validation nodes for |X| = 1
MINIMALITY_GRID = (8, 12)    # validation nodes for |H| = 0

CATALOG_DEGREES = {"equator": 1, "veronese": 2, "calabi3": 3, "calabi4": 4}
CATALOG_NAMES = ("equator", "veronese", "calabi3", "calabi4", "clifford")


# ---------------------------------------------------------------------------
# chart functions: one coefficient array over per-axis bases
# ---------------------------------------------------------------------------

COS, SIN = 0, 1              # the kinds of torus term, and of torus basis function


def _sphere_terms(components):
    """(component, u key, v key, coeff) of every nonzero monomial, by
    x^i y^j z^k = sin^(i+j) u cos^k u * sin^j v cos^i v; a key is the
    (sin power, cos power) pair of a basis function of one angle."""
    for k, monomials in enumerate(components):
        for (i, j, l), coeff in monomials.items():
            if coeff != 0.0:
                yield k, (i + j, l), (j, i), float(coeff)


def _torus_terms(components):
    """(component, u key, v key, coeff) of every nonzero torus term, by the
    angle sums cos(mu + nv) = cos mu cos nv - sin mu sin nv and
    sin(mu + nv) = sin mu cos nv + cos mu sin nv; a key is the (frequency
    >= 0, COS or SIN) pair of a basis function of one angle.  A product
    with a sine of frequency 0 vanishes and is left out."""
    for k, terms in enumerate(components):
        for coeff, kind, m, n in terms:
            if coeff == 0.0:
                continue
            c = float(coeff)
            if m < 0:                  # cos(-x) = cos x, sin(-x) = -sin x
                m, n, c = -m, -n, (-c if kind == SIN else c)
            s = 1.0 if n >= 0 else -1.0        # sin(nv) = s sin(|n| v)
            n = abs(n)
            if kind == COS:
                pieces = (((m, COS), (n, COS), c), ((m, SIN), (n, SIN), -s * c))
            else:
                pieces = (((m, SIN), (n, COS), c), ((m, COS), (n, SIN), s * c))
            for u_key, v_key, weight in pieces:
                if (u_key[0] or u_key[1] == COS) and (v_key[0] or v_key[1] == COS):
                    yield k, u_key, v_key, weight


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _basis_derivatives(chart: str, exps: np.ndarray, x: np.ndarray, order: int):
    """Yield d^i/dx^i of every basis function of one angle at the angles x
    (1-D), for i = 0..order, each as a C-contiguous array (basis, points).

    Sphere charts: the i-th derivative of sin^a x cos^b x is a sum of
    sin^e x cos^(a+b-e) x over e = a - i, a - i + 2, ..., a + i, since
    d/dx (s^e c^f) = e s^(e-1) c^(f+1) - f s^(e+1) c^(f-1); the integer
    weights are carried from one order to the next.  Torus charts: the i-th
    derivative of cos(m x) or sin(m x) is m^i times the same function at
    the phase m x + i pi/2.
    """
    a, b = exps[:, 0], exps[:, 1]
    if chart == TORUS:
        phase = a[:, None] * x
        cos, sin = np.cos(phase), np.sin(phase)
        for i in range(order + 1):
            # the function is cos(phase - b pi/2), its i-th derivative
            # m^i cos(phase + r pi/2), r = i - b: cos, -sin, -cos, sin
            r = (i - b) % 4
            scale = np.where((r == 0) | (r == 3), 1.0, -1.0) * a.astype(float) ** i
            yield np.where((r % 2 == 0)[:, None], cos, sin) * scale[:, None]
        return
    total = a + b
    # exponents run from -order to top + order; the ones out of range carry
    # zero weight, and a negative one indexes the table from its end
    top = int(total.max(initial=0)) + order
    powers = []
    for f in (np.sin(x), np.cos(x)):
        table = np.ones((top + 1, len(x)))
        np.cumprod(np.broadcast_to(f, (top, len(x))), axis=0, out=table[1:])
        powers.append(table)
    sin_pow, cos_pow = powers
    weights = np.ones((1, len(a)))          # weights[t]: the term of sin power a - i + 2t
    for i in range(order + 1):
        e = a - i + 2 * np.arange(i + 1)[:, None]
        f = total - e
        value = weights[0, :, None] * sin_pow[e[0]] * cos_pow[f[0]]
        for t in range(1, i + 1):
            value += weights[t, :, None] * sin_pow[e[t]] * cos_pow[f[t]]
        yield value
        following = np.zeros((i + 2, len(a)))
        following[:-1] += weights * e
        following[1:] -= weights * f
        weights = following


@dataclass
class ImmersionSpec:
    """A validated analytic immersion of a surface into a unit sphere.

    `__post_init__` stores the components as one coefficient array
    `coef[k, p, q]` over a basis of functions of u (`u_exps`, P of them)
    and one of v (`v_exps`, Q): component k is sum_pq coef[k, p, q] U_p(u)
    V_q(v).  Sphere charts use sin^a cos^b of each angle, exps (a, b);
    torus charts cos or sin of (m times) each angle, exps (m, COS or SIN).
    coef is zero outside `blocks`: on sphere charts a term's u-part
    sin^(i+j) u pairs only with a v-part of degree i + j, one block per
    degree.  The arrays are read-only, so evaluation only ever reads
    them.
    """

    name: str
    chart: str                      # "sphere" | "torus"
    ambient_dim: int                # components live in R^ambient_dim = R^(N+1)
    euler_char: int
    components: list                # xyz monomial dicts (sphere) or term lists (torus)
    pole_margin: float = DEFAULT_POLE_MARGIN
    coef: np.ndarray = field(init=False, repr=False, compare=False)
    u_exps: np.ndarray = field(init=False, repr=False, compare=False)
    v_exps: np.ndarray = field(init=False, repr=False, compare=False)
    blocks: tuple = field(init=False, repr=False, compare=False)   # (u, v) slice pairs

    def __post_init__(self):
        terms = list((_sphere_terms if self.chart == SPHERE else _torus_terms)(self.components))
        # sorted by degree on sphere charts, so each block is contiguous
        u_keys = sorted({term[1] for term in terms})
        v_keys = sorted({term[2] for term in terms},
                        key=(lambda key: (sum(key), key)) if self.chart == SPHERE else None)
        size = self.ambient_dim * len(u_keys) * len(v_keys)
        if size > MAX_COEFFICIENTS:
            raise ParseError("components", (
                f"the terms need {self.ambient_dim} x {len(u_keys)} x {len(v_keys)} = "
                f"{size} coefficients (components x u-basis x v-basis), above the "
                f"limit {MAX_COEFFICIENTS}"))
        u_index = {key: p for p, key in enumerate(u_keys)}
        v_index = {key: q for q, key in enumerate(v_keys)}
        coef = np.zeros((self.ambient_dim, len(u_keys), len(v_keys)))
        for k, u_key, v_key, weight in terms:
            coef[k, u_index[u_key], v_index[v_key]] += weight
        self.coef = _read_only(coef)
        self.u_exps = _read_only(np.array(u_keys, dtype=np.int64).reshape(-1, 2))
        self.v_exps = _read_only(np.array(v_keys, dtype=np.int64).reshape(-1, 2))
        if self.chart == SPHERE:
            u_deg, v_deg = self.u_exps[:, 0], self.v_exps.sum(axis=1)
            self.blocks = tuple(
                (slice(*np.searchsorted(u_deg, (a, a + 1))),
                 slice(*np.searchsorted(v_deg, (a, a + 1)))) for a in sorted(set(u_deg)))
        else:
            self.blocks = ((slice(0, len(u_keys)), slice(0, len(v_keys))),)

    @property
    def codim(self) -> int:
        """Codimension q of the surface in S^N, N = ambient_dim - 1."""
        return self.ambient_dim - 3


def jet_keys(order: int) -> list:
    """The (i, j) of every chart derivative d_u^i d_v^j X with i + j <=
    `order`, by total order ascending and by i descending within one: the
    order `Taylor.lift` forms them in."""
    return [(n - j, j) for n in range(order + 1) for j in range(n + 1)]


def column_factor(spec: ImmersionSpec, v: np.ndarray, order: int = JET_ORDER_MAX) -> tuple:
    """The column half of a `Jet` at the angles v (1-D): for j = 0..order,
    sum_q coef[k, p, q] V_q^(j)(v) as a read-only (C, P, len(v)) array, one
    contraction over q per nonzero block of coef (`ImmersionSpec.blocks`).
    A tile of a grid is whole rows or a column segment of one row, so all
    the tiles of a segment share it: `geoquad.evaluate_fields` forms it
    once per segment, and each tile's `Jet` reads it as its column half."""
    n_comp, n_u, _ = spec.coef.shape
    factor = []
    for V in _basis_derivatives(spec.chart, spec.v_exps, v, order):
        inner = np.empty((n_comp, n_u, V.shape[1]))
        for us, vs in spec.blocks:
            np.einsum("kpq,qs->kps", spec.coef[:, us, vs], V[vs], out=inner[:, us])
        factor.append(_read_only(inner))
    return tuple(factor)


@dataclass
class Jet:
    """Chart-parameter Taylor data of the immersion at one or many points,
    kept as the two halves of a sum factorization: no derivative is stored.

    With U and V the bases of u and v (`ImmersionSpec`), d_u^i d_v^j X is
    sum_p U_p^(i) (sum_q coef V_q^(j)) (Orszag, J. Comput. Phys. 37, 1980).
    `rows[i]` is U^(i) at the points' rows, (rows, P), and `columns[j]` the
    `column_factor` at their columns, (C, P, columns).  On a tile the points
    are every row with every column; elsewhere point n is row n with column
    n.  `derivative` forms one d_u^i d_v^j X from them.
    """

    spec: ImmersionSpec
    u: np.ndarray
    v: np.ndarray
    order: int
    rows: tuple
    columns: tuple
    tile: bool

    def derivative(self, i: int, j: int) -> np.ndarray:
        """d_u^i d_v^j X at the points, shape (C, *points), formed anew at
        each call by one contraction over p.  It is an einsum, which adds the
        products in index order whatever the point shape, so a tile gets the
        bits of its flattened points (a BLAS matmul fuses its multiply-adds
        differently for different shapes)."""
        if i + j > self.order:
            raise DomainError(f"d_u^{i} d_v^{j} X is above the jet order {self.order}")
        d = np.einsum("rp,kps->krs" if self.tile else "np,kpn->kn",
                      self.rows[i], self.columns[j])
        return d.reshape(d.shape[:1] + self.u.shape)


def eval_jet(spec: ImmersionSpec, point, order: int = JET_ORDER_MAX,
             columns: tuple | None = None) -> Jet:
    """Exact-calculus jet at chart parameters; no finite differencing here.

    `point` = (u, v) may be scalars or arrays whose shapes broadcast, and
    the jet has their broadcast shape.  A tile of a tensor grid, passed as
    (u_rows[:, None], v_cols[None, :]), evaluates the bases on its rows and
    its columns alone; other points evaluate them point by point.  A tile
    may be given its `columns`, the `column_factor` at v_cols to order
    `order` or above, so that only its row factor is formed here.
    """
    if order > JET_ORDER_MAX:
        raise DomainError(f"jet order {order} exceeds maximum {JET_ORDER_MAX}")
    u0, v0 = point
    u, v = np.asarray(u0, dtype=float), np.asarray(v0, dtype=float)
    shape = np.broadcast_shapes(u.shape, v.shape)
    if spec.chart == SPHERE:
        lo, hi = spec.pole_margin, math.pi - spec.pole_margin
        if np.any(u < lo) or np.any(u > hi):
            worst = float(np.max(np.maximum(lo - u, u - hi)))
            raise DomainError(
                f"{spec.name}: polar angle within {spec.pole_margin:g} of a chart "
                f"pole (margin violated by {worst:g})")
    tile = u.ndim == v.ndim == 2 and u.shape[1] == 1 and v.shape[0] == 1
    if tile:
        u_axis, v_axis = u[:, 0], v[0]
    else:
        u_axis, v_axis = (np.broadcast_to(a, shape).ravel() for a in (u, v))
    if columns is None:
        columns = column_factor(spec, v_axis, order)
    rows = tuple(np.ascontiguousarray(d.T) for d in
                 _basis_derivatives(spec.chart, spec.u_exps, u_axis, order))
    return Jet(spec, *np.broadcast_arrays(u, v), order, rows, tuple(columns[:order + 1]), tile)


def first_fundamental_form(jet: Jet):
    """E, F, G = <X_u, X_u>, <X_u, X_v>, <X_v, X_v> at the jet's points."""
    Xu, Xv = jet.derivative(1, 0), jet.derivative(0, 1)
    return (np.einsum("x...,x...->...", Xu, Xu),
            np.einsum("x...,x...->...", Xu, Xv),
            np.einsum("x...,x...->...", Xv, Xv))


# ---------------------------------------------------------------------------
# truncated series in the chart offsets: chart series and trace series
# ---------------------------------------------------------------------------

_SIZE = (1, 3, 4, 1)         # coefficient count of a series of degree 0, 1, 2, TRACE
TRACE = 3                    # lift only the trace coefficient of a trace series
# the first-order pairs of a trace coefficient, each added twice:
# T(fg) = Tf g0 + f0 Tg + 2 (f1 g1 + f2 g2)
TRACE_CROSS = ((1, 1), (2, 2))


@functools.lru_cache(maxsize=None)
def _pairs(size: int) -> tuple:
    """For each coefficient k of a series with `size` coefficients, the
    index pairs (i, j) whose products add up to it, each listed once per
    time it is added: (0, k) and (k, 0), and for the trace coefficient of a
    degree-2 series each `TRACE_CROSS` pair twice."""
    terms = [((0, 0),)] + [((0, k), (k, 0)) for k in range(1, size)]
    if size == _SIZE[2]:
        terms[3] += tuple(pair for pair in TRACE_CROSS for _ in range(2))
    return tuple(terms)


def trace_directions(metric):
    """L and the inverse metric g^cd at the points, both (2, 2, *points),
    from the first fundamental form E, F, G: the directions d_i = L[i, c] d_c
    and the trace of a trace series (`Taylor` of degree 2).  With
    D = EG - F^2, L = [[1/sqrt(E), 0], [-F/sqrt(E D), sqrt(E/D)]] is
    orthonormal for the metric: sum_i L[i, c] L[i, d] = g^cd."""
    E, F, G = metric
    D = E * G - F * F
    sqrtE, sqrtD = np.sqrt(E), np.sqrt(D)
    L = np.zeros((2, 2) + np.shape(E))
    L[0, 0] = 1.0 / sqrtE
    L[1, 0] = -F / (sqrtE * sqrtD)
    L[1, 1] = sqrtE / sqrtD
    ginv = _symmetric_view(np.stack([G, -F, E]) / D)
    return L, ginv


@functools.lru_cache(maxsize=None)
def _batched_subscripts(subscripts: str, batched: tuple) -> str:
    """einsum subscripts with a coefficient axis in front of each batched
    operand and of the result."""
    axis = next(c for c in string.ascii_letters if c not in subscripts)
    inputs, output = subscripts.split("->")
    inputs = [axis + s if b else s for s, b in zip(inputs.split(","), batched)]
    return ",".join(inputs) + "->" + (axis if any(batched) else "") + output


def _apply(op, x, y, batched=(False, False)):
    """op(x, y) for `op` a ufunc or einsum subscripts; a batched operand
    carries a leading coefficient axis, which the result keeps (two batched
    operands pair their coefficients one to one)."""
    if isinstance(op, str):
        return np.einsum(_batched_subscripts(op, batched), x, y)
    if any(batched):
        # align the value and point axes, which broadcast from the right
        rank = max(np.ndim(a) - b for a, b in zip((x, y), batched))
        x, y = (a.reshape(a.shape[:1] + (1,) * (rank + 1 - a.ndim) + a.shape[1:]) if b else a
                for a, b in zip((x, y), batched))
    return op(x, y)


def _product(op, x, y, out=None, subtract=False, coefficients=None) -> "Taylor":
    """op(x, y), bilinear, truncated at the series degree: the one product
    kernel of the series arithmetic.  Coefficient k adds its terms in one
    order: x0 y_k, then x_k y0, then for the trace coefficient each
    `TRACE_CROSS` term op(x_i, y_i), formed once and added twice.  A
    symmetric op of a series with itself (np.multiply, or einsum subscripts
    that give both operands the same axes) doubles x0 x_k instead, which is
    the same, bit for bit.

    A product with a constant is one call, and one of two series returned
    whole runs on coefficient-axis slices, which are views: x0 * y[all],
    then x[1:] * y0.  Otherwise the product is formed one coefficient at a
    time and written into `out` (its coefficient axis first), or with
    `subtract` subtracted from it in place, for the `coefficients` given,
    all by default: the trace coefficient's first terms, then each
    first-order one with its cross term, then the value.  So no array of
    the product's size is built, and each coefficient of y is read once: y
    may be a function k -> y_k that forms it at the read (of a trace
    series), and x may be y; without `out` their product is stacked.
    """
    lazy = callable(y)
    if not (lazy or isinstance(x, Taylor) and isinstance(y, Taylor)):
        series = (isinstance(x, Taylor), isinstance(y, Taylor))
        return Taylor(_apply(op, *(a.c if s else a for a, s in zip((x, y), series)), series))
    read = y if lazy else y.c.__getitem__
    square = x is y and (op is np.multiply or isinstance(op, str)
                         and len(set(op.split("->")[0].split(","))) == 1)
    y0 = read(0)
    x0 = y0 if x is y else x.c[0]
    if out is None and not lazy:
        if len(x.c) != len(y.c):
            raise ValueError(f"Taylor operands of mixed degree: sizes {len(x.c)}, {len(y.c)}")
        out = _apply(op, x0, y.c, (False, True))
        if square:
            out[1:] *= 2.0
        elif len(out) > 1:
            out[1:] += _apply(op, x.c[1:], y0, (True, False))
        for i, j in TRACE_CROSS if len(out) == _SIZE[2] else ():
            cross = _apply(op, x.c[i], y.c[j])
            out[3] += cross
            out[3] += cross
        return Taylor(out)

    stack = out is None
    if stack:
        out = [None] * (len(x.c) if isinstance(x, Taylor) else _SIZE[2])

    def write(k, t):
        if subtract:
            out[k] -= t
        else:
            out[k] = t

    ks = range(len(out)) if coefficients is None else coefficients
    trace = len(out) == _SIZE[2] and 3 in ks
    acc = None                                  # the trace coefficient, begun at k = 3
    for k in (3, 1, 2):
        if k >= len(out) or not (k in ks or trace):
            continue
        yk = read(k)
        xk = yk if x is y else x.c[k]
        if acc is not None:
            cross = _apply(op, xk, yk)
            acc += cross
            acc += cross
            del cross
        if k in ks:
            t = _apply(op, x0, yk)
            yk = None                           # freed before the next term is formed
            if square:
                t *= 2.0
            else:
                t += _apply(op, xk, y0)
            if k == 3:
                acc = t
            else:
                write(k, t)
            del t
        xk = yk = None
    if trace:
        write(3, acc)
    if 0 in ks:
        write(0, _apply(op, x0, y0))
    return Taylor(np.stack(out) if stack else out)


class Taylor:
    """A field truncated in the chart offsets (du, dv), at each point.

    Of degree 0 or 1 it is a chart series: `c` is (f) or (f, f_u, f_v), the
    value and the first chart derivatives.  Of degree 2 it is a trace
    series: `c` is (f, d_1 f, d_2 f, T f), the value, the derivatives along
    the directions d_i = L[i, c] d_c of `trace_directions`, and the flat
    trace T f = g^cd f_cd of the chart Hessian, g^cd taken at the point
    itself.  That is all a Laplacian reads (`invariants.laplace_beltrami`),
    and products keep it: since sum_i L[i, c] L[i, d] = g^cd,
    T(fg) = Tf g + f Tg + 2 (d_1 f d_1 g + d_2 f d_2 g), so the value, the
    gradient and the Laplacian are carried forward together (Li et al.,
    Forward Laplacian, arXiv:2307.08214, 2023).  Quotients and square roots
    follow from the same product rule (`_pairs`).

    `c` has the shape (coefficients, *value axes, *point axes): the points
    come last, so every operation runs over long contiguous rows even when
    the value axes are tiny.  Indexing and `einsum` subscripts address the
    value axes, with a trailing `...` for the points.  numpy arrays and
    scalars enter as constants, and every product is truncated at the
    series' own degree (truncated Taylor arithmetic; Griewank & Walther,
    Evaluating Derivatives, ch. 13).  Every product, returned whole or
    written or subtracted one coefficient at a time, is formed by the one
    kernel `_product`, which adds each coefficient's terms in one order.
    """

    __slots__ = ("c",)
    __array_ufunc__ = None           # ndarray operators defer to ours

    def __init__(self, c):
        self.c = c

    @classmethod
    def lift(cls, jet: Jet, groups, directions=None) -> list:
        """The series of the chart derivatives d_u^i d_v^j X of each group
        (keys, degree) in `groups`, one array per group; value axes: the
        key, then the component.  Trace series (degree 2) are lifted along
        `directions`, the `trace_directions` of the jet's metric; the jet
        has order >= i + j + degree.

        One pass forms each derivative that the groups read once
        (`Jet.derivative`, in `jet_keys` order), writes it into every
        coefficient that reads it (`_scatter`) and frees it, so at most one
        derivative is alive beside the series.
        """
        shape = (jet.spec.ambient_dim,) + jet.u.shape
        out = [np.empty((_SIZE[degree], len(keys)) + shape) for keys, degree in groups]
        reads = {}                  # derivative -> [(coefficients, offset)]
        for series, (keys, degree) in zip(out, groups):
            for n, (i, j) in enumerate(keys):
                for a, b in _OFFSETS[degree]:
                    reads.setdefault((i + a, j + b), []).append((series[:, n], (a, b)))
        for key in jet_keys(max(i + j for i, j in reads)):
            if key in reads:
                d = jet.derivative(*key)
                for coefficients, offset in reads.pop(key):
                    _scatter(coefficients, offset, d, directions)
                del d
        return [cls(c) for c in out]

    @staticmethod
    def einsum(subscripts: str, x, y) -> "Taylor":
        """np.einsum of two operands; `subscripts` give the output after
        `->`, name the value axes and end each operand with `...` for the
        points."""
        return _product(subscripts, x, y)

    @staticmethod
    def stack(series) -> "Taylor":
        """Stack along a new first value axis."""
        return Taylor(np.stack([s.c for s in series], axis=1))

    def truncate(self, degree: int) -> "Taylor":
        """A chart series cut to a lower degree."""
        return Taylor(self.c[:_SIZE[degree]])

    def __getitem__(self, index) -> "Taylor":
        if not isinstance(index, tuple):
            index = (index,)
        return Taylor(self.c[(slice(None),) + index])

    def __neg__(self) -> "Taylor":
        return Taylor(-self.c)

    def _with_head(self, head, negate_tail: bool = False) -> "Taylor":
        """The series with coefficient 0 replaced by `head` (its shape may
        broadcast the value axes) and the others kept, or negated."""
        out = np.empty((len(self.c),) + np.shape(head))
        out[0] = head
        if negate_tail:
            np.negative(self.c[1:], out=out[1:])
        else:
            out[1:] = self.c[1:]
        return Taylor(out)

    def __add__(self, other) -> "Taylor":
        if isinstance(other, Taylor):
            return Taylor(self.c + other.c)
        return self._with_head(self.c[0] + other)

    __radd__ = __add__

    def __sub__(self, other) -> "Taylor":
        if isinstance(other, Taylor):
            return Taylor(self.c - other.c)
        return self._with_head(self.c[0] - other)

    def __rsub__(self, other) -> "Taylor":
        return self._with_head(other - self.c[0], negate_tail=True)

    def __mul__(self, other) -> "Taylor":
        return _product(np.multiply, self, other)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Taylor":
        if isinstance(other, Taylor):
            return _quotient(self, other)
        return _product(np.divide, self, other)

    def __rtruediv__(self, other) -> "Taylor":
        return _quotient(other, self)

    def sqrt(self) -> "Taylor":
        """r with r * r = self, coefficient by coefficient (self.c[0] > 0)."""
        pairs = _pairs(len(self.c))
        r = [np.sqrt(self.c[0])]
        for k in range(1, len(self.c)):
            acc = self.c[k]
            for i, j in pairs[k]:
                if i != k and j != k:
                    acc = acc - r[i] * r[j]
            r.append(acc / (2.0 * r[0]))
        return Taylor(np.stack(r))


# the derivatives X_(a+e) that the series of X_a reads, by their offsets e,
# for a series of degree 0, 1, 2 and TRACE
_OFFSETS = (((0, 0),), ((0, 0), (1, 0), (0, 1)),
            ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)), ((2, 0), (1, 1), (0, 2)))


def _scatter(out: np.ndarray, offset, d: np.ndarray, directions=None) -> None:
    """Write d = X_(a+e), e = `offset`, into `out`, the coefficients of the
    series of X_a: X_a, X_(a+u) and X_(a+v) for a chart series, or X_a,
    L[0, c] X_(a+c), L[1, c] X_(a+c) and g^cd X_(a+c+d) for a trace series
    along `directions` = (L, g^-1), where L[0, 1] = 0, or the last alone
    (`TRACE`).  A sum's first term is written and the others added, so its
    derivatives must come with the u-derivatives first (`jet_keys`);
    `_form_coefficient` forms one coefficient by the same arithmetic, for a
    product that reads it without it being stored (`second_norm_field`)."""
    if offset == (0, 0):
        out[0] = d
    elif len(out) == _SIZE[1]:
        out[_OFFSETS[1].index(offset)] = d
    else:
        L, ginv = directions
        if offset == (1, 0):
            np.multiply(L[0, 0], d, out=out[1])
            np.multiply(L[1, 0], d, out=out[2])
        elif offset == (0, 1):
            out[2] += L[1, 1] * d
        elif offset == (2, 0):
            np.multiply(ginv[0, 0], d, out=out[-1])
        elif offset == (1, 1):
            out[-1] += (2.0 * ginv[0, 1]) * d
        else:
            out[-1] += ginv[1, 1] * d


def _form_coefficient(out, k, a, derivative, directions) -> None:
    """Write coefficient k >= 1 of the trace series of X_a along
    `directions` into `out`, from `derivative(key)` = X_key, by the
    arithmetic `_scatter` writes it with, so its bits are the lifted ones."""
    L, ginv = directions
    i, j = a
    if k == 1:
        np.multiply(L[0, 0], derivative((i + 1, j)), out=out)
    elif k == 2:
        np.multiply(L[1, 0], derivative((i + 1, j)), out=out)
        out += L[1, 1] * derivative((i, j + 1))
    else:
        np.multiply(ginv[0, 0], derivative((i + 2, j)), out=out)
        out += (2.0 * ginv[0, 1]) * derivative((i + 1, j + 1))
        out += ginv[1, 1] * derivative((i, j + 2))


def _quotient(num, den: Taylor, out: np.ndarray | None = None) -> Taylor:
    """q = num / den from sum over the `_pairs` (i, j) of coefficient k of
    q_i den_j = num_k; `num` may be a constant.  Each q_k is written into
    the result as it is formed, so no list of them is stacked; `out` may be
    num's own coefficients, since each num_k is read before q_k is written."""
    pairs = _pairs(len(den.c))
    head = num.c[0] if isinstance(num, Taylor) else num
    q = np.empty((len(den.c),) + np.broadcast_shapes(np.shape(head), den.c.shape[1:])) \
        if out is None else out
    for k in range(len(den.c)):
        acc = num.c[k] if isinstance(num, Taylor) else (num if k == 0 else 0.0)
        for i, j in pairs[k]:
            if i != k:
                acc = acc - q[i] * den.c[j]
        np.divide(acc, den.c[0], out=q[k, ...])
    return Taylor(q)


# -- catalog ------------------------------------------------------------------

def _catalog_sphere_entry(name: str, degree: int) -> ImmersionSpec:
    comps = unit_immersion_components(degree)
    return ImmersionSpec(
        name=name,
        chart=SPHERE,
        ambient_dim=2 * degree + 1,
        euler_char=2,
        components=comps,
    )


def _catalog_clifford() -> ImmersionSpec:
    r = 1.0 / math.sqrt(2.0)
    comps = [
        [(r, COS, 1, 0)],
        [(r, SIN, 1, 0)],
        [(r, COS, 0, 1)],
        [(r, SIN, 0, 1)],
    ]
    return ImmersionSpec(
        name="clifford",
        chart=TORUS,
        ambient_dim=4,
        euler_char=0,
        components=comps,
    )


def catalog_entry(name: str) -> ImmersionSpec:
    if name == "clifford":
        return _catalog_clifford()
    if name in CATALOG_DEGREES:
        return _catalog_sphere_entry(name, CATALOG_DEGREES[name])
    raise DomainError(f"unknown catalog surface {name!r}; "
                      f"known names: {', '.join(CATALOG_NAMES)}")


# ---------------------------------------------------------------------------
# spec files: parsing, canonical serialization, validation
# ---------------------------------------------------------------------------

def _expect(cond, path, msg):
    if not cond:
        raise ParseError(path, msg)


def _is_int(value) -> bool:
    """An int, but not a bool (json's true and false are ints to Python)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _as_number(value, path):
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool),
            path, f"expected number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:           # an int beyond the float range
        number = math.inf
    # json reads NaN and Infinity; either would fail only deep in the pipeline
    _expect(math.isfinite(number), path, f"must be a finite number, got {number!r}")
    return number


def parse_spec_dict(data: dict) -> ImmersionSpec:
    _expect(isinstance(data, dict), "$", "top level must be a key-value object")
    for key in ("name", "chart", "ambient_dim", "euler_char", "components"):
        _expect(key in data, key, "missing required field")
    name = data["name"]
    _expect(isinstance(name, str) and name, "name", "must be a nonempty string")
    chart = data["chart"]
    _expect(chart in (SPHERE, TORUS), "chart", f"must be 'sphere' or 'torus', got {chart!r}")
    ambient = data["ambient_dim"]
    _expect(_is_int(ambient) and ambient >= 3, "ambient_dim",
            f"must be an integer >= 3, got {ambient!r}")
    _expect(ambient <= MAX_AMBIENT_DIM, "ambient_dim",
            f"{ambient} is above the limit {MAX_AMBIENT_DIM}")
    euler = data["euler_char"]
    _expect(_is_int(euler), "euler_char", f"must be an integer, got {euler!r}")
    comps_raw = data["components"]
    _expect(isinstance(comps_raw, list), "components", "must be an array")
    _expect(len(comps_raw) == ambient, "components",
            f"expected {ambient} component functions, got {len(comps_raw)}")
    n_terms = sum(len(comp) for comp in comps_raw if isinstance(comp, list))
    _expect(n_terms <= MAX_TERMS, "components",
            f"{n_terms} terms in all, above the limit {MAX_TERMS}")

    comps = []
    for ci, comp in enumerate(comps_raw):
        cpath = f"components[{ci}]"
        _expect(isinstance(comp, list), cpath, "component must be an array of terms")
        if chart == SPHERE:
            mono = {}
            for ti, term in enumerate(comp):
                tpath = f"{cpath}[{ti}]"
                _expect(isinstance(term, dict), tpath, "term must be an object")
                _expect(set(term) == {"coeff", "exps"}, tpath,
                        "term must have exactly the fields coeff, exps")
                coeff = _as_number(term["coeff"], f"{tpath}.coeff")
                exps = term["exps"]
                _expect(isinstance(exps, list) and len(exps) == 3
                        and all(_is_int(e) and e >= 0 for e in exps),
                        f"{tpath}.exps", "must be three nonnegative integers")
                _expect(sum(exps) <= MAX_DEGREE, f"{tpath}.exps",
                        f"degree {sum(exps)} is above the limit {MAX_DEGREE}")
                key = tuple(exps)
                mono[key] = mono.get(key, 0.0) + coeff
            comps.append(mono)
        else:
            terms = []
            for ti, term in enumerate(comp):
                tpath = f"{cpath}[{ti}]"
                _expect(isinstance(term, dict), tpath, "term must be an object")
                _expect(set(term) == {"coeff", "type", "freq"}, tpath,
                        "term must have exactly the fields coeff, type, freq")
                coeff = _as_number(term["coeff"], f"{tpath}.coeff")
                kind = term["type"]
                _expect(kind in ("cos", "sin"), f"{tpath}.type",
                        f"must be 'cos' or 'sin', got {kind!r}")
                freq = term["freq"]
                _expect(isinstance(freq, list) and len(freq) == 2
                        and all(_is_int(f) for f in freq),
                        f"{tpath}.freq", "must be two integers")
                for f in freq:
                    _expect(abs(f) <= MAX_FREQUENCY, f"{tpath}.freq",
                            f"frequency {abs(f)} is above the limit {MAX_FREQUENCY}")
                terms.append((coeff, COS if kind == "cos" else SIN,
                              freq[0], freq[1]))
            comps.append(terms)
    return ImmersionSpec(name=name, chart=chart, ambient_dim=ambient,
                         euler_char=euler, components=comps)


def parse_spec_text(text: str) -> ImmersionSpec:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}", exc.msg) from exc
    except ValueError as exc:       # an int literal above Python's digit limit
        raise ParseError("$", str(exc)) from exc
    return parse_spec_dict(data)


def serialize_spec(spec: ImmersionSpec) -> str:
    """One canonical UTF-8 serialization (sorted terms, 17 significant digits)."""
    comps = []
    for comp in spec.components:
        if spec.chart == SPHERE:
            terms = [{"coeff": float(f"{c:.17g}"), "exps": list(e)}
                     for e, c in sorted(comp.items())]
        else:
            terms = [{"coeff": float(f"{c:.17g}"),
                      "type": "cos" if kind == COS else "sin",
                      "freq": [m, n]}
                     for c, kind, m, n in comp]
        comps.append(terms)
    doc = {
        "name": spec.name,
        "chart": spec.chart,
        "ambient_dim": spec.ambient_dim,
        "euler_char": spec.euler_char,
        "components": comps,
    }
    return json.dumps(doc, indent=2) + "\n"


def _validation_points(spec, n_u, n_v):
    """An n_u x n_v tensor grid of the chart, as a tile for `eval_jet`."""
    if spec.chart == SPHERE:
        m = spec.pole_margin + 1e-3
        u = np.linspace(m, math.pi - m, n_u)
        v = np.linspace(0.0, 2 * math.pi, n_v, endpoint=False)
    else:
        u = np.linspace(0.0, 2 * math.pi, n_u, endpoint=False)
        v = np.linspace(0.0, 2 * math.pi, n_v, endpoint=False)
    return u[:, None], v[None, :]


def validate_spec(spec: ImmersionSpec,
                  unit_tol: float = 1e-12,
                  minimality_tol: float = 1e-8) -> dict:
    """Check |X| = 1 and |H| = 0 on validation grids; reject on failure."""
    U, V = _validation_points(spec, *UNIT_GRID)
    X = eval_jet(spec, (U, V), order=0).derivative(0, 0)
    unit_residual = float(np.max(np.abs(np.einsum("c...,c...->...", X, X) - 1.0)))
    if not unit_residual <= unit_tol:      # NaN fails too
        raise ValidationError(
            f"{spec.name}: image not on the unit sphere "
            f"(max ||X|^2 - 1| = {unit_residual:.3e} > {unit_tol:g})")

    U, V = _validation_points(spec, *MINIMALITY_GRID)
    jet = eval_jet(spec, (U, V), order=2)
    frame = adapted_frame(jet)
    sp = second_fundamental_form(jet, frame)
    minimality_residual = float(np.max(sp.minimality_residual))
    if not minimality_residual <= minimality_tol:
        raise ValidationError(
            f"{spec.name}: immersion is not minimal "
            f"(max |H| residual = {minimality_residual:.3e} > {minimality_tol:g})")
    return {"unit_residual": unit_residual, "minimality_residual": minimality_residual}


def load_immersion(source, validate: bool = True) -> ImmersionSpec:
    """Load by catalog name or from a spec file path."""
    if isinstance(source, (str, Path)) and str(source) in CATALOG_NAMES:
        spec = catalog_entry(str(source))
    else:
        path = Path(source)
        if not path.exists():
            raise ParseError(str(source),
                             "not a catalog name and no such spec file")
        spec = parse_spec_text(path.read_text(encoding="utf-8"))
    if validate:
        validate_spec(spec)
    return spec


# ---------------------------------------------------------------------------
# the tangent frame
# ---------------------------------------------------------------------------

@dataclass
class FrameData:
    """Adapted orthonormal tangent frame {e1, e2} at a jet's points.  No
    basis of the normal space is built: it is what X, e1 and e2 leave of
    R^C.

    `basis` is the tangent basis the normal projections read: the position
    X, e1 and e2 on a first value axis, and `e1`, `e2` are views of it.
    Every field is a Taylor series of degree min(jet order - 1, 1) in the
    chart offsets: `e1.c[0]` is the frame vector and `e1.c[1:]` its chart
    derivatives.  Points last, like every per-node array: the value axes
    come first and the jet's point axes after them.  `chart_to_frame` is
    the 2x2 matrix L with e_i = L[i, c] d_c X.
    """

    basis: Taylor                   # value axes (3, C): X, e1, e2
    chart_to_frame: Taylor          # value axes (2, 2)

    @property
    def e1(self) -> Taylor:
        return self.basis[1]

    @property
    def e2(self) -> Taylor:
        return self.basis[2]


def _dot(x: Taylor, y: Taylor) -> Taylor:
    return _product("c...,c...->...", x, y)


def _tangent_connection(frame: FrameData) -> np.ndarray:
    """omega_t[k, m, i] = <D_{e_k} e_m, e_i> from the degree-1 coefficients
    of the frame (from a jet of order >= 2), which are its chart derivatives
    d_u, d_v; exactly skew, points last."""
    L = frame.chart_to_frame.c[0]
    de, ee = frame.basis.c[1:, 1:], frame.basis.c[0, 1:]         # [c, m, C], [i, C]: views
    omega = np.einsum("kc...,cmi...->kmi...", L,
                      np.einsum("cmx...,ix...->cmi...", de, ee))
    return 0.5 * (omega - np.swapaxes(omega, 1, 2))


def adapted_frame(jet: Jet, position: Taylor | None = None) -> FrameData:
    """Orthonormal tangent frame from a jet of order >= 1.

    The construction runs once, on Taylor series of degree
    min(jet order - 1, 1); a plain frame is its degree-0 case.  From a jet
    of order >= 2 the degree-1 coefficients are the exact chart derivatives
    of the frame, which `_tangent_connection` turns into the connection
    coefficients.  `position` holds the chart series of X, X_u, X_v of that
    degree (`Taylor.lift(jet, [(POSITION, degree)])`), lifted here when not
    passed.  e1, w = X_v - <X_v, e1> e1 and e2 are written over X_u and
    X_v as they are formed, at their last reads, so the frame's `basis` is
    that series itself and no series of its size is built beside it.
    """
    if jet.order < 1:
        raise DomainError("adapted_frame needs a jet of order >= 1")
    if position is None:
        position, = Taylor.lift(jet, [(POSITION, min(jet.order - 1, 1))])
    Xu, Xv = position[1], position[2]

    E = _dot(Xu, Xu)
    F = _dot(Xu, Xv)
    G = _dot(Xv, Xv)
    det = E.c[0] * G.c[0] - F.c[0] * F.c[0]
    if np.any(det <= 1e-14):
        k = np.unravel_index(np.argmin(det), det.shape)
        raise FrameError(f"{jet.spec.name}: not an immersion at (u, v) = ({jet.u[k]:.6g}, "
                         f"{jet.v[k]:.6g}): metric determinant {det[k]:.3e} <= 1e-14")

    sqrtE = E.sqrt()
    e1 = _quotient(Xu, sqrtE[None], out=Xu.c)             # views of `position`
    proj = F / sqrtE                      # <Xv, e1>
    w = _product(np.multiply, proj[None], e1, out=Xv.c, subtract=True)
    nw = _dot(w, w).sqrt()
    _quotient(w, nw[None], out=w.c)       # e2
    del w

    inv_sqrtE = 1.0 / sqrtE
    L = Taylor.stack([Taylor.stack([inv_sqrtE, 0.0 * inv_sqrtE]),
                      Taylor.stack([-F / (E * nw), 1.0 / nw])])
    return FrameData(basis=position, chart_to_frame=L)


# ---------------------------------------------------------------------------
# second fundamental form and its covariant gradient
# ---------------------------------------------------------------------------

@dataclass
class ShapePair:
    """a = h_11 and b = h_12 in the adapted frame, as ambient normal vectors,
    points last: both have shape (C, *points), C the ambient dimension.
    h_21 = b and h_22 = -a, so a and b are all of h.  Every invariant is an
    O(q)-invariant of a and b, so no basis of the normal space is needed."""

    a: np.ndarray
    b: np.ndarray
    minimality_residual: np.ndarray   # (*points)

    def __post_init__(self):
        shape = np.shape(self.a)
        if np.shape(self.b) != shape or np.shape(self.minimality_residual) != shape[1:]:
            raise ValueError("ShapePair needs a, b of shape (C, *points) and a "
                             "minimality residual of shape (*points)")


def _normal_part(v: Taylor, basis: Taylor, axes: str) -> Taylor:
    """v minus its components along the orthonormal rows of `basis`, in
    place (v must be a private array); v has the value axes `axes` then the
    ambient one.  The vectors are projected, never their Gram scalars, which
    cancel near the chart poles."""
    comps = _product(f"{axes}x...,bx...->{axes}b...", v, basis)
    return _product(f"{axes}b...,bx...->{axes}x...", comps, basis, out=v.c, subtract=True)


HESSIAN_SLOTS = ((2, 0), (1, 1), (0, 2))      # X_uu, X_uv, X_vv
POSITION = ((0, 0), (1, 0), (0, 1))           # X, X_u, X_v

# h and its derivatives are symmetric in (i, j) bit for bit, so only the
# index pairs i <= j are computed: pair p = 0, 1, 2 is (i, j) = 11, 12, 22,
# so entry (i, j) is pair i + j (`_symmetric_view`); these are its i and j
PAIR_ROWS = ([0, 0, 1], [0, 1, 1])


def _symmetric_view(pairs: np.ndarray, axis: int = 0) -> np.ndarray:
    """The full [..., i, j, ...] array of a symmetric [..., p, ...] one, p
    on `axis`, entry (i, j) read from pair i + j: a read-only view, no
    copy."""
    step = pairs.strides[axis]
    return np.lib.stride_tricks.as_strided(
        pairs, pairs.shape[:axis] + (2, 2) + pairs.shape[axis + 1:],
        pairs.strides[:axis] + (step, step) + pairs.strides[axis + 1:], writeable=False)


def _h_series(slots: Taylor, frame: FrameData) -> Taylor:
    """h_p = the normal part of D^2 X(e_i, e_j) for the pairs p = (i, j),
    i <= j (`PAIR_ROWS`), an ambient C-vector each, as a series of the
    degree of `slots`, the chart series of the Hessian slots
    (`HESSIAN_SLOTS`), which are projected and overwritten in place; value
    axes [p, x].  The frame's series have at least that degree.  The jet is
    not read, so a caller can free it first.

    Only the three distinct chart-Hessian slots K_s, s = uu, uv, vv, are
    projected, one at a time; with e_i = L[i, c] d_c X, h_ij = sum_s
    W[s, i, j] K_s where W[s, i, j] = sum over c + d = s of L[i, c] L[j, d]
    is a scalar series, formed here from L's entries, one pair and one
    coefficient at a time.  Each coefficient of h is formed whole, its
    terms added in the order of the product kernel `_product`, and written
    over the normal parts it replaces, so the largest temporary is one
    coefficient of h.
    """
    degree = _SIZE.index(len(slots.c))
    basis = frame.basis.truncate(degree)
    for slot in range(len(HESSIAN_SLOTS)):
        _normal_part(slots[slot], basis, "")
    normal = slots.c
    L = frame.chart_to_frame.c
    # h_k = W_0 normal_k + W_k normal_0 (k >= 1) and h_0 = W_0 normal_0,
    # each over normal_k: normal_0 last, since every h_k reads it
    h = np.empty(normal.shape[1:])
    for k in reversed(range(len(normal))):
        for pair, ij in enumerate(zip(*PAIR_ROWS)):
            np.einsum("s...,sx...->x...", _weights(L, 0, *ij), normal[k], out=h[pair])
            if k:
                h[pair] += np.einsum("s...,sx...->x...", _weights(L, k, *ij), normal[0])
        normal[k] = h
    return Taylor(normal)


def _weights(L: np.ndarray, k: int, i: int, j: int) -> np.ndarray:
    """Coefficient k of h's weights W[s, i, j], s = uu, uv, vv, from the
    coefficients L[k, i, c] of the chart-to-frame series: the products
    L[i, c] L[j, d] of the series, added over c + d = s."""
    LL = np.einsum("c...,d...->cd...", L[0, i], L[k, j])
    if k:
        LL += np.einsum("c...,d...->cd...", L[k, i], L[0, j])
    W = np.empty((len(HESSIAN_SLOTS),) + LL.shape[2:])
    W[0], W[2] = LL[0, 0], LL[1, 1]
    np.add(LL[0, 1], LL[1, 0], out=W[1])
    return W


def _shape_pair(h: np.ndarray) -> ShapePair:
    """The ShapePair of h[p, x, *points]; a and b are copies, so they keep
    no larger series alive."""
    residual = np.max(np.abs(h[0] + h[2]), axis=0)
    return ShapePair(a=h[0].copy(), b=h[1].copy(), minimality_residual=residual)


def second_fundamental_form(jet: Jet, frame: FrameData) -> ShapePair:
    if jet.order < 2:
        raise DomainError("second fundamental form needs a jet of order >= 2")
    slots, = Taylor.lift(jet, [(HESSIAN_SLOTS, 0)])
    return _shape_pair(_h_series(slots, frame).c[0])


@dataclass
class CovariantGradH:
    """First covariant derivative of h, points last: grad3[i, j, k, x] =
    h_ijk^x, an ambient normal vector, with a1 = h_111 and a2 = h_112 (shape
    (C, *points)).  `shape` is h itself, the degree-0 coefficient of the
    series that was differentiated, equal to `second_fundamental_form` on
    the same frame."""

    shape: ShapePair
    a1: np.ndarray
    a2: np.ndarray
    grad3: np.ndarray              # (2, 2, 2, C, *points)
    b1_direct: np.ndarray          # sum_ijk |h_ijk|^2
    codazzi_residual: np.ndarray


CODAZZI_TOL = 1e-6


def covariant_grad_h(jet: Jet, frame: FrameData | None = None) -> CovariantGradH:
    """Assemble h_ijk from the normal part of the chart derivatives of the
    ambient h plus the tangent connection terms, all from one jet of order
    >= 3 and its adapted frame; the projection carries the normal connection
    term, as (d(h^a xi_a))^normal = (d h^a) xi_a + h^a (d xi_a)^normal.

    The chart derivatives of h, e_1 and e_2 are the degree-1 coefficients of
    their Taylor series.  h_ijk = h_jik bit for bit, so the normal parts are
    projected for the six components i <= j alone; grad3 holds all eight.
    Without a `frame` it is built here (`adapted_frame`), its chart series
    lifted in one pass with those of the Hessian slots, and both are freed
    at their last reads, before grad h is assembled.
    """
    if jet.order < 3:
        raise DomainError(f"covariant_grad_h needs a jet of order >= 3, got {jet.order}")
    if frame is None:
        position, slots = Taylor.lift(jet, [(POSITION, 1), (HESSIAN_SLOTS, 1)])
        frame = adapted_frame(jet, position)
        del position
    else:
        slots, = Taylor.lift(jet, [(HESSIAN_SLOTS, 1)])
    omega_t = _tangent_connection(frame)
    h = _h_series(slots, frame)
    del slots

    # e_k(h_p), normal part, for the pairs p = (i, j), i <= j, written over
    # the chart derivatives of h_p, one pair at a time: [k, p, x]
    h0, normal = h.c[0], h.c[1:]
    basis = frame.basis.truncate(0)
    for pair in range(normal.shape[1]):
        normal[:, pair] = np.einsum("kc...,cx...->kx...", frame.chart_to_frame.c[0],
                                    normal[:, pair])
        _normal_part(Taylor(normal[None, :, pair]), basis, "k")
    del h, basis, frame
    # h_ijk = (normal + A_ijk) + B_ijk with the connection terms
    # A_ijk = h_mj omega[k, m, i] and B_ijk = h_im omega[k, m, j] = A_jik,
    # one k at a time; stored k first, [k, i, j, x] in memory: the order
    # b1_direct sums in
    grad3 = np.moveaxis(np.empty((2, 2, 2) + h0.shape[1:]), 0, 2)
    for k in range(len(grad3)):
        A = np.einsum("mjx...,mi...->ijx...", _symmetric_view(h0), omega_t[k])
        np.add(_symmetric_view(normal[k]), A, out=grad3[:, :, k])
        grad3[:, :, k] += np.swapaxes(A, 0, 1)
        del A
    del normal
    shape = _shape_pair(h0)
    del h0

    # h_ijk - h_kji and h_ijk - h_ikj: four distinct differences up to sign
    diffs = np.empty((4,) + grad3.shape[3:])
    for d, (x, y) in zip(diffs, (((0, 0, 1), (1, 0, 0)), ((0, 1, 1), (1, 1, 0)),
                                 ((0, 0, 1), (0, 1, 0)), ((1, 0, 1), (1, 1, 0)))):
        np.subtract(grad3[x], grad3[y], out=d)
    codazzi = np.max(np.abs(diffs, out=diffs), axis=(0, 1))
    return CovariantGradH(
        shape=shape,
        a1=grad3[0, 0, 0],
        a2=grad3[0, 0, 1],
        grad3=grad3,
        b1_direct=np.einsum("ijkx...,ijkx...->...", grad3, grad3),
        codazzi_residual=codazzi,
    )


# ---------------------------------------------------------------------------
# the frame-free scalar field S
# ---------------------------------------------------------------------------

def _contracted_christoffel(trace: np.ndarray, Xu: np.ndarray, Xv: np.ndarray,
                            ginv: np.ndarray) -> np.ndarray:
    """Contracted Christoffel symbols gamma^e = g^cd Gamma^e_cd (what a
    Laplacian needs beyond g^cd), points last, from `trace` = g^cd X_cd,
    the trace coefficient of X's trace series, X_u, X_v and the inverse
    metric: g^cd Gamma_{f,cd} = <g^cd X_cd, X_f>."""
    first_kind = np.stack([np.einsum("x...,x...->...", trace, Xu),
                           np.einsum("x...,x...->...", trace, Xv)])
    return np.einsum("ef...,f...->e...", ginv, first_kind)


def second_norm_field(jet: Jet, directions=None) -> tuple:
    """S = |h|^2 without constructing a normal frame (gauge-free route), as a
    trace series (`Taylor` of degree 2) along `directions`, the
    `trace_directions` of the jet's metric (formed here when not passed),
    and the contracted Christoffel symbols gamma^e its Laplacian reads
    (`invariants.laplace_beltrami`).  The value at the points is
    `S.c[0]`, and the other coefficients carry all the Laplacian needs.

    One pass of a jet of order >= 4 lifts the trace series of the Hessian
    slots, the values X, X_u, X_v and the trace coefficients T X_u, T X_v
    (`Taylor.lift`).  The other seven coefficients of the trace series of
    X, X_u, X_v are L or g^-1 times X_u, X_v and the slot values, so they
    are formed where a product reads them (`_form_coefficient`, bit for bit
    as lifted) and never stored: the product kernel reads each once per
    call, so once for g, and per slot once for its products <T, X_e> and
    once for each of the two subtractions.  The slot values are written
    last, once the other coefficients of all three slots are done, so they
    are the raw values the formed coefficients read and none is copied.
    gamma is taken before S is assembled, so no position series is alive
    then.

    The slots are projected onto the normal space one at a time, so no
    series carries two chart axes and the ambient axis at once; S then needs
    only the six inner products of the normal parts.  The vectors are
    projected before any inner product is taken: subtracting the radial and
    tangential parts from Gram entries of the raw jet instead cancels
    catastrophically near the poles.
    """
    if jet.order < 4:
        raise DomainError(f"second_norm_field needs a jet of order >= 4, got {jet.order}")
    if directions is None:
        directions = trace_directions(first_fundamental_form(jet))
    slots, values, traces = Taylor.lift(
        jet, [(HESSIAN_SLOTS, 2), (POSITION, 0), (POSITION[1:], TRACE)], directions)
    values, traces = values.c[0], traces.c[0]                       # [a, C]
    raw = slots.c[0]                # X_uu, X_uv, X_vv: unprojected until the last writes
    points = raw.shape[2:]

    def derivative(key):
        return values[POSITION.index(key)] if key in POSITION else raw[HESSIAN_SLOTS.index(key)]

    def series(index):
        """The trace series of POSITION[index], X (index 0), or X_u and X_v
        (slice(1, 3)) or all three (slice(0, 3)) on a key axis, as the
        function k -> its coefficient k that the product kernel reads, formed
        at each call and stored nowhere."""
        keys = POSITION[index] if isinstance(index, slice) else (POSITION[index],)

        def coefficient(k):
            if k == 0:
                return values[index]
            if k == 3 and index == slice(1, 3):                     # T X_u, T X_v: lifted
                return traces
            out = np.empty(values[index].shape)
            for row, a in zip(out.reshape((len(keys),) + values.shape[1:]), keys):
                if k == 3 and a != (0, 0):
                    row[...] = traces[POSITION.index(a) - 1]
                else:
                    _form_coefficient(row, k, a, derivative, directions)
            return out
        return coefficient

    X, Xc = series(0), series(slice(1, 3))
    # the metric g_ef = <X_e, X_f> and the distinct entries uu, uv, vv of
    # its inverse, by the adjugate; ginv[e, f] is a view of them
    gram = _product("ex...,fx...->ef...", Xc, Xc)
    g_uu, g_uv, g_vv = gram[0, 0], gram[0, 1], gram[1, 1]
    num, det = Taylor.stack([g_vv, -g_uv, g_uu]), g_uu * g_vv - g_uv * g_uv
    del gram, g_uu, g_uv, g_vv
    pairs = num / det[None]
    del num, det
    ginv = Taylor(_symmetric_view(pairs.c, axis=1))
    # K_s = T - <T, X> X - coeff_f X_f, coeff_f = <T, X_e> g^ef, each product
    # subtracted from T one coefficient at a time, and the values of all
    # three slots last: until then each is the raw value the formed series
    # read.  radial0 and coeff0 keep the value coefficients of <T, X> and
    # coeff_f of each slot for that last subtraction
    radial0 = np.empty((len(HESSIAN_SLOTS), 1) + points)
    coeff0 = np.empty((len(HESSIAN_SLOTS), 2) + points)
    for s in range(len(HESSIAN_SLOTS)):
        T = slots[s]                                                 # [C], a view
        products = _product("x...,ex...->e...", T, series(slice(0, 3)))   # <T, X_e>
        radial = Taylor(products.c[:, :1].copy())                    # <T, X>
        coeff = Taylor.einsum("e...,ef...->f...", products[1:], ginv)
        del products
        _product(np.multiply, radial, X, out=T.c, subtract=True, coefficients=(1, 2, 3))
        _product("f...,fx...->x...", coeff, Xc, out=T.c, subtract=True, coefficients=(1, 2, 3))
        radial0[s], coeff0[s] = radial.c[0], coeff.c[0]
        del radial, coeff
    # the last read of X's trace coefficient, before the slot values change
    gamma = _contracted_christoffel(X(3), values[1], values[2], directions[1])
    _product(np.multiply, Taylor(radial0[None]), X, out=slots.c, subtract=True,
             coefficients=(0,))                                     # [s, 1] broadcasts over C
    _product("sf...,fx...->sx...", Taylor(coeff0[None]), Xc, out=slots.c, subtract=True,
             coefficients=(0,))
    del radial0, coeff0, X, Xc, ginv, values, traces, raw
    Kuu, Kuv, Kvv = slots[0], slots[1], slots[2]
    # S = g^ik g^jl <K_ij, K_kl> with K symmetric, written out in the entries
    # p, r, s of the symmetric g^-1
    p, r, s = pairs[0], pairs[1], pairs[2]
    S = (p * p * _dot(Kuu, Kuu) + s * s * _dot(Kvv, Kvv)
         + 2.0 * (p * s + r * r) * _dot(Kuv, Kuv)
         + 4.0 * (p * r * _dot(Kuu, Kuv) + r * s * _dot(Kuv, Kvv))
         + 2.0 * r * r * _dot(Kuu, Kvv))
    return S, gamma
