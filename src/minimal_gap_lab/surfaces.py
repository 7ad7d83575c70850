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
derivatives of the frame and of h that the covariant gradient of h needs, and
the degree-2 coefficients of S give its Laplacian; no finite difference is
taken anywhere.

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
import itertools
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
STAGE_ROWS = 1024            # (component, u-basis) rows of eval_jet's inner sum at once
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
    degree.  The arrays are read-only, so evaluation (possibly from several
    worker threads) only ever reads them.
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


@dataclass
class Jet:
    """Chart-parameter Taylor data of the immersion at one or many points."""

    spec: ImmersionSpec
    u: np.ndarray
    v: np.ndarray
    order: int
    derivs: dict                    # {(i, j): d_u^i d_v^j X, shape (ambient_dim, *points)}


def eval_jet(spec: ImmersionSpec, point, order: int = JET_ORDER_MAX) -> Jet:
    """Exact-calculus jet at chart parameters; no finite differencing here.

    `point` = (u, v) may be scalars or arrays whose shapes broadcast, and
    the jet has their broadcast shape.  With U and V the bases of u and v
    (`ImmersionSpec`), d_u^i d_v^j X is sum_p U_p^(i) (sum_q coef V_q^(j))
    (sum factorization; Orszag, J. Comput. Phys. 37, 1980): one contraction
    over q per v-order j and nonzero block of coef, then one over p per
    (i, j).  A tile of a tensor grid, passed as (u_rows[:, None],
    v_cols[None, :]), evaluates the bases on its rows and its columns
    alone; other points evaluate them point by point.  Both contractions
    are einsums, which add the products in index order whatever the point
    shape, so a tile gets the bits of its flattened points (a BLAS matmul
    fuses its multiply-adds differently for different shapes).
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
        u_axis, v_axis, contract = u[:, 0], v[0], "rp,kps->krs"
    else:
        u_axis, v_axis = (np.broadcast_to(a, shape).ravel() for a in (u, v))
        contract = "np,kpn->kn"
    n_comp, n_u, n_v = spec.coef.shape
    U = [np.ascontiguousarray(d.T) for d in
         _basis_derivatives(spec.chart, spec.u_exps, u_axis, order)]
    # components per pass: sum_q coef V_q^(j) keeps at most
    # max(STAGE_ROWS, n_u) rows, whatever the spec
    block = max(1, STAGE_ROWS // max(n_u, 1))
    derivs = {}
    for j, V in enumerate(_basis_derivatives(spec.chart, spec.v_exps, v_axis, order)):
        for i in range(order + 1 - j):
            derivs[i, j] = np.empty((n_comp,) + (shape if tile else (len(u_axis),)))
        for start in range(0, n_comp, block):
            ks = slice(start, min(start + block, n_comp))
            inner = np.empty((ks.stop - start, n_u, V.shape[1]))
            for us, vs in spec.blocks:
                np.einsum("kpq,qs->kps", spec.coef[ks, us, vs], V[vs], out=inner[:, us])
            for i in range(order + 1 - j):
                np.einsum(contract, U[i], inner, out=derivs[i, j][ks])
    if not tile:
        derivs = {key: d.reshape((n_comp,) + shape) for key, d in derivs.items()}
    return Jet(spec, *np.broadcast_arrays(u, v), order, derivs)


def first_fundamental_form(jet: Jet):
    """E, F, G = <X_u, X_u>, <X_u, X_v>, <X_v, X_v> at the jet's points."""
    Xu, Xv = jet.derivs[1, 0], jet.derivs[0, 1]
    return (np.einsum("x...,x...->...", Xu, Xu),
            np.einsum("x...,x...->...", Xu, Xv),
            np.einsum("x...,x...->...", Xv, Xv))


# ---------------------------------------------------------------------------
# truncated bivariate Taylor series in the chart offsets
# ---------------------------------------------------------------------------

# exponents (a, b) of the monomials du^a dv^b, in coefficient-axis order
MONOMIALS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
_SIZE = (1, 3, 6)            # coefficient count of a series of degree 0, 1, 2


@functools.lru_cache(maxsize=None)
def _pairs(size: int) -> tuple:
    """For each coefficient k of a series with `size` coefficients, the
    index pairs (i, j) whose monomials multiply to monomial k."""
    degree = _SIZE.index(size)
    terms = [[] for _ in range(size)]
    for i, j in itertools.product(range(size), repeat=2):
        a, b = MONOMIALS[i][0] + MONOMIALS[j][0], MONOMIALS[i][1] + MONOMIALS[j][1]
        if a + b <= degree:
            terms[MONOMIALS.index((a, b))].append((i, j))
    return tuple(tuple(t) for t in terms)


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


def _product(op, x, y) -> "Taylor":
    """op(x, y), bilinear, truncated at the series degree.

    With one series operand it is a single call over all its coefficients.
    With two it runs on coefficient-axis slices, which are views: x0 * y[all]
    gives out[k] = x0 y_k, x[1:] * y0 is added into out[1:], and the pairs
    with both indices >= 1 follow (only at degree 2).
    """
    if not (isinstance(x, Taylor) and isinstance(y, Taylor)):
        series = (isinstance(x, Taylor), isinstance(y, Taylor))
        return Taylor(_apply(op, *(a.c if s else a for a, s in zip((x, y), series)), series))
    if len(x.c) != len(y.c):
        raise ValueError(f"Taylor operands of mixed degree: sizes {len(x.c)}, {len(y.c)}")
    out = _apply(op, x.c[0], y.c, (False, True))
    if len(out) > 1:
        out[1:] += _apply(op, x.c[1:], y.c[0], (True, False))
    for k, pairs in enumerate(_pairs(len(out))):
        for i, j in pairs:
            if i and j:
                out[k] += _apply(op, x.c[i], y.c[j])
    return Taylor(out)


class Taylor:
    """A field truncated at degree <= 2 in the chart offsets (du, dv).

    `c[k]` is the coefficient of the k-th monomial of MONOMIALS (1, du, dv,
    du^2, du dv, dv^2), so c[1] and c[2] are the first chart derivatives and
    c[3], c[4], c[5] are f_uu / 2, f_uv and f_vv / 2.  `c` has the shape
    (1, 3 or 6 coefficients, *value axes, *point axes): the points come last,
    so every operation runs over long contiguous rows even when the value
    axes are tiny.  Indexing and `einsum` subscripts address the value axes,
    with a trailing `...` for the points.  numpy arrays and scalars enter as
    constants, and every product is truncated at the series' own degree
    (truncated Taylor arithmetic; Griewank & Walther, Evaluating
    Derivatives, ch. 13).
    """

    __slots__ = ("c",)
    __array_ufunc__ = None           # ndarray operators defer to ours

    def __init__(self, c):
        self.c = c

    @classmethod
    def lift(cls, jet: Jet, i: int, j: int, degree: int) -> "Taylor":
        """The series of the chart derivative d_u^i d_v^j X read from the jet,
        which must have order >= i + j + degree; value axis: the component."""
        if degree == 0:
            return cls(jet.derivs[i, j][None])
        monomials = MONOMIALS[:_SIZE[degree]]
        out = np.empty((len(monomials),) + jet.derivs[i, j].shape)
        for k, (a, b) in enumerate(monomials):
            scale = math.factorial(a) * math.factorial(b)
            if scale == 1:
                out[k] = jet.derivs[i + a, j + b]
            else:
                np.divide(jet.derivs[i + a, j + b], scale, out=out[k])
        return cls(out)

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


def _quotient(num, den: Taylor) -> Taylor:
    """q = num / den from sum over i + j = k of q_i den_j = num_k; `num` may
    be a constant."""
    pairs = _pairs(len(den.c))
    q = []
    for k in range(len(den.c)):
        acc = num.c[k] if isinstance(num, Taylor) else (num if k == 0 else 0.0)
        for i, j in pairs[k]:
            if i != k:
                acc = acc - q[i] * den.c[j]
        q.append(acc / den.c[0])
    return Taylor(np.stack(q))


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
    X = eval_jet(spec, (U, V), order=0).derivs[0, 0]
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
    """Adapted orthonormal tangent frame {e1, e2} at a jet's points; the
    position X is the jet's own `derivs[0, 0]`.  No basis of the normal
    space is built: it is what X, e1 and e2 leave of R^C.

    Every field is a Taylor series of degree min(jet order - 1, 1) in the
    chart offsets: `e1.c[0]` is the frame vector and `e1.c[1:]` its chart
    derivatives.  Points last, like every per-node array: the value axes
    come first and the jet's point axes after them.  `chart_to_frame` is the
    2x2 matrix L with e_i = L[i, c] d_c X.
    """

    e1: Taylor                      # value axes (C,)
    e2: Taylor
    chart_to_frame: Taylor          # value axes (2, 2)


def _dot(x: Taylor, y: Taylor) -> Taylor:
    return Taylor.einsum("c...,c...->...", x, y)


def _tangent_connection(frame: FrameData) -> np.ndarray:
    """omega_t[k, m, i] = <D_{e_k} e_m, e_i> from the degree-1 coefficients
    of the frame (from a jet of order >= 2), which are its chart derivatives
    d_u, d_v; exactly skew, points last."""
    L = frame.chart_to_frame.c[0]
    de = np.stack([frame.e1.c[1:], frame.e2.c[1:]], axis=1)      # [c, m, C]
    ee = np.stack([frame.e1.c[0], frame.e2.c[0]])                # [i, C]
    omega = np.einsum("kc...,cmi...->kmi...", L,
                      np.einsum("cmx...,ix...->cmi...", de, ee))
    return 0.5 * (omega - np.swapaxes(omega, 1, 2))


def adapted_frame(jet: Jet) -> FrameData:
    """Orthonormal tangent frame from a jet of order >= 1.

    The construction runs once, on Taylor series of degree
    min(jet order - 1, 1); a plain frame is its degree-0 case.  From a jet
    of order >= 2 the degree-1 coefficients are the exact chart derivatives
    of the frame, which `_tangent_connection` turns into the connection
    coefficients.
    """
    if jet.order < 1:
        raise DomainError("adapted_frame needs a jet of order >= 1")
    degree = min(jet.order - 1, 1)
    Xu = Taylor.lift(jet, 1, 0, degree)
    Xv = Taylor.lift(jet, 0, 1, degree)

    E = _dot(Xu, Xu)
    F = _dot(Xu, Xv)
    G = _dot(Xv, Xv)
    det = E.c[0] * G.c[0] - F.c[0] * F.c[0]
    if np.any(det <= 1e-14):
        k = np.unravel_index(np.argmin(det), det.shape)
        raise FrameError(f"{jet.spec.name}: not an immersion at (u, v) = ({jet.u[k]:.6g}, "
                         f"{jet.v[k]:.6g}): metric determinant {det[k]:.3e} <= 1e-14")

    sqrtE = E.sqrt()
    e1 = Xu / sqrtE[None]
    proj = F / sqrtE                      # <Xv, e1>
    w = Xv - proj[None] * e1
    nw = _dot(w, w).sqrt()
    e2 = w / nw[None]

    inv_sqrtE = 1.0 / sqrtE
    L = Taylor.stack([Taylor.stack([inv_sqrtE, 0.0 * inv_sqrtE]),
                      Taylor.stack([-F / (E * nw), 1.0 / nw])])
    return FrameData(e1=e1, e2=e2, chart_to_frame=L)


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


def _tangent_basis(jet: Jet, frame: FrameData, degree: int) -> Taylor:
    """X, e1, e2 on a first value axis: orthonormal, and spanning all of R^C
    but the normal space (the jet needs order >= 1 + degree)."""
    return Taylor.stack([Taylor.lift(jet, 0, 0, degree),
                         frame.e1.truncate(degree), frame.e2.truncate(degree)])


def _normal_part(v: Taylor, basis: Taylor, axes: str) -> Taylor:
    """v minus its components along the orthonormal rows of `basis`; v has
    the value axes `axes` then the ambient one.  The vectors are projected,
    never their Gram scalars, which cancel near the chart poles."""
    comps = Taylor.einsum(f"{axes}x...,bx...->{axes}b...", v, basis)
    return v - Taylor.einsum(f"{axes}b...,bx...->{axes}x...", comps, basis)


def _h_series(jet: Jet, frame: FrameData, degree: int) -> Taylor:
    """h[i, j] = the normal part of D^2 X(e_i, e_j), an ambient C-vector, as a
    series of the given degree (the jet needs order >= 2 + degree).

    Only the three distinct chart-Hessian slots K_s, s = uu, uv, vv, are
    projected; with e_i = L[i, c] d_c X, h_ij = sum_s W[s, i, j] K_s where
    W[s, i, j] = sum over c + d = s of L[i, c] L[j, d] is a scalar series.
    """
    slots = Taylor.stack([Taylor.lift(jet, i, j, degree) for i, j in ((2, 0), (1, 1), (0, 2))])
    normal = _normal_part(slots, _tangent_basis(jet, frame, degree), "s")
    L = frame.chart_to_frame.truncate(degree)
    LL = Taylor.einsum("ic...,jd...->cdij...", L, L)
    W = Taylor.stack([LL[0, 0], LL[0, 1] + LL[1, 0], LL[1, 1]])
    return Taylor.einsum("sij...,sx...->ijx...", W, normal)


def _shape_pair(h: np.ndarray) -> ShapePair:
    """The ShapePair of h[i, j, x, *points]; a and b are copies, so they
    keep no larger series alive."""
    residual = np.max(np.abs(h[0, 0] + h[1, 1]), axis=0)
    return ShapePair(a=h[0, 0].copy(), b=h[0, 1].copy(), minimality_residual=residual)


def second_fundamental_form(jet: Jet, frame: FrameData) -> ShapePair:
    if jet.order < 2:
        raise DomainError("second fundamental form needs a jet of order >= 2")
    return _shape_pair(_h_series(jet, frame, 0).c[0])


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


def covariant_grad_h(jet: Jet, frame: FrameData) -> CovariantGradH:
    """Assemble h_ijk from the normal part of the chart derivatives of the
    ambient h plus the tangent connection terms, all from one jet of order
    >= 3 and its adapted frame; the projection carries the normal connection
    term, as (d(h^a xi_a))^normal = (d h^a) xi_a + h^a (d xi_a)^normal.

    The chart derivatives of h, e_1 and e_2 are the degree-1 coefficients of
    their Taylor series.
    """
    if jet.order < 3:
        raise DomainError(f"covariant_grad_h needs a jet of order >= 3, got {jet.order}")
    h = _h_series(jet, frame, 1)
    h0 = h.c[0]                                        # [i, j, x]
    L = frame.chart_to_frame.c[0]
    omega_t = _tangent_connection(frame)

    ekh = Taylor(np.einsum("kc...,cijx...->ijkx...", L, h.c[1:])[None])
    grad3 = (
        _normal_part(ekh, _tangent_basis(jet, frame, 0), "ijk").c[0]
        + np.einsum("mjx...,kmi...->ijkx...", h0, omega_t)
        + np.einsum("imx...,kmj...->ijkx...", h0, omega_t)
    )

    codazzi = np.maximum(
        np.max(np.abs(grad3 - np.swapaxes(grad3, 0, 2)), axis=(0, 1, 2, 3)),
        np.max(np.abs(grad3 - np.swapaxes(grad3, 1, 2)), axis=(0, 1, 2, 3)),
    )
    return CovariantGradH(
        shape=_shape_pair(h0),
        a1=grad3[0, 0, 0],
        a2=grad3[0, 0, 1],
        grad3=grad3,
        b1_direct=np.einsum("ijkx...,ijkx...->...", grad3, grad3),
        codazzi_residual=codazzi,
    )


# ---------------------------------------------------------------------------
# the frame-free scalar field S
# ---------------------------------------------------------------------------

def _inverse2(g: Taylor) -> Taylor:
    """Inverse of a field of 2x2 matrices, by the adjugate."""
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    adj = Taylor.stack([Taylor.stack([g[1, 1], -g[0, 1]]),
                        Taylor.stack([-g[1, 0], g[0, 0]])])
    return adj / det[None, None]


def second_norm_field(jet: Jet) -> Taylor:
    """S = |h|^2 without constructing a normal frame (gauge-free route), as a
    degree-2 Taylor series in the chart offsets, from a jet of order >= 4.

    The value at the points is `.c[0]`; the degree-2 coefficients carry all
    the Laplacian of S needs.

    The Hessian slots X_uu, X_uv, X_vv are projected onto the normal space
    one at a time, so no series carries two chart axes and the ambient axis
    at once; S then needs only the six inner products of the normal parts.
    The vectors are projected before any inner product is taken: subtracting
    the radial and tangential parts from Gram entries of the raw jet instead
    cancels catastrophically near the poles.
    """
    if jet.order < 4:
        raise DomainError(f"second_norm_field needs a jet of order >= 4, got {jet.order}")
    X = Taylor.lift(jet, 0, 0, 2)
    Xc = Taylor.stack([Taylor.lift(jet, 1, 0, 2), Taylor.lift(jet, 0, 1, 2)])   # [c, C]
    ginv = _inverse2(Taylor.einsum("cx...,dx...->cd...", Xc, Xc))
    K = []
    for i, j in ((2, 0), (1, 1), (0, 2)):
        T = Taylor.lift(jet, i, j, 2)                                # [C]
        coeff = Taylor.einsum("e...,ef...->f...",                   # <T, X_e> g^ef
                              Taylor.einsum("x...,ex...->e...", T, Xc), ginv)
        K.append(T - _dot(T, X)[None] * X - Taylor.einsum("f...,fx...->x...", coeff, Xc))
    Kuu, Kuv, Kvv = K
    # S = g^ik g^jl <K_ij, K_kl> with K symmetric, written out in the entries
    # p, r, s of the symmetric g^-1
    p, r, s = ginv[0, 0], ginv[0, 1], ginv[1, 1]
    return (p * p * _dot(Kuu, Kuu) + s * s * _dot(Kvv, Kvv)
            + 2.0 * (p * s + r * r) * _dot(Kuv, Kuv)
            + 4.0 * (p * r * _dot(Kuu, Kuv) + r * s * _dot(Kuv, Kvv))
            + 2.0 * r * r * _dot(Kuu, Kvv))
