"""Immersion catalog, spec parsing, exact jets, truncated Taylor series, adapted
frames, and the second fundamental form with its first covariant derivative.

Immersions are analytic: polynomial in (x, y, z) restricted to the unit
2-sphere chart, or trigonometric polynomials in the torus chart angles.  All
chart derivatives up to order 4 are therefore exact calculus (the only
floating-point ingredient is coefficient rounding).  Everything built on top
of the jets is differentiated the same way: the frame construction, h and the
frame-free S run on `Taylor` series in the chart offsets whose coefficients
come straight from the jets.  The degree-1 coefficients give the chart
derivatives of the frame and of h that the covariant gradient of h needs, and
the degree-2 coefficients of S give its Laplacian; no finite difference is
taken anywhere.

Every array-valued operation is batch-native: chart parameters may be scalars
or arrays of any shape, and every per-node array has one layout, points last:
its value axes (component, frame slot, normal index, ...) come first and the
shape of the chart parameters last, from the jet through the frame, h and
grad h to the invariants.  Small contractions then run over long contiguous
rows of points even when the value axes are tiny.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
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

CATALOG_DEGREES = {"equator": 1, "veronese": 2, "calabi3": 3, "calabi4": 4}
CATALOG_NAMES = ("equator", "veronese", "calabi3", "calabi4", "clifford")


# ---------------------------------------------------------------------------
# chart function representations with exact differentiation
# ---------------------------------------------------------------------------

class TrigPoly4:
    """Polynomial in (sin t, cos t, sin p, cos p) with float coefficients.

    Hosts sphere-chart components x = st*cp, y = st*sp, z = ct; formal
    differentiation in the angles is exact calculus on the exponent tuples.
    `groups` holds the same terms grouped by their u-part (st, ct), built
    once here, so evaluation (possibly from several threads) only reads it.
    """

    __slots__ = ("terms", "groups")

    def __init__(self, terms: dict):
        self.terms = {e: c for e, c in terms.items() if c != 0.0}
        groups = {}
        for (e0, e1, e2, e3), coeff in self.terms.items():
            groups.setdefault((e0, e1), []).append((e2, e3, coeff))
        self.groups = tuple((u_exps, tuple(v_terms)) for u_exps, v_terms in groups.items())

    @classmethod
    def from_xyz(cls, monomials: dict) -> "TrigPoly4":
        terms = {}
        for (i, j, k), coeff in monomials.items():
            key = (i + j, k, j, i)  # st, ct, sp, cp
            terms[key] = terms.get(key, 0.0) + float(coeff)
        return cls(terms)

    def _apply_pair(self, slot_sin):
        """d/dangle for the (sin, cos) exponent pair at slot_sin, slot_sin + 1."""
        out = {}
        for exps, coeff in self.terms.items():
            s, c = exps[slot_sin], exps[slot_sin + 1]
            head, tail = exps[:slot_sin], exps[slot_sin + 2:]
            if s:
                key = head + (s - 1, c + 1) + tail
                out[key] = out.get(key, 0.0) + coeff * s
            if c:
                key = head + (s + 1, c - 1) + tail
                out[key] = out.get(key, 0.0) - coeff * c
        return TrigPoly4(out)

    def diff_u(self):
        return self._apply_pair(0)

    def diff_v(self):
        return self._apply_pair(2)

    def eval(self, pows):
        """Evaluate on power tables pows[axis][exponent] -> array, as
        sum_ab U_ab * (sum_cd c * V_cd) with U_ab = st^a ct^b, V_cd = sp^c cp^d.

        The u tables (axes 0, 1) and the v tables (axes 2, 3) may have
        different shapes that broadcast, e.g. a column of rows and a row of
        columns: the inner sums then run over the v shape alone, and each
        u-group costs one product over the full broadcast shape (sum
        factorization; Orszag, J. Comput. Phys. 37, 1980).
        """
        total = 0.0
        for (a, b), v_terms in self.groups:
            inner = 0.0
            for c, d, coeff in v_terms:
                inner = inner + coeff * (pows[2][c] * pows[3][d])
            total = total + (pows[0][a] * pows[1][b]) * inner
        return total


class TrigSeries:
    """Finite sum of coeff * cos(m u + n v) / sin(m u + n v) terms."""

    __slots__ = ("terms",)
    COS, SIN = 0, 1

    def __init__(self, terms):
        self.terms = [(float(c), int(kind), int(m), int(n)) for c, kind, m, n in terms]

    def _diff(self, freq_slot):
        out = []
        for c, kind, m, n in self.terms:
            f = m if freq_slot == 0 else n
            if f == 0 or c == 0.0:
                continue
            if kind == self.COS:
                out.append((-c * f, self.SIN, m, n))
            else:
                out.append((c * f, self.COS, m, n))
        return TrigSeries(out)

    def diff_u(self):
        return self._diff(0)

    def diff_v(self):
        return self._diff(1)

    def eval(self, U, V):
        total = 0.0
        for c, kind, m, n in self.terms:
            phase = m * U + n * V
            total = total + c * (np.cos(phase) if kind == self.COS else np.sin(phase))
        return total


# ---------------------------------------------------------------------------
# immersion specs and the catalog
# ---------------------------------------------------------------------------

@dataclass
class ImmersionSpec:
    """A validated analytic immersion of a surface into a unit sphere."""

    name: str
    chart: str                      # "sphere" | "torus"
    ambient_dim: int                # components live in R^ambient_dim = R^(N+1)
    euler_char: int
    components: list                # xyz monomial dicts (sphere) or term lists (torus)
    pole_margin: float = DEFAULT_POLE_MARGIN
    _tables: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # every table up to JET_ORDER_MAX is built here, once, so evaluation
        # (possibly from several worker threads) only ever reads them
        if self.chart == SPHERE:
            tables = {(0, 0): [TrigPoly4.from_xyz(c) for c in self.components]}
        else:
            tables = {(0, 0): [TrigSeries(c) for c in self.components]}
        for total in range(1, JET_ORDER_MAX + 1):
            for i in range(total, -1, -1):
                j = total - i
                if i > 0:
                    tables[i, j] = [f.diff_u() for f in tables[i - 1, j]]
                else:
                    tables[i, j] = [f.diff_v() for f in tables[i, j - 1]]
        self._tables = tables

    @property
    def codim(self) -> int:
        """Codimension q of the surface in S^N, N = ambient_dim - 1."""
        return self.ambient_dim - 3

    def derivative_table(self, order: int):
        """Exact chart-derivatives {(i, j): [per-component function]}, all
        orders up to JET_ORDER_MAX; `order` is only checked against it."""
        if order > JET_ORDER_MAX:
            raise DomainError(f"jet order {order} exceeds maximum {JET_ORDER_MAX}")
        return self._tables


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
    the jet has their broadcast shape.  A tile of a tensor grid is passed as
    (u_rows[:, None], v_cols[None, :]): every power table of the sphere
    chart is then built on the rows or on the columns alone.
    """
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
    tables = spec.derivative_table(order)
    if spec.chart == SPHERE:
        # differentiation trades sin for cos powers of one angle, so no table
        # has a power above the base table's sin + cos degree
        maxe = max((max(e[0] + e[1], e[2] + e[3]) for f in tables[0, 0] for e in f.terms),
                   default=0)
        base = [np.sin(u), np.cos(u), np.sin(v), np.cos(v)]
        pows = [[np.ones_like(b)] for b in base]
        for axis, b in enumerate(base):
            for _ in range(maxe):
                pows[axis].append(pows[axis][-1] * b)
        args = (pows,)
    else:
        args = (u, v)
    derivs = {}
    for (i, j), funcs in tables.items():
        if i + j > order:
            continue
        derivs[i, j] = np.empty((len(funcs),) + shape)
        for k, f in enumerate(funcs):
            derivs[i, j][k] = f.eval(*args)
    return Jet(spec, *np.broadcast_arrays(u, v), order, derivs)


def first_fundamental_form(jet: Jet):
    """E, F, G = <X_u, X_u>, <X_u, X_v>, <X_v, X_v> at the jet's points."""
    Xu, Xv = jet.derivs[1, 0], jet.derivs[0, 1]
    return (np.einsum("x...,x...->...", Xu, Xu),
            np.einsum("x...,x...->...", Xu, Xv),
            np.einsum("x...,x...->...", Xv, Xv))


def jet_at(spec: ImmersionSpec, point, order: int) -> Jet:
    """`point` itself if it is already a Jet of at least `order`, else the
    jet of that order at the chart parameters `point` = (u, v)."""
    if isinstance(point, Jet):
        if point.order < order:
            raise DomainError(f"needs a jet of order >= {order}, got {point.order}")
        return point
    return eval_jet(spec, point, order=order)


# ---------------------------------------------------------------------------
# truncated bivariate Taylor series in the chart offsets
# ---------------------------------------------------------------------------

# exponents (a, b) of the monomials du^a dv^b, in coefficient-axis order
MONOMIALS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
_SIZE = (1, 3, 6)            # coefficient count of a series of degree 0, 1, 2


@functools.lru_cache(maxsize=None)
def _product_terms(is_series: tuple, size: int) -> tuple:
    """For each output coefficient, the coefficient-index tuples whose
    monomials multiply to it; a constant operand contributes index 0 only."""
    degree = _SIZE.index(size)
    terms = [[] for _ in range(size)]
    for combo in itertools.product(*(range(size) if s else (0,) for s in is_series)):
        a = sum(MONOMIALS[i][0] for i in combo)
        b = sum(MONOMIALS[i][1] for i in combo)
        if a + b <= degree:
            terms[MONOMIALS.index((a, b))].append(combo)
    return tuple(tuple(t) for t in terms)


def _product(combine, *operands) -> "Taylor":
    """combine(*operands) (a multilinear map) truncated at the series degree."""
    is_series = tuple(isinstance(op, Taylor) for op in operands)
    sizes = {len(op.c) for op, s in zip(operands, is_series) if s}
    if len(sizes) != 1:
        raise ValueError(f"Taylor operands of mixed degree: sizes {sorted(sizes)}")
    size = sizes.pop()
    out = None
    for k, combos in enumerate(_product_terms(is_series, size)):
        for n, combo in enumerate(combos):
            args = [op.c[i] if s else op for op, s, i in zip(operands, is_series, combo)]
            if out is None:
                first = combine(*args)
                out = np.empty((size,) + np.shape(first))
                out[0] = first
            elif n == 0:
                combine(*args, out=out[k, ...])
            else:
                out[k] += combine(*args)
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
    def einsum(subscripts: str, *operands) -> "Taylor":
        return _product(functools.partial(np.einsum, subscripts), *operands)

    @staticmethod
    def stack(series) -> "Taylor":
        """Stack along a new first value axis."""
        return Taylor(np.stack([s.c for s in series], axis=1))

    def truncate(self, degree: int) -> "Taylor":
        return Taylor(self.c[:_SIZE[degree]])

    def take(self, k: np.ndarray) -> "Taylor":
        """Entry k[p] along the last value axis at each point p."""
        axis = self.c.ndim - k.ndim - 1
        index = k.reshape((1,) * (axis + 1) + k.shape)
        return Taylor(np.take_along_axis(self.c, index, axis=axis).squeeze(axis))

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
        pairs = _product_terms((True, True), len(self.c))
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
    pairs = _product_terms((True, True), len(den.c))
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
        [(r, TrigSeries.COS, 1, 0)],
        [(r, TrigSeries.SIN, 1, 0)],
        [(r, TrigSeries.COS, 0, 1)],
        [(r, TrigSeries.SIN, 0, 1)],
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
    _expect(isinstance(ambient, int) and ambient >= 3, "ambient_dim",
            "must be an integer >= 3")
    euler = data["euler_char"]
    _expect(isinstance(euler, int), "euler_char", "must be an integer")
    comps_raw = data["components"]
    _expect(isinstance(comps_raw, list), "components", "must be an array")
    _expect(len(comps_raw) == ambient, "components",
            f"expected {ambient} component functions, got {len(comps_raw)}")

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
                        and all(isinstance(e, int) and e >= 0 for e in exps),
                        f"{tpath}.exps", "must be three nonnegative integers")
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
                        and all(isinstance(f, int) for f in freq),
                        f"{tpath}.freq", "must be two integers")
                terms.append((coeff, TrigSeries.COS if kind == "cos" else TrigSeries.SIN,
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
                      "type": "cos" if kind == TrigSeries.COS else "sin",
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
    if spec.chart == SPHERE:
        m = spec.pole_margin + 1e-3
        u = np.linspace(m, math.pi - m, n_u)
        v = np.linspace(0.0, 2 * math.pi, n_v, endpoint=False)
    else:
        u = np.linspace(0.0, 2 * math.pi, n_u, endpoint=False)
        v = np.linspace(0.0, 2 * math.pi, n_v, endpoint=False)
    return np.meshgrid(u, v, indexing="ij")


def validate_spec(spec: ImmersionSpec,
                  unit_tol: float = 1e-12,
                  minimality_tol: float = 1e-8,
                  unit_grid=(64, 64),
                  minimality_grid=(8, 12)) -> dict:
    """Check |X| = 1 and |H| = 0 on validation grids; reject on failure."""
    U, V = _validation_points(spec, *unit_grid)
    X = eval_jet(spec, (U, V), order=0).derivs[0, 0]
    unit_residual = float(np.max(np.abs(np.einsum("c...,c...->...", X, X) - 1.0)))
    if not unit_residual <= unit_tol:      # NaN fails too
        raise ValidationError(
            f"{spec.name}: image not on the unit sphere "
            f"(max ||X|^2 - 1| = {unit_residual:.3e} > {unit_tol:g})")

    U, V = _validation_points(spec, *minimality_grid)
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
# adapted frames
# ---------------------------------------------------------------------------

@dataclass
class FrameData:
    """Adapted orthonormal frame {e1, e2, xi_1..xi_q} at a jet's points; the
    position X is the jet's own `derivs[0, 0]`.

    Every field is a Taylor series of degree min(jet order - 1, 1) in the
    chart offsets, built with the pivot order frozen at the degree-0
    coefficients: `e1.c[0]` is the frame vector and `e1.c[1:]` its chart
    derivatives.  Points last, like every per-node array: the value axes
    come first and the jet's point axes after them.  `chart_to_frame` is the
    2x2 matrix L with e_i = L[i, c] d_c X, and `pivot_idx[alpha]` the
    ambient axis that seeded the normal xi_alpha.
    """

    e1: Taylor                      # value axes (C,)
    e2: Taylor
    xi: Taylor                      # value axes (q, C)
    chart_to_frame: Taylor          # value axes (2, 2)
    pivot_idx: np.ndarray           # (q, *points)


def _dot(x: Taylor, y: Taylor) -> Taylor:
    return Taylor.einsum("c...,c...->...", x, y)


def _chart_hessian(jet: Jet, degree: int) -> Taylor:
    """The series of d_c d_d X, value axes (c, d, C); needs order >= 2 + degree."""
    Xuu, Xuv, Xvv = (Taylor.lift(jet, i, j, degree) for i, j in ((2, 0), (1, 1), (0, 2)))
    return Taylor.stack([Taylor.stack([Xuu, Xuv]), Taylor.stack([Xuv, Xvv])])


def _normal_frame(X: Taylor, e1: Taylor, e2: Taylor, q: int, pivot_idx=None):
    """Deterministic pivoted orthonormalization of the ambient complement.

    The pivot axes are chosen from the degree-0 coefficients, or given as
    `pivot_idx` (shape (q, *points)), and frozen for the higher ones, so the
    normal fields are smooth series in the chart offsets.
    """
    C = X.c.shape[1]
    points = X.c.shape[2:]
    basis = np.empty(X.c.shape[:1] + (3 + q,) + X.c.shape[1:])
    basis[:, 0], basis[:, 1], basis[:, 2] = X.c, e1.c, e2.c
    chosen = np.zeros((q,) + points, dtype=np.int64)
    used = np.zeros((C,) + points, dtype=bool)
    for slot in range(q):
        done = Taylor(basis[:, :3 + slot])          # orthonormal so far
        if pivot_idx is None:
            # residual^2 of axis k against the current orthonormal basis
            resid2 = 1.0 - np.sum(done.c[0] ** 2, axis=0)
            k = np.argmax(np.where(used, -np.inf, resid2), axis=0)
        else:
            k = np.asarray(pivot_idx)[slot]
        chosen[slot] = k
        np.put_along_axis(used, k[None], True, axis=0)

        onehot = np.zeros((C,) + points)
        np.put_along_axis(onehot, k[None], 1.0, axis=0)
        v = onehot - Taylor.einsum("b...,bc...->c...", done.take(k), done)
        norm = _dot(v, v).sqrt()
        if np.any(norm.c[0] < 1e-8):
            raise FrameError("normal-frame orthonormalization degenerated")
        basis[:, 3 + slot] = (v / norm[None]).c
    return Taylor(basis[:, 3:]), chosen


def _connection_forms(frame: FrameData):
    """omega_t[k, m, i] = <D_{e_k} e_m, e_i> and omega_n[k, b, a] =
    <D_{e_k} xi_b, xi_a> from the degree-1 coefficients of the frame (from a
    jet of order >= 2), which are its chart derivatives d_u, d_v; exactly
    skew, points last."""
    L = frame.chart_to_frame.c[0]
    de = np.stack([frame.e1.c[1:], frame.e2.c[1:]], axis=1)      # [c, m, C]
    ee = np.stack([frame.e1.c[0], frame.e2.c[0]])                # [i, C]
    omega_t = np.einsum("kc...,cmi...->kmi...", L,
                        np.einsum("cmx...,ix...->cmi...", de, ee))
    omega_n = np.einsum("kc...,cba...->kba...", L,
                        np.einsum("cbx...,ax...->cba...", frame.xi.c[1:],
                                  frame.xi.c[0]))
    return (0.5 * (omega_t - np.swapaxes(omega_t, 1, 2)),
            0.5 * (omega_n - np.swapaxes(omega_n, 1, 2)))


def adapted_frame(jet: Jet, pivot_idx=None, rotate_tangent: float = 0.0) -> FrameData:
    """Orthonormal adapted frame from a jet of order >= 1.

    The construction runs once, on Taylor series of degree
    min(jet order - 1, 1); a plain frame is its degree-0 case.  From a jet
    of order >= 2 the degree-1 coefficients are the exact chart derivatives
    of the frame, with the pivot order frozen, which `_connection_forms`
    turns into the connection coefficients.
    """
    if jet.order < 1:
        raise DomainError("adapted_frame needs a jet of order >= 1")
    degree = min(jet.order - 1, 1)
    X = Taylor.lift(jet, 0, 0, degree)
    Xu = Taylor.lift(jet, 1, 0, degree)
    Xv = Taylor.lift(jet, 0, 1, degree)

    E = _dot(Xu, Xu)
    F = _dot(Xu, Xv)
    G = _dot(Xv, Xv)
    if np.any(E.c[0] * G.c[0] - F.c[0] * F.c[0] <= 1e-14):
        raise FrameError("chart basis degenerate (metric determinant <= 1e-14)")

    sqrtE = E.sqrt()
    e1 = Xu / sqrtE[None]
    proj = F / sqrtE                      # <Xv, e1>
    w = Xv - proj[None] * e1
    nw = _dot(w, w).sqrt()
    e2 = w / nw[None]

    inv_sqrtE = 1.0 / sqrtE
    L = Taylor.stack([Taylor.stack([inv_sqrtE, 0.0 * inv_sqrtE]),
                      Taylor.stack([-F / (E * nw), 1.0 / nw])])

    if rotate_tangent:
        ct, st = math.cos(rotate_tangent), math.sin(rotate_tangent)
        e1, e2 = ct * e1 + st * e2, -st * e1 + ct * e2
        rot = np.array([[ct, st], [-st, ct]])
        L = Taylor.einsum("ij,jc...->ic...", rot, L)

    xi, chosen = _normal_frame(X, e1, e2, jet.spec.codim, pivot_idx=pivot_idx)
    return FrameData(e1=e1, e2=e2, xi=xi, chart_to_frame=L, pivot_idx=chosen)


# ---------------------------------------------------------------------------
# second fundamental form and its covariant gradient
# ---------------------------------------------------------------------------

@dataclass
class ShapePair:
    """a = (h_11^alpha), b = (h_12^alpha) in the adapted frame, points last:
    both have shape (q, *points)."""

    a: np.ndarray
    b: np.ndarray
    minimality_residual: np.ndarray   # (*points)

    def __post_init__(self):
        shape = np.shape(self.a)
        if np.shape(self.b) != shape or np.shape(self.minimality_residual) != shape[1:]:
            raise ValueError("ShapePair needs a, b of shape (q, *points) and a "
                             "minimality residual of shape (*points)")

    @property
    def h(self) -> np.ndarray:
        """Full component array h[i, j, alpha, *points] (traceless symmetric);
        h[:, :, alpha] is the shape operator S_alpha."""
        out = np.empty((2, 2) + self.a.shape)
        out[0, 0] = self.a
        out[0, 1] = out[1, 0] = self.b
        out[1, 1] = -self.a
        return out


def _h_series(jet: Jet, frame: FrameData, degree: int) -> Taylor:
    """h[i, j, alpha] = <D^2 X (e_i, e_j), xi_alpha> in the frozen-pivot
    frame, as a series of the given degree (the jet needs order >= 2 + degree)."""
    normal_part = Taylor.einsum("cdx...,ax...->cda...", _chart_hessian(jet, degree),
                                frame.xi.truncate(degree))
    L = frame.chart_to_frame.truncate(degree)
    return Taylor.einsum("ic...,jd...,cda...->ija...", L, L, normal_part)


def _shape_pair(h: np.ndarray) -> ShapePair:
    """The ShapePair of h[i, j, alpha, *points]; a and b are copies, so they
    keep no larger series alive."""
    residual = np.max(np.abs(h[0, 0] + h[1, 1]), axis=0, initial=0.0)
    return ShapePair(a=h[0, 0].copy(), b=h[0, 1].copy(), minimality_residual=residual)


def second_fundamental_form(jet: Jet, frame: FrameData) -> ShapePair:
    if jet.order < 2:
        raise DomainError("second fundamental form needs a jet of order >= 2")
    return _shape_pair(_h_series(jet, frame, 0).c[0])


@dataclass
class CovariantGradH:
    """First covariant derivative of h, points last: grad3[i, j, k, alpha] =
    h_ijk^alpha, with a1 = h_111 and a2 = h_112 (shape (q, *points)).
    `shape` is h itself, the degree-0 coefficient of the series that was
    differentiated, equal to `second_fundamental_form` on the same frame."""

    shape: ShapePair
    a1: np.ndarray
    a2: np.ndarray
    grad3: np.ndarray              # (2, 2, 2, q, *points)
    b1_direct: np.ndarray          # sum_ijk |h_ijk|^2
    codazzi_residual: np.ndarray


CODAZZI_TOL = 1e-6


def covariant_grad_h(spec: ImmersionSpec, point, frame: FrameData | None = None
                     ) -> CovariantGradH:
    """Assemble h_ijk from the chart derivatives of h in the gauge-frozen frame
    plus connection correction terms, all from one jet of order >= 3.

    `point` is (u, v) or such a Jet, and `frame` its adapted frame if the
    caller already has it.  The chart derivatives of h, e_1, e_2 and xi are
    the degree-1 coefficients of their Taylor series.
    """
    jet = jet_at(spec, point, 3)
    if frame is None:
        frame = adapted_frame(jet)
    h = _h_series(jet, frame, 1)
    h0 = h.c[0]                                        # [i, j, a]
    L = frame.chart_to_frame.c[0]
    omega_t, omega_n = _connection_forms(frame)

    ekh = np.einsum("kc...,cija...->ijka...", L, h.c[1:])
    grad3 = (
        ekh
        + np.einsum("mja...,kmi...->ijka...", h0, omega_t)
        + np.einsum("ima...,kmj...->ijka...", h0, omega_t)
        + np.einsum("ijb...,kba...->ijka...", h0, omega_n)
    )

    codazzi = np.maximum(
        np.max(np.abs(grad3 - np.swapaxes(grad3, 0, 2)), axis=(0, 1, 2, 3), initial=0.0),
        np.max(np.abs(grad3 - np.swapaxes(grad3, 1, 2)), axis=(0, 1, 2, 3), initial=0.0),
    )
    return CovariantGradH(
        shape=_shape_pair(h0),
        a1=grad3[0, 0, 0],
        a2=grad3[0, 0, 1],
        grad3=grad3,
        b1_direct=np.einsum("ijka...,ijka...->...", grad3, grad3),
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


def second_norm_field(spec: ImmersionSpec, point, degree: int = 0) -> Taylor:
    """S = |h|^2 without constructing a normal frame (gauge-free route), as a
    Taylor series of the given degree in the chart offsets.

    `point` is (u, v) or a Jet of order >= 2 + degree.  The value at the
    points is `.c[0]`; degree 2 carries all the Laplacian of S needs.

    The Hessian slots X_uu, X_uv, X_vv are projected onto the normal space
    one at a time, so no series carries two chart axes and the ambient axis
    at once; S then needs only the six inner products of the normal parts.
    The vectors are projected before any inner product is taken: subtracting
    the radial and tangential parts from Gram entries of the raw jet instead
    cancels catastrophically near the poles.
    """
    jet = jet_at(spec, point, 2 + degree)
    X = Taylor.lift(jet, 0, 0, degree)
    Xc = Taylor.stack([Taylor.lift(jet, 1, 0, degree),
                       Taylor.lift(jet, 0, 1, degree)])                # [c, C]
    ginv = _inverse2(Taylor.einsum("cx...,dx...->cd...", Xc, Xc))
    K = []
    for i, j in ((2, 0), (1, 1), (0, 2)):
        T = Taylor.lift(jet, i, j, degree)                           # [C]
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
