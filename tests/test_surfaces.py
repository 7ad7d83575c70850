"""Tests for the immersion catalog, jets, frames, and h extraction."""

import json
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from minimal_gap_lab.errors import DomainError, ParseError, ValidationError
from minimal_gap_lab.geoquad import build_grid, grid_tiles
from minimal_gap_lab.surfaces import (
    CATALOG_NAMES,
    JET_ORDER_MAX,
    MAX_AMBIENT_DIM,
    POSITION,
    FrameData,
    TRACE,
    Taylor,
    _catalog_sphere_entry,
    _form_coefficient,
    _product,
    _square,
    _subtract_product,
    _tangent_connection,
    adapted_frame,
    catalog_entry,
    covariant_grad_h,
    eval_jet,
    first_fundamental_form,
    jet_keys,
    load_immersion,
    parse_spec_dict,
    parse_spec_text,
    second_fundamental_form,
    second_norm_field,
    serialize_spec,
    trace_directions,
    validate_spec,
)

import grad_h_oracle
import simons_oracle
from fd_oracle import frozen_frame_grad3, laplace_beltrami
from gram_oracle import h_stack
from tile_fields import peak_bytes

SPHERE_PTS = (np.array([0.6, 1.4, 2.3]), np.array([0.3, 2.0, 5.1]))
TORUS_PTS = (np.array([0.5, 3.0, 5.5]), np.array([1.0, 2.2, 4.4]))


def _points(spec):
    return TORUS_PTS if spec.chart == "torus" else SPHERE_PTS


def _grad_h(spec, pts):
    jet = eval_jet(spec, pts, order=3)
    return covariant_grad_h(jet, adapted_frame(jet))


# ---------------------------------------------------------------- catalog

def test_catalog_clifford_metadata():
    spec = catalog_entry("clifford")
    assert spec.chart == "torus"
    assert spec.ambient_dim == 4
    assert spec.codim == 1
    assert spec.euler_char == 0


def test_catalog_veronese_metadata():
    spec = catalog_entry("veronese")
    assert spec.chart == "sphere"
    assert spec.ambient_dim == 5
    assert spec.codim == 2


def test_catalog_equator_is_identity_embedding():
    spec = catalog_entry("equator")
    # degree-1 harmonics give the identity embedding, up to a rotation;
    # here the construction lands exactly on (x, y, z)
    X = eval_jet(spec, SPHERE_PTS, order=0).derivative(0, 0)
    th, ph = SPHERE_PTS
    xyz = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph),
                    np.cos(th)])
    assert np.allclose(np.sort(np.abs(X), axis=0), np.sort(np.abs(xyz), axis=0),
                       atol=1e-14)
    assert np.max(np.abs(np.einsum("cn,cn->n", X, X) - 1)) < 1e-14


def test_unknown_catalog_name():
    with pytest.raises(DomainError):
        catalog_entry("moebius")


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_validates(name):
    spec = load_immersion(name)
    residuals = validate_spec(spec)
    assert residuals["unit_residual"] < 1e-12
    assert residuals["minimality_residual"] < 1e-8


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_unit_image_on_dense_grid(name):
    spec = catalog_entry(name)
    if spec.chart == "sphere":
        u = np.linspace(2e-3, math.pi - 2e-3, 64)
    else:
        u = np.linspace(0, 2 * math.pi, 64, endpoint=False)
    v = np.linspace(0, 2 * math.pi, 64, endpoint=False)
    U, V = np.meshgrid(u, v, indexing="ij")
    X = eval_jet(spec, (U, V), order=0).derivative(0, 0)
    assert np.max(np.abs(np.einsum("c...,c...->...", X, X) - 1.0)) < 1e-12


def test_spec_arrays_are_built_read_only_at_construction(mixed_torus):
    # evaluation (possibly from several worker threads) only reads the spec:
    # the coefficient and basis-exponent arrays exist once it is built, and
    # nothing can write them
    for spec in (catalog_entry("calabi4"), mixed_torus):
        arrays = (spec.coef, spec.u_exps, spec.v_exps)
        assert spec.coef.shape == (spec.ambient_dim, len(spec.u_exps), len(spec.v_exps))
        assert spec.u_exps.shape[1] == spec.v_exps.shape[1] == 2
        before = dict(vars(spec))
        copies = [a.copy() for a in arrays]
        eval_jet(spec, _points(spec), order=JET_ORDER_MAX)
        assert vars(spec).keys() == before.keys()
        for name, array, copy in zip(("coef", "u_exps", "v_exps"), arrays, copies):
            assert getattr(spec, name) is array and np.array_equal(array, copy)
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 1
    with pytest.raises(DomainError):
        eval_jet(catalog_entry("clifford"), TORUS_PTS, order=JET_ORDER_MAX + 1)


def test_zero_coefficient_terms_are_dropped(mixed_torus):
    # a zero term would still widen the bases, and cost its basis functions
    # at every node
    doc = json.loads(serialize_spec(catalog_entry("veronese")))
    doc["components"][1] += [{"coeff": 0.0, "exps": [5, 0, 0]},
                             {"coeff": -0.0, "exps": [0, 3, 1]}]
    pairs = [(catalog_entry("veronese"), parse_spec_dict(doc))]
    doc = json.loads(serialize_spec(mixed_torus))
    doc["components"][0] += [{"coeff": 0.0, "type": "cos", "freq": [3, 1]},
                             {"coeff": -0.0, "type": "sin", "freq": [0, 5]}]
    pairs.append((mixed_torus, parse_spec_dict(doc)))
    for plain, padded in pairs:
        for name in ("coef", "u_exps", "v_exps"):
            assert np.array_equal(getattr(plain, name), getattr(padded, name)), name


# ---------------------------------------------------------------- jets

def test_clifford_first_derivatives_have_norm_inv_sqrt2():
    spec = catalog_entry("clifford")
    jet = eval_jet(spec, TORUS_PTS, order=1)
    for d in ((1, 0), (0, 1)):
        norms = np.sqrt(np.einsum("cn,cn->n", jet.derivative(*d), jet.derivative(*d)))
        assert np.allclose(norms, 1 / math.sqrt(2), atol=1e-15)


def test_jet_derivatives_match_finite_differences():
    spec = catalog_entry("calabi3")
    u0, v0 = 1.1, 0.7
    h = 1e-4

    def X(du, dv):
        return eval_jet(spec, (u0 + du, v0 + dv), order=0).derivative(0, 0)

    jet = eval_jet(spec, (u0, v0), order=2)
    fd_u = (X(h, 0) - X(-h, 0)) / (2 * h)
    fd_uv = (X(h, h) - X(h, -h) - X(-h, h) + X(-h, -h)) / (4 * h * h)
    assert np.max(np.abs(fd_u - jet.derivative(1, 0))) < 1e-7
    assert np.max(np.abs(fd_uv - jet.derivative(1, 1))) < 1e-6


def test_jet_pole_margin_enforced():
    spec = catalog_entry("veronese")
    with pytest.raises(DomainError):
        eval_jet(spec, (1e-4, 0.0), order=1)
    with pytest.raises(DomainError):
        eval_jet(spec, (math.pi - 1e-4, 0.0), order=1)


@pytest.mark.parametrize("name", CATALOG_NAMES + ("rotated_mixed_torus",))
def test_tile_jet_matches_flat_points(name, rotated_mixed_torus):
    # on a tile (u_rows[:, None], v_cols[None, :]) the bases are evaluated on
    # the rows and the columns alone; every node must still get the value of
    # the flattened points (`test_jets_match_sympy_derivatives` checks those
    # against the spec's own formula)
    spec = rotated_mixed_torus if name == "rotated_mixed_torus" else catalog_entry(name)
    u = np.linspace(0.1, math.pi - 0.1, 13)
    v = np.linspace(0.0, 2.0 * math.pi, 17, endpoint=False)
    U, V = np.meshgrid(u, v, indexing="ij")
    tile = eval_jet(spec, (u[:, None], v[None, :]), order=JET_ORDER_MAX)
    flat = eval_jet(spec, (U.ravel(), V.ravel()), order=JET_ORDER_MAX)
    for key in jet_keys(JET_ORDER_MAX):
        d = flat.derivative(*key)
        got = tile.derivative(*key).reshape(d.shape)
        if spec.chart == "torus":
            assert np.array_equal(got, d), key
        else:
            assert np.max(np.abs(got - d)) <= 1e-13 * max(1.0, np.max(np.abs(d))), key


def _sympy_components(spec):
    """The spec's components as sympy expressions in the chart angles."""
    u, v = sympy.symbols("u v", real=True)
    exprs = []
    for comp in spec.components:
        if spec.chart == "sphere":
            x, y, z = sympy.sin(u) * sympy.cos(v), sympy.sin(u) * sympy.sin(v), sympy.cos(u)
            exprs.append(sum((sympy.Float(c, 30) * x ** i * y ** j * z ** k
                              for (i, j, k), c in comp.items()), sympy.Integer(0)))
        else:
            trig = (sympy.cos, sympy.sin)
            exprs.append(sum((sympy.Float(c, 30) * trig[kind](m * u + n * v)
                              for c, kind, m, n in comp), sympy.Integer(0)))
    return u, v, exprs


@pytest.mark.parametrize("name", ["calabi3", "veronese", "clifford", "rotated_mixed_torus"])
def test_jets_match_sympy_derivatives(name, rotated_mixed_torus):
    # an oracle independent of the coefficient array and the basis
    # derivatives: sympy differentiates the spec's own formula
    spec = rotated_mixed_torus if name == "rotated_mixed_torus" else catalog_entry(name)
    pts = _points(spec)
    jet = eval_jet(spec, pts, order=JET_ORDER_MAX)
    u, v, exprs = _sympy_components(spec)
    for i, j in jet_keys(JET_ORDER_MAX):
        got = jet.derivative(i, j)
        funcs = [sympy.lambdify((u, v), sympy.diff(e, u, i, v, j) if i + j else e, "mpmath")
                 for e in exprs]
        with mpmath.workdps(30):
            ref = np.array([[float(f(a, b)) for a, b in zip(*pts)] for f in funcs])
        assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref))), (i, j)


def test_veronese_jets_satisfy_eigenmap_identity():
    # Delta_M X = -2 X, checked with the independent finite-difference
    # Laplace-Beltrami oracle (surface dimension 2)
    spec = catalog_entry("veronese")
    u = np.array([0.8, 1.9])
    v = np.array([0.3, 2.5])
    for comp in range(spec.ambient_dim):
        def f(U, V, comp=comp):
            return eval_jet(spec, (U, V), order=0).derivative(0, 0)[comp]

        lap, _ = laplace_beltrami(spec, f, u, v)
        assert np.max(np.abs(lap + 2.0 * f(u, v))) < 1e-9


# ---------------------------------------------------------- Taylor series

SIZES = (1, 3, 4)       # coefficients of a series of degree 0, 1 (chart), 2 (trace)


def _series(rng, shape, degree):
    """A random series with positive values, so it can be divided and rooted."""
    c = rng.standard_normal((SIZES[degree],) + shape)
    c[0] = 1.0 + np.abs(c[0])
    return Taylor(c)


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_taylor_field_operations(degree):
    rng = np.random.default_rng(degree)
    a = _series(rng, (3, 5), degree)
    b = _series(rng, (3, 5), degree)
    one = (a * (1.0 / a)).c
    assert np.max(np.abs(one[0] - 1.0)) < 1e-14
    assert np.max(np.abs(one[1:]), initial=0.0) < 1e-13
    assert np.max(np.abs((a / b * b - a).c)) < 1e-12
    assert np.max(np.abs((a.sqrt() * a.sqrt() - a).c)) < 1e-12
    assert np.max(np.abs((a - b + b - a).c)) < 1e-14
    dot = Taylor.einsum("c...,c...->...", a, b)
    assert np.max(np.abs(dot.c - (a * b).c.sum(axis=1))) < 1e-13


def test_taylor_subtraction_and_lift_are_bitwise_the_plain_formulas():
    # a - b is one np.subtract pass; it must equal a + (-b) bit for bit,
    # with series and constant operands on either side
    rng = np.random.default_rng(11)
    a, b = _series(rng, (3, 5), 2), _series(rng, (3, 5), 2)
    k = rng.standard_normal((3, 5))
    assert np.array_equal((a - b).c, (a + (-b)).c)
    assert np.array_equal((a - k).c, (a + (-k)).c)
    assert np.array_equal((k - a).c, ((-a) + k).c)
    assert np.array_equal((2.5 - a).c, ((-a) + 2.5).c)
    # a chart lift copies the derivatives, and a trace lift forms each
    # coefficient by its plain formula, which must not change a bit
    jet = eval_jet(catalog_entry("calabi3"), SPHERE_PTS, order=JET_ORDER_MAX)
    d = {key: jet.derivative(*key) for key in jet_keys(JET_ORDER_MAX)}
    chart = Taylor.lift(jet, [([(1, 1)], 1)])[0].c[:, 0]
    for series, expected in zip(chart, (d[1, 1], d[2, 1], d[1, 2])):
        assert np.array_equal(series, expected)
    L, ginv = directions = trace_directions(first_fundamental_form(jet))
    trace = Taylor.lift(jet, [([(1, 1)], 2)], directions)[0].c[:, 0]
    for series, expected in zip(trace, (
            d[1, 1], L[0, 0] * d[2, 1], L[1, 0] * d[2, 1] + L[1, 1] * d[1, 2],
            ginv[0, 0] * d[3, 1] + 2.0 * ginv[0, 1] * d[2, 2] + ginv[1, 1] * d[1, 3])):
        assert np.array_equal(series, expected)


# for each coefficient of a series of degree 0, 1, 2, the index pairs (i, j)
# of its product terms, each listed once per time it is added: the trace
# coefficient of a degree-2 series is T(xy) = Tx y0 + x0 Ty + 2 (x1 y1 + x2 y2)
PRODUCT_TERMS = (
    ([(0, 0)],),
    ([(0, 0)], [(0, 1), (1, 0)], [(0, 2), (2, 0)]),
    ([(0, 0)], [(0, 1), (1, 0)], [(0, 2), (2, 0)],
     [(0, 3), (3, 0), (1, 1), (1, 1), (2, 2), (2, 2)]),
)


def _naive_product(op, x, y, degree):
    """op(x, y) truncated at `degree`, one call per product term; a
    constant operand (not a list) enters as coefficient 0 alone."""
    xs = x if isinstance(x, list) else [x]
    ys = y if isinstance(y, list) else [y]
    out = []
    for pairs in PRODUCT_TERMS[degree]:
        total = 0.0
        for i, j in pairs:
            if i < len(xs) and j < len(ys):
                total = total + op(xs[i], ys[j])
        out.append(total)
    return np.stack([np.broadcast_to(o, np.shape(out[0])) for o in out])


# (subscripts or ufunc name, value shape of x, of y); "..." holds 4 points
PRODUCTS = [
    ("cx...,dx...->cd...", (2, 3), (2, 3)),
    ("x...,ex...->e...", (3,), (2, 3)),
    ("ic...,cjx...->ijx...", (2, 2), (2, 2, 3)),
    ("multiply", (3, 1), (1, 2)),
    ("multiply", (2, 3), ()),
    ("divide", (2, 3), (3,)),
]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PRODUCTS), st.integers(0, 2), st.sampled_from(["both", "x", "y"]),
       st.integers(0, 2 ** 32 - 1))
def test_batched_product_equals_per_pair_reference(product, degree, series, seed):
    # the batched truncated product (slices of the coefficient axis) against
    # one call per coefficient pair, with a series on either side or both
    name, x_shape, y_shape = product
    if name == "divide":
        series = "x"                   # a series divisor makes a quotient, not a product
    rng = np.random.default_rng(seed)
    size = SIZES[degree]

    def operand(value_shape, is_series):
        if is_series:
            return list(rng.standard_normal((size,) + value_shape + (4,)))
        return rng.uniform(0.5, 2.0, value_shape + (4,))

    x = operand(x_shape, series in ("both", "x"))
    y = operand(y_shape, series in ("both", "y"))
    if name in ("multiply", "divide"):
        op = getattr(np, name)
        call = (lambda a, b: a * b) if name == "multiply" else (lambda a, b: a / b)
    else:
        op = lambda a, b, sub=name: np.einsum(sub, a, b)  # noqa: E731
        call = lambda a, b, sub=name: Taylor.einsum(sub, a, b)  # noqa: E731

    def wrap(a):
        return Taylor(np.stack(a)) if isinstance(a, list) else a

    got = call(wrap(x), wrap(y)).c
    ref = _naive_product(op, x, y, degree)
    scale = _naive_product(op, *(([np.abs(c) for c in a] if isinstance(a, list) else np.abs(a))
                                 for a in (x, y)), degree)
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= 1e-14 * scale)


# value axes in front of the ambient one, as h, the Hessian slots and grad h have them
SUBTRACTED_AXES = {"": (), "s": (2,), "ijk": (2, 2, 2)}


@pytest.mark.parametrize("degree", [0, 1, 2])
@pytest.mark.parametrize("axes", list(SUBTRACTED_AXES))
@pytest.mark.parametrize("op", ["multiply", "einsum"])
def test_subtract_product_is_the_product_subtracted_bit_for_bit(degree, axes, op):
    # the fused in-place subtraction against a - _product(op, x, y), with a
    # NaN and, at point 1, signed zeros in acc and x: there the result is a
    # zero whose sign depends on the order of the terms
    rng = np.random.default_rng(100 * degree + len(axes))
    size, C, points = SIZES[degree], 5, 7
    head = SUBTRACTED_AXES[axes]

    def series(*value_shape, zeros=False):
        c = rng.standard_normal((size,) + value_shape + (points,))
        if zeros:
            c[..., 1] = np.where(rng.random(c.shape[:-1]) < 0.5, 0.0, -0.0)
        return c

    if op == "multiply":
        op, x, y = np.multiply, series(*head, 1, zeros=True), series(*head, C)
    else:
        op = f"{axes}b...,bx...->{axes}x..."
        x, y = series(*head, 3, zeros=True), series(3, C)
    acc = series(*head, C, zeros=True)
    acc[(0,) * acc.ndim] = np.nan
    expected = (Taylor(acc) - _product(op, Taylor(x), Taylor(y))).c
    got = _subtract_product(Taylor(acc.copy()), op, Taylor(x), Taylor(y)).c
    assert got.tobytes() == expected.tobytes()
    assert np.isnan(got[(0,) * got.ndim])
    zeros = got[..., 1]
    assert np.all(zeros == 0.0) and np.signbit(zeros).any() and not np.signbit(zeros).all()


@pytest.mark.parametrize("degree", [0, 1, 2])
@pytest.mark.parametrize("op", ["multiply", "c...,c...->...", "cx...,cx...->x..."])
def test_square_is_the_product_of_a_copy_bit_for_bit(degree, op):
    # op(x, x) forms x0 x_k once and doubles it; against `_product` of x
    # and a copy of it (the general path), with a NaN and, at point 1,
    # signed zeros: bitwise, no ulp moves
    rng = np.random.default_rng(10 * degree + len(op))
    c = rng.standard_normal((SIZES[degree], 3, 2, 7))
    c[..., 1] = np.where(rng.random(c.shape[:-1]) < 0.5, 0.0, -0.0)
    c[(0,) * c.ndim] = np.nan
    op = np.multiply if op == "multiply" else op
    x = Taylor(c)
    expected = _product(op, x, Taylor(c.copy())).c
    got = _square(op, x).c
    assert got.tobytes() == expected.tobytes()
    assert _product(op, x, x).c.tobytes() == expected.tobytes()
    assert np.isnan(got[(0,) * got.ndim])
    if op is np.multiply and degree:
        # x0 x0 is +0, but 2 (x0 x_k) is -0 where one factor is: both signs
        zeros = got[..., 1]
        assert np.all(zeros == 0.0) and np.signbit(zeros).any() and not np.signbit(zeros).all()


# the largest normwise error of a trace-series operation against the chart
# series: measured over every seed the test below can draw, 2.016e-15 (the
# quotient; the product 1.17e-15, the square root 1.61e-15)
ALGEBRA_SEEDS = 20_000
ALGEBRA_REL = 2.02e-15


def _algebra_error(operation: str, seed: int) -> float:
    """max |trace op - chart op mapped to the trace form| over the largest
    |chart op| (at least 1), on random positive chart series of degree 2 at
    16 points, each with its own random metric."""
    rng = np.random.default_rng(seed)
    E, G = rng.uniform(0.5, 2.0, (2, 16))
    F = rng.uniform(-0.9, 0.9, 16) * np.sqrt(E * G)
    directions = trace_directions((E, F, G))

    def chart(*value_shape):
        c = rng.standard_normal((6,) + value_shape + (16,))
        c[0] = 1.0 + np.abs(c[0])
        return simons_oracle.Chart(c)

    def trace(x):
        return Taylor(simons_oracle.to_trace(x.c, directions))

    subscripts = "b...,bx...->x..."
    if operation == "product":
        x, y = chart(3), chart(3)
        got, ref = trace(x) * trace(y), x * y
    elif operation == "einsum":
        x, y = chart(2), chart(2, 3)
        got = Taylor.einsum(subscripts, trace(x), trace(y))
        ref = simons_oracle.Chart.einsum(subscripts, x, y)
    elif operation == "quotient":
        x, y = chart(3), chart(3)
        got, ref = trace(x) / trace(y), x / y
    elif operation == "sqrt":
        x = chart(3)
        got, ref = trace(x).sqrt(), x.sqrt()
    else:
        acc, x, y = chart(3), chart(2), chart(2, 3)
        got = _subtract_product(trace(acc), subscripts, trace(x), trace(y))
        ref = acc - simons_oracle.Chart.einsum(subscripts, x, y)
    want = simons_oracle.to_trace(ref.c, directions)
    return float(np.max(np.abs(got.c - want))) / max(1.0, float(np.max(np.abs(want))))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["product", "einsum", "quotient", "sqrt", "subtract"]),
       st.integers(0, ALGEBRA_SEEDS - 1))
def test_trace_series_algebra_is_the_chart_series_algebra(operation, seed):
    # products, quotients, square roots and the fused subtraction of trace
    # series against the six-coefficient chart series (tests/simons_oracle),
    # mapped to the trace form: first-order coefficients times L,
    # second-order ones contracted with g^cd
    assert _algebra_error(operation, seed) <= ALGEBRA_REL


def test_taylor_product_coefficients_are_its_derivatives():
    # x = u^2 + 3 v and y = u v - 1 around (u, v) = (2, 1), as trace series
    # along the directions of the metric E, F, G = 2, 1/2, 1; their product
    # f = u^3 v + 3 u v^2 - u^2 - 3 v has the trace series of its derivatives
    u0, v0 = 2.0, 1.0
    L, ginv = trace_directions((np.array(2.0), np.array(0.5), np.array(1.0)))

    def trace(f, f_u, f_v, f_uu, f_uv, f_vv):
        return np.array([f, L[0, 0] * f_u, L[1, 0] * f_u + L[1, 1] * f_v,
                         ginv[0, 0] * f_uu + 2.0 * ginv[0, 1] * f_uv + ginv[1, 1] * f_vv])

    x = Taylor(trace(u0 ** 2 + 3 * v0, 2 * u0, 3.0, 2.0, 0.0, 0.0))
    y = Taylor(trace(u0 * v0 - 1, v0, u0, 0.0, 1.0, 0.0))
    assert np.allclose((x * y).c, trace(
        u0 ** 3 * v0 + 3 * u0 * v0 ** 2 - u0 ** 2 - 3 * v0,
        3 * u0 ** 2 * v0 + 3 * v0 ** 2 - 2 * u0,
        u0 ** 3 + 6 * u0 * v0 - 3,
        6 * u0 * v0 - 2,
        3 * u0 ** 2 + 6 * v0,
        6 * u0,
    ), rtol=0.0, atol=1e-13)


# ---------------------------------------------------------------- frames

@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_frame_gram_matrix_is_identity(name):
    spec = catalog_entry(name)
    jet = eval_jet(spec, _points(spec), order=2)
    fr = adapted_frame(jet)
    full = np.stack([jet.derivative(0, 0), fr.e1.c[0], fr.e2.c[0]])
    gram = np.einsum("icn,jcn->nij", full, full)
    assert np.max(np.abs(gram - np.eye(3))) < 1e-10
    # the ambient h has no part along X, e1 or e2
    h = h_stack(second_fundamental_form(jet, fr))
    assert np.max(np.abs(np.einsum("ijcn,bcn->ijbn", h, full))) < 1e-12


def test_clifford_levi_civita_connection_vanishes():
    spec = catalog_entry("clifford")
    jet = eval_jet(spec, TORUS_PTS, order=2)
    omega_t = _tangent_connection(adapted_frame(jet))
    assert np.max(np.abs(omega_t[:, 0, 1])) < 1e-12


def test_degenerate_metric_raises():
    from minimal_gap_lab.errors import FrameError

    spec = catalog_entry("clifford")
    jet = eval_jet(spec, (0.3, 0.8), order=2)
    derivative = jet.derivative
    # make d_v X parallel to d_u X
    jet.derivative = lambda i, j: derivative(*((1, 0) if (i, j) == (0, 1) else (i, j)))
    where = r"clifford: not an immersion at \(u, v\) = \(0\.3, 0\.8\)"
    with pytest.raises(FrameError, match=where):
        adapted_frame(jet)


# ------------------------------------------------- second fundamental form

def test_clifford_shape_pair():
    spec = catalog_entry("clifford")
    jet = eval_jet(spec, TORUS_PTS, order=2)
    sp = second_fundamental_form(jet, adapted_frame(jet))
    assert np.allclose(np.einsum("qn,qn->n", sp.a, sp.a), 1.0, atol=1e-13)
    assert np.max(np.abs(sp.b)) < 1e-13
    assert np.max(sp.minimality_residual) < 1e-13


def test_equator_totally_geodesic():
    spec = catalog_entry("equator")
    jet = eval_jet(spec, SPHERE_PTS, order=2)
    sp = second_fundamental_form(jet, adapted_frame(jet))
    assert np.max(np.abs(sp.a)) < 1e-12 and np.max(np.abs(sp.b)) < 1e-12
    assert np.max(second_norm_field(eval_jet(spec, SPHERE_PTS))[0].c[0]) < 1e-12


@pytest.mark.parametrize("name,S_expected", [
    ("veronese", 4.0 / 3.0), ("calabi3", 5.0 / 3.0), ("calabi4", 9.0 / 5.0),
])
def test_sphere_catalog_S_values(name, S_expected):
    spec = catalog_entry(name)
    jet = eval_jet(spec, SPHERE_PTS, order=2)
    sp = second_fundamental_form(jet, adapted_frame(jet))
    S = 2.0 * (np.einsum("qn,qn->n", sp.a, sp.a)
               + np.einsum("qn,qn->n", sp.b, sp.b))
    assert np.allclose(S, S_expected, atol=1e-12)
    assert np.max(sp.minimality_residual) < 1e-12


def test_frame_covariance_under_tangent_rotation():
    spec = catalog_entry("calabi3")
    jet = eval_jet(spec, SPHERE_PTS, order=2)
    base = adapted_frame(jet)
    sp0 = second_fundamental_form(jet, base)
    theta = 0.37
    ct, st = math.cos(theta), math.sin(theta)
    rot = FrameData(basis=Taylor.stack([base.basis[0], ct * base.e1 + st * base.e2,
                                        -st * base.e1 + ct * base.e2]),
                    chart_to_frame=Taylor.einsum("ij,jc...->ic...",
                                                 np.array([[ct, st], [-st, ct]]),
                                                 base.chart_to_frame))
    sp1 = second_fundamental_form(jet, rot)
    c2, s2 = math.cos(2 * theta), math.sin(2 * theta)
    assert np.max(np.abs(sp1.a - (c2 * sp0.a + s2 * sp0.b))) < 1e-12
    assert np.max(np.abs(sp1.b - (-s2 * sp0.a + c2 * sp0.b))) < 1e-12

    def invs(sp):
        na = np.einsum("qn,qn->n", sp.a, sp.a)
        nb = np.einsum("qn,qn->n", sp.b, sp.b)
        ab = np.einsum("qn,qn->n", sp.a, sp.b)
        return na + nb, na * nb - ab ** 2, (na - nb) ** 2 + 4 * ab ** 2

    for x, y in zip(invs(sp0), invs(sp1)):
        assert np.max(np.abs(x - y)) < 1e-10


def test_second_norm_field_matches_frame_route():
    for name in CATALOG_NAMES:
        spec = catalog_entry(name)
        jet = eval_jet(spec, _points(spec))
        sp = second_fundamental_form(jet, adapted_frame(jet))
        S_frame = 2.0 * (np.einsum("qn,qn->n", sp.a, sp.a)
                         + np.einsum("qn,qn->n", sp.b, sp.b))
        assert np.max(np.abs(S_frame - second_norm_field(jet)[0].c[0])) < 1e-12


def test_second_norm_field_reads_the_directions_it_is_given():
    # given the trace directions of the jet's metric it forms no metric of
    # its own, and S and gamma keep their bits; the jet needs order 4
    # either way, since the slots' trace series read the order-4 derivatives
    spec = catalog_entry("calabi4")
    jet = eval_jet(spec, _points(spec))
    directions = trace_directions(first_fundamental_form(jet))
    S, gamma = second_norm_field(jet)
    given_S, given_gamma = second_norm_field(jet, directions)
    assert given_S.c.tobytes() == S.c.tobytes()
    assert given_gamma.tobytes() == gamma.tobytes()
    with pytest.raises(DomainError, match="order >= 4, got 3"):
        second_norm_field(eval_jet(spec, _points(spec), order=3), directions)


def _tile_and_flat_jets():
    """The order-4 jet of a calabi4 tile (rows 0:16 of 96x192), its points
    flattened, and one at scattered points."""
    spec = catalog_entry("calabi4")
    grid = build_grid(spec, (96, 192))
    tile = eval_jet(spec, (grid.u_axis[:16, None], grid.v_axis[None, :]))
    yield replace(tile, u=tile.u.ravel(), v=tile.v.ravel())
    yield eval_jet(spec, _points(spec))


@pytest.mark.parametrize("jet", list(_tile_and_flat_jets()), ids=["tile", "flat"])
def test_position_coefficients_formed_on_demand_are_the_lifted_ones(jet):
    # second_norm_field lifts X, X_u, X_v and the trace coefficients of X_u,
    # X_v, and forms every other coefficient of their trace series from the
    # slot values and X_u, X_v at each read: each must have the bits of the
    # coefficient that Taylor.lift writes
    directions = trace_directions(first_fundamental_form(jet))
    lifted = Taylor.lift(jet, [(POSITION, 2)], directions)[0].c
    traces = Taylor.lift(jet, [(POSITION[1:], TRACE)], directions)[0].c[0]
    assert np.array_equal(traces, lifted[3, 1:])
    for n, a in enumerate(POSITION):
        for k in (1, 2, 3)[:3 if a == (0, 0) else 2]:
            formed = np.empty(lifted.shape[2:])
            _form_coefficient(formed, k, a, lambda key: jet.derivative(*key), directions)
            assert np.array_equal(formed, lifted[k, n]), (k, a)


def _calabi4_jet(order):
    """A calabi4 jet at 2048 seeded points, and its bytes."""
    rng = np.random.default_rng(4)
    pts = (rng.uniform(0.1, math.pi - 0.1, 2048), rng.uniform(0.0, 2 * math.pi, 2048))
    jet = eval_jet(catalog_entry("calabi4"), pts, order=order)
    return jet, sum(jet.derivative(*key).nbytes for key in jet_keys(order))


def test_second_norm_field_memory_is_a_few_jets():
    # one Hessian slot at a time, each product subtracted from its slot one
    # coefficient at a time: the working set stays a small multiple of the
    # jet itself (about 10x while all three slots were built at once, 3.87x
    # while each product was built whole before it was subtracted, 2.91x on
    # six-coefficient chart series, 2.19x on trace series, 1.94x with g^-1
    # from its three distinct entries and each temporary freed at its last
    # read, 1.80x with seven coefficients of X's series formed at reads)
    jet, jet_bytes = _calabi4_jet(JET_ORDER_MAX)
    second_norm_field(jet)
    peak = peak_bytes(second_norm_field, jet)
    assert peak <= 1.85 * jet_bytes, f"peak {peak / jet_bytes:.2f}x the jet"


def test_frame_and_grad_h_memory_is_a_few_jets():
    # the projections onto the normal space subtract their products in
    # place, and h and grad h are computed on the pairs i <= j alone, h's
    # coefficients one at a time: 5.51x the order-3 jet while each product
    # was built whole, 4.61x on all four (i, j), 3.48x while the tangent
    # basis was stacked at each read and h built beside its normal parts,
    # 3.18x while the slots were projected together and h's weights built
    # from copies of L, 2.46x now (the caller here keeps the jet alive
    # throughout)
    jet, jet_bytes = _calabi4_jet(3)

    def frame_route(jet):
        covariant_grad_h(jet, adapted_frame(jet))

    frame_route(jet)
    peak = peak_bytes(frame_route, jet)
    assert peak <= 2.5 * jet_bytes, f"peak {peak / jet_bytes:.2f}x the jet"


def _tile_jet(spec, u_rows, v_cols, order=3):
    """The order-3 jet of a tile, its points flattened, as the pipeline
    builds it."""
    tile = eval_jet(spec, (u_rows[:, None], v_cols[None, :]), order=order)
    return replace(tile, u=tile.u.ravel(), v=tile.v.ravel())


def _oracle_tiles():
    """(label, spec, u rows, v cols) of every tile of the catalog's default
    grids, of rows 0:16 of calabi3 and calabi4 at 96x192, and of the first
    tile of the degree-8 harmonic sphere."""
    for name in CATALOG_NAMES:
        spec = catalog_entry(name)
        grid = build_grid(spec)
        for rows, cols in grid_tiles(grid.resolution):
            yield name, spec, grid.u_axis[rows], grid.v_axis[cols]
    for name in ("calabi3", "calabi4"):
        grid = build_grid(catalog_entry(name), (96, 192))
        yield f"{name} 96x192", catalog_entry(name), grid.u_axis[:16], grid.v_axis
    spec = _catalog_sphere_entry("harmonic8", 8)
    grid = build_grid(spec)
    rows, cols = grid_tiles(grid.resolution)[0]
    yield "harmonic8", spec, grid.u_axis[rows], grid.v_axis[cols]


def test_grad_h_on_the_index_pairs_is_the_eight_component_route_bit_for_bit():
    # h and grad h on the pairs i <= j, grad3[1, 0, k] filled from the same
    # three terms in the order (normal + A) + B, and the Codazzi residual
    # from its four distinct differences: every field has the bits of the
    # route that computes all eight components
    for label, spec, u, v in _oracle_tiles():
        jet = _tile_jet(spec, u, v)
        frame = adapted_frame(jet)
        got, expected = covariant_grad_h(jet, frame), grad_h_oracle.covariant_grad_h(jet, frame)
        for name in ("a1", "a2", "grad3", "b1_direct", "codazzi_residual"):
            assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), (label, name)
        for name in ("a", "b", "minimality_residual"):
            assert (getattr(got.shape, name).tobytes()
                    == getattr(expected.shape, name).tobytes()), (label, name)


def test_covariant_grad_h_carries_h():
    for name in CATALOG_NAMES:
        spec = catalog_entry(name)
        jet = eval_jet(spec, _points(spec), order=3)
        frame = adapted_frame(jet)
        sp = second_fundamental_form(jet, frame)
        carried = covariant_grad_h(jet, frame).shape
        for field in ("a", "b", "minimality_residual"):
            assert np.array_equal(getattr(carried, field), getattr(sp, field))


# ------------------------------------------------- covariant gradient of h

def test_clifford_parallel_h():
    spec = catalog_entry("clifford")
    grad = _grad_h(spec, TORUS_PTS)
    assert np.max(np.abs(grad.a1)) < 1e-10
    assert np.max(np.abs(grad.a2)) < 1e-10
    assert np.max(grad.b1_direct) < 1e-10
    assert np.max(grad.codazzi_residual) < 1e-6


def test_veronese_parallel_h():
    spec = catalog_entry("veronese")
    grad = _grad_h(spec, SPHERE_PTS)
    assert np.max(grad.b1_direct) < 1e-6
    assert np.max(grad.codazzi_residual) < 1e-6


def test_calabi3_b1_value():
    # Simons identity with constant S = 5/3 forces B1 = 5/6
    spec = catalog_entry("calabi3")
    grad = _grad_h(spec, SPHERE_PTS)
    assert np.max(np.abs(grad.b1_direct - 5.0 / 6.0)) < 1e-5
    assert np.max(grad.codazzi_residual) < 1e-6
    assert np.all(grad.b1_direct >= 0.0)


@pytest.mark.parametrize("name", ["calabi3", "mixed_torus"])
def test_taylor_grad3_matches_fd_of_frozen_frame(name, mixed_torus):
    spec = mixed_torus if name == "mixed_torus" else catalog_entry(name)
    pts = (np.array([0.25, 1.3, 2.9]), np.array([0.6, 2.1, 5.2]))
    grad3 = _grad_h(spec, pts).grad3
    assert np.max(np.abs(grad3)) > 0.1
    assert np.max(np.abs(grad3 - frozen_frame_grad3(spec, pts))) < 1e-9


def test_fd_connection_matches_exact_connection():
    # the exact omega12, read from the frame's degree-1 Taylor coefficients,
    # agrees with a direct finite difference of e1
    spec = catalog_entry("calabi3")
    u0, v0 = 1.2, 0.9
    jet = eval_jet(spec, (u0, v0), order=2)
    base = adapted_frame(jet)
    h = 1e-5

    def e1_at(du, dv):
        j = eval_jet(spec, (u0 + du, v0 + dv), order=2)
        return adapted_frame(j).e1.c[0]

    d_e1_u = (e1_at(h, 0) - e1_at(-h, 0)) / (2 * h)
    d_e1_v = (e1_at(0, h) - e1_at(0, -h)) / (2 * h)
    e2 = base.e2.c[0]
    omega_chart = np.array([float(d_e1_u @ e2), float(d_e1_v @ e2)])
    omega_fd = base.chart_to_frame.c[0] @ omega_chart
    omega_t = _tangent_connection(base)
    assert np.max(np.abs(omega_fd - omega_t[:, 0, 1])) < 1e-9


# ---------------------------------------------------------------- spec files

def test_spec_round_trip(tmp_path):
    spec = catalog_entry("veronese")
    text = serialize_spec(spec)
    again = parse_spec_text(text)
    assert serialize_spec(again) == text
    path = tmp_path / "veronese.json"
    path.write_text(text, encoding="utf-8")
    loaded = load_immersion(path)
    assert loaded.ambient_dim == 5


def test_ambient_dim_at_the_cap_parses():
    # x, y, z on the unit sphere plus empty components up to the cap
    n = MAX_AMBIENT_DIM
    doc = {"name": "wide", "chart": "sphere", "ambient_dim": n, "euler_char": 2,
           "components": [[{"coeff": 1.0, "exps": list(e)}]
                          for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))] + [[]] * (n - 3)}
    spec = parse_spec_text(json.dumps(doc))
    assert spec.ambient_dim == n and spec.codim == n - 3
    with pytest.raises(ParseError, match="ambient_dim"):
        parse_spec_text(json.dumps(dict(doc, ambient_dim=n + 1)))


def test_clifford_round_trip(tmp_path):
    spec = catalog_entry("clifford")
    path = tmp_path / "clifford.json"
    path.write_text(serialize_spec(spec), encoding="utf-8")
    loaded = load_immersion(path)
    assert loaded.chart == "torus"
    assert loaded.codim == 1


@pytest.mark.parametrize("mutate,path_bit", [
    (lambda d: d.pop("chart"), "chart"),
    (lambda d: d.update(chart="plane"), "chart"),
    (lambda d: d["components"][0][0].update(coeff="x"), "components[0][0].coeff"),
    (lambda d: d["components"][0][0].update(exps=[1, 2]), "components[0][0].exps"),
    (lambda d: d["components"][0].append({"bad": 1}), "components[0][1]"),
    pytest.param(lambda d: d["components"][0][0].update(coeff=math.nan),
                 "components[0][0].coeff", id="coeff-nan"),
    pytest.param(lambda d: d["components"][0][0].update(coeff=math.inf),
                 "components[0][0].coeff", id="coeff-inf"),
    pytest.param(lambda d: d["components"][0][0].update(coeff=-10 ** 400),
                 "components[0][0].coeff", id="coeff-int-beyond-float"),
])
def test_parse_errors_cite_field_path(mutate, path_bit):
    doc = json.loads(serialize_spec(catalog_entry("equator")))
    mutate(doc)
    with pytest.raises(ParseError) as err:
        from minimal_gap_lab.surfaces import parse_spec_dict

        parse_spec_dict(doc)
    assert path_bit in str(err.value)


def test_int_literal_beyond_the_digit_limit_is_a_parse_error():
    text = serialize_spec(catalog_entry("equator"))
    assert '"coeff": 1.0' in text
    with pytest.raises(ParseError) as err:
        parse_spec_text(text.replace('"coeff": 1.0', '"coeff": 1' + "0" * 5000, 1))
    assert "digits" in str(err.value)


def test_component_count_must_match_ambient_dim():
    doc = json.loads(serialize_spec(catalog_entry("equator")))
    doc["components"].append([])
    with pytest.raises(ParseError) as err:
        parse_spec_text(json.dumps(doc))
    assert "components" in str(err.value)


def test_non_unit_image_rejected():
    doc = json.loads(serialize_spec(catalog_entry("equator")))
    for comp in doc["components"]:
        for term in comp:
            term["coeff"] *= 1.05
    with pytest.raises(ValidationError) as err:
        from minimal_gap_lab.surfaces import parse_spec_dict

        validate_spec(parse_spec_dict(doc))
    assert "unit sphere" in str(err.value)


def test_overflowing_coefficient_sums_rejected():
    # every coefficient is finite, but the repeated terms sum to +-inf and
    # the image to NaN, which a `>` comparison with the tolerance lets pass
    doc = json.loads(serialize_spec(catalog_entry("equator")))
    doc["components"][0] += ([{"coeff": 1e308, "exps": [1, 0, 0]}] * 2
                             + [{"coeff": -1e308, "exps": [0, 1, 0]}] * 2)
    spec = parse_spec_text(json.dumps(doc))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValidationError) as err:
            validate_spec(spec)
    assert "unit sphere" in str(err.value) and "nan" in str(err.value)


def test_non_minimal_immersion_rejected():
    # a rectangular product torus S^1(0.8) x S^1(0.6): unit image, |H| != 0
    comps = [
        [{"coeff": 0.8, "type": "cos", "freq": [1, 0]}],
        [{"coeff": 0.8, "type": "sin", "freq": [1, 0]}],
        [{"coeff": 0.6, "type": "cos", "freq": [0, 1]}],
        [{"coeff": 0.6, "type": "sin", "freq": [0, 1]}],
    ]
    doc = {"name": "rect_torus", "chart": "torus", "ambient_dim": 4,
           "euler_char": 0, "components": comps}
    from minimal_gap_lab.surfaces import parse_spec_dict

    spec = parse_spec_dict(doc)
    with pytest.raises(ValidationError) as err:
        validate_spec(spec)
    assert "minimal" in str(err.value)


def test_mixed_frequency_minimal_torus_validates(mixed_torus):
    # a non-catalog minimal torus (mixed v-frequencies); S is genuinely
    # non-constant on it, unlike every catalog entry
    residuals = validate_spec(mixed_torus)
    assert residuals["minimality_residual"] < 1e-12
    S = second_norm_field(eval_jet(mixed_torus, TORUS_PTS))[0].c[0]
    assert np.max(S) - np.min(S) > 0.5


def test_load_missing_file():
    with pytest.raises(ParseError):
        load_immersion("/no/such/file.json")
