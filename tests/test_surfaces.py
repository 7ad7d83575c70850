"""Tests for the immersion catalog, jets, frames, and h extraction."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from minimal_gap_lab.errors import DomainError, ParseError, ValidationError
from minimal_gap_lab.surfaces import (
    CATALOG_NAMES,
    JET_ORDER_MAX,
    Taylor,
    _connection_forms,
    adapted_frame,
    catalog_entry,
    covariant_grad_h,
    eval_jet,
    load_immersion,
    parse_spec_text,
    second_fundamental_form,
    second_norm_field,
    serialize_spec,
    validate_spec,
)

from fd_oracle import frozen_frame_grad3, laplace_beltrami

SPHERE_PTS = (np.array([0.6, 1.4, 2.3]), np.array([0.3, 2.0, 5.1]))
TORUS_PTS = (np.array([0.5, 3.0, 5.5]), np.array([1.0, 2.2, 4.4]))


def _points(spec):
    return TORUS_PTS if spec.chart == "torus" else SPHERE_PTS


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
    X = eval_jet(spec, SPHERE_PTS, order=0).derivs[0, 0]
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
    X = eval_jet(spec, (U, V), order=0).derivs[0, 0]
    assert np.max(np.abs(np.einsum("c...,c...->...", X, X) - 1.0)) < 1e-12


def test_derivative_tables_complete_at_construction(mixed_torus):
    for spec in (catalog_entry("calabi4"), mixed_torus):
        tables = spec.derivative_table(0)
        expected = {(i, n - i) for n in range(JET_ORDER_MAX + 1) for i in range(n + 1)}
        assert set(tables) == expected
        before = {key: list(funcs) for key, funcs in tables.items()}
        eval_jet(spec, _points(spec), order=JET_ORDER_MAX)
        after = spec.derivative_table(JET_ORDER_MAX)
        assert after is tables
        assert set(after) == expected
        assert all(after[key] == funcs for key, funcs in before.items())
    with pytest.raises(DomainError):
        catalog_entry("clifford").derivative_table(JET_ORDER_MAX + 1)


# ---------------------------------------------------------------- jets

def test_clifford_first_derivatives_have_norm_inv_sqrt2():
    spec = catalog_entry("clifford")
    jet = eval_jet(spec, TORUS_PTS, order=1)
    for d in ((1, 0), (0, 1)):
        norms = np.sqrt(np.einsum("cn,cn->n", jet.derivs[d], jet.derivs[d]))
        assert np.allclose(norms, 1 / math.sqrt(2), atol=1e-15)


def test_jet_derivatives_match_finite_differences():
    spec = catalog_entry("calabi3")
    u0, v0 = 1.1, 0.7
    h = 1e-4

    def X(du, dv):
        return eval_jet(spec, (u0 + du, v0 + dv), order=0).derivs[0, 0]

    jet = eval_jet(spec, (u0, v0), order=2)
    fd_u = (X(h, 0) - X(-h, 0)) / (2 * h)
    fd_uv = (X(h, h) - X(h, -h) - X(-h, h) + X(-h, -h)) / (4 * h * h)
    assert np.max(np.abs(fd_u - jet.derivs[1, 0])) < 1e-7
    assert np.max(np.abs(fd_uv - jet.derivs[1, 1])) < 1e-6


def test_jet_pole_margin_enforced():
    spec = catalog_entry("veronese")
    with pytest.raises(DomainError):
        eval_jet(spec, (1e-4, 0.0), order=1)
    with pytest.raises(DomainError):
        eval_jet(spec, (math.pi - 1e-4, 0.0), order=1)


@pytest.mark.parametrize("name", CATALOG_NAMES + ("rotated_mixed_torus",))
def test_tile_jet_matches_flat_points(name, rotated_mixed_torus):
    # on a tile (u_rows[:, None], v_cols[None, :]) the sphere chart builds its
    # power tables on the rows and the columns alone; every node must still
    # get the value of the flattened points, and of the plain sum of terms
    spec = rotated_mixed_torus if name == "rotated_mixed_torus" else catalog_entry(name)
    u = np.linspace(0.1, math.pi - 0.1, 13)
    v = np.linspace(0.0, 2.0 * math.pi, 17, endpoint=False)
    U, V = np.meshgrid(u, v, indexing="ij")
    tile = eval_jet(spec, (u[:, None], v[None, :]), order=JET_ORDER_MAX)
    flat = eval_jet(spec, (U.ravel(), V.ravel()), order=JET_ORDER_MAX)
    assert set(tile.derivs) == set(flat.derivs)
    for key, d in flat.derivs.items():
        got = tile.derivs[key].reshape(d.shape)
        if spec.chart == "torus":
            assert np.array_equal(got, d), key
        else:
            assert np.max(np.abs(got - d)) <= 1e-13 * max(1.0, np.max(np.abs(d))), key
    if spec.chart == "sphere":
        base = (np.sin(U), np.cos(U), np.sin(V), np.cos(V))
        for key, funcs in spec.derivative_table(JET_ORDER_MAX).items():
            ref = np.array([sum((c * np.prod([b ** e for b, e in zip(base, exps)], axis=0)
                                 for exps, c in f.terms.items()), np.zeros_like(U))
                            for f in funcs])
            err = np.max(np.abs(tile.derivs[key] - ref))
            assert err <= 1e-13 * max(1.0, np.max(np.abs(ref))), key


def test_veronese_jets_satisfy_eigenmap_identity():
    # Delta_M X = -2 X, checked with the independent finite-difference
    # Laplace-Beltrami oracle (surface dimension 2)
    spec = catalog_entry("veronese")
    u = np.array([0.8, 1.9])
    v = np.array([0.3, 2.5])
    for comp in range(spec.ambient_dim):
        def f(U, V, comp=comp):
            return eval_jet(spec, (U, V), order=0).derivs[0, 0][comp]

        lap, _ = laplace_beltrami(spec, f, u, v)
        assert np.max(np.abs(lap + 2.0 * f(u, v))) < 1e-9


# ---------------------------------------------------------- Taylor series

def _series(rng, shape, degree):
    """A random series with positive values, so it can be divided and rooted."""
    c = rng.standard_normal(((1, 3, 6)[degree],) + shape)
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
    # lift skips the division where a! b! = 1, which must not change a bit
    jet = eval_jet(catalog_entry("calabi3"), SPHERE_PTS, order=JET_ORDER_MAX)
    for degree in (1, 2):
        series = Taylor.lift(jet, 1, 1, degree).c
        for k, (p, q) in enumerate(((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))[:len(series)]):
            expected = jet.derivs[1 + p, 1 + q] / (math.factorial(p) * math.factorial(q))
            assert np.array_equal(series[k], expected)


def test_taylor_product_coefficients_are_its_derivatives():
    # x = u^2 + 3 v and y = u v - 1 around (u, v) = (2, 1); their product
    # f = u^3 v + 3 u v^2 - u^2 - 3 v has coefficients f, f_u, f_v,
    # f_uu / 2, f_uv, f_vv / 2
    u0, v0 = 2.0, 1.0
    x = Taylor(np.array([u0 ** 2 + 3 * v0, 2 * u0, 3.0, 1.0, 0.0, 0.0]))
    y = Taylor(np.array([u0 * v0 - 1, v0, u0, 0.0, 1.0, 0.0]))
    assert np.allclose((x * y).c, [
        u0 ** 3 * v0 + 3 * u0 * v0 ** 2 - u0 ** 2 - 3 * v0,
        3 * u0 ** 2 * v0 + 3 * v0 ** 2 - 2 * u0,
        u0 ** 3 + 6 * u0 * v0 - 3,
        (6 * u0 * v0 - 2) / 2,
        3 * u0 ** 2 + 6 * v0,
        6 * u0 / 2,
    ], rtol=0.0, atol=1e-13)


# ---------------------------------------------------------------- frames

@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_frame_gram_matrix_is_identity(name):
    spec = catalog_entry(name)
    jet = eval_jet(spec, _points(spec), order=2)
    fr = adapted_frame(jet)
    full = np.concatenate(
        [jet.derivs[0, 0][None], fr.e1.c[0][None], fr.e2.c[0][None], fr.xi.c[0]])
    gram = np.einsum("icn,jcn->nij", full, full)
    assert np.max(np.abs(gram - np.eye(gram.shape[-1]))) < 1e-10


def test_clifford_levi_civita_connection_vanishes():
    spec = catalog_entry("clifford")
    jet = eval_jet(spec, TORUS_PTS, order=2)
    omega_t, _ = _connection_forms(adapted_frame(jet))
    assert np.max(np.abs(omega_t[:, 0, 1])) < 1e-12


def test_frame_determinism_and_frozen_pivots():
    spec = catalog_entry("calabi3")
    jet = eval_jet(spec, SPHERE_PTS, order=2)
    f1 = adapted_frame(jet)
    f2 = adapted_frame(jet)
    assert np.array_equal(f1.xi.c, f2.xi.c)
    f3 = adapted_frame(jet, pivot_idx=f1.pivot_idx)
    assert np.array_equal(f1.xi.c, f3.xi.c)


def test_degenerate_metric_raises():
    from minimal_gap_lab.errors import FrameError

    spec = catalog_entry("clifford")
    jet = eval_jet(spec, (0.3, 0.8), order=2)
    jet.derivs[0, 1] = jet.derivs[1, 0].copy()   # make d_v X parallel to d_u X
    with pytest.raises(FrameError):
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
    assert sp.a.shape[0] == 0
    assert np.max(second_norm_field(spec, SPHERE_PTS).c[0]) < 1e-12


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
    rot = adapted_frame(jet, pivot_idx=base.pivot_idx, rotate_tangent=theta)
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
        pts = _points(spec)
        jet = eval_jet(spec, pts, order=2)
        sp = second_fundamental_form(jet, adapted_frame(jet))
        S_frame = 2.0 * (np.einsum("qn,qn->n", sp.a, sp.a)
                         + np.einsum("qn,qn->n", sp.b, sp.b))
        assert np.max(np.abs(S_frame - second_norm_field(spec, pts).c[0])) < 1e-12


def test_second_norm_field_memory_is_a_few_jets():
    # one Hessian slot at a time: the working set stays a small multiple of
    # the jet itself (about 10x while all three slots were built at once)
    spec = catalog_entry("calabi4")
    rng = np.random.default_rng(4)
    pts = (rng.uniform(0.1, math.pi - 0.1, 2048), rng.uniform(0.0, 2 * math.pi, 2048))
    jet = eval_jet(spec, pts, order=JET_ORDER_MAX)
    jet_bytes = sum(d.nbytes for d in jet.derivs.values())
    tracemalloc.start()
    try:
        second_norm_field(spec, jet, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * jet_bytes, f"peak {peak / jet_bytes:.2f}x the jet"


def test_covariant_grad_h_carries_h():
    for name in CATALOG_NAMES:
        spec = catalog_entry(name)
        jet = eval_jet(spec, _points(spec), order=3)
        frame = adapted_frame(jet)
        sp = second_fundamental_form(jet, frame)
        carried = covariant_grad_h(spec, jet, frame).shape
        for field in ("a", "b", "minimality_residual"):
            assert np.array_equal(getattr(carried, field), getattr(sp, field))


# ------------------------------------------------- covariant gradient of h

def test_clifford_parallel_h():
    spec = catalog_entry("clifford")
    grad = covariant_grad_h(spec, TORUS_PTS)
    assert np.max(np.abs(grad.a1)) < 1e-10
    assert np.max(np.abs(grad.a2)) < 1e-10
    assert np.max(grad.b1_direct) < 1e-10
    assert np.max(grad.codazzi_residual) < 1e-6


def test_veronese_parallel_h():
    spec = catalog_entry("veronese")
    grad = covariant_grad_h(spec, SPHERE_PTS)
    assert np.max(grad.b1_direct) < 1e-6
    assert np.max(grad.codazzi_residual) < 1e-6


def test_calabi3_b1_value():
    # Simons identity with constant S = 5/3 forces B1 = 5/6
    spec = catalog_entry("calabi3")
    grad = covariant_grad_h(spec, SPHERE_PTS)
    assert np.max(np.abs(grad.b1_direct - 5.0 / 6.0)) < 1e-5
    assert np.max(grad.codazzi_residual) < 1e-6
    assert np.all(grad.b1_direct >= 0.0)


@pytest.mark.parametrize("name", ["calabi3", "mixed_torus"])
def test_taylor_grad3_matches_fd_of_frozen_frame(name, mixed_torus):
    spec = mixed_torus if name == "mixed_torus" else catalog_entry(name)
    pts = (np.array([0.25, 1.3, 2.9]), np.array([0.6, 2.1, 5.2]))
    grad3 = covariant_grad_h(spec, pts).grad3
    assert np.max(np.abs(grad3)) > 0.1
    assert np.max(np.abs(grad3 - frozen_frame_grad3(spec, pts))) < 1e-9


def test_fd_connection_matches_exact_connection():
    # the exact omega12, read from the frame's degree-1 Taylor coefficients,
    # agrees with a direct finite difference of e1 in the frozen-pivot frame
    spec = catalog_entry("calabi3")
    u0, v0 = 1.2, 0.9
    jet = eval_jet(spec, (u0, v0), order=2)
    base = adapted_frame(jet)
    h = 1e-5

    def e1_at(du, dv):
        j = eval_jet(spec, (u0 + du, v0 + dv), order=2)
        return adapted_frame(j, pivot_idx=base.pivot_idx).e1.c[0]

    d_e1_u = (e1_at(h, 0) - e1_at(-h, 0)) / (2 * h)
    d_e1_v = (e1_at(0, h) - e1_at(0, -h)) / (2 * h)
    e2 = base.e2.c[0]
    omega_chart = np.array([float(d_e1_u @ e2), float(d_e1_v @ e2)])
    omega_fd = base.chart_to_frame.c[0] @ omega_chart
    omega_t, _ = _connection_forms(base)
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
    S = second_norm_field(mixed_torus, TORUS_PTS).c[0]
    assert np.max(S) - np.min(S) > 0.5


def test_load_missing_file():
    with pytest.raises(ParseError):
        load_immersion("/no/such/file.json")
