"""Tests for pointwise invariants and the two-route B1 computation."""

import math

import numpy as np
import pytest

from minimal_gap_lab.errors import InvariantViolation
from minimal_gap_lab.invariants import (
    b1_cross_check,
    b1_simons,
    fundamental_matrix,
    point_invariants,
)
from minimal_gap_lab.surfaces import (
    ShapePair,
    adapted_frame,
    catalog_entry,
    covariant_grad_h,
    eval_jet,
    second_fundamental_form,
    second_norm_field,
)

from fd_oracle import laplace_beltrami


def _pair(a, b):
    """A ShapePair from a, b given as (q,) or (points, q); stored points last."""
    a = np.asarray(a, dtype=float).T
    b = np.asarray(b, dtype=float).T
    return ShapePair(a=a, b=b, minimality_residual=np.zeros(a.shape[1:]))


def _catalog_invariants(name, pts=None):
    spec = catalog_entry(name)
    if pts is None:
        pts = (np.array([0.5, 2.8]), np.array([1.0, 4.0])) \
            if spec.chart == "torus" else (np.array([0.7, 2.2]), np.array([0.9, 3.8]))
    jet = eval_jet(spec, pts, order=2)
    sp = second_fundamental_form(jet, adapted_frame(jet))
    return spec, pts, point_invariants(sp)


# ------------------------------------------------------ array layout

def test_every_per_node_array_ends_in_the_point_axes():
    # value axes first, points last, from the frame to the fundamental matrix;
    # a (3, 5) array of points gives the same numbers as the 15 points flat
    spec = catalog_entry("calabi3")
    q, C = spec.codim, spec.ambient_dim
    u = np.linspace(0.4, 2.6, 15)
    v = np.linspace(0.1, 6.0, 15)
    layouts = {}
    for shape in ((3, 5), (15,)):
        jet = eval_jet(spec, (u.reshape(shape), v.reshape(shape)))
        frame = adapted_frame(jet)
        sp = second_fundamental_form(jet, frame)
        layouts[shape] = {
            "e1": (frame.e1.c, (3, C)), "e2": (frame.e2.c, (3, C)),
            "xi": (frame.xi.c, (3, q, C)),
            "chart_to_frame": (frame.chart_to_frame.c, (3, 2, 2)),
            "pivot_idx": (frame.pivot_idx, (q,)),
            "a": (sp.a, (q,)), "b": (sp.b, (q,)), "h": (sp.h, (2, 2, q)),
            "grad3": (covariant_grad_h(spec, jet, frame).grad3, (2, 2, 2, q)),
            "matrix": (fundamental_matrix(sp).matrix, (q, q)),
            "S": (point_invariants(sp).S, ()),
        }
    for name, (grid, value_axes) in layouts[3, 5].items():
        flat, _ = layouts[15, ][name]
        assert grid.shape == value_axes + (3, 5), name
        assert np.array_equal(grid.reshape(flat.shape), flat), name


def test_shape_pair_rejects_points_first_arrays():
    a = np.zeros((1000, 3))
    with pytest.raises(ValueError):
        ShapePair(a=a, b=a, minimality_residual=np.zeros(1000))
    with pytest.raises(ValueError):
        ShapePair(a=a.T, b=a, minimality_residual=np.zeros(1000))


# ------------------------------------------------------ fundamental matrix

def test_fundamental_matrix_orthonormal_pair():
    fm = fundamental_matrix(_pair([1.0, 0.0], [0.0, 1.0]))
    assert np.allclose(fm.matrix, 2.0 * np.eye(2))
    assert float(fm.trace) == 4.0
    assert float(fm.gram_residual) == 0.0


def test_fundamental_matrix_zero():
    fm = fundamental_matrix(_pair([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]))
    assert np.all(fm.matrix == 0.0)


def test_fundamental_matrix_rank_two():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal(6), rng.standard_normal(6)
    fm = fundamental_matrix(_pair(a, b))
    lam = np.linalg.eigvalsh(fm.matrix)
    assert lam[-3] < 1e-10 * np.trace(fm.matrix)
    assert abs(np.trace(fm.matrix) - 2 * (a @ a + b @ b)) < 1e-12


# ------------------------------------------------------ point invariants

def test_veronese_point_invariants():
    _, _, inv = _catalog_invariants("veronese")
    assert np.allclose(inv.S, 4.0 / 3.0, atol=1e-12)
    assert np.allclose(inv.rho0, 16.0 / 9.0, atol=1e-12)
    assert np.allclose(inv.lambda1, 2.0 / 3.0, atol=1e-12)
    assert np.allclose(inv.lambda2, 2.0 / 3.0, atol=1e-12)
    assert np.allclose(inv.u, 2.0, atol=1e-12)
    assert np.allclose(inv.t, 0.0, atol=1e-7)
    assert np.allclose(inv.rho_perp, 2.0 / 3.0, atol=1e-12)
    assert np.allclose(inv.K, 1.0 / 3.0, atol=1e-12)


def test_calabi3_point_invariants():
    _, _, inv = _catalog_invariants("calabi3")
    assert np.allclose(inv.S, 5.0 / 3.0, atol=1e-12)
    assert np.allclose(inv.u, 2.5, atol=1e-12)
    assert np.allclose(inv.K, 1.0 / 6.0, atol=1e-12)


def test_clifford_point_invariants():
    _, _, inv = _catalog_invariants("clifford")
    assert np.allclose(inv.S, 2.0, atol=1e-12)
    assert np.allclose(inv.lambda2, 0.0, atol=1e-13)
    assert np.allclose(inv.u, 2.0, atol=1e-12)
    assert np.allclose(inv.rho_perp, 0.0, atol=1e-13)
    assert np.allclose(inv.t, 1.0, atol=1e-12)
    assert np.allclose(inv.K, 0.0, atol=1e-13)


def test_totally_geodesic_point():
    inv = point_invariants(_pair(np.zeros(3), np.zeros(3)))
    assert float(inv.S) == 0.0
    assert float(inv.t) == 1.0          # defined value at S = 0
    assert float(inv.u) == 0.0
    assert float(inv.K) == 1.0


RNG_POPULATION = 10_000


@pytest.fixture(scope="module")
def random_pairs():
    rng = np.random.default_rng(42)
    pop = []
    for q in range(1, 9):
        n = RNG_POPULATION // 8
        pop.append((rng.standard_normal((n, q)), rng.standard_normal((n, q))))
    return pop


def test_rho0_routes_agree_on_population(random_pairs):
    for a, b in random_pairs:
        inv = point_invariants(_pair(a, b))
        scale = np.maximum(1.0, np.abs(inv.rho0))
        assert np.max(inv.rho0_commutator_residual / scale) < 1e-10


def test_commutator_route_equals_the_two_product_formula_bitwise():
    # [S_a, S_b] = S_a S_b - S_b S_a, the second product taken as the
    # transpose of the first: the residual must be bitwise what the two
    # separate products give
    rng = np.random.default_rng(7)
    sp = _pair(rng.standard_normal((3072, 6)), rng.standard_normal((3072, 6)))
    inv = point_invariants(sp)
    h = sp.h
    comm = (np.einsum("ija...,jkb...->abik...", h, h)
            - np.einsum("ijb...,jka...->abik...", h, h))
    rho0_comm = np.einsum("abik...,abik...->...", comm, comm)
    assert np.array_equal(inv.rho0_commutator_residual, np.abs(inv.rho0 - rho0_comm))


def test_eigen_routes_agree_on_population(random_pairs):
    for a, b in random_pairs:
        inv = point_invariants(_pair(a, b))
        scale = np.maximum(1.0, inv.S)
        assert np.max(inv.eig_residual / scale) < 1e-10
        assert np.max(inv.eig_tail / np.maximum(inv.S, 1e-300)) < 1e-10


def test_ddvv_slack_nonnegative_on_population(random_pairs):
    for a, b in random_pairs:
        inv = point_invariants(_pair(a, b))
        assert np.min(inv.ddvv_slack) >= -1e-10 * max(1.0, float(np.max(inv.S)) ** 2)


def test_ddvv_equality_cases_exact():
    # |a| = |b|, <a, b> = 0 along coordinate axes: slack is exactly zero
    for q in (2, 3, 5, 8):
        for r in (0.5, 1.0, 2.0, 3.25):
            a = np.zeros(q)
            b = np.zeros(q)
            a[0], b[1] = r, r
            inv = point_invariants(_pair(a, b))
            assert abs(float(inv.ddvv_slack)) < 1e-12
    # rotated equality cases stay within rounding of zero
    rng = np.random.default_rng(1)
    for _ in range(50):
        q = int(rng.integers(2, 7))
        mat = np.linalg.qr(rng.standard_normal((q, q)))[0]
        r = float(rng.uniform(0.2, 2.0))
        inv = point_invariants(_pair(r * mat[0], r * mat[1]))
        assert abs(float(inv.ddvv_slack)) < 1e-12


def test_ddvv_violation_raises():
    sp = _pair([1.0, 0.0], [0.0, 1.0])
    sp.a[:] = [1.0, 0.0]
    inv = point_invariants(sp)          # fine
    assert float(inv.ddvv_slack) == 0.0
    bad = _pair([1.0, 0.0], [0.0, 1.0])
    bad.b[:] = [0.0, 1.0]
    # forge an impossible rho0 by monkeypatching is overkill; instead check
    # the guard trips on a synthetic negative slack
    with pytest.raises(InvariantViolation):
        from minimal_gap_lab import invariants as mod

        orig = mod.DDVV_SLACK_TOL
        mod.DDVV_SLACK_TOL = -0.0
        try:
            # hopf quantities make slack exactly 0 here; any negative zero
            # passes, so force a tiny violation through the tolerance itself
            mod.DDVV_SLACK_TOL = 1e-3   # demands slack > 1e-3 * scale
            point_invariants(bad)
        finally:
            mod.DDVV_SLACK_TOL = orig


def test_u_and_t_identities_on_population(random_pairs):
    for a, b in random_pairs:
        inv = point_invariants(_pair(a, b))
        mask = inv.S > 1e-12
        # u = (3 - t) S / 2
        assert np.max(np.abs(inv.u - (3.0 - inv.t) * inv.S / 2.0)[mask]) < 1e-10
        # 3S - 2u = sqrt(S^2 - rho0)
        lhs = 3.0 * inv.S - 2.0 * inv.u
        rhs = np.sqrt(np.maximum(inv.ddvv_slack, 0.0))
        assert np.max(np.abs(lhs - rhs)[mask] / np.maximum(1.0, inv.S[mask])) < 1e-10
        # 2 S^2 = rho0 + 2 |A|^2
        assert np.max(np.abs(2 * inv.S ** 2 - inv.rho0 - 2 * inv.normA2)
                      / np.maximum(1.0, inv.S ** 2)) < 1e-10


def test_quadratic_inversion_one_sign(random_pairs):
    # S = 3u/4 +/- sqrt(u^2 - 2 rho0)/4 holds for one sign choice
    a, b = random_pairs[3]
    inv = point_invariants(_pair(a, b))
    disc = np.sqrt(np.maximum(inv.u ** 2 - 2.0 * inv.rho0, 0.0))
    plus = np.abs(inv.S - (0.75 * inv.u + 0.25 * disc))
    minus = np.abs(inv.S - (0.75 * inv.u - 0.25 * disc))
    assert np.max(np.minimum(plus, minus) / np.maximum(1.0, inv.S)) < 1e-10


def test_catalog_lemma_ab_structure():
    # on catalog 2-spheres, |a|^2 - |b|^2 and <a, b> vanish
    for name in ("veronese", "calabi3", "calabi4"):
        _, _, inv = _catalog_invariants(name)
        assert np.max(np.abs(inv.hopf_re)) < 1e-8
        assert np.max(np.abs(inv.hopf_im)) < 1e-8


def test_clifford_hopf_constant():
    spec = catalog_entry("clifford")
    u = np.linspace(0, 2 * math.pi, 17, endpoint=False)
    v = np.linspace(0, 2 * math.pi, 13, endpoint=False)
    U, V = np.meshgrid(u, v, indexing="ij")
    jet = eval_jet(spec, (U, V), order=2)
    sp = second_fundamental_form(jet, adapted_frame(jet))
    inv = point_invariants(sp)
    assert np.max(inv.hopf_re) - np.min(inv.hopf_re) < 1e-10
    assert np.max(inv.hopf_im) - np.min(inv.hopf_im) < 1e-10


# ------------------------------------------------------ B1 routes

def test_b1_simons_catalog_values():
    cases = {"clifford": (0.0, 1e-6), "veronese": (0.0, 1e-5),
             "calabi3": (5.0 / 6.0, 1e-5)}
    for name, (expected, tol) in cases.items():
        spec, pts, inv = _catalog_invariants(name)
        sb = b1_simons(spec, pts, inv)
        assert np.max(np.abs(sb.b1 - expected)) < tol


def test_b1_cross_check_catalog():
    cases = {"clifford": 1e-8, "veronese": 1e-5, "calabi3": 1e-4}
    for name, tol in cases.items():
        spec, pts, _ = _catalog_invariants(name)
        assert np.max(b1_cross_check(spec, pts)) < tol


def test_b1_cross_check_nonconstant_surface(mixed_torus):
    pts = (np.array([0.25, 1.3, 2.9]), np.array([0.6, 2.1, 5.2]))
    assert np.max(b1_cross_check(mixed_torus, pts)) < 1e-4


def test_taylor_laplacian_of_S_matches_fd_oracle(rotated_mixed_torus):
    # S is far from constant here (|Lap S| reaches ~100); the Taylor route
    # and the Richardson stencils must agree to the stencils' own accuracy
    spec = rotated_mixed_torus
    rng = np.random.default_rng(7)
    u = rng.uniform(0.0, 2.0 * math.pi, 40)
    v = rng.uniform(0.0, 2.0 * math.pi, 40)
    lap = b1_simons(spec, (u, v)).laplacian_S
    fd, _ = laplace_beltrami(
        spec, lambda U, V: second_norm_field(spec, (U, V)).c[0], u, v)
    assert np.max(np.abs(lap)) > 50.0
    assert np.max(np.abs(lap - fd) / np.maximum(1.0, np.abs(lap))) < 1e-6


def test_laplacian_on_flat_torus():
    # clifford metric is g = diag(1/2, 1/2): Lap f = 2 (f_uu + f_vv)
    spec = catalog_entry("clifford")
    u = np.array([0.5, 2.2, 4.0])
    v = np.array([1.1, 3.7, 0.2])
    lap, disagree = laplace_beltrami(
        spec, lambda U, V: np.sin(U) * np.cos(V), u, v)
    assert np.max(np.abs(lap + 4.0 * np.sin(u) * np.cos(v))) < 1e-8
    assert np.max(disagree) < 1e-6


def test_laplacian_on_round_sphere_multiple():
    # veronese induced metric is 3x the round one: Lap cos(theta) = -(2/3) cos
    spec = catalog_entry("veronese")
    u = np.array([0.8, 1.9])
    v = np.array([0.3, 2.5])
    lap, _ = laplace_beltrami(spec, lambda U, V: np.cos(U), u, v)
    assert np.max(np.abs(lap + (2.0 / 3.0) * np.cos(u))) < 1e-9


def test_eigenvalue_ordering_on_population(random_pairs):
    for a, b in random_pairs:
        inv = point_invariants(_pair(a, b))
        scale = np.maximum(1.0, inv.S)
        assert np.all(inv.lambda1 >= inv.lambda2)
        assert np.all(inv.lambda2 >= -1e-10 * scale)
        assert np.max(np.abs(inv.lambda1 + inv.lambda2 - inv.S) / scale) < 1e-10
