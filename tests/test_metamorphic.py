"""Metamorphic tests: changes to a spec that cannot change any invariant.

A rotation of the ambient space R^(N+1) maps the sphere to itself and the
surface to a congruent one, and appending a zero component embeds S^N as a
great sphere of S^(N+1) (codimension q -> q + 1).  Neither may move a
pointwise field or an integral beyond rounding, nor any certificate verdict.
A translation (u, v) -> (u + s, v + t) of a torus chart reparametrizes the
same surface: each field at (u, v) is the original's at (u + s, v + t).  So
does a lattice automorphism (u, v) -> (u, v) M, M in GL(2, Z), which on an
n x n torus grid maps nodes onto nodes, and a rotation of the domain S^2 of
a sphere chart, which moves the nodes relative to the chart poles.
"""

import math
from dataclasses import fields as dc_fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minimal_gap_lab.gaps import certify
from minimal_gap_lab.geoquad import build_grid, evaluate_fields, integral_report
from minimal_gap_lab.invariants import PointInvariants
from minimal_gap_lab.surfaces import (
    CATALOG_NAMES,
    COS,
    SIN,
    SPHERE,
    ImmersionSpec,
    catalog_entry,
    validate_spec,
)

from tile_fields import grid_fields, take

RESOLUTION = (16, 32)
INVARIANT_FIELDS = ("S", "u", "rho_perp", "lambda1", "lambda2", "rho0", "normA2")
B1_FIELDS = ("b1_simons", "b1_direct", "delta_S")
INTEGRALS = ("area", "int_K", "int_S", "gap1_lhs", "gap1_rhs", "gap2_form1", "gap2_form2",
             "bound_445")
# measured worst over 12 rotation seeds per surface on the 16x32 grids:
# 1.3e-14 of max(|integral|, area), for calabi4's second gap forms
INTEGRAL_REL = 1e-12


def _haar_rotation(seed: int, n: int) -> np.ndarray:
    """A Haar-distributed O(n) matrix: QR of a Gaussian, column signs fixed."""
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _rotated(spec: ImmersionSpec, rotation: np.ndarray) -> ImmersionSpec:
    """Components mixed by `rotation`: each one a linear combination of all,
    merged term by term (monomials on the sphere chart, (kind, m, n) terms on
    the torus chart)."""
    components = []
    for row in rotation:
        merged = {}
        for weight, comp in zip(row, spec.components):
            terms = comp.items() if spec.chart == SPHERE else \
                (((kind, m, n), c) for c, kind, m, n in comp)
            for key, coeff in terms:
                merged[key] = merged.get(key, 0.0) + float(weight) * coeff
        components.append(merged if spec.chart == SPHERE else
                          [(c, kind, m, n) for (kind, m, n), c in merged.items()])
    return replace(spec, components=components)


def _padded(spec: ImmersionSpec) -> ImmersionSpec:
    """The same surface in S^(N+1): one more component, identically zero."""
    zero = {} if spec.chart == SPHERE else []
    return replace(spec, ambient_dim=spec.ambient_dim + 1,
                   components=spec.components + [zero])


def _translated(spec: ImmersionSpec, s: float, t: float) -> ImmersionSpec:
    """The torus spec of (u, v) -> X(u + s, v + t).  With p = m s + n t,
    cos(phase + p) = cos p cos(phase) - sin p sin(phase) and
    sin(phase + p) = sin p cos(phase) + cos p sin(phase)."""
    components = []
    for comp in spec.components:
        terms = []
        for c, kind, m, n in comp:
            cos_p, sin_p = math.cos(m * s + n * t), math.sin(m * s + n * t)
            if kind == COS:
                terms += [(c * cos_p, COS, m, n),
                          (-c * sin_p, SIN, m, n)]
            else:
                terms += [(c * sin_p, COS, m, n),
                          (c * cos_p, SIN, m, n)]
        components.append(terms)
    return replace(spec, components=components)


def _lattice_mapped(spec: ImmersionSpec, M) -> ImmersionSpec:
    """The torus spec of (u, v) -> X((u, v) M) for M = ((a, b), (c, d)) in
    GL(2, Z): m u + n v becomes (m a + n b) u + (m c + n d) v, so the term of
    frequency (m, n) gets (m, n) M^T."""
    (a, b), (c, d) = M
    return replace(spec, components=[[(coeff, kind, m * a + n * b, m * c + n * d)
                                       for coeff, kind, m, n in comp]
                                      for comp in spec.components])


def _evaluate(spec: ImmersionSpec, resolution=RESOLUTION):
    """(per-node fields, verdicts, report) of the spec on the test grid."""
    grid = build_grid(spec, resolution)
    summary = evaluate_fields(spec, grid)
    report = integral_report(spec, grid, summary)
    cert = certify(spec, summary, report)
    return grid_fields(spec, grid), [(e.theorem, e.verdict) for e in cert.entries], report


@pytest.fixture(scope="module")
def base_results(mixed_torus, rotated_mixed_torus):
    """(spec, fields, verdicts, report) of each unchanged surface, evaluated
    once."""
    cache = {}
    tori = {"mixed_torus": mixed_torus, "rotated_mixed_torus": rotated_mixed_torus}

    def get(name):
        if name not in cache:
            spec = tori[name] if name in tori else catalog_entry(name)
            cache[name] = (spec,) + _evaluate(spec)
        return cache[name]

    return get


def _assert_same_fields(base, other, invariant_fields=INVARIANT_FIELDS):
    """Each field within rel * max(1, max |field|) of the base surface's."""
    for holder, names, rel in ((lambda f: f.inv, invariant_fields, 1e-12),
                               (lambda f: f, B1_FIELDS, 1e-11)):
        for name in names:
            ref, got = getattr(holder(base), name), getattr(holder(other), name)
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.max(np.abs(got - ref)) <= rel * scale, name


def _assert_same_integrals(base, other):
    """Each integral within INTEGRAL_REL of the base's, relative to its size
    or, for an integral near 0 (the gaps of the veronese and clifford), to
    the area."""
    for name in INTEGRALS:
        ref, got = getattr(base, name), getattr(other, name)
        assert abs(got - ref) <= INTEGRAL_REL * max(abs(ref), base.area), name


@pytest.mark.parametrize("name", CATALOG_NAMES + ("mixed_torus",))
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_invariants_unchanged_by_rotation_and_padding(name, base_results, seed):
    spec, base_fields, base_verdicts, base_report = base_results(name)
    rotated = _rotated(spec, _haar_rotation(seed, spec.ambient_dim))
    for changed in (rotated, _padded(spec), _padded(rotated)):
        fields, verdicts, report = _evaluate(changed)
        _assert_same_fields(base_fields, fields)
        _assert_same_integrals(base_report, report)
        assert verdicts == base_verdicts


@pytest.mark.parametrize("name", ["clifford", "rotated_mixed_torus"])
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_invariants_follow_a_torus_translation(name, base_results, seed):
    spec, _, base_verdicts, base_report = base_results(name)
    rng = np.random.default_rng(seed)
    grid = build_grid(spec, RESOLUTION)
    # any translation moves no field, frame-dependent ones included: compare
    # with the original at the moved nodes (the tiles read only the grid's
    # axes).  The mixed torus's fields depend on u alone, since a shift in v
    # is an ambient rotation of it.
    s, t = rng.uniform(0.0, 2.0 * math.pi, 2)
    fields = grid_fields(_translated(spec, s, t), grid)
    moved = grid_fields(spec, replace(grid, u_axis=grid.u_axis + s,
                                      v_axis=grid.v_axis + t))
    _assert_same_fields(moved, fields, [f.name for f in dc_fields(PointInvariants)])
    # off the grid lattice the nodes sample the surface elsewhere, which
    # moves an integral by the quadrature error (~1e-6 for this torus at
    # 16x32); a translation by whole grid steps only permutes the nodes
    steps = rng.integers(RESOLUTION)
    s, t = 2.0 * math.pi * steps / RESOLUTION
    _, verdicts, report = _evaluate(_translated(spec, s, t))
    _assert_same_integrals(base_report, report)
    assert verdicts == base_verdicts


# a shear, the swap of the angles (it reverses the orientation) and a
# hyperbolic map
LATTICE_MAPS = (((1, 1), (0, 1)), ((0, 1), (1, 0)), ((2, 1), (1, 1)))
LATTICE_GRID = 24
# rho_perp = sqrt(rho0) / 2 turns the rounding noise of rho0 on these q = 1
# tori (~1e-16, where rho0 = 0) into ~1e-8; rho0 itself is compared
LATTICE_FIELDS = tuple(name for name in INVARIANT_FIELDS if name != "rho_perp")


@pytest.mark.parametrize("name", ["clifford", "mixed_torus", "rotated_mixed_torus"])
def test_invariants_follow_a_torus_lattice_automorphism(name, base_results):
    spec = base_results(name)[0]
    n = LATTICE_GRID
    base_fields, base_verdicts, base_report = _evaluate(spec, (n, n))
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    for M in LATTICE_MAPS:
        (a, b), (c, d) = M
        fields, verdicts, report = _evaluate(_lattice_mapped(spec, M), (n, n))
        # node (i, j) of the mapped spec sits where node (i, j) M of the
        # original does, and the chart weights and |det M| = 1 make the
        # integrals sums of the same terms in another order
        source = ((a * i + c * j) % n * n + (b * i + d * j) % n).ravel()
        _assert_same_fields(take(base_fields, source), fields, LATTICE_FIELDS)
        _assert_same_integrals(base_report, report)
        assert verdicts == base_verdicts


def test_clifford_pinch_verdict_survives_the_hyperbolic_lattice_map():
    # the Clifford torus has K = 0, so every pinch cap is 0; after the
    # hyperbolic map rho0 reads 1.8e-15 of rounding noise (rho_perp 2.1e-8),
    # which the caps' tolerance relative to max(1, S^2) admits
    spec = catalog_entry("clifford")
    n = LATTICE_GRID
    verdicts = [dict(_evaluate(s, (n, n))[1])["main5_pinch"]
                for s in (spec, _lattice_mapped(spec, LATTICE_MAPS[2]))]
    assert verdicts[1] == verdicts[0]


def _domain_rotated(spec: ImmersionSpec, R: np.ndarray) -> ImmersionSpec:
    """The sphere spec of X(R p), p in S^2: each monomial x^i y^j z^k with
    (x, y, z) replaced by the rows of R p, expanded in floats."""
    def times(poly, other):
        out = {}
        for (a, b, c), x in poly.items():
            for (d, e, f), y in other.items():
                key = (a + d, b + e, c + f)
                out[key] = out.get(key, 0.0) + x * y
        return out

    linear = [{(1, 0, 0): float(r[0]), (0, 1, 0): float(r[1]), (0, 0, 1): float(r[2])}
              for r in R]
    components = []
    for comp in spec.components:
        merged = {}
        for exps, coeff in comp.items():
            term = {(0, 0, 0): coeff}
            for factor, n in zip(linear, exps):
                for _ in range(n):
                    term = times(term, factor)
            for key, value in term.items():
                merged[key] = merged.get(key, 0.0) + value
        components.append(merged)
    return replace(spec, components=components)


@pytest.mark.parametrize("name", ["veronese", "calabi3"])
@pytest.mark.parametrize("seed", range(3))
def test_verdicts_and_integrals_survive_a_rotation_of_the_domain(name, seed, base_results):
    # X o R is the same surface in another chart: the rotation moves the
    # nodes relative to the chart poles, where the direct route is most
    # sensitive, so only the verdicts and the integrals are compared.  The
    # integrals moved by 1.0e-14 of max(|integral|, area) at worst over 6
    # seeds on the 16x32 grids, within INTEGRAL_REL
    spec, _, base_verdicts, base_report = base_results(name)
    rotation = _haar_rotation(seed, 3)
    rotation[:, 0] *= np.linalg.det(rotation)          # in SO(3)
    rotated = _domain_rotated(spec, rotation)
    validate_spec(rotated)
    _, verdicts, report = _evaluate(rotated)
    assert verdicts == base_verdicts
    _assert_same_integrals(base_report, report)
