"""Metamorphic tests: changes to a spec that cannot change any invariant.

A rotation of the ambient space R^(N+1) maps the sphere to itself and the
surface to a congruent one, and appending a zero component embeds S^N as a
great sphere of S^(N+1) (codimension q -> q + 1).  Neither may move a
pointwise field or an integral beyond rounding, nor any certificate verdict.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minimal_gap_lab.gaps import certify
from minimal_gap_lab.geoquad import build_grid, evaluate_fields, integral_report
from minimal_gap_lab.surfaces import CATALOG_NAMES, SPHERE, ImmersionSpec, catalog_entry

RESOLUTION = (16, 32)
INVARIANT_FIELDS = ("S", "u", "rho_perp", "lambda1", "lambda2", "rho0", "normA2")
B1_FIELDS = ("b1_simons", "b1_direct", "delta_S")
INTEGRALS = ("area", "int_S", "gap1_lhs", "gap1_rhs", "gap2_form1", "gap2_form2",
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


def _evaluate(spec: ImmersionSpec):
    grid = build_grid(spec, RESOLUTION)
    fields = evaluate_fields(spec, grid)
    report = integral_report(spec, grid, fields)
    cert = certify(spec, fields, report)
    return fields, [(e.theorem, e.verdict) for e in cert.entries], report


@pytest.fixture(scope="module")
def base_results(mixed_torus):
    """(spec, fields, verdicts, report) of each unchanged surface, evaluated
    once."""
    cache = {}

    def get(name):
        if name not in cache:
            spec = mixed_torus if name == "mixed_torus" else catalog_entry(name)
            cache[name] = (spec,) + _evaluate(spec)
        return cache[name]

    return get


def _assert_same_fields(base, other):
    """Each field within rel * max(1, max |field|) of the base surface's."""
    for holder, names, rel in ((lambda f: f.inv, INVARIANT_FIELDS, 1e-12),
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
