"""Shared fixtures: heavy artifacts are built once per session."""

from types import SimpleNamespace

import pytest


@pytest.fixture(scope="session")
def identity_suite():
    from minimal_gap_lab.identities import run_identity_suite

    return run_identity_suite(qmax=6)


MIXED_TORUS_DOC = {
    # (cos u e^{iv}, sin u e^{2iv}): a minimal torus in S^3 with non-constant
    # S in [1/2, 8]; exercises every field the constant-S catalog cannot
    "name": "mixed_torus",
    "chart": "torus",
    "ambient_dim": 4,
    "euler_char": 0,
    "components": [
        [{"coeff": 0.5, "type": "cos", "freq": [1, 1]},
         {"coeff": 0.5, "type": "cos", "freq": [1, -1]}],
        [{"coeff": 0.5, "type": "sin", "freq": [1, 1]},
         {"coeff": -0.5, "type": "sin", "freq": [1, -1]}],
        [{"coeff": 0.5, "type": "sin", "freq": [1, 2]},
         {"coeff": 0.5, "type": "sin", "freq": [1, -2]}],
        [{"coeff": 0.5, "type": "cos", "freq": [1, -2]},
         {"coeff": -0.5, "type": "cos", "freq": [1, 2]}],
    ],
}


@pytest.fixture(scope="session")
def mixed_torus():
    from minimal_gap_lab.surfaces import parse_spec_dict

    return parse_spec_dict(MIXED_TORUS_DOC)


@pytest.fixture(scope="session")
def rotated_mixed_torus():
    """The mixed torus with its components mixed by a seeded Haar O(4)
    rotation, so every component carries all eight trigonometric terms."""
    import numpy as np

    from minimal_gap_lab.surfaces import parse_spec_dict

    rng = np.random.default_rng(2601)
    q, r = np.linalg.qr(rng.standard_normal((4, 4)))
    rotation = q * np.sign(np.diag(r))
    components = []
    for row in rotation:
        merged = {}
        for weight, comp in zip(row, MIXED_TORUS_DOC["components"]):
            for term in comp:
                key = (term["type"], tuple(term["freq"]))
                merged[key] = merged.get(key, 0.0) + float(weight) * term["coeff"]
        components.append([{"coeff": c, "type": kind, "freq": list(freq)}
                           for (kind, freq), c in sorted(merged.items())])
    return parse_spec_dict(dict(MIXED_TORUS_DOC, components=components))


@pytest.fixture(scope="session")
def bundle(mixed_torus):
    """Per-surface (spec, grid, fields, report, certificate), computed once."""
    from minimal_gap_lab.gaps import certify
    from minimal_gap_lab.geoquad import build_grid, evaluate_fields, integral_report
    from minimal_gap_lab.surfaces import load_immersion

    cache = {}

    def get(name, resolution=None):
        key = (name, resolution)
        if key not in cache:
            if name == "mixed_torus":
                spec = mixed_torus
            else:
                spec = load_immersion(name)
            grid = build_grid(spec, resolution)
            fields = evaluate_fields(spec, grid)
            report = integral_report(spec, grid, fields)
            cert = certify(spec, fields, report)
            cache[key] = SimpleNamespace(spec=spec, grid=grid, fields=fields,
                                         report=report, cert=cert)
        return cache[key]

    return get
