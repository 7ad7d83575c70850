"""Shared fixtures: heavy artifacts are built once per session."""

import functools
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


LAWSON_13_DOC = {
    # Lawson's tau_{1,3} (Ann. Math. 92, 1970), (cos u e^{iv}, sin u e^{3iv}):
    # a minimal torus in S^3 with S in [2/9, 18] and |Lap S| up to 576
    "name": "lawson_13",
    "chart": "torus",
    "ambient_dim": 4,
    "euler_char": 0,
    "components": [
        [{"coeff": 0.5, "type": "cos", "freq": [1, 1]},
         {"coeff": 0.5, "type": "cos", "freq": [1, -1]}],
        [{"coeff": 0.5, "type": "sin", "freq": [1, 1]},
         {"coeff": -0.5, "type": "sin", "freq": [1, -1]}],
        [{"coeff": 0.5, "type": "sin", "freq": [1, 3]},
         {"coeff": 0.5, "type": "sin", "freq": [1, -3]}],
        [{"coeff": 0.5, "type": "cos", "freq": [1, -3]},
         {"coeff": -0.5, "type": "cos", "freq": [1, 3]}],
    ],
}


@pytest.fixture(scope="session")
def lawson_torus():
    from minimal_gap_lab.surfaces import parse_spec_dict

    return parse_spec_dict(LAWSON_13_DOC)


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


class _Bundle(SimpleNamespace):
    @functools.cached_property
    def fields(self):
        """The per-node fields, evaluated on first use."""
        from tile_fields import grid_fields

        return grid_fields(self.spec, self.grid)


@pytest.fixture(scope="session")
def bundle(mixed_torus):
    """Per-surface (spec, grid, summary, report, certificate), computed once,
    and the per-node `fields` when a test reads them."""
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
            summary = evaluate_fields(spec, grid)
            report = integral_report(spec, grid, summary)
            cert = certify(spec, summary, report)
            cache[key] = _Bundle(spec=spec, grid=grid, summary=summary,
                                 report=report, cert=cert)
        return cache[key]

    return get
