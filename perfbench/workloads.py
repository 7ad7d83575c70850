"""Workload definitions, seeded inputs and the correctness gate.

The benchmark keeps its own expected tables; it never imports the test
suite.  Every value is read back from the `--json` report that a
`python -m minimal_gap_lab` process writes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# (cos u e^{iv}, sin u e^{2iv}): a minimal torus in S^3 whose S is not
# constant, so the first gap formula is checked on a non-trivial integrand.
MIXED_TORUS_COMPONENTS = [
    [(0.5, "cos", (1, 1)), (0.5, "cos", (1, -1))],
    [(0.5, "sin", (1, 1)), (-0.5, "sin", (1, -1))],
    [(0.5, "sin", (1, 2)), (0.5, "sin", (1, -2))],
    [(0.5, "cos", (1, -2)), (-0.5, "cos", (1, 2))],
]

EXPECTED_VERDICTS = {
    "equator": {"lemma_ab": "consistent", "main1_constant": "consistent",
                "main1_gap": "inapplicable", "main4": "inapplicable",
                "main6_integral": "consistent", "main6_flat": "inapplicable"},
    "veronese": {"lemma_ab": "consistent", "simon_window": "consistent",
                 "main1_constant": "consistent", "main1_gap": "inapplicable",
                 "main4": "inapplicable", "main4.5": "inapplicable",
                 "main5_pinch": "inapplicable"},
    "calabi3": {"main1_constant": "consistent", "main1_gap": "consistent",
                "simon_window": "consistent"},
    "calabi4": {"main1_constant": "consistent", "main1_gap": "consistent"},
    "clifford": {"main4": "consistent", "main4.5": "consistent",
                 "main5_pinch": "consistent", "main6_jump": "inapplicable",
                 "main6_flat": "inapplicable", "lemma_ab": "inapplicable"},
    "mixed_torus": {"main4": "consistent", "main4.5": "consistent",
                    "main6_integral": "consistent",
                    "bryant_exclusion": "consistent"},
}

AREA_TOL = 1e-8
EXPECTED_AREA = {
    "clifford": 2.0 * math.pi ** 2,
    "veronese": 12.0 * math.pi,
    "calabi3": 24.0 * math.pi,
}

U_TOL = 1e-8
EXPECTED_U = {"clifford": 2.0, "veronese": 2.0, "calabi3": 2.5}

BOUND_445_TOL = 1e-8
GAP1_REL_MAX = 1e-10
FLAGGED_BUDGET = 0.01          # the CLI's default `flagged_budget`

IDENTITY_QMAX = 7
IDENTITIES_PER_Q = 13


@dataclass(frozen=True)
class Workload:
    name: str
    surfaces: tuple            # catalog names; "mixed_torus" is the seeded spec file
    extra_args: tuple          # CLI arguments after the surfaces

    @property
    def is_verify(self) -> bool:
        return bool(self.surfaces)

    def ops_per_process(self) -> int:
        """Operations one process attempts: surfaces verified or proofs."""
        if self.is_verify:
            return len(self.surfaces)
        return IDENTITY_QMAX * IDENTITIES_PER_Q


# Why each workload was chosen is recorded in BENCHMARK.json.  The expected
# tables above and the seeded `mixed_torus` also cover the low-codimension
# surfaces, which no workload verifies: on a shared 2-CPU host, a third
# workload would leave runs too short to be steady within the time all runs
# may take.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            "verify_high_codim",
            ("calabi3", "calabi4"),
            ("--resolution", "96x192", "--workers", "2"),
        ),
        Workload("identities_q7", (), ()),
    )
}


# -- seeded input ---------------------------------------------------------------

def random_rotation(seed: int) -> np.ndarray:
    """A Haar-distributed O(4) matrix: QR of a Gaussian, column signs fixed."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((4, 4)))
    return q * np.sign(np.diag(r))


def rotated_mixed_torus(seed: int) -> dict:
    """The mixed torus spec with its components rotated by `random_rotation`.

    Every seed rotates, so each of the four rotated components carries all
    eight trigonometric terms whatever the seed.
    """
    rot = random_rotation(seed)
    components = []
    for row in rot:
        merged = {}
        for weight, comp in zip(row, MIXED_TORUS_COMPONENTS):
            for coeff, kind, freq in comp:
                merged[kind, freq] = merged.get((kind, freq), 0.0) + float(weight) * coeff
        components.append([{"coeff": c, "type": kind, "freq": list(freq)}
                           for (kind, freq), c in sorted(merged.items())])
    return {"name": "mixed_torus", "chart": "torus", "ambient_dim": 4,
            "euler_char": 0, "components": components}


def write_inputs(workload: Workload, seed: int, workdir: Path) -> list[str]:
    """Write the seeded spec file if needed; return the `--surface` sources."""
    sources = []
    for name in workload.surfaces:
        if name == "mixed_torus":
            path = workdir / "mixed_torus.json"
            path.write_text(json.dumps(rotated_mixed_torus(seed), indent=2) + "\n",
                            encoding="utf-8")
            sources.append(str(path))
        else:
            sources.append(name)
    return sources


def cli_args(workload: Workload, sources: list[str], json_path: Path) -> list[str]:
    if workload.is_verify:
        args = ["verify"]
        for source in sources:
            args += ["--surface", source]
    else:
        args = ["identities", "--qmax", str(IDENTITY_QMAX)]
    return args + list(workload.extra_args) + ["--json", str(json_path)]


# -- the correctness gate ---------------------------------------------------------

def surface_failures(name: str, tree: dict, expected_verdicts=EXPECTED_VERDICTS) -> list[str]:
    """Reasons one verified surface fails its reference checks (empty if none)."""
    reasons = []
    cert = tree["certificate"]
    for theorem, verdict in expected_verdicts[name].items():
        got = cert.get(theorem, {}).get("verdict")
        if got != verdict:
            reasons.append(f"{theorem}: verdict {got!r}, expected {verdict!r}")
    for theorem, node in cert.items():
        if node["verdict"] == "violated":
            reasons.append(f"{theorem}: violated")
    integrals = tree["integrals"]
    if name in EXPECTED_AREA and abs(integrals["area"] - EXPECTED_AREA[name]) > AREA_TOL:
        reasons.append(f"area {integrals['area']!r}, expected {EXPECTED_AREA[name]!r}")
    if name in EXPECTED_U:
        u = tree["invariants"]["u"]
        worst = max(abs(u["min"] - EXPECTED_U[name]), abs(u["max"] - EXPECTED_U[name]))
        if worst > U_TOL:
            reasons.append(f"u off {EXPECTED_U[name]!r} by {worst:.3e}")
    if name == "clifford":
        for key in ("bound_445", "max_u"):
            if abs(integrals[key] - 2.0) > BOUND_445_TOL:
                reasons.append(f"{key} {integrals[key]!r}, expected 2")
    if name == "mixed_torus" and not integrals["gap1_residual_rel"] <= GAP1_REL_MAX:
        reasons.append(f"gap1_residual_rel {integrals['gap1_residual_rel']!r}")
    if not tree["flagged_fraction"] <= FLAGGED_BUDGET:
        reasons.append(f"flagged_fraction {tree['flagged_fraction']!r}")
    return reasons


def check_process(workload: Workload, returncode: int, json_path: Path,
                  report: bytes, first_report: bytes | None,
                  expected_verdicts=EXPECTED_VERDICTS) -> tuple[int, list[str]]:
    """Gate one finished process: (operations failed, reasons)."""
    ops = workload.ops_per_process()
    if returncode != 0:
        return ops, [f"exit code {returncode}"]
    if first_report is not None and report != first_report:
        return ops, ["report bytes differ from the first run of this set"]
    try:
        doc = _report(json_path)
    except (OSError, ValueError, KeyError) as exc:
        return ops, [f"unreadable JSON report: {exc!r}"]
    if workload.is_verify:
        failed, reasons = 0, []
        for name in workload.surfaces:
            tree = doc["surfaces"].get(name)
            why = ["missing from the report"] if tree is None else \
                surface_failures(name, tree, expected_verdicts)
            if why:
                failed += 1
                reasons += [f"{name}: {r}" for r in why]
        return failed, reasons
    verdicts = [(q, ident, verdict) for q, group in doc["identity_suite"].items()
                for ident, verdict in group.items()]
    proved = sum(verdict == "proved" for _, _, verdict in verdicts)
    reasons = [f"{q} {ident}: {verdict}" for q, ident, verdict in verdicts
               if verdict != "proved"]
    if len(verdicts) != ops:
        reasons.append(f"{len(verdicts)} identities reported, expected {ops}")
    return ops - min(proved, ops), reasons


def _report(json_path: Path) -> dict:
    return json.loads(json_path.read_text(encoding="utf-8"))["minimal-gap-lab"]


def report_items(workload: Workload, json_path: Path) -> int:
    """Items one passing process handled, read from its report: grid nodes
    verified, or identities proved."""
    doc = _report(json_path)
    if workload.is_verify:
        return sum(t["grid"]["nodes"] for t in doc["surfaces"].values())
    return sum(len(group) for group in doc["identity_suite"].values())


def flagged_fraction(json_path: Path) -> float:
    """Untrusted grid nodes over all grid nodes in one verify report."""
    trees = _report(json_path)["surfaces"].values()
    flagged = sum(t["flagged_fraction"] * t["grid"]["nodes"] for t in trees)
    return flagged / sum(t["grid"]["nodes"] for t in trees)
