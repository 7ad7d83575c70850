"""The benchmark's own tests.

    python3 -m pytest perfbench

They run small traced and untraced CLI processes (a few seconds in all).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
from workloads import (
    EXPECTED_VERDICTS,
    Workload,
    check_process,
    cli_args,
    rotated_mixed_torus,
    write_inputs,
)

ENV = {**os.environ, "PYTHONPATH": str(run.SOURCE)}
SMALL_VERIFY = Workload("small_verify", ("clifford", "mixed_torus"),
                        ("--resolution", "64x64", "--workers", "2"))
SMALL_IDENTITIES = ["identities", "--qmax", "4"]


def _cli(args, spans_path=None):
    """(returncode, stdout bytes, spans) of one CLI process, traced if asked."""
    if spans_path is None:
        argv = [sys.executable, "-m", "minimal_gap_lab"] + args
    else:
        argv = [sys.executable, str(run.BENCH / "tracer.py"), str(spans_path)] + args
    proc = subprocess.run(argv, capture_output=True, env=ENV, cwd=run.ROOT, timeout=120)
    spans = None
    if spans_path is not None:
        spans = json.loads(Path(spans_path).read_text(encoding="utf-8"))
    return proc.returncode, proc.stdout, spans


@pytest.fixture(scope="module")
def verify_args(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("inputs")
    sources = write_inputs(SMALL_VERIFY, 7, workdir)
    return cli_args(SMALL_VERIFY, sources, workdir / "report.json")


def test_counts_repeat_across_traced_runs(verify_args, tmp_path):
    for args in (verify_args, SMALL_IDENTITIES):
        counts = []
        for i in range(2):
            code, _, spans = _cli(args, tmp_path / f"spans{i}.json")
            assert code == 0
            metrics = tracer.layer_metrics(spans, run.PER_LAYER)
            counts.append({k: v for k, v in metrics.items()
                           if run.PER_LAYER[k] == "count"})
        assert counts[0] == counts[1]


def test_chunks_are_children_of_evaluate_fields(verify_args, tmp_path):
    _, _, spans = _cli(verify_args, tmp_path / "spans.json")
    by_id = {s[3]: s for s in spans}
    chunks = [s for s in spans if s[0] == "geoquad.evaluate_fields.chunk"]
    assert len(chunks) == 4                      # 2 surfaces x 2 workers
    assert all(by_id[s[4]][0] == "geoquad.evaluate_fields" for s in chunks)
    # spans inside a chunk share its operation id: one surface verified
    ops = {s[5] for s in chunks}
    assert len(ops) == 2


def test_self_times_are_nonnegative(verify_args, tmp_path):
    for i, args in enumerate((verify_args, SMALL_IDENTITIES)):
        _, _, spans = _cli(args, tmp_path / f"spans{i}.json")
        for name, entry in tracer.span_stats(spans).items():
            assert entry["self_s"] >= -1e-9, name
            assert entry["self_s"] <= entry["s"] + 1e-9, name


def test_overlapping_children_count_once():
    spans = [
        ("parent", 0.0, 10.0, 1, 0, 1, 1),
        ("chunk", 1.0, 6.0, 2, 1, 1, 2),
        ("chunk", 2.0, 8.0, 3, 1, 1, 3),
        ("leaf", 3.0, 4.0, 4, 2, 1, 2),
    ]
    stats = tracer.span_stats(spans)
    assert stats["parent"]["self_s"] == pytest.approx(3.0)   # 10 - |[1, 8]|
    assert stats["chunk"]["s"] == pytest.approx(11.0)
    assert stats["chunk"]["self_s"] == pytest.approx(10.0)


def test_traced_report_bytes_equal_untraced(verify_args, tmp_path):
    for i, args in enumerate((verify_args, SMALL_IDENTITIES)):
        code, plain, _ = _cli(args)
        traced_code, traced, _ = _cli(args, tmp_path / f"spans{i}.json")
        assert code == traced_code == 0
        assert plain == traced


def test_wrong_expected_value_fails_the_gate(verify_args):
    json_path = Path(verify_args[verify_args.index("--json") + 1])
    code, report, _ = _cli(verify_args)
    assert check_process(SMALL_VERIFY, code, json_path, report, report) == (0, [])

    wrong = {**EXPECTED_VERDICTS, "clifford": {"main4": "inapplicable"}}
    failed, reasons = check_process(SMALL_VERIFY, code, json_path, report, report,
                                    expected_verdicts=wrong)
    assert failed == 1 and "clifford: main4" in reasons[0]
    failed, _ = check_process(SMALL_VERIFY, code, json_path, report + b" ", report)
    assert failed == len(SMALL_VERIFY.surfaces)
    failed, _ = check_process(SMALL_VERIFY, 3, json_path, report, None)
    assert failed == len(SMALL_VERIFY.surfaces)


def test_seeded_input_is_reproducible_and_always_rotated():
    assert rotated_mixed_torus(5) == rotated_mixed_torus(5)
    assert rotated_mixed_torus(5) != rotated_mixed_torus(6)
    for seed in (0, 1, 2):
        assert all(len(c) == 8 for c in rotated_mixed_torus(seed)["components"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "identities_q7",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
