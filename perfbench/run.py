"""The minimal-gap-lab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program under test is the
checkout's own `src/minimal_gap_lab`, run as fresh
`python -m minimal_gap_lab ...` processes exactly as a user runs them.

One run:
1. records the machine facts and the load average;
2. writes the workload's seeded inputs into a private work directory;
3. starts one workload process after another until S seconds have passed,
   gating every process on correctness (see `workloads.check_process`);
4. after one untimed warm-up, times before each workload process a fresh
   interpreter that imports the package and loads and validates the
   workload's specs, and fills the run's last seconds, too short for another
   workload process, with more of these, at least SETUP_REPS in all
   (`setup_s` is their median wall time), so set-up is sampled in the same
   host state as the workload processes;
5. with `--trace 1`, alternates untraced processes with processes run under
   `tracer.py` and reports the per-layer metrics and the tracing overhead.

The last line of stdout is one JSON object: `correct`, `attempted`, `failed`
and `metrics` (every end-to-end metric, or with `--trace 1` every per-layer
metric, each as {"value", "unit"}).  The lines before it print every metric
by name, the machine facts and the load average.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracer
from workloads import (
    WORKLOADS,
    Workload,
    check_process,
    cli_args,
    flagged_fraction,
    report_items,
    write_inputs,
)

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
BENCH = Path(__file__).resolve().parent

SETUP_REPS = 5
PROCESS_TIMEOUT_S = 150.0
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# metric name -> unit, as BENCHMARK.json defines them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# A fresh interpreter's set-up: import the package and load and validate the
# specs named on its command line.
SETUP_CODE = """
import sys
import minimal_gap_lab
from minimal_gap_lab import surfaces
for source in sys.argv[2:]:
    surfaces.load_immersion(source, validate=True)
if not minimal_gap_lab.__file__.startswith(sys.argv[1]):
    sys.exit(f"imported {minimal_gap_lab.__file__}, not the checkout's package")
"""


@dataclass
class Sample:
    """One finished child process."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    stdout: bytes
    items: int = 0             # grid nodes or proofs, if the process passed


def run_process(argv: list[str], env: dict, out_path: Path, timeout: float) -> Sample:
    """Run one child to completion; time it and read its rusage via wait4."""
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:      # e.g. SystemExit from the SIGTERM handler
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                  peak_rss_mb=usage.ru_maxrss / 1024.0,
                  returncode=proc.returncode, stdout=out_path.read_bytes())


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": {k: os.environ[k] for k in THREAD_ENV if k in os.environ},
    }


def loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return "unavailable"


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def tail_percentile(values: list[float]):
    """(p, value) for the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    rank = n - 10                          # samples at or below the percentile
    return 100.0 * rank / n, sorted(values)[rank - 1]


def describe(name: str, unit: str, values: list[float]) -> str:
    line = (f"  {name:<36} median {statistics.median(values):.6g} {unit}"
            f"  [min {min(values):.6g}, max {max(values):.6g}]")
    tail = tail_percentile(values)
    if tail is None:
        line += f"  (n={len(values)}; no percentile has 10 samples beyond it)"
    else:
        line += f"  p{tail[0]:.0f} {tail[1]:.6g} {unit}  (n={len(values)})"
    return line


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: Workload, seed: int, seconds: float, workdir: Path):
        self.workload = workload
        self.seconds = seconds
        self.workdir = workdir
        self.sources = write_inputs(workload, seed, workdir)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SOURCE)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.attempted = 0
        self.failed = 0
        self.first_report = None
        self.reasons = []
        self.setup = []            # wall seconds of each set-up process

    def setup_process(self) -> None:
        i = len(self.setup)
        sample = run_process(
            [sys.executable, "-c", SETUP_CODE, str(SOURCE)] + self.sources,
            self.env, self.workdir / f"setup{i}.out", PROCESS_TIMEOUT_S)
        if sample.returncode != 0:
            err = (self.workdir / f"setup{i}.err").read_text(errors="replace")
            raise RuntimeError(f"set-up process failed ({sample.returncode}): {err}")
        self.setup.append(sample.wall_s)

    def workload_process(self, traced: bool, spans_path: Path | None = None
                         ) -> tuple[Sample, Path]:
        kind = "traced" if traced else "plain"
        json_path = self.workdir / f"{kind}.json"
        argv = cli_args(self.workload, self.sources, json_path)
        if traced:
            argv = [sys.executable, str(BENCH / "tracer.py"), str(spans_path)] + argv
        else:
            argv = [sys.executable, "-m", "minimal_gap_lab"] + argv
        sample = run_process(argv, self.env, self.workdir / f"{kind}.out",
                             PROCESS_TIMEOUT_S)
        failed, reasons = check_process(self.workload, sample.returncode, json_path,
                                        sample.stdout, self.first_report)
        if self.first_report is None and sample.returncode == 0:
            self.first_report = sample.stdout
        if failed == 0:
            sample.items = report_items(self.workload, json_path)
        self.attempted += self.workload.ops_per_process()
        self.failed += failed
        self.reasons += [f"{kind} process: {r}" for r in reasons]
        return sample, json_path

    def measure(self, trace: bool):
        """Workload processes until the run's seconds are used (at least one
        of each kind), alternating plain and traced ones when tracing."""
        deadline = time.perf_counter() + self.seconds
        plain, traced, layers = [], [], []
        longest = 0.0
        # untimed warm-up: compiles the package's bytecode and fills the file
        # cache, which a fresh checkout has not done yet
        self.setup_process()
        self.setup.clear()
        # start another process only if one as long as the longest so far
        # still ends inside the run's seconds
        while (not plain or (trace and not traced)
               or time.perf_counter() + longest <= deadline):
            is_traced = trace and len(traced) < len(plain)
            started = time.perf_counter()
            self.setup_process()
            spans_path = self.workdir / f"spans{len(traced)}.json"
            sample, json_path = self.workload_process(is_traced, spans_path)
            longest = max(longest, time.perf_counter() - started)
            if not is_traced:
                plain.append(sample)
                continue
            traced.append(sample)
            if sample.returncode != 0:      # already counted in `failed`
                continue
            with open(spans_path, encoding="utf-8") as fh:
                spans = json.load(fh)
            values = tracer.layer_metrics(spans, PER_LAYER)
            values["geoquad.flagged_frac"] = (
                flagged_fraction(json_path) if self.workload.is_verify else 0.0)
            layers.append(values)
        # the time too short for another workload process samples set-up
        while len(self.setup) < SETUP_REPS or (
                time.perf_counter() + max(self.setup) <= deadline):
            self.setup_process()
        return plain, traced, layers


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # on SIGTERM, unwind so the running child is killed and waited for and
    # the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SOURCE / "minimal_gap_lab" / "__main__.py").is_file():
        print(f"error: no program to measure: {SOURCE / 'minimal_gap_lab'} is missing",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print("machine: " + json.dumps(machine_facts(), sort_keys=True))
    load_start, ticks_start = loadavg(), cpu_ticks()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        run = Run(workload, args.seed, args.seconds, workdir)
        plain, traced, layers = run.measure(bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    load_end, ticks_end = loadavg(), cpu_ticks()
    steal = "unavailable"
    if ticks_start and ticks_end and ticks_end[1] > ticks_start[1]:
        steal = f"{(ticks_end[0] - ticks_start[0]) / (ticks_end[1] - ticks_start[1]):.3f}"

    series = {
        "setup_s": run.setup,
        "wall_s": [s.wall_s for s in plain],
        "cpu_s": [s.cpu_s for s in plain],
        "items_per_s": [s.items / s.wall_s for s in plain],
        "peak_rss_mb": [s.peak_rss_mb for s in plain],
    }
    print(f"workload {workload.name} seed {args.seed}: {len(plain)} plain and "
          f"{len(traced)} traced processes; loadavg start {load_start}, end {load_end}; "
          f"CPU steal fraction {steal}")
    for name, unit in END_TO_END.items():
        print(describe(name, unit, series[name]))
    for item, applies in (("nodes_per_s", workload.is_verify),
                          ("proofs_per_s", not workload.is_verify)):
        print(describe(f"{item} (= items_per_s)", "1/s", series["items_per_s"])
              if applies else f"  {item:<36} not applicable to this workload")
    print(f"  {'failed_frac':<36} {run.failed / run.attempted:.6g} "
          f"({run.failed} of {run.attempted} operations)")
    for reason in run.reasons:
        print(f"FAILED {reason}", file=sys.stderr)

    if args.trace:
        # median_low keeps a count an exact count of one traced process; a
        # run whose traced processes all failed is already not correct
        values = {name: (statistics.median_low if unit == "count" else statistics.median)(
                      [v[name] for v in layers]) if layers else 0.0
                  for name, unit in PER_LAYER.items() if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (statistics.median(s.wall_s for s in traced)
                                      - statistics.median(series["wall_s"]))
        for name, unit in PER_LAYER.items():
            counts = {v[name] for v in layers} if unit == "count" else set()
            note = f"  (differs across traced processes: {sorted(counts)})" \
                if len(counts) > 1 else ""
            print(f"  {name:<40} {values[name]:.6g} {unit}{note}")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": statistics.median(series[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
