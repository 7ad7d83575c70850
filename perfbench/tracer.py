"""Run `python -m minimal_gap_lab` with spans recorded at its layer boundaries.

    python3 perfbench/tracer.py SPANS_PATH CLI_ARG...

The program is not changed: before the CLI starts, every traced function is
replaced by a timing wrapper under each name it is reached by (a module that
did `from minimal_gap_lab.surfaces import eval_jet` holds its own binding,
so every module of the package is searched), and `RatPoly`'s `__mul__`,
`__rmul__`, `__add__` and `__radd__` are patched on the class.  Spans stay in
memory and are written to SPANS_PATH once, when the CLI exits; stdout carries
the CLI's report alone.

`layer_metrics` turns a span list into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import runpy
import sys
import threading
import time

PACKAGE = "minimal_gap_lab"

# home module -> {function: span name}.  A span name may be a callable of
# the call's arguments.
TRACED = {
    "surfaces": {
        "load_immersion": "surfaces.load_immersion",
        "eval_jet": "surfaces.eval_jet",
        "adapted_frame": "surfaces.adapted_frame",
        "covariant_grad_h": "surfaces.covariant_grad_h",
        "second_norm_field": "surfaces.second_norm_field",
    },
    "invariants": {
        "point_invariants": "invariants.point_invariants",
        "b1_simons": "invariants.b1_simons",
    },
    "geoquad": {
        "build_grid": "geoquad.build_grid",
        "evaluate_fields": "geoquad.evaluate_fields",
        "_fields_chunk": "geoquad.evaluate_fields.chunk",
        "integral_report": "geoquad.integral_report",
    },
    "gaps": {"certify": "gaps.certify"},
    "identities": {
        "run_identity_group": lambda args, kwargs: f"identities.q{args[1]}",
        "check_invariant_identities": "identities.invariant_identities",
        "check_eigen_charpoly": "identities.eigen_charpoly",
        "check_b2_decomposition": "identities.b2_decomposition",
        "check_third_order_contractions": "identities.third_order_contractions",
        "check_gap_factorizations": "identities.gap_factorizations",
    },
    "cli": {"_verify_surface": "cli.verify_surface"},
}

RATPOLY_SLOTS = {"__mul__": "ratpoly.mul", "__rmul__": "ratpoly.mul",
                 "__add__": "ratpoly.add", "__radd__": "ratpoly.add"}

# Each call of one of these starts a new operation: one surface verified, or
# one (identity group, q) proved.
OP_ROOTS = ("cli._verify_surface", "identities.run_identity_group")


class Tracer:
    """Collects (name, start, end, id, parent, op, thread) spans in memory."""

    def __init__(self):
        self.spans = []
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, op_root: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # a pool thread's first span belongs to the main thread's open span
            parent = stack[-1] if stack else (
                self._main_stack[-1] if self._main_stack else 0)
            span_id = next(self._ids)
            if op_root:
                self.op += 1
            op = self.op
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                label = name(args, kwargs) if callable(name) else name
                self.spans.append((label, start, end, span_id, parent, op,
                                   threading.get_ident()))
        return traced

    def install(self) -> None:
        importlib.import_module(f"{PACKAGE}.cli")   # imports every layer
        modules = [m for n, m in sys.modules.items()
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for home, functions in TRACED.items():
            home_module = sys.modules[f"{PACKAGE}.{home}"]
            for fname, span_name in functions.items():
                original = getattr(home_module, fname)
                wrapper = self.wrap(span_name, original,
                                    op_root=f"{home}.{fname}" in OP_ROOTS)
                for module in modules:
                    for attr in [a for a, v in vars(module).items() if v is original]:
                        setattr(module, attr, wrapper)
        # the reflected slots are bound to the same functions in the class
        # body, so each is patched on its own: `2 * p` counts as a mul
        ratpoly = sys.modules[f"{PACKAGE}.ratpoly"].RatPoly
        for slot, span_name in RATPOLY_SLOTS.items():
            setattr(ratpoly, slot, self.wrap(span_name, getattr(ratpoly, slot)))


# -- span analysis -------------------------------------------------------------

def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def span_stats(spans) -> dict:
    """{span name: {"calls", "s", "self_s"}} summed over all spans of a name.

    Self time is a span's duration minus the union of its child intervals,
    clipped to the span; children running in overlapping threads (the
    chunks of `evaluate_fields` under `--workers 2`) are counted once.
    """
    children = {}
    for name, start, end, span_id, parent, op, tid in spans:
        children.setdefault(parent, []).append((start, end))
    stats = {}
    for name, start, end, span_id, parent, op, tid in spans:
        covered = _union_length(
            (max(lo, start), min(hi, end)) for lo, hi in children.get(span_id, ())
            if hi > start and lo < end)
        entry = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += (end - start) - covered
    return stats


def layer_metrics(spans, names) -> dict:
    """Values of the per-layer metrics `names` that spans define.

    `<span>.calls`, `<span>.s` and `<span>.self_s` read the span statistics;
    `geoquad.evaluate_fields.chunks` counts chunk spans.  A layer the
    workload never reaches reads 0.
    """
    stats = span_stats(spans)
    out = {}
    for metric in names:
        if metric == "geoquad.evaluate_fields.chunks":
            out[metric] = stats.get("geoquad.evaluate_fields.chunk", {}).get("calls", 0)
            continue
        span, _, stat = metric.rpartition(".")
        if stat in ("calls", "s", "self_s"):
            out[metric] = stats.get(span, {}).get(stat, 0 if stat == "calls" else 0.0)
    return out


def main(argv) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    sys.argv = [PACKAGE] + cli_argv
    code = 0
    try:
        runpy.run_module(PACKAGE, run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code or 0
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
