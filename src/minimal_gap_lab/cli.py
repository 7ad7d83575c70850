"""Command-line front end.

Commands: `identities`, `verify`, `thresholds`, `catalog list`.  Exit codes:
0 success, 1 identity/verification failure, 2 input or parse error,
3 numeric distrust (more than the budgeted fraction of grid nodes flagged).

The run report is written to stdout as a key-value tree with a fixed field
order and 17-significant-digit floats; identical configurations produce
byte-identical reports regardless of the worker count (which is therefore
deliberately not echoed into the report).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field

from minimal_gap_lab import gaps, geoquad, identities, surfaces
from minimal_gap_lab.errors import (
    DomainError,
    InvariantViolation,
    MinimalGapError,
    ParseError,
    ValidationError,
)
from minimal_gap_lab.report import render_tree, summary, write_csv, write_json

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INPUT = 2
EXIT_DISTRUST = 3

# the thread-count variables of the BLAS builds numpy ships with or links to
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

TOLERANCE_DEFAULTS = {
    "unit_norm": 1e-12,        # |X|^2 - 1 on the validation grid
    "minimality": 1e-8,        # |H| residual on the validation grid
    "codazzi": 1e-6,           # symmetry residual of h_ijk
    "laplace_disagree": 1e-4,  # gates nothing: the S Laplacian is exact now
    "b1_cross": 1e-4,          # two-route B1 agreement
    "gap_nonneg": 1e-6,        # area-normalized nonnegativity slack
    "flagged_budget": 0.01,    # fraction of nodes allowed to be untrusted
}


@dataclass
class RunConfig:
    command: str
    surfaces: list = field(default_factory=list)
    resolution: tuple | None = None
    qmax: int = 6
    tolerances: dict = field(default_factory=dict)
    json_path: str | None = None
    csv_prefix: str | None = None
    workers: int = 1
    tau_points: int = 1000
    tau_lo: float | None = None
    tau_hi: float = 1.0
    gamma_points: int = 401

    def effective_tolerances(self) -> dict:
        out = dict(TOLERANCE_DEFAULTS)
        out.update(self.tolerances)
        return out


def _parse_resolution(text: str) -> tuple:
    try:
        a, b = text.lower().split("x")
        return int(a), int(b)
    except ValueError as exc:
        raise ParseError("--resolution", f"expected NxM, got {text!r}") from exc


def _parse_tols(pairs) -> dict:
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ParseError("--tol", f"expected key=value, got {pair!r}")
        key, _, val = pair.partition("=")
        if key not in TOLERANCE_DEFAULTS:
            raise ParseError(
                "--tol", f"unknown tolerance {key!r}; known keys: "
                + ", ".join(sorted(TOLERANCE_DEFAULTS)))
        try:
            value = float(val)
        except ValueError as exc:
            raise ParseError("--tol", f"{key}: not a number: {val!r}") from exc
        # a NaN tolerance fails every comparison, so it would switch its check off
        if not 0.0 <= value < math.inf:
            raise ParseError(f"--tol {key}",
                             f"must be a finite number >= 0, got {val!r}")
        out[key] = value
    return out


def _config_tree(config: RunConfig) -> dict:
    tree = {"command": config.command}
    if config.surfaces:
        tree["surfaces"] = ", ".join(str(s) for s in config.surfaces)
    if config.resolution:
        tree["resolution"] = f"{config.resolution[0]}x{config.resolution[1]}"
    if config.command == "identities":
        tree["qmax"] = config.qmax
    tree["tolerances"] = {k: v for k, v in sorted(config.effective_tolerances().items())}
    return tree


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

def cmd_identities(config: RunConfig) -> int:
    reports = identities.run_identity_suite(qmax=config.qmax)
    suite = {}
    failed = []
    for rep in reports:
        qkey = f"q{rep.q}"
        suite.setdefault(qkey, {})[rep.name] = rep.verdict
        if not rep.proved:
            failed.append(rep)
    tree = {
        "minimal-gap-lab": {
            "config": _config_tree(config),
            "identity_suite": suite,
            "proved": len(reports) - len(failed),
            "failed": len(failed),
            "exit_status": EXIT_OK if not failed else EXIT_FAILURE,
        }
    }
    print(render_tree(tree))
    for rep in failed:
        print(f"FAILED {rep.name} (q={rep.q}); nonzero residual:",
              file=sys.stderr)
        print(rep.residual.dump(), file=sys.stderr)
    if config.json_path:
        write_json(tree, config.json_path)
    return EXIT_OK if not failed else EXIT_FAILURE


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

_INVARIANT_SUMMARY_FIELDS = (
    "S", "normA2", "rho0", "rho_perp", "lambda1", "lambda2", "u", "t", "K",
    "ddvv_slack", "hopf_re", "hopf_im", "rho0_commutator_residual",
    "eig_residual", "eig_tail", "gram_residual", "minimality_residual",
)

_FIELD_SUMMARY_EXTRAS = (
    "b1_simons", "b1_direct", "b1_cross", "delta_S", "codazzi_residual",
)


def _verify_surface(source, config: RunConfig, tols: dict):
    spec = surfaces.load_immersion(source, validate=False)
    validation = surfaces.validate_spec(
        spec, unit_tol=tols["unit_norm"], minimality_tol=tols["minimality"])
    grid = geoquad.build_grid(spec, config.resolution)
    fields = geoquad.evaluate_fields(
        spec, grid, workers=config.workers,
        codazzi_tol=tols["codazzi"], b1_cross_tol=tols["b1_cross"])
    report = geoquad.integral_report(spec, grid, fields,
                                     nonneg_tol=tols["gap_nonneg"])
    cert = gaps.certify(spec, fields, report)

    inv_tree = {name: summary(getattr(fields.inv, name))
                for name in _INVARIANT_SUMMARY_FIELDS}
    extra_tree = {name: summary(getattr(fields, name))
                  for name in _FIELD_SUMMARY_EXTRAS}
    integral_tree = {
        "area": report.area,
        "int_K": report.int_K,
        "gauss_bonnet_residual": report.gauss_bonnet_residual,
        "int_S": report.int_S,
        "int_delta_S": report.int_delta_S,
        "gap1_lhs": report.gap1_lhs,
        "gap1_rhs": report.gap1_rhs,
        "gap1_residual_rel": report.gap1_residual_rel,
        "gap2_form1": report.gap2_form1,
        "gap2_form2": report.gap2_form2,
        "gap2_residual_rel": report.gap2_residual_rel,
        "bound_445": report.bound_445,
        "mean_u": report.mean_u,
        "max_u": report.max_u,
        "min_u": report.min_u,
        "min_rho_perp": report.min_rho_perp,
        "max_rho_perp": report.max_rho_perp,
    }
    cert_tree = {}
    for entry in cert.entries:
        node = {
            "verdict": entry.verdict,
            "hypothesis": entry.hypothesis,
            "conclusion": entry.conclusion,
        }
        if entry.margin is not None:
            node["margin"] = entry.margin
        if entry.notes:
            node["notes"] = entry.notes
        cert_tree[entry.theorem] = node

    surface_tree = {
        "spec": {
            "chart": spec.chart,
            "ambient_dim": spec.ambient_dim,
            "codim": spec.codim,
            "euler_char": spec.euler_char,
        },
        "validation": validation,
        "grid": {
            "resolution": f"{grid.resolution[0]}x{grid.resolution[1]}",
            "nodes": grid.node_count,
        },
        "invariants": inv_tree,
        "fields": extra_tree,
        "integrals": integral_tree,
        "flagged_fraction": fields.flagged_fraction,
        "certificate": cert_tree,
    }
    distrust = fields.flagged_fraction > tols["flagged_budget"]
    return spec.name, surface_tree, distrust


def cmd_verify(config: RunConfig) -> int:
    tols = config.effective_tolerances()
    surfaces_tree = {}
    exit_code = EXIT_OK
    for source in config.surfaces:
        name, tree, distrust = _verify_surface(source, config, tols)
        surfaces_tree[name] = tree
        if distrust:
            exit_code = max(exit_code, EXIT_DISTRUST)
    tree = {
        "minimal-gap-lab": {
            "config": _config_tree(config),
            "surfaces": surfaces_tree,
            "exit_status": exit_code,
        }
    }
    print(render_tree(tree))
    if config.json_path:
        write_json(tree, config.json_path)
    return exit_code


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------

def cmd_thresholds(config: RunConfig) -> int:
    lo = gaps.TAU_STAR if config.tau_lo is None else config.tau_lo
    table = gaps.threshold_table(config.tau_points, lo=lo, hi=config.tau_hi)
    table.check_monotone()
    roots = gaps.pinching_table(config.gamma_points)

    at_1 = gaps.threshold_T(1.0)
    at_tau_star = gaps.threshold_T(gaps.TAU_STAR)
    checks = {
        "That_A_at_1": at_1[2],
        "That_B_at_1": at_1[3],
        "That_gap_at_tau_star": at_tau_star[2] - at_tau_star[3],
        "sigma_first_row": float(table.sigma[0]),
        "S0_first": roots[0].S0,
        "S0_last": roots[-1].S0,
    }
    tree = {
        "minimal-gap-lab": {
            "config": _config_tree(config),
            "tau_grid": {"points": config.tau_points, "lo": lo, "hi": config.tau_hi},
            "gamma_grid": {"points": config.gamma_points, "lo": 0.0, "hi": 4.0},
            "checks": checks,
            "exit_status": EXIT_OK,
        }
    }
    print(render_tree(tree))
    if config.csv_prefix:
        write_csv(f"{config.csv_prefix}thresholds.csv",
                  ["tau", "T_A", "T_B", "That_A", "That_B", "sigma"],
                  zip(table.tau, table.T_A, table.T_B,
                      table.That_A, table.That_B, table.sigma))
        write_csv(f"{config.csv_prefix}pinching.csv",
                  ["gamma", "S0", "S0_prime", "gamma_bound"],
                  ((r.gamma, r.S0, r.S0_prime, r.gamma_bound) for r in roots))
    if config.json_path:
        write_json(tree, config.json_path)
    return EXIT_OK


def cmd_catalog_list() -> int:
    rows = {}
    for name in surfaces.CATALOG_NAMES:
        spec = surfaces.catalog_entry(name)
        rows[name] = {
            "chart": spec.chart,
            "ambient_dim": spec.ambient_dim,
            "codim": spec.codim,
            "euler_char": spec.euler_char,
        }
    print(render_tree({"catalog": rows}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minimal-gap-lab",
        description="verification suite for minimal surfaces in unit spheres")
    sub = parser.add_subparsers(dest="command", required=True)

    p_id = sub.add_parser("identities", help="run the symbolic identity suite")
    p_id.add_argument("--qmax", type=int, default=6)
    p_id.add_argument("--json", dest="json_path")

    p_ver = sub.add_parser("verify", help="verify catalog or user surfaces")
    p_ver.add_argument("--surface", action="append", default=None,
                       help="catalog name or spec file path (repeatable)")
    p_ver.add_argument("--resolution", default=None, help="NxM grid, e.g. 64x128")
    p_ver.add_argument("--workers", type=int, default=1)
    p_ver.add_argument("--json", dest="json_path")
    p_ver.add_argument("--tol", action="append", default=None,
                       metavar="KEY=VAL", help="override a documented tolerance")

    p_thr = sub.add_parser("thresholds", help="emit threshold/pinching tables")
    p_thr.add_argument("--tau-points", type=int, default=1000)
    p_thr.add_argument("--tau-lo", type=float, default=None)
    p_thr.add_argument("--tau-hi", type=float, default=1.0)
    p_thr.add_argument("--gamma-points", type=int, default=401)
    p_thr.add_argument("--csv", dest="csv_prefix",
                       help="prefix for the two emitted CSV tables")
    p_thr.add_argument("--json", dest="json_path")

    p_cat = sub.add_parser("catalog", help="catalog inspection")
    p_cat.add_argument("action", choices=["list"])
    return parser


def _pin_blas_threads() -> None:
    """Start numpy with one BLAS thread, so `--workers` sets the only pool.

    A BLAS reads these variables once, when numpy loads it, so this acts only
    before numpy is imported, and never when the caller has set any of them.
    """
    if "numpy" in sys.modules or any(var in os.environ for var in BLAS_THREAD_VARS):
        return
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def main(argv=None) -> int:
    _pin_blas_threads()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "identities":
            config = RunConfig(command="identities", qmax=args.qmax,
                               json_path=args.json_path)
            if config.qmax < 1:
                raise DomainError("--qmax must be >= 1")
            if config.qmax > identities.QMAX_LIMIT:
                raise DomainError(f"--qmax {config.qmax} is above the limit "
                                  f"{identities.QMAX_LIMIT}")
            return cmd_identities(config)
        if args.command == "verify":
            config = RunConfig(
                command="verify",
                surfaces=args.surface or list(surfaces.CATALOG_NAMES),
                resolution=_parse_resolution(args.resolution)
                if args.resolution else None,
                workers=args.workers,
                json_path=args.json_path,
                tolerances=_parse_tols(args.tol),
            )
            if config.workers < 1:
                raise DomainError(f"--workers must be >= 1, got {config.workers}")
            return cmd_verify(config)
        if args.command == "thresholds":
            config = RunConfig(
                command="thresholds",
                tau_points=args.tau_points, tau_lo=args.tau_lo,
                tau_hi=args.tau_hi, gamma_points=args.gamma_points,
                csv_prefix=args.csv_prefix, json_path=args.json_path,
            )
            for flag, points in (("--tau-points", config.tau_points),
                                 ("--gamma-points", config.gamma_points)):
                if points > gaps.TABLE_POINTS_MAX:
                    raise DomainError(f"{flag} {points} is above the limit "
                                      f"{gaps.TABLE_POINTS_MAX}")
            return cmd_thresholds(config)
        if args.command == "catalog":
            return cmd_catalog_list()
        parser.error(f"unknown command {args.command!r}")
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InvariantViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except MinimalGapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
