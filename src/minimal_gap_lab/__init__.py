"""Desk-scale verification toolkit for minimal surfaces in unit spheres.

Combines an exact rational polynomial identity checker with a jet-based
numerical geometry pipeline over a catalog of explicit minimal immersions,
and certifies the gap/pinching bounds those surfaces are subject to.

Every layer module is registered in `sys.modules` when the package is
imported, but runs its body only on first attribute access
(`importlib.util.LazyLoader`), and the re-exported names below resolve on
first access (PEP 562).  So a command imports only the layers it runs: the
exact engine (`identities`, `ratpoly`) never imports numpy.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# home module -> the names the package re-exports from it
_EXPORTS = {
    "errors": ("DomainError", "FrameError", "InvariantViolation",
               "MinimalGapError", "ParseError", "ValidationError"),
    "gaps": ("TAU_STAR", "CalabiConstants", "GapCertificate", "PinchingRoots",
             "ThresholdTable", "calabi_constants", "certify", "pinching_roots",
             "pinching_table", "threshold_T", "threshold_table"),
    "geoquad": ("FieldSummary", "IntegralReport", "QuadratureGrid", "SurfaceFields",
                "build_grid", "evaluate_fields", "integral_report"),
    "identities": ("IdentityReport", "SymbolFamily", "check_b2_decomposition",
                   "check_eigen_charpoly", "check_gap_factorizations",
                   "check_invariant_identities",
                   "check_third_order_contractions", "run_identity_suite"),
    "invariants": ("PointInvariants", "b1_simons", "laplace_beltrami",
                   "point_invariants"),
    "ratpoly": ("RatPoly", "Rational", "poly_combine", "poly_diff",
                "poly_is_zero"),
    "surfaces": ("CATALOG_NAMES", "CovariantGradH", "FrameData",
                 "ImmersionSpec", "Jet", "ShapePair", "Taylor", "adapted_frame",
                 "catalog_entry", "covariant_grad_h", "eval_jet",
                 "load_immersion", "second_fundamental_form", "serialize_spec",
                 "trace_directions", "validate_spec"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def _register_lazily(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# LazyLoader is not thread-safe: a module that worker threads reach must be
# materialised in the main thread first (see the imports of `geoquad`).
# `cli` is left to a plain import by whoever runs it: `python -m
# minimal_gap_lab.cli` warns when the module is in sys.modules before it runs.
for _name in (*_EXPORTS, "harmonics", "report"):
    globals()[_name] = _register_lazily(_name)
del _name


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[home], name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
