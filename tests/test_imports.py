"""The import contract: each layer loads when first used.

The package registers its submodules lazily, so a command imports only the
layers it runs; the exact engine never imports numpy.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import minimal_gap_lab
from minimal_gap_lab.report import jsonable

ROOT = Path(__file__).resolve().parent.parent


def _python(*args):
    """Run a fresh interpreter on the checkout's package; it must exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    return done


def test_identities_main_never_imports_numpy():
    done = _python("-c", """
import sys
from minimal_gap_lab.cli import main
code = main(["identities", "--qmax", "2"])
assert code == 0, code
print("numpy" in sys.modules)
""")
    assert done.stdout.decode().splitlines()[-1] == "False"


@pytest.mark.parametrize("module", ["minimal_gap_lab", "minimal_gap_lab.cli"])
def test_identities_module_run_never_imports_numpy(module):
    # -X importtime lists every module the process imports on stderr;
    # -W error turns runpy's warning about a module loaded before it runs
    # into a failure
    done = _python("-W", "error", "-X", "importtime", "-m", module,
                   "identities", "--qmax", "7")
    assert b"failed: 0" in done.stdout
    imported = [line.rpartition("|")[2].strip()
                for line in done.stderr.decode().splitlines()
                if line.startswith("import time:")]
    assert "minimal_gap_lab" in imported
    assert not [name for name in imported if name.split(".")[0] == "numpy"]


def test_verify_reports_identical_across_workers_in_fresh_interpreters():
    # the pool threads of evaluate_fields must only reach layers that are
    # already loaded: a lazy module is not thread-safe while it loads
    outs = [_python("-m", "minimal_gap_lab", "verify", "--surface", "calabi3",
                    "--resolution", "32x64", "--workers", workers).stdout
            for workers in ("2", "1")]
    assert outs[0] == outs[1]
    assert b"exit_status: 0" in outs[0]


def test_every_exported_name_resolves():
    for name in minimal_gap_lab.__all__:
        value = getattr(minimal_gap_lab, name)
        home = sys.modules[f"minimal_gap_lab.{minimal_gap_lab._HOME[name]}"]
        assert value is getattr(home, name)
    namespace = {}
    exec("from minimal_gap_lab import *", namespace)
    assert set(minimal_gap_lab.__all__) <= set(namespace)
    assert set(minimal_gap_lab.__all__) <= set(dir(minimal_gap_lab))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_layer"):
        minimal_gap_lab.no_such_layer
    assert not hasattr(minimal_gap_lab, "np")


def test_jsonable_turns_numpy_scalars_into_builtins():
    tree = {"a": [np.float64(0.1), np.int64(-7), np.bool_(True), -0.0, True, 12],
            "b": (np.float32(0.5),)}
    out = jsonable(tree)
    assert out == {"a": [0.1, -7, True, -0.0, True, 12], "b": [0.5]}
    assert [type(v) for v in out["a"]] == [float, int, bool, float, bool, int]
    assert type(out["b"][0]) is float
