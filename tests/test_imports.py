"""The import contract: each layer loads when first used.

The package registers its submodules lazily, so a command imports only the
layers it runs; the exact engine never imports numpy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import minimal_gap_lab
from minimal_gap_lab.report import jsonable

ROOT = Path(__file__).resolve().parent.parent


def _python(*args, env_vars=None):
    """Run a fresh interpreter on the checkout's package; it must exit 0.

    `env_vars` sets environment variables for it, and removes those it maps
    to None.
    """
    env = dict(os.environ)
    for name, value in (env_vars or {}).items():
        env.pop(name, None)
        if value is not None:
            env[name] = value
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


# Runs `verify` in a fresh interpreter and prints, as its last line, the BLAS
# thread variables as numpy saw them when it was imported, as they are after
# the run, and the threads the process has left (None without /proc).
_THREAD_PROBE = """
import json, os, sys
from minimal_gap_lab.cli import BLAS_THREAD_VARS, main

at_import = {}

def audit(event, args):
    if event == "import" and args[0] == "numpy" and not at_import:
        at_import.update((var, os.environ.get(var)) for var in BLAS_THREAD_VARS)

sys.addaudithook(audit)
assert "numpy" not in sys.modules
code = main(["verify", "--surface", "calabi3", "--resolution", "96x32"])
assert code == 0, code
tasks = "/proc/self/task"
print(json.dumps({
    "at_import": at_import,
    "after": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    "threads": len(os.listdir(tasks)) if os.path.isdir(tasks) else None,
}))
"""

_UNSET = {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": None,
          "MKL_NUM_THREADS": None}


def test_cli_starts_numpy_with_one_blas_thread():
    # --workers sets the only thread pool: a BLAS pool would busy-wait
    # beside it after each LAPACK call
    done = _python("-c", _THREAD_PROBE, env_vars=_UNSET)
    probe = json.loads(done.stdout.decode().splitlines()[-1])
    ones = dict.fromkeys(_UNSET, "1")
    assert probe["at_import"] == ones
    assert probe["after"] == ones
    if probe["threads"] is not None:
        assert probe["threads"] == 1


@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_cli_leaves_a_callers_blas_threads_alone(var):
    done = _python("-c", _THREAD_PROBE, env_vars={**_UNSET, var: "2"})
    probe = json.loads(done.stdout.decode().splitlines()[-1])
    given = {**_UNSET, var: "2"}
    assert probe["at_import"] == given
    assert probe["after"] == given


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
