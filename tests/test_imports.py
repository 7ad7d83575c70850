"""The import and process contract: each layer loads when first used.

The package registers its submodules lazily, so a command imports only the
layers it runs; the exact engine never imports numpy.  The CLI sets the
process-wide BLAS threads and, for `verify`, glibc's allocator, unless the
caller has.
"""

import json
import os
import platform
import signal
import subprocess
import sys
import tempfile
import threading
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest

import minimal_gap_lab
from minimal_gap_lab.cli import MALLOC_VARS
from minimal_gap_lab.report import jsonable

ROOT = Path(__file__).resolve().parent.parent


Run = namedtuple("Run", "stdout stderr minflt")


def _python(*args, env_vars=None):
    """Run a fresh interpreter on the checkout's package; it must exit 0.

    `env_vars` sets environment variables for it, and removes those it maps
    to None.  Returns its stdout, stderr and minor page faults, the last
    read from `os.wait4`.
    """
    env = dict(os.environ)
    for name, value in (env_vars or {}).items():
        env.pop(name, None)
        if value is not None:
            env[name] = value
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        child = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env,
                                 stdout=out, stderr=err)
        # the child stays unreaped until wait4 returns, so its pid is not reused
        timer = threading.Timer(120, os.kill, (child.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            timer.cancel()
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        done = Run(out.read(), err.read(), usage.ru_minflt)
    assert child.returncode == 0, done.stderr.decode()
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
    # the allocator tuning of `verify` is loaded by `verify` alone
    assert "ctypes" not in imported


def test_verify_never_runs_the_exact_engine():
    # every layer is registered in sys.modules when the package is imported,
    # so "loaded" means the module body ran: an "exec" audit event names the
    # file of each module body that runs
    done = _python("-c", """
import os, sys
ran = set()

def audit(event, args):
    if event == "exec":
        ran.add(getattr(args[0], "co_filename", ""))

sys.addaudithook(audit)
from minimal_gap_lab.cli import main
code = main(["verify", "--surface", "calabi3", "--resolution", "16x16"])
assert code == 0, code
print(sorted(os.path.basename(p) for p in ran if "minimal_gap_lab" in p))
""")
    ran = done.stdout.decode().splitlines()[-1]
    assert "'geoquad.py'" in ran and "'surfaces.py'" in ran
    assert "'ratpoly.py'" not in ran
    assert "'identities.py'" not in ran


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


# Runs `verify --workers 2` in a fresh interpreter and prints, as its last
# line, the threads alive at each `_fields_chunk` call: `threading`'s count
# and the process's tasks (None without /proc).
_TILE_THREAD_PROBE = """
import json, os, threading
from minimal_gap_lab import cli, geoquad

cli._pin_blas_threads()                 # before geoquad loads numpy
seen = []

def chunk(*args, _call=geoquad._fields_chunk):
    tasks = "/proc/self/task"
    seen.append((threading.active_count(),
                 len(os.listdir(tasks)) if os.path.isdir(tasks) else None))
    return _call(*args)

geoquad._fields_chunk = chunk
code = cli.main(["verify", "--surface", "calabi3", "--surface", "calabi4",
                 "--resolution", "96x192", "--workers", "2"])
assert code == 0, code
print(json.dumps(seen))
"""


def test_verify_runs_its_tiles_in_one_thread():
    # --workers is accepted and has no effect: every tile runs in the thread
    # that called verify, and no other thread exists while it does
    done = _python("-c", _TILE_THREAD_PROBE, env_vars=_UNSET)
    seen = json.loads(done.stdout.decode().splitlines()[-1])
    assert len(seen) == 2 * len(minimal_gap_lab.geoquad.grid_tiles((96, 192)))
    assert {active for active, _ in seen} == {1}
    assert {tasks for _, tasks in seen} <= {1, None}


def test_cli_starts_numpy_with_one_blas_thread():
    # verify runs in one thread: a BLAS pool would busy-wait beside it
    # after each LAPACK call
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


# Runs `main` on its arguments in a fresh interpreter; a first argument
# "untuned" replaces the allocator tuning by a no-op.
_VERIFY_RUN = """
import sys
from minimal_gap_lab import cli
if sys.argv[1] == "untuned":
    cli._tune_malloc = lambda: None
sys.exit(cli.main(sys.argv[2:]))
"""

_GLIBC = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                            reason="the allocator tuning is glibc's mallopt")


# label: (mode, environment variables) of a benchmark-sized verify run
_VERIFY_SETUPS = {"tuned": ("tuned", {}), "untuned": ("untuned", {}),
                  "caller_arena": ("tuned", {"MALLOC_ARENA_MAX": "2"})}


@pytest.fixture(scope="module")
def verify_runs(tmp_path_factory):
    """The calabi3 + calabi4 96x192 verify of each `_VERIFY_SETUPS` label,
    as (run, JSON bytes), run once."""
    runs = {}

    def get(label):
        if label not in runs:
            mode, env_vars = _VERIFY_SETUPS[label]
            path = tmp_path_factory.mktemp(label) / "report.json"
            done = _python(
                "-c", _VERIFY_RUN, mode, "verify",
                "--surface", "calabi3", "--surface", "calabi4",
                "--resolution", "96x192", "--json", str(path),
                env_vars={var: None for var in MALLOC_VARS} | env_vars)
            runs[label] = done, path.read_bytes()
        return runs[label]

    return get


@_GLIBC
def test_verify_keeps_freed_tile_pages_mapped(verify_runs):
    # fixed thresholds keep a freed tile's pages for the next tile: measured
    # ~6.3k against ~34.3k minor faults; the arithmetic and so every report
    # byte stay the same
    (tuned, tuned_json), (untuned, untuned_json) = (
        verify_runs("tuned"), verify_runs("untuned"))
    assert tuned.minflt <= untuned.minflt / 2, (tuned.minflt, untuned.minflt)
    assert tuned.stdout == untuned.stdout
    assert tuned_json == untuned_json
    assert b"exit_status: 0" in tuned.stdout


@_GLIBC
def test_verify_leaves_a_callers_malloc_settings_alone(verify_runs):
    # with MALLOC_ARENA_MAX set, `verify` calls no mallopt, so its faults
    # are those of an untuned run, not the tuned run's quarter of them
    (tuned, _), (untuned, _) = verify_runs("tuned"), verify_runs("untuned")
    given, _ = verify_runs("caller_arena")
    assert given.minflt > 2 * tuned.minflt, (given.minflt, tuned.minflt)
    assert given.minflt > untuned.minflt / 2, (given.minflt, untuned.minflt)
    assert given.stdout == tuned.stdout


def test_report_module_never_imports_numpy():
    # the report renders every command's tree; numpy scalars are recognized
    # without importing numpy
    done = _python("-c", """
import sys
from minimal_gap_lab.report import render_tree, write_json
print(render_tree({"a": {"b": 0.1, "c": [1, 2.5]}}))
print("numpy" in sys.modules)
""")
    assert done.stdout.decode().splitlines()[-1] == "False"


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


def test_every_traced_name_resolves_in_its_home_module():
    # the benchmark's traced mode wraps these names from outside the package,
    # so a rename here must fail a test rather than the traced run
    import importlib
    import importlib.util

    path = ROOT / "perfbench" / "tracer.py"
    loader = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(tracer)
    for home, names in tracer.TRACED.items():
        module = importlib.import_module(f"{tracer.PACKAGE}.{home}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{home}.{name}"
    ratpoly = importlib.import_module(f"{tracer.PACKAGE}.ratpoly")
    for slot in tracer.RATPOLY_SLOTS:
        assert callable(getattr(ratpoly.RatPoly, slot, None)), f"RatPoly.{slot}"
