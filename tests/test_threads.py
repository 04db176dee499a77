"""Output bytes do not depend on how many threads OpenBLAS runs, and the
package loads no BLAS but numpy's.

OpenBLAS fixes its thread count when the library loads, so every check here
runs in a fresh interpreter with its own thread variables.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qtimeloop

GOLDEN = Path(__file__).parent / "golden"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# the package directory the test process imported, for the child processes
PACKAGE_ROOT = str(Path(qtimeloop.__file__).resolve().parent.parent)

INVERT_DIGESTS = """
import hashlib
from qtimeloop.linalg import invert
import numpy as np

rng = np.random.default_rng(2024)
for dim, count in ((1, 2000), (2, 200), (4, 100), (16, 20), (64, 5)):
    digest = hashlib.sha256()
    for _ in range(count):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        digest.update(invert(a)[0].tobytes())
    print(dim, digest.hexdigest())
"""

BLAS_THREADS = """
import ctypes, json, os
{imports}

threads = {{}}
with open("/proc/self/maps", encoding="utf-8") as fh:
    paths = sorted({{line.split()[-1] for line in fh if "openblas" in line}})
for path in paths:
    lib = ctypes.CDLL(path)
    for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_int
            threads[os.path.basename(path)] = fn()
            break
print(json.dumps({{"threads": threads, "env": os.environ.get("OPENBLAS_NUM_THREADS")}}))
"""


def run_python(args, **thread_env) -> bytes:
    """Run the interpreter with no thread variables but ``thread_env``; its stdout."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(thread_env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (PACKAGE_ROOT, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def blas_report(imports: str, **thread_env) -> dict:
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("no /proc/self/maps to find the loaded OpenBLAS libraries")
    report = json.loads(run_python(["-c", BLAS_THREADS.format(imports=imports)], **thread_env))
    if not report["threads"]:
        pytest.skip("numpy loads no OpenBLAS here")
    return report


def test_invert_bytes_do_not_depend_on_the_thread_count():
    one = run_python(["-c", INVERT_DIGESTS], OPENBLAS_NUM_THREADS="1")
    two = run_python(["-c", INVERT_DIGESTS], OPENBLAS_NUM_THREADS="2")
    assert one.decode().splitlines() == two.decode().splitlines()


@pytest.mark.parametrize("threads", [None, "1", "2"], ids=["unset", "1", "2"])
def test_scan_matches_golden_at_every_thread_count(threads):
    thread_env = {} if threads is None else {"OPENBLAS_NUM_THREADS": threads}
    argv = ["-m", "qtimeloop", "scan", "--beta", "0.1", "--theta", "0.4", "--points", "201"]
    assert run_python(argv, **thread_env) == (GOLDEN / "scan_beta0.1.csv").read_bytes()


def test_import_runs_openblas_on_one_thread_and_restores_the_environment():
    report = blas_report("import qtimeloop")
    assert set(report["threads"].values()) == {1}, report
    assert report["env"] is None


@pytest.mark.parametrize(
    "imports, thread_env",
    [
        ("import qtimeloop", {"OPENBLAS_NUM_THREADS": "2"}),
        ("import qtimeloop", {"OMP_NUM_THREADS": "2"}),
        ("import numpy, qtimeloop", {}),
    ],
    ids=["OPENBLAS_NUM_THREADS=2", "OMP_NUM_THREADS=2", "numpy-imported-first"],
)
def test_thread_setting_is_left_alone(imports, thread_env):
    # importing qtimeloop keeps the thread count numpy picks on its own
    plain = blas_report("import numpy", **thread_env)
    assert blas_report(imports, **thread_env) == plain


def test_the_cli_does_not_import_scipy():
    check = "import sys, qtimeloop.cli; print('scipy' in sys.modules)"
    assert run_python(["-c", check]) == b"False\n"
