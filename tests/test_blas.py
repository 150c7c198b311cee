"""One OpenBLAS thread: reports that do not depend on the thread count, both
bundled OpenBLAS copies pinned, and silence on builds without them."""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from qsg.blas import pin_one_thread

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(args, threads: int) -> subprocess.CompletedProcess:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=300)


def test_verify_stdout_is_the_same_on_one_and_two_threads():
    # the dim-4 pro3 / antipro3 witness fits and sec2.compat_equiv moved in
    # their last digits with the thread count before the pin
    argv = ["-m", "qsg.cli", "verify", "--dims", "4", "--trials", "2", "--seed", "0",
            "--only", "pro3,antipro3,sec2"]
    one, two = _run(argv, 1), _run(argv, 2)
    assert one.returncode == two.returncode == 0, two.stderr[-2000:]
    assert one.stdout == two.stdout


_PIN_PROBE = """
import ctypes, glob, json, os, sys
import numpy as np
import qsg
from qsg.generate import GenSpec, gen_almost_complex, gen_hermitian_metric, synthesize_connection
from qsg.model import ChartModel, flat_hermitian_model

spec = GenSpec(seed=3, dimension=2, degree=2)
J = gen_almost_complex(spec)
model = ChartModel(domain=flat_hermitian_model(2).domain, metric=gen_hermitian_metric(spec, J), J=J)
synthesize_connection(model, ["quasi_statistical_g"], ansatz_degree=1)
assert "scipy.linalg" in sys.modules  # the fit took the scipy solve

def threads(package):
    site = os.path.dirname(os.path.dirname(package.__file__))
    for path in glob.glob(os.path.join(site, package.__name__ + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, sym, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None

import scipy
print(json.dumps({"numpy": threads(np), "scipy": threads(scipy)}))
"""


def test_both_openblas_copies_run_one_thread_after_a_fit():
    proc = _run(["-c", _PIN_PROBE], 2)
    assert proc.returncode == 0, proc.stderr[-2000:]
    threads = json.loads(proc.stdout.decode().splitlines()[-1])
    found = {name: n for name, n in threads.items() if n is not None}
    if not found:
        pytest.skip("no OpenBLAS thread getter in the numpy or scipy libraries")
    assert found == {name: 1 for name in found}


def test_pin_is_silent_without_a_bundled_openblas(tmp_path):
    # an empty package directory, and one whose "OpenBLAS" is no library
    for name, lib in (("nolibs", None), ("badlib", "libfake_openblas.so")):
        pkg = types.ModuleType(name)
        pkg.__file__ = str(tmp_path / name / "__init__.py")
        if lib is not None:
            (tmp_path / f"{name}.libs").mkdir()
            (tmp_path / f"{name}.libs" / lib).write_text("not a shared object")
        assert pin_one_thread(pkg) is False
