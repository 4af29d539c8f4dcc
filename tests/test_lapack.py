"""The LAPACK wrappers widthlab loads are the ones `scipy.linalg` uses, whichever is imported first."""

import os
import subprocess
import sys
from pathlib import Path

import widthlab as wl


def run_fresh(code: str):
    """Run `code` in a fresh process that imports widthlab from this tree."""
    env = {**os.environ, "PYTHONPATH": str(Path(wl.__file__).resolve().parents[1])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


CHECK_SHARED = """
flapack = sys.modules["scipy.linalg._flapack"]
assert widthlab.lapack.flapack is flapack
assert widthlab.spectral.flapack is flapack and widthlab.interpolation.flapack is flapack
for name in ("dsytrd", "dstevd", "dormqr", "dtrtrs"):
    assert getattr(scipy.linalg.lapack, name) is getattr(flapack, name), name
A = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
w, V = scipy.linalg.eigh(A)
assert np.allclose(A @ V, V * w)
L = np.linalg.cholesky(A)
assert np.allclose(L @ scipy.linalg.solve_triangular(L, np.eye(3), lower=True), np.eye(3))
"""


def test_widthlab_first():
    # widthlab registers the module in sys.modules, and scipy.linalg, imported
    # later, finds it there; its package attribute `_flapack` stays unset. The
    # CLI's set-up (runner, config) imports neither scipy.linalg (about 0.25 s)
    # nor multiprocessing, which a multistart cell imports when it runs
    run_fresh(
        "import sys\nimport numpy as np\nimport widthlab.spectral, widthlab.interpolation, widthlab.cli\n"
        "assert 'scipy.linalg' not in sys.modules and 'multiprocessing' not in sys.modules\n"
        "import scipy.linalg\n" + CHECK_SHARED
    )


def test_scipy_linalg_first():
    # the module scipy.linalg loaded is reused, not loaded a second time
    # (CPython would hand back the same object; spec_from_file_location
    # must not even be called)
    run_fresh(
        "import importlib.util, sys\nimport numpy as np\nimport scipy.linalg\nloaded = sys.modules['scipy.linalg._flapack']\n"
        "importlib.util.spec_from_file_location = None\n"
        "import widthlab.spectral, widthlab.interpolation\nassert widthlab.lapack.flapack is loaded\n" + CHECK_SHARED
    )
