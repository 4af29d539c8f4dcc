import os

# BLAS runs one thread in the test process and its children, as in the
# benchmark: the golden values hold for one thread, and a multistart cell
# runs its descents on forked processes only from a single-threaded process.
# Set before numpy loads its BLAS, which reads them once.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest

import widthlab as wl


@pytest.fixture(scope="session")
def bm_kernel():
    return wl.make_kernel("brownian")


@pytest.fixture(scope="session")
def bridge_kernel():
    return wl.make_kernel("bridge")


@pytest.fixture(scope="session")
def quad_2000(bm_kernel):
    return wl.midpoint_rule(bm_kernel.domain, 2000)


@pytest.fixture(scope="session")
def bm_analytic(quad_2000):
    return wl.analytic_spectrum("brownian", 260, quad_2000)


@pytest.fixture(scope="session")
def bridge_analytic(quad_2000):
    return wl.analytic_spectrum("bridge", 260, quad_2000)


@pytest.fixture(scope="session")
def bm_nystrom(bm_kernel, quad_2000):
    return wl.nystrom_spectrum(bm_kernel, quad_2000, 200)


@pytest.fixture(scope="session")
def bridge_nystrom(bridge_kernel, quad_2000):
    return wl.nystrom_spectrum(bridge_kernel, quad_2000, 200)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260808)
