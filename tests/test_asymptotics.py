"""Log-log fits, regularity constants, equivalence verdicts, gap slopes."""

import math

import numpy as np
import pytest

import widthlab as wl
from widthlab.errors import GridMismatchError


def series(ns, values, label="s"):
    return wl.RateSeries(np.asarray(ns), np.asarray(values, dtype=float), label)


class TestFitLoglog:
    def test_exact_power_law(self):
        ns = np.arange(1, 65)
        rep = wl.fit_loglog(series(ns, 1.0 / ns))
        assert rep.slope == pytest.approx(-1.0, abs=1e-12)
        assert rep.stderr == pytest.approx(0.0, abs=1e-12)

    def test_scale_invariance(self):
        ns = np.arange(2, 40)
        for c in (0.1, 3.0, 250.0):
            rep = wl.fit_loglog(series(ns, c / np.sqrt(ns)))
            assert rep.slope == pytest.approx(-0.5, abs=1e-12)
        r1 = wl.fit_loglog(series(ns, 1.0 / np.sqrt(ns)))
        r3 = wl.fit_loglog(series(ns, 3.0 / np.sqrt(ns)))
        assert r3.intercept - r1.intercept == pytest.approx(math.log(3.0), abs=1e-12)

    def test_brownian_width_slope_dense(self):
        # frozen from the closed-form spectrum: OLS of log(2/((2n+3-2)pi))
        # hmm: sqrt(lambda_{n+1}) = 2/((2n+1) pi) fitted over all n in [4, 64]
        ns = np.arange(4, 65)
        vals = 2.0 / ((2.0 * ns + 1.0) * math.pi)
        rep = wl.fit_loglog(series(ns, vals), window=(4, 64))
        assert rep.slope == pytest.approx(-0.9706932637808143, abs=1e-12)

    def test_window_filtering(self):
        ns = np.arange(1, 101)
        rep = wl.fit_loglog(series(ns, 1.0 / ns), window=(10, 20))
        assert rep.window == (10, 20)
        assert rep.n_points == 11

    def test_insufficient_points(self):
        with pytest.raises(ValueError):
            wl.fit_loglog(series([1, 2, 4], [1.0, 0.5, 0.25]))


class TestGapReport:
    def test_half_order_gap(self):
        ns = np.arange(1, 33)
        rep = wl.gap_report(series(ns, 1.0 / np.sqrt(ns), "up"), series(ns, 1.0 / ns, "low"))
        assert rep.slope == pytest.approx(0.5, abs=1e-12)

    def test_slope_difference_identity(self):
        ns = np.array([4, 8, 16, 32, 64])
        up = series(ns, 0.5 / ns**0.48, "up")
        low = series(ns, 2.0 / ns**0.97, "low")
        gap = wl.gap_report(up, low)
        diff = wl.fit_loglog(up).slope - wl.fit_loglog(low).slope
        assert gap.slope == pytest.approx(diff, abs=1e-12)

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatchError):
            wl.gap_report(series([1, 2, 4, 8], np.ones(4)), series([1, 2, 4, 16], np.ones(4)))


class TestRateSeries:
    def test_rejects_nonincreasing_index(self):
        with pytest.raises(ValueError):
            series([2, 2, 3, 4], [1, 1, 1, 1])

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            series([1, 2, 3, 4], [1.0, 0.0, 1.0, 1.0])
