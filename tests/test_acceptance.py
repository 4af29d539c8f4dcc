"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; without -s they still appear for failing criteria. Quantitative
checks are anchored to closed-form spectra; asymptotic claims are
checked as log-log slopes on the stated windows at the stated
tolerances.
"""

import filecmp
import importlib.util
import math
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import widthlab as wl
from widthlab import runner
from widthlab.runner import run_campaign

INF = math.inf
ROOT = Path(__file__).resolve().parents[1]


def criterion(num: int, desc: str, ok: bool, detail: str = ""):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {desc}" + (f" ({detail})" if detail else "")
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def bm_campaign(tmp_path_factory):
    t0 = time.perf_counter()
    result = run_campaign(wl.load_preset("bm_gap"), out_dir=tmp_path_factory.mktemp("bm_gap"))
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def bridge_campaign(tmp_path_factory):
    t0 = time.perf_counter()
    result = run_campaign(wl.load_preset("bridge_gap"), out_dir=tmp_path_factory.mktemp("bridge_gap"))
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def matern2d_campaign(tmp_path_factory):
    t0 = time.perf_counter()
    result = run_campaign(wl.load_preset("matern2d_gap"), out_dir=tmp_path_factory.mktemp("matern2d"))
    return result, time.perf_counter() - t0


def test_criterion_01_spectrum_accuracy(bm_kernel, bridge_kernel, quad_2000):
    worst = 0.0
    runtimes = []
    for kernel, lam_exact in (
        (bm_kernel, lambda i: 4.0 / ((2 * i - 1) ** 2 * math.pi**2)),
        (bridge_kernel, lambda i: 1.0 / (math.pi**2 * i**2)),
    ):
        t0 = time.perf_counter()
        spectrum = wl.nystrom_spectrum(kernel, quad_2000, 20)
        runtimes.append(time.perf_counter() - t0)
        for i in range(1, 21):
            exact = lam_exact(i)
            worst = max(worst, abs(spectrum.eigenvalues[i - 1] - exact) / exact)
    ok = worst < 1e-3 and max(runtimes) < 60.0
    criterion(1, "Nystrom eigenvalues vs closed forms, i <= 20", ok,
              f"max rel err {worst:.2e}, max runtime {max(runtimes):.1f}s")


def test_criterion_02_trace_identities(bm_kernel, bridge_kernel, quad_2000):
    errs = {}
    for kernel, trace in ((bm_kernel, 0.5), (bridge_kernel, 1.0 / 6.0)):
        spectrum = wl.nystrom_spectrum(kernel, quad_2000, 2000)
        errs[kernel.name] = abs(spectrum.eigenvalues.sum() - trace)
    ok = max(errs.values()) < 1e-3
    criterion(2, "discrete trace matches the kernel-diagonal integral", ok,
              ", ".join(f"{k}: {v:.2e}" for k, v in errs.items()))


def test_criterion_03_l2_width_slope(bm_campaign):
    result, _ = bm_campaign
    rep = result.fits["d_L2"]
    ok = abs(rep.slope - (-1.0)) <= 0.03
    criterion(3, "sqrt(eigenvalue-tail) L2 width slope on n in [4, 64]", ok,
              f"slope {rep.slope:+.4f} vs -1.00 +/- 0.03")


def test_criterion_04_tail_bound_never_violated(bm_analytic, bridge_analytic, quad_2000):
    worst = -math.inf
    for kid, spectrum in (("brownian", bm_analytic), ("bridge", bridge_analytic)):
        kernel = wl.make_kernel(kid)
        full = wl.greedy_design(kernel, kernel.domain.grid(4097), 64)
        for n in range(0, 65):
            lower = math.sqrt(wl.tail_sum(spectrum, n))
            designs = [wl.design(kernel, full.points[:n]) if n else wl.design(kernel, [])]
            if n:
                designs.append(wl.uniform_design(kernel, n))
            for des in designs:
                val = wl.interpolation_width(des, quad_2000, INF)
                worst = max(worst, lower - val)
    ok = worst <= 1e-6
    criterion(4, "eigenvalue-tail lower bound below every sup-width value, n <= 64", ok,
              f"max violation {worst:.2e}")


def test_criterion_05_uniform_closed_form(bm_kernel, quad_2000):
    errs = []
    for n in (4, 16, 64):
        val = wl.interpolation_width(wl.uniform_design(bm_kernel, n), quad_2000, INF)
        errs.append(abs(val - 0.5 / math.sqrt(n)))
    _, v1 = wl.optimize_interpolation_width(bm_kernel, quad_2000, INF, 1, strategy="multistart", seed=7)
    opt_err = abs(v1 - 1.0 / math.sqrt(5.0))
    ok = max(errs) < 1e-4 and opt_err < 1e-3
    criterion(5, "uniform-grid width 1/(2 sqrt n) and optimal 1-point width", ok,
              f"grid err {max(errs):.2e}, 1-point err {opt_err:.2e}")


def test_criterion_06_sup_norm_gap(bm_campaign, bridge_campaign):
    details = []
    ok = True
    total = 0.0
    for label, (result, elapsed) in (("bm", bm_campaign), ("bridge", bridge_campaign)):
        total += elapsed
        i_slope = result.fits["I-Linf[greedy]"].slope
        gap_slope = result.fits["gap_Linf"].slope
        ok &= abs(i_slope - (-0.5)) <= 0.07 and abs(gap_slope - 0.5) <= 0.10
        # the gap fit divides an upper bound by a lower one, so report.txt lists it apart from the certificates
        certificates, _, rest = (result.out_dir / "report.txt").read_text().partition(
            "gap slope target (not a certificate: its fit bounds the gap exponent from above only):\n"
        )
        ok &= "] gap_slope:" not in certificates and rest.startswith(f"  [{'met':>16s}] gap_slope: observed {gap_slope:+.4f}")
        details.append(f"{label}: I {i_slope:+.4f}, gap {gap_slope:+.4f}")
    ok &= total < 600.0
    criterion(6, "greedy sup-width slope -0.5 and square-root gap, both kernels", ok,
              "; ".join(details) + f"; runtime {total:.0f}s")


def test_criterion_07_hilbert_gap_vanishes(bm_campaign):
    result, _ = bm_campaign
    slope = result.fits["gap_L2_linear_vs_kolmogorov"].slope
    diag = result.fits.get("gap_L2_interp_vs_tail[diagnostic]")
    ok = abs(slope) <= 0.10
    criterion(7, "L2 gap between linear and Kolmogorov width scales vanishes", ok,
              f"slope {slope:+.4f}" + (f"; interp-vs-tail diagnostic {diag.slope:+.4f}" if diag else ""))


def test_criterion_08_carl_check(bm_campaign, bridge_campaign):
    ok = True
    details = []
    for label, (result, _) in (("bm", bm_campaign), ("bridge", bridge_campaign)):
        for p, rep in sorted(result.entropy_stage.carl_reports.items()):
            ok &= rep.ok
            details.append(f"{label} p={p:g}: max ratio {rep.ratios.max():.2f} < C={rep.constant:.0f}")
    criterion(8, "weighted sup-seminorm inequality never flagged", ok, "; ".join(details))


def test_criterion_09_entropy_oracles():
    op1 = wl.DiagonalOperator(np.array([1.0, 0.0, 0.0]))
    bracket_ok = all(
        est.lower <= 2.0 ** (1 - n) <= est.upper and est.lower == est.upper
        for n in range(1, 9)
        for est in [wl.diag_entropy_bounds(op1, n)]
    )
    op2 = wl.DiagonalOperator(1.0 / np.arange(1.0, 513.0))
    ns = np.array([8, 16, 32, 64])
    lows = [wl.diag_entropy_bounds(op2, int(n)).lower for n in ns]
    slope = np.polyfit(np.log(ns), np.log(lows), 1)[0]
    ok = bracket_ok and abs(slope + 1.0) <= 0.1
    criterion(9, "entropy oracles: rank-one bracket, harmonic slope", ok, f"slope {slope:+.3f}")


def test_criterion_10_mercer_truncation(bridge_kernel):
    spectrum = wl.analytic_spectrum("bridge", 200)
    tol = 2.0 * (1.0 / 6.0 - sum(1.0 / (math.pi**2 * i**2) for i in range(1, 201)))
    rng = np.random.default_rng(42)
    pts = rng.random((25, 2))
    worst = max(
        abs(float(np.sum(spectrum.eigenvalues * spectrum.extend(None, s)[0] * spectrum.extend(None, t)[0]))
            - wl.eval_kernel(bridge_kernel, s, t))
        for s, t in pts
    )
    ok = worst <= tol
    criterion(10, "the 200-term Mercer expansion reproduces the bridge kernel within the tail", ok,
              f"max err {worst:.2e} <= {tol:.2e}")


def test_criterion_11_matern2d_exploratory(matern2d_campaign):
    result, elapsed = matern2d_campaign
    statuses = {t.name: t.status for t in result.targets}
    # misses are allowed here but must be labeled exploratory, never silent
    labels_ok = all(s in ("met", "exploratory-miss") for s in statuses.values())
    flags_ok = "extended beyond" in str(result.out_dir.joinpath("report.txt").read_text())
    ok = labels_ok and flags_ok and elapsed < 900.0
    criterion(11, "2d fractional-smoothness campaign with labeled statuses", ok,
              "; ".join(f"{k}={v}" for k, v in statuses.items()) + f"; runtime {elapsed:.0f}s")


def test_criterion_12_determinism(tmp_path_factory):
    d1 = tmp_path_factory.mktemp("det1")
    d2 = tmp_path_factory.mktemp("det2")
    run_campaign(wl.load_preset("bm_gap"), out_dir=d1)
    run_campaign(wl.load_preset("bm_gap"), out_dir=d2)
    files = ("widths.csv", "slopes.csv", "spectrum_brownian.csv")
    same = {f: filecmp.cmp(d1 / f, d2 / f, shallow=False) for f in files}
    ok = all(same.values())
    criterion(12, "identical seeds give identical value columns", ok,
              ", ".join(f"{k}: {'same' if v else 'DIFFERS'}" for k, v in same.items()))


def benchmark_module(name: str):
    """A module of the benchmark, loaded by file path, without putting `benchmarks` on the import path."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "benchmarks" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_design_search(out_dir):
    # the design_search workload, the one 1d Nystrom spectrum the goldens
    # hold: its config at the goldens' seed, through the four run_*_only calls
    workload_pass = benchmark_module("workload_pass")
    cfg = wl.parse_config(workload_pass.config_text("design_search", workload_pass.DEFAULT_SEED))
    for name in workload_pass.CALLS["design_search"]:
        getattr(runner, name)(cfg, out_dir)


@pytest.fixture(scope="module")
def design_search_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("design_search")
    t0 = time.perf_counter()
    run_design_search(out_dir)
    return SimpleNamespace(out_dir=out_dir), time.perf_counter() - t0


@pytest.mark.parametrize(
    "preset,campaign",
    [("bm_gap", "bm_campaign"), ("matern2d_gap", "matern2d_campaign"), ("design_search", "design_search_run")],
)
def test_value_columns_match_golden(preset, campaign, request):
    # widths.csv (but its seed column), slopes.csv and verdicts.json against
    # the benchmark's golden run at its seed, through the benchmark's own gate
    golden_gate = benchmark_module("golden_gate")
    golden = ROOT / "benchmarks" / "goldens" / preset
    result, _ = request.getfixturevalue(campaign)
    cold, problems = golden_gate.check(result.out_dir, golden, 1234)
    assert problems == []
    # a warm pass into the same directory reads every entry the cold one wrote
    if preset == "design_search":
        run_design_search(result.out_dir)
    else:
        warm = run_campaign(wl.load_preset(preset), out_dir=result.out_dir)
        assert [r["result"] for r in warm.manifest.cache] == ["hit"] * len(warm.manifest.cache)
    _, problems = golden_gate.check(result.out_dir, golden, 1234, reference=cold)
    assert problems == []
