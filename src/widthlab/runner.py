"""Campaign orchestration: spectrum -> widths -> entropy -> fits -> verdicts.

Every run is driven by an ExperimentConfig, writes CSV artifacts with
17-significant-digit numbers and newline line endings (bit-stable for
acceptance diffs), and records every file it writes in a manifest. The
visible spectrum, an eigenvalue CSV and a `.npy` of eigenfunction node
values, is written once per call. Only Nystrom spectra are cached, as one
binary file under `cache/` keyed by the kernel, the quadrature rule and
its box, `n_eigs` and the package version; analytic spectra are
recomputed on every run. Width cells run serially, so outputs are
byte-deterministic for a fixed config and seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .version import __version__
from .asymptotics import RateSeries, SlopeReport, Verdict, fit_loglog, gap_report
from .config import ExperimentConfig
from .entropy import CarlReport, DiagonalOperator, carl_check, diag_entropy_bounds
from .errors import ChainViolationError, ConfigError
from .interpolation import (
    DesignSet,
    greedy_design,
    design as make_design,
    interpolation_width,
    optimize_interpolation_width,
    uniform_design,
)
from .kernels import Kernel, make_kernel, trace_integral
from .quadrature import Box, QuadratureRule, midpoint_rule
from .spectral import (
    SpectrumEstimate,
    analytic_spectrum,
    has_analytic_spectrum,
    nystrom_spectrum,
)
from .widths import (
    KIND_EXACT,
    KIND_LOWER,
    KIND_UPPER,
    WidthCurve,
    interp_linf_lower_tail,
    l2_widths,
    linf_kolmogorov_lower,
    rate_transfer_verdict,
    width_gap_verdict,
)

_CHAIN_SLACK = 1e-6  # quadrature slack for cross-scale chain checks


def fmt(x: float) -> str:
    """17 significant digits; round-trips float64 exactly."""
    return f"{x:.17g}"


def _p_label(p: float) -> str:
    return "inf" if p == math.inf else f"{p:g}"


def write_artifact(path: Path, chunks: Iterable[str], manifest: RunManifest):
    """Write one artifact with newline line endings and list it in the manifest.

    Chunks are written as they come, so a large CSV is never joined into
    one string in memory.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.writelines(chunks)
    manifest.files.append(str(path))


def write_csv(path: Path, header: str, rows: list[str], manifest: RunManifest):
    write_artifact(path, (line + "\n" for line in [header, *rows]), manifest)


def _write_design(path: Path, des: DesignSet, manifest: RunManifest):
    header = ",".join(f"x{i + 1}" for i in range(des.kernel.dim))
    write_csv(path, header, [",".join(fmt(c) for c in pt) for pt in des.points], manifest)


@dataclass
class RunManifest:
    config_hash: str
    version: str = __version__
    preset: str = ""
    timings: dict[str, float] = field(default_factory=dict)
    cache_hits: int = 0
    warnings: list[str] = field(default_factory=list)
    files: list[str] = field(default_factory=list)

    def warn(self, message: str):
        self.warnings.append(message)

    def save(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="\n") as fh:
            json.dump(
                {
                    "config_hash": self.config_hash,
                    "version": self.version,
                    "preset": self.preset,
                    "timings": self.timings,
                    "cache_hits": self.cache_hits,
                    "warnings": self.warnings,
                    "files": self.files,
                },
                fh,
                indent=2,
            )
            fh.write("\n")


class _Timer:
    def __init__(self, manifest: RunManifest, stage: str):
        self.manifest, self.stage = manifest, stage

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.manifest.timings[self.stage] = self.manifest.timings.get(self.stage, 0.0) + (
            time.perf_counter() - self.t0
        )


# ---------------------------------------------------------------------------
# configured objects


def kernel_from_config(cfg: ExperimentConfig) -> Kernel:
    axes = cfg.domain_axes()
    box = Box(tuple(a for a, _ in axes), tuple(b for _, b in axes))
    return make_kernel(cfg.kernel_id, dim=cfg.dim, domain=box, length_scale=float(cfg.get("kernel", "length_scale")))


def quad_from_config(cfg: ExperimentConfig, kernel: Kernel) -> QuadratureRule:
    return midpoint_rule(kernel.domain, cfg.quad_points)


def _setup(cfg: ExperimentConfig, out_dir: str | Path | None) -> tuple[Path, RunManifest, Kernel, QuadratureRule]:
    """Output directory, a fresh manifest, the kernel and the quadrature of one call."""
    out = Path(out_dir) if out_dir is not None else Path(str(cfg.get("run", "out_dir")))
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(config_hash=cfg.config_hash(), preset=cfg.preset_name)
    kernel = kernel_from_config(cfg)
    return out, manifest, kernel, quad_from_config(cfg, kernel)


# ---------------------------------------------------------------------------
# spectrum stage with disk cache


def _spectrum_source(cfg: ExperimentConfig) -> str:
    """`spectrum.source` resolved to analytic or nystrom.

    The registered closed forms hold on the unit interval only, so `auto`
    falls back to Nystrom on any other box and `analytic` is rejected there.
    """
    source = str(cfg.get("spectrum", "source"))
    closed_form = has_analytic_spectrum(cfg.kernel_id) and cfg.domain_axes() == [(0.0, 1.0)]
    if source == "auto":
        return "analytic" if closed_form else "nystrom"
    if source == "analytic" and not closed_form:
        raise ConfigError(
            f"field spectrum.source = analytic: no closed-form eigensystem for kernel "
            f"'{cfg.kernel_id}' on domain {cfg.domain_axes()}; the registry covers brownian and bridge on [0, 1]"
        )
    return source


def _spectrum_cache_path(out_dir: Path, kernel: Kernel, quad: QuadratureRule, n_eigs: int) -> Path:
    raw = f"{kernel.identifier()}|{quad.signature()}|n_eigs={n_eigs}|version={__version__}"
    return out_dir / "cache" / f"spectrum_{hashlib.sha256(raw.encode()).hexdigest()[:20]}.npz"


def _load_spectrum(path: Path, kernel: Kernel, quad: QuadratureRule) -> SpectrumEstimate | None:
    if not path.exists():
        return None
    with np.load(path) as cached:
        return SpectrumEstimate(
            cached["eigenvalues"], cached["node_values"], quad, kernel.identifier(), clamped=int(cached["clamped"])
        )


def _cache_spectrum(path: Path, spectrum: SpectrumEstimate):
    """Write under a temporary name first, so a reader never sees a partial file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    with open(tmp, "wb") as fh:
        np.savez(fh, eigenvalues=spectrum.eigenvalues, node_values=spectrum.eigvec_node_values, clamped=spectrum.clamped)
    os.replace(tmp, path)


def _save_spectrum(path_base: Path, spectrum: SpectrumEstimate, meta: str, manifest: RunManifest):
    """The visible `spectrum_<id>.csv` (meta, eigenvalues) and `spectrum_<id>_vectors.npy` (node values)."""
    rows = [f"{i + 1},{fmt(v)}" for i, v in enumerate(spectrum.eigenvalues)]
    write_csv(path_base.with_suffix(".csv"), f"# {meta}\nindex,eigenvalue", rows, manifest)
    vectors = path_base.with_name(path_base.name + "_vectors.npy")
    np.save(vectors, spectrum.eigvec_node_values)
    manifest.files.append(str(vectors))


def stage_spectrum(
    cfg: ExperimentConfig, kernel: Kernel, quad: QuadratureRule, out_dir: Path, manifest: RunManifest
) -> SpectrumEstimate:
    n_eigs = int(cfg.get("spectrum", "n_eigs"))
    source = _spectrum_source(cfg)
    with _Timer(manifest, "spectrum"):
        if source == "analytic":
            spectrum = analytic_spectrum(cfg.kernel_id, n_eigs, quad)
        else:
            cache_path = _spectrum_cache_path(out_dir, kernel, quad, n_eigs)
            spectrum = _load_spectrum(cache_path, kernel, quad)
            if spectrum is None:
                spectrum = nystrom_spectrum(kernel, quad, n_eigs)
                _cache_spectrum(cache_path, spectrum)
            else:
                manifest.cache_hits += 1
        if spectrum.clamped:
            manifest.warn(f"nystrom: {spectrum.clamped} negative eigenvalues clamped to zero")
        meta = f"widthlab-spectrum kernel={kernel.identifier()} quad={quad.signature()} source={source}"
        _save_spectrum(out_dir / f"spectrum_{cfg.kernel_id}", spectrum, meta, manifest)
    return spectrum


# ---------------------------------------------------------------------------
# width stage


@dataclass
class WidthStage:
    curves: dict[str, WidthCurve]
    rows: list[tuple]  # (scale_id, n, kind, value, method, kernel_id, p_label, seed)
    designs: dict[tuple[str, int, str], DesignSet]


def _mercer_envelope_sup(spectrum: SpectrumEstimate, kernel: Kernel, grid: np.ndarray, ns: list[int]) -> dict[int, float]:
    """Sup of the projection error envelope for every n, via cumulative head sums.

    Processes the grid in chunks so the Nystrom extension never holds a
    full grid-by-node kernel matrix.
    """
    best = {n: 0.0 for n in ns}
    step = 2048
    for i in range(0, grid.shape[0], step):
        blk = grid[i : i + step]
        V = spectrum.extend(kernel, blk)
        lam = spectrum.eigenvalues[: V.shape[1]]
        heads = np.cumsum(V**2 * lam[None, :], axis=1)
        diag = kernel.diag(blk)
        for n in ns:
            head = np.zeros(blk.shape[0]) if n == 0 else heads[:, n - 1]
            env2 = np.maximum(diag - head, 0.0)
            best[n] = max(best[n], float(env2.max()))
    return {n: math.sqrt(v) for n, v in best.items()}


def stage_widths(
    cfg: ExperimentConfig,
    kernel: Kernel,
    quad: QuadratureRule,
    spectrum: SpectrumEstimate,
    out_dir: Path,
    manifest: RunManifest,
) -> WidthStage:
    n_grid = [int(n) for n in cfg.get("widths", "n_grid")]
    dense_max = min(int(cfg.get("widths", "dense_n_max")), spectrum.n_eigs - 1)
    p_values = list(cfg.get("widths", "p_values"))
    strategies = list(cfg.get("widths", "strategies"))
    seed = int(cfg.get("run", "seed"))
    mu = quad.mass
    kid = cfg.kernel_id
    eval_grid = kernel.domain.grid(cfg.eval_points, endpoint=True)
    candidates = kernel.domain.grid(cfg.candidate_points, endpoint=True)
    trace = spectrum.trace if spectrum.trace is not None else trace_integral(kernel, quad)

    curves = {sid: WidthCurve(sid) for sid in ("d_L2", "a_L2", "d_Lp_lower", "a_Lp_upper", "I_Lp_upper", "I_Linf_lower_tail")}
    rows: list[tuple] = []
    method_eig = f"eigen-{spectrum.source}"
    kind_eig = KIND_EXACT

    with _Timer(manifest, "widths.spectral_curves"):
        dense = list(range(0, dense_max + 1))
        for n in dense:
            v = l2_widths(spectrum, n)
            curves["d_L2"].add(n, v, kind_eig, method_eig)
            rows.append(("d_L2", n, kind_eig, v, method_eig, kid, "2", seed))
            curves["a_L2"].add(n, v, kind_eig, method_eig)
            rows.append(("a_L2", n, kind_eig, v, method_eig, kid, "2", seed))
            dlo = linf_kolmogorov_lower(spectrum, mu, n)
            curves["d_Lp_lower"].add(n, dlo, KIND_LOWER, method_eig)
            rows.append(("d_Lp_lower", n, KIND_LOWER, dlo, method_eig, kid, "inf", seed))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                tl = interp_linf_lower_tail(spectrum, mu, n, trace=trace)
            for w in caught:
                manifest.warn(f"tail clamp at n={n}: {w.message}")
            curves["I_Linf_lower_tail"].add(n, tl, KIND_LOWER, "trace-tail")
            rows.append(("I_Linf_lower_tail", n, KIND_LOWER, tl, "trace-tail", kid, "inf", seed))

    with _Timer(manifest, "widths.mercer_upper"):
        mercer = _mercer_envelope_sup(spectrum, kernel, eval_grid, dense)
        for n in dense:
            curves["a_Lp_upper"].add(n, mercer[n], KIND_UPPER, "mercer-projection")
            rows.append(("a_Lp_upper", n, KIND_UPPER, mercer[n], "mercer-projection", kid, "inf", seed))

    designs: dict[tuple[str, int, str], DesignSet] = {}
    with _Timer(manifest, "widths.designs"):
        if "greedy" in strategies:
            full = greedy_design(kernel, candidates, max(n_grid))
            for n in n_grid:
                designs[("greedy", n, "any")] = (
                    full if n == full.size else make_design(kernel, full.points[:n])
                )
        if "uniform" in strategies:
            for n in n_grid:
                designs[("uniform", n, "any")] = uniform_design(kernel, n)

    # n = 0 boundary convention: empty design, power function sqrt(k(x, x))
    empty = make_design(kernel, np.empty((0, kernel.dim)))
    for p in p_values:
        v0 = interpolation_width(empty, quad, p, eval_grid=eval_grid)
        curves["I_Lp_upper"].add(0, v0, KIND_UPPER, f"empty-p{_p_label(p)}")
        rows.append(("I_Lp_upper", 0, KIND_UPPER, v0, "empty", kid, _p_label(p), seed))

    if cfg.get("run", "workers") > 1:
        manifest.warn(f"run.workers = {cfg.get('run', 'workers')} ignored: width cells run serially")
    # widths.csv keeps its rows in (strategy, p label, n) order
    cells = sorted(itertools.product(strategies, p_values, n_grid), key=lambda c: (c[0], _p_label(c[1]), c[2]))
    with _Timer(manifest, "widths.interpolation"):
        for strategy, p, n in cells:
            if strategy == "multistart":
                des, val = optimize_interpolation_width(
                    kernel, quad, p, n, strategy="multistart", candidates=candidates, eval_grid=eval_grid, seed=seed
                )
            else:
                des = designs[(strategy, n, "any")]
                val = interpolation_width(des, quad, p, eval_grid=eval_grid)
            designs[(strategy, n, _p_label(p))] = des
            curves["I_Lp_upper"].add(n, val, KIND_UPPER, f"{strategy}-p{_p_label(p)}")
            rows.append(("I_Lp_upper", n, KIND_UPPER, val, strategy, kid, _p_label(p), seed))
            if des.jitter:
                manifest.warn(f"design ({strategy}, n={n}): Cholesky jitter {des.jitter:.3e} applied")

    for (strategy, n, plab), des in sorted(designs.items()):
        if plab == "any":
            _write_design(out_dir / "designs" / f"design_{kid}_{strategy}_n{n}.csv", des, manifest)

    return WidthStage(curves, rows, designs)


def validate_chain(stage: WidthStage, tol: float = _CHAIN_SLACK):
    """Intra-curve checks plus the cross-scale ordering of the width chain.

    Valid cross comparisons: the L_inf Kolmogorov lower bound sits below
    both linear upper bounds and interpolation upper bounds; the trace
    tail lower bound sits below every interpolation upper bound at the
    same p = inf. Interpolation lower bounds must not be compared against
    linear-width upper bounds (the gap between those scales is the point).
    """
    for curve in stage.curves.values():
        curve.validate()
    d_lower = {e.n: e.value for e in stage.curves["d_Lp_lower"].entries}
    tail_lower = {e.n: e.value for e in stage.curves["I_Linf_lower_tail"].entries}
    mercer = {e.n: e.value for e in stage.curves["a_Lp_upper"].entries}
    for e in stage.curves["I_Lp_upper"].entries:
        if not e.method.endswith("pinf"):
            continue
        for name, lower_map in (("d_Lp_lower", d_lower), ("I_Linf_lower_tail", tail_lower)):
            lo = lower_map.get(e.n)
            if lo is not None and lo > e.value + tol:
                raise ChainViolationError(
                    f"{name}[n={e.n}] = {lo:.9g} exceeds I_Lp_upper[{e.method}, n={e.n}] = {e.value:.9g}"
                )
    for n, up in mercer.items():
        lo = d_lower.get(n)
        if lo is not None and lo > up + tol:
            raise ChainViolationError(
                f"d_Lp_lower[n={n}] = {lo:.9g} exceeds a_Lp_upper[mercer, n={n}] = {up:.9g}"
            )


# ---------------------------------------------------------------------------
# entropy stage


@dataclass
class EntropyStage:
    curve: WidthCurve
    rows: list[tuple]
    e_l2_report: SlopeReport
    e_linf_report: SlopeReport
    carl_reports: dict[float, CarlReport]


def stage_entropy(cfg: ExperimentConfig, spectrum: SpectrumEstimate, manifest: RunManifest) -> EntropyStage:
    seed = int(cfg.get("run", "seed"))
    kid = cfg.kernel_id
    sigma = np.sqrt(spectrum.eigenvalues)
    op = DiagonalOperator(sigma)
    n_grid = [int(n) for n in cfg.get("entropy", "n_grid")]
    curve = WidthCurve("e_diag_est")
    rows: list[tuple] = []
    with _Timer(manifest, "entropy"):
        lows = {}
        for n in n_grid:
            est = diag_entropy_bounds(op, n)
            lows[n] = est.lower
            curve.add(n, est.lower, KIND_LOWER, est.method)
            curve.add(n, est.upper, KIND_UPPER, est.method)
            rows.append(("e_diag_est", n, KIND_LOWER, est.lower, est.method, kid, "2", seed))
            rows.append(("e_diag_est", n, KIND_UPPER, est.upper, est.method, kid, "2", seed))
        window = cfg.get("fit", "entropy_window")
        series = curve.series(kind=KIND_LOWER, label="e-L2-evidence[diag-surrogate]")
        e_l2 = fit_loglog(series, window=window)
        # no direct sup-norm entropy estimator exists; the diagonal
        # surrogate doubles as the sup-norm evidence and is labeled as such
        e_linf = SlopeReport(
            e_l2.slope,
            e_l2.intercept,
            e_l2.stderr,
            e_l2.window,
            label="e-Linf-evidence[diag-surrogate;no-direct-estimator]",
            n_points=e_l2.n_points,
        )
        # Carl check against the L2 width sequence sqrt(lambda_{k+1})
        n_max = min(64, spectrum.n_eigs - 1)
        e_upper = np.array([diag_entropy_bounds(op, k).upper for k in range(1, n_max + 1)])
        s_vals = np.sqrt(spectrum.eigenvalues[1 : n_max + 1])
        carl = {p: carl_check(e_upper, s_vals, p, n_max) for p in (1.0, 2.0)}
        for p, rep in carl.items():
            if not rep.ok:
                manifest.warn(f"carl check flagged indices {rep.flagged} at p={p}: pipeline bug")
    return EntropyStage(curve, rows, e_l2, e_linf, carl)


# ---------------------------------------------------------------------------
# fits, verdicts, report


@dataclass
class FitStage:
    reports: dict[str, SlopeReport]
    gap_reports: dict[str, SlopeReport]
    eig_report: SlopeReport

    @property
    def slopes(self) -> dict[str, SlopeReport]:
        """Every fit by its slopes.csv label, in slopes.csv order."""
        return {"eigenvalues": self.eig_report, **dict(sorted(self.reports.items())), **dict(sorted(self.gap_reports.items()))}


def stage_fits(cfg: ExperimentConfig, spectrum: SpectrumEstimate, width_stage: WidthStage, manifest: RunManifest) -> FitStage:
    window = cfg.get("fit", "window")
    n_grid = [int(n) for n in cfg.get("widths", "n_grid")]
    reports: dict[str, SlopeReport] = {}
    gaps: dict[str, SlopeReport] = {}
    with _Timer(manifest, "fits"):
        d_series = width_stage.curves["d_L2"].series(label="d-L2[sqrt-eigentail]")
        reports["d_L2"] = fit_loglog(d_series, window=window)
        a_series = width_stage.curves["a_L2"].series(label="a-L2[sqrt-eigentail]")
        reports["a_L2"] = fit_loglog(a_series, window=window)
        lam = spectrum.eigenvalues
        pos = lam > 0
        eig_series = RateSeries(np.arange(1, lam.size + 1)[pos], lam[pos], "eigenvalues")
        eig_report = fit_loglog(eig_series, window=window)
        for strategy in cfg.get("widths", "strategies"):
            for p in cfg.get("widths", "p_values"):
                plab = _p_label(p)
                label = f"I-L{plab}[{strategy}]"
                try:
                    series = width_stage.curves["I_Lp_upper"].series(method=f"{strategy}-p{plab}", label=label)
                    reports[label] = fit_loglog(series, window=window)
                except ValueError:
                    continue
        # sup-norm gap: greedy interpolation widths over the L2 width scale
        if "I-Linf[greedy]" in reports:
            i_series = width_stage.curves["I_Lp_upper"].series(method="greedy-pinf", label="I-Linf[greedy]")
            d_on_grid = RateSeries(
                i_series.ns, np.array([d_series.at(int(n)) for n in i_series.ns]), d_series.label
            )
            gaps["gap_Linf"] = gap_report(i_series, d_on_grid)
        # Hilbert-case gap: linear width curve over Kolmogorov width curve at p = 2
        da = RateSeries(a_series.ns, a_series.values, "a-L2")
        dd = RateSeries(d_series.ns, d_series.values, "d-L2")
        gaps["gap_L2_linear_vs_kolmogorov"] = gap_report(da.window(*window), dd.window(*window))
        # diagnostic: the greedy interpolation width in L2 against its tail floor
        if "I-L2[greedy]" in reports:
            i2 = width_stage.curves["I_Lp_upper"].series(method="greedy-p2", label="I-L2[greedy]")
            tail_series = width_stage.curves["I_Linf_lower_tail"].series(label="I-tail-lower")
            tail_on_grid = RateSeries(
                i2.ns, np.array([tail_series.at(int(n)) for n in i2.ns]), tail_series.label
            )
            gaps["gap_L2_interp_vs_tail[diagnostic]"] = gap_report(i2, tail_on_grid)
    return FitStage(reports, gaps, eig_report)


@dataclass
class TargetResult:
    name: str
    observed: float
    expected: float
    tolerance: float
    status: str  # met | target-miss | exploratory-miss


@dataclass
class CampaignResult:
    out_dir: Path
    manifest: RunManifest
    targets: list[TargetResult]
    verdicts: list[Verdict]
    fit_stage: FitStage
    entropy_stage: EntropyStage
    width_stage: WidthStage

    @property
    def all_targets_met(self) -> bool:
        return all(t.status == "met" for t in self.targets)


# slope target name -> label of the fit it checks, in evaluation order
_TARGET_LABELS = (
    ("eigenvalue_slope", "eigenvalues"),
    ("d_slope", "d_L2"),
    ("i_slope", "I-Linf[greedy]"),
    ("gap_slope", "gap_Linf"),
    ("hilbert_gap_slope", "gap_L2_linear_vs_kolmogorov"),
)


def _eval_targets(cfg: ExperimentConfig, fits: FitStage) -> list[TargetResult]:
    miss = "exploratory-miss" if cfg.target("exploratory") else "target-miss"
    slopes = fits.slopes
    out: list[TargetResult] = []
    for name, label in _TARGET_LABELS:
        pair = cfg.target(name)
        if pair is None or label not in slopes:
            continue
        expected, tol = pair
        observed = slopes[label].slope
        status = "met" if abs(observed - expected) <= tol else miss
        out.append(TargetResult(name, observed, expected, tol, status))
    return out


def _write_width_rows(out_dir: Path, rows: list[tuple], manifest: RunManifest):
    """Write curve rows, replacing any existing rows of the same scales.

    Single-stage commands share one widths.csv per output directory, so
    an entropy run appends its scale next to previously computed width
    scales instead of clobbering them.
    """
    header = "scale_id,n,kind,value,method,kernel_id,p,seed"
    txt_rows = [
        f"{sid},{n},{kind},{fmt(val)},{method},{kid},{plab},{seed}"
        for (sid, n, kind, val, method, kid, plab, seed) in rows
    ]
    path = out_dir / "widths.csv"
    new_scales = {r[0] for r in rows}
    kept: list[str] = []
    if path.exists():
        for line in path.read_text().splitlines()[1:]:
            if line and line.split(",", 1)[0] not in new_scales:
                kept.append(line)
    write_csv(path, header, kept + txt_rows, manifest)


def _write_slopes(out_dir: Path, fits: FitStage, targets: list[TargetResult], manifest: RunManifest):
    label_of = dict(_TARGET_LABELS)
    status = {label_of[t.name]: t.status for t in targets}
    rows = [
        f"{lbl},{fmt(rep.slope)},{fmt(rep.stderr)},{rep.window[0]},{rep.window[1]},{status.get(lbl, 'fit')}"
        for lbl, rep in fits.slopes.items()
    ]
    write_csv(out_dir / "slopes.csv", "label,slope,stderr,window_lo,window_hi,status", rows, manifest)


def _write_report(
    out_dir: Path,
    cfg: ExperimentConfig,
    targets: list[TargetResult],
    verdicts: list[Verdict],
    entropy_stage: EntropyStage,
    manifest: RunManifest,
):
    lines = []
    lines.append(f"widthlab campaign report (preset: {cfg.preset_name or 'custom'}, config {manifest.config_hash})")
    lines.append("")
    lines.append("slope targets (numeric certificates):")
    for t in targets:
        lines.append(
            f"  [{t.status:>16s}] {t.name}: observed {t.observed:+.4f}, target {t.expected:+.2f} +/- {t.tolerance:.2f}"
        )
    notes = str(cfg.target("notes"))
    if notes:
        lines.append(f"  premise flags: {notes}")
    lines.append("")
    lines.append("rule-based verdicts (not numeric certificates; premises attached):")
    for v in verdicts:
        lines.append(f"  [{v.status:>20s}] {v.claim}")
        for p in v.premises:
            lines.append(f"      premise {p.label}: slope {p.slope:+.4f} +/- {p.stderr:.4f} on n in {list(p.window)}")
        if v.detail:
            lines.append(f"      detail: {v.detail}")
    lines.append("")
    for p, rep in sorted(entropy_stage.carl_reports.items()):
        status = "ok" if rep.ok else f"VIOLATION at {rep.flagged}"
        lines.append(
            f"carl-check p={p:g}: max ratio {rep.ratios.max():.4f} vs constant {rep.constant:.1f} -> {status}"
        )
    if manifest.warnings:
        lines.append("")
        lines.append("warnings:")
        for w in manifest.warnings:
            lines.append(f"  - {w}")
    write_artifact(out_dir / "report.txt", ["\n".join(lines) + "\n"], manifest)
    write_artifact(out_dir / "verdicts.json", [json.dumps([v.to_record() for v in verdicts], indent=2) + "\n"], manifest)


def _verdicts(cfg: ExperimentConfig, entropy_stage: EntropyStage) -> list[Verdict]:
    alpha = cfg.target("alpha")
    if alpha is None:
        return []
    slope_tol = float(cfg.get("fit", "slope_tol"))
    e_l2, e_linf = entropy_stage.e_l2_report, entropy_stage.e_linf_report
    return [
        rate_transfer_verdict(e_l2, e_linf, math.inf, float(alpha), slope_tol),
        width_gap_verdict(e_l2, e_linf, float(alpha), slope_tol),
    ]


def run_campaign(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> CampaignResult:
    """Run the full pipeline for one config and write all artifacts."""
    out, manifest, kernel, quad = _setup(cfg, out_dir)
    spectrum = stage_spectrum(cfg, kernel, quad, out, manifest)
    width_stage = stage_widths(cfg, kernel, quad, spectrum, out, manifest)
    validate_chain(width_stage)
    entropy_stage = stage_entropy(cfg, spectrum, manifest)
    fits = stage_fits(cfg, spectrum, width_stage, manifest)
    verdicts = _verdicts(cfg, entropy_stage)
    targets = _eval_targets(cfg, fits)
    _write_width_rows(out, width_stage.rows + entropy_stage.rows, manifest)
    _write_slopes(out, fits, targets, manifest)
    _write_report(out, cfg, targets, verdicts, entropy_stage, manifest)
    write_artifact(out / "config_resolved.txt", [cfg.dump()], manifest)
    manifest.save(out / "manifest.json")
    return CampaignResult(out, manifest, targets, verdicts, fits, entropy_stage, width_stage)


# lighter entry points used by the CLI subcommands ---------------------------


def run_spectrum_only(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> SpectrumEstimate:
    out, manifest, kernel, quad = _setup(cfg, out_dir)
    spectrum = stage_spectrum(cfg, kernel, quad, out, manifest)
    manifest.save(out / "manifest.json")
    return spectrum


def run_widths_only(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> WidthStage:
    out, manifest, kernel, quad = _setup(cfg, out_dir)
    spectrum = stage_spectrum(cfg, kernel, quad, out, manifest)
    stage = stage_widths(cfg, kernel, quad, spectrum, out, manifest)
    validate_chain(stage)
    _write_width_rows(out, stage.rows, manifest)
    manifest.save(out / "manifest.json")
    return stage


def run_greedy_only(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> DesignSet:
    out, manifest, kernel, _ = _setup(cfg, out_dir)
    n_max = max(int(n) for n in cfg.get("widths", "n_grid"))
    des = greedy_design(kernel, kernel.domain.grid(cfg.candidate_points, endpoint=True), n_max)
    _write_design(out / "designs" / f"design_{cfg.kernel_id}_greedy_n{n_max}.csv", des, manifest)
    if des.greedy_sup_path is not None:
        sup_rows = [f"{i},{fmt(v)}" for i, v in enumerate(des.greedy_sup_path)]
        write_csv(out / "designs" / f"greedy_sup_{cfg.kernel_id}.csv", "step,sup_power", sup_rows, manifest)
    manifest.save(out / "manifest.json")
    return des


def run_entropy_only(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> EntropyStage:
    out, manifest, kernel, quad = _setup(cfg, out_dir)
    spectrum = stage_spectrum(cfg, kernel, quad, out, manifest)
    stage = stage_entropy(cfg, spectrum, manifest)
    _write_width_rows(out, stage.rows, manifest)
    manifest.save(out / "manifest.json")
    return stage
