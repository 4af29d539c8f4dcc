"""Campaign orchestration: spectrum -> widths -> entropy -> fits -> verdicts.

Every run is driven by an ExperimentConfig, writes CSV artifacts with
17-significant-digit numbers and newline line endings (bit-stable for
acceptance diffs), and records every file it writes in a manifest. The
width and entropy stages record each value once, as a `WidthRow`; the
chain check and the fits read those rows, and widths.csv adds the kernel
id and the seed to each when it is written. The visible spectrum is an
eigenvalue CSV and a `.npy` of eigenfunction node values, a hard link to
its cache entry's. `cache/` holds three kinds of binary entry, each read,
computed on a miss, written and recorded by one method, `_Call.cached`, and
keyed by the kernel, the quadrature rule and its box, the fields below, the
version, BLAS name, BLAS version and BLAS threads of numpy and of scipy
(each moves the last bits of a result) and the package version. A
`spectrum_<key>.npz` holds a spectrum and the CRC-32 of its node values,
which are the entry's `.npy`, keyed by `n_eigs` and, for a Nystrom
spectrum, the eigensolver path, for an analytic one the source; a hit never
tabulates the closed form. An `envelope_<key>.npz` holds the squared
sup-norm Mercer envelope for n = 0..`dense_max`, keyed by the spectrum
entry's fields, the evaluation points per axis and `dense_max`. A
`design_<key>.npz` holds one width cell (strategy, p, n) whole, keyed as
`_cell` says: the searched design's points and Cholesky jitter and the
width value, and for a multistart cell how its descents ran; a hit builds
no design, so a warm campaign evaluates no kernel matrix and factors
nothing, and its key names the arrays it holds, so an entry of another
format misses. A miss writes the `.npy` first and the npz last, each
through a temporary file. An entry that cannot be read is recomputed and
overwritten, with a manifest warning; `manifest.cache` records every
lookup. Width cells run one after another; a multistart cell's descents
may run in parallel processes, but their results are reduced in start
order, so outputs are byte-deterministic for a fixed config and seed.

Each `run_*` entry point is one `with _call(cfg, out_dir)` block, whose call
record (config, output directory, fresh manifest, kernel, quadrature rule)
every stage and writer takes first: it keys the cache entries and writes the
artifacts, and the manifest is saved once, when the block ends without an
error. An OSError inside the block is a BudgetError on a full disk or quota,
else a ConfigError naming `run.out_dir` and the failing path.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import itertools
import json
import math
import os
import platform
import time
import warnings
import zipfile
import zlib
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

import numpy as np
import scipy

from .version import __version__
from .asymptotics import RateSeries, SlopeReport, Verdict, fit_loglog, gap_report
from .config import ExperimentConfig, p_label
from .entropy import CarlReport, DiagonalOperator, carl_check, diag_entropy_bounds
from .errors import BudgetError, ConfigError
from .interpolation import (
    MULTISTART_RESTARTS,
    DesignSet,
    greedy_design,
    design as make_design,
    interpolation_width,
    optimize_interpolation_width,
    _cpu_count,
    _objective,
    _thread_count,
    uniform_design,
)
from .kernels import Kernel, trace_integral
from .quadrature import QuadratureRule, midpoint_rule
from .spectral import (
    NYSTROM_SOLVER,
    SpectrumEstimate,
    analytic_spectrum,
    nystrom_spectrum,
)
from .widths import (
    KIND_EXACT,
    KIND_LOWER,
    KIND_UPPER,
    WidthRow,
    interp_linf_lower_tail,
    l2_widths,
    linf_kolmogorov_lower,
    mercer_envelope_sup2,
    rate_series,
    rate_transfer_verdict,
    validate_chain,
    width_gap_verdict,
)


def fmt(x: float) -> str:
    """17 significant digits; round-trips float64 exactly."""
    return f"{x:.17g}"


# the thread-count query of the OpenBLAS that numpy and scipy each bundle: (library file pattern, symbol)
_BLAS_QUERIES = {
    "numpy": ("libscipy_openblas64_*.so", "scipy_openblas_get_num_threads64_"),
    "scipy": ("libscipy_openblas*.so", "scipy_openblas_get_num_threads"),
}


def _blas_threads(lib) -> int | None:
    """The threads of the OpenBLAS bundled with `lib` (numpy or scipy); None when no bundled library answers the query."""
    pattern, symbol = _BLAS_QUERIES[lib.__name__]
    for path in sorted(glob.glob(os.path.join(os.path.dirname(lib.__file__), os.pardir, f"{lib.__name__}.libs", pattern))):
        query = getattr(ctypes.CDLL(path), symbol, None)
        if query is not None:
            query.argtypes, query.restype = [], ctypes.c_int
            return query()
    return None


def _environment() -> dict[str, object]:
    """The Python version, the CPUs and threads of this process, and the version, BLAS and BLAS threads of numpy and of scipy.

    A multistart cell runs its descents on up to `cpus` processes, but one
    after another when `threads` is above 1. The two libraries may link
    different BLAS builds: the Cholesky factorizations run in numpy's, the
    eigensolver and the triangular solves in scipy's. A library's build or
    its thread count may change the last bits of a result, so every cache
    key holds each library's block.
    """
    env: dict[str, object] = {"python": platform.python_version(), "cpus": _cpu_count(), "threads": _thread_count()}
    for lib in (np, scipy):
        blas = lib.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env[lib.__name__] = {
            "version": lib.__version__,
            "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_threads": _blas_threads(lib),
        }
    return env


@dataclass
class RunManifest:
    config_hash: str
    version: str = __version__
    preset: str = ""
    environment: dict[str, object] = field(default_factory=_environment)
    timings: dict[str, float] = field(default_factory=dict)
    cache: list[dict[str, str]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    files: list[str] = field(default_factory=list)

    def warn(self, message: str):
        self.warnings.append(message)

    def save(self, path: Path):
        """The fields, and `cache_hits`: the hits among the `cache` records; a new file replaces the old one whole."""
        path.parent.mkdir(parents=True, exist_ok=True)
        record = {**asdict(self), "cache_hits": sum(r["result"] == "hit" for r in self.cache)}
        with _replacing(path) as tmp, open(tmp, "w", newline="\n") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")


@contextmanager
def _timed(manifest: RunManifest, stage: str):
    """Record the seconds the block takes as `manifest.timings[stage]`."""
    t0 = time.perf_counter()
    yield
    manifest.timings[stage] = time.perf_counter() - t0


# ---------------------------------------------------------------------------
# configured objects and the call context


def kernel_from_config(cfg: ExperimentConfig) -> Kernel:
    return cfg.kernel()


def quad_from_config(cfg: ExperimentConfig, kernel: Kernel) -> QuadratureRule:
    return midpoint_rule(kernel.domain, cfg.get("quadrature", "points_per_axis"))


class _Call(NamedTuple):
    """One entry-point call: its config, output directory, fresh manifest, kernel and quadrature rule."""

    cfg: ExperimentConfig
    out: Path
    manifest: RunManifest
    kernel: Kernel
    quad: QuadratureRule

    def cached(self, kind: str, fields: list[str], names: tuple[str, ...], compute: Callable[[], list], npy: bool = False) -> tuple[Path, list]:
        """The arrays `names` of the entry `cache/<kind>_<key>.npz`, then with `npy` the array in the entry's `.npy`; and the npz's path.

        The raw key joins the kernel, the quadrature rule and its box,
        `fields`, the version, BLAS name, BLAS version and BLAS threads of
        numpy and of scipy (a library build or its thread count moves the last
        bits of a result) and the package version; the file name holds its
        hash. A `.npy` whose bytes miss the CRC-32 in the npz is unreadable.
        An unreadable entry is a miss, with a manifest warning naming the
        file. Every lookup appends its `manifest.cache` record, whose hits the
        saved manifest counts as `cache_hits`. On a miss `compute()` returns
        the arrays in the same order, and they are written: the `.npy` first,
        then the npz, which holds the `.npy`'s CRC-32.
        """
        env = self.manifest.environment
        libs = [f"{lib}({','.join(f'{k}={v}' for k, v in env[lib].items())})" for lib in _BLAS_QUERIES]
        raw = "|".join((self.kernel.identifier(), self.quad.signature(), *fields, *libs, f"version={__version__}"))
        path = self.out / "cache" / f"{kind}_{hashlib.sha256(raw.encode()).hexdigest()[:20]}.npz"
        arrays, result, read = None, "miss", path
        if path.exists():
            try:
                with np.load(path) as entry:
                    arrays = [entry[name] for name in names]
                    crc = entry["npy_crc32"] if npy else None
                if npy:
                    read = path.with_suffix(".npy")
                    arrays.append(np.load(read))
                    if zlib.crc32(arrays[-1].ravel(order="K")) != crc:
                        raise ValueError("CRC-32 mismatch")
                result = "hit"
            except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile) as exc:
                self.manifest.warn(f"cache entry {read} unreadable ({type(exc).__name__}): recomputed")
                arrays, result = None, "unreadable"
        self.manifest.cache.append({"entry": kind, "file": path.name, "key": raw, "result": result})
        if arrays is None:
            arrays = compute()
            stored = dict(zip(names, arrays))
            path.parent.mkdir(parents=True, exist_ok=True)
            if npy:
                with _replacing(path.with_suffix(".npy")) as tmp, open(tmp, "wb") as fh:
                    np.save(fh, arrays[-1])
                stored["npy_crc32"] = zlib.crc32(arrays[-1].ravel(order="K"))
            with _replacing(path) as tmp, open(tmp, "wb") as fh:
                np.savez(fh, **stored)
        return path, arrays

    def write(self, name: str, chunks: Iterable[str]):
        """Write the artifact `name` of the output directory chunk by chunk, with newline line endings, and list it in the manifest.

        The chunks go to a temporary file that then replaces the artifact, so a failure midway leaves the previous one whole.
        """
        path = self.out / name
        path.parent.mkdir(parents=True, exist_ok=True)
        with _replacing(path) as tmp, open(tmp, "w", newline="\n") as fh:
            fh.writelines(chunks)
        self.manifest.files.append(str(path))

    def csv(self, name: str, header: str, rows: list[str]):
        self.write(name, (line + "\n" for line in [header, *rows]))


@contextmanager
def _call(cfg: ExperimentConfig, out_dir: str | Path | None):
    """The `_Call` of one entry point; its manifest is saved when the block ends without an error."""
    out = Path(out_dir if out_dir is not None else cfg.get("run", "out_dir"))
    try:
        out.mkdir(parents=True, exist_ok=True)
        manifest = RunManifest(config_hash=cfg.config_hash(), preset=cfg.preset_name)
        kernel = kernel_from_config(cfg)
        yield _Call(cfg, out, manifest, kernel, quad_from_config(cfg, kernel))
        manifest.save(out / "manifest.json")
    except OSError as exc:
        import errno  # read on this failure path only
        if exc.errno in (errno.ENOSPC, errno.EDQUOT):
            raise BudgetError(f"field run.out_dir = {out}: no space left for the output ({exc})") from exc
        raise ConfigError(f"field run.out_dir = {out}: cannot write the output ({exc})") from exc


def _write_design(call: _Call, strategy: str, n: int, points: np.ndarray):
    header = ",".join(f"x{i + 1}" for i in range(call.kernel.dim))
    call.csv(f"designs/design_{call.cfg.kernel_id}_{strategy}_n{n}.csv", header, [",".join(fmt(c) for c in pt) for pt in points])


# ---------------------------------------------------------------------------
# spectrum stage with disk cache


@contextmanager
def _replacing(path: Path):
    """A temporary name for a new file that then replaces `path`, so no reader sees it partial and the old file is never written into.

    When the block or the replacement fails, the temporary file is removed and the error re-raised.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _spectrum_fields(cfg: ExperimentConfig) -> list[str]:
    """The key fields of the configured spectrum's entry: `n_eigs` and, for a Nystrom spectrum, the eigensolver path, for an analytic one the source."""
    source = cfg.get("spectrum", "source")
    return [f"n_eigs={cfg.get('spectrum', 'n_eigs')}", f"solver={NYSTROM_SOLVER}" if source == "nystrom" else f"source={source}"]


def _load_spectrum(call: _Call) -> tuple[SpectrumEstimate, Path]:
    """The configured spectrum, through its cache entry, and the entry's `.npy` of node values.

    The spectrum is built from the entry's arrays on a hit and on a miss
    alike; an analytic one gets its closed form back with the entry's node
    values, so a hit never tabulates it.
    """
    cfg, quad = call.cfg, call.quad
    n_eigs, source = cfg.get("spectrum", "n_eigs"), cfg.get("spectrum", "source")

    def compute() -> list:
        spectrum = analytic_spectrum(cfg.kernel_id, n_eigs, quad) if source == "analytic" else nystrom_spectrum(call.kernel, quad, n_eigs)
        return [spectrum.eigenvalues, spectrum.clamped, spectrum.eigvec_node_values]

    path, (eigenvalues, clamped, node_values) = call.cached("spectrum", _spectrum_fields(cfg), ("eigenvalues", "clamped"), compute, npy=True)
    if source == "analytic":
        return analytic_spectrum(cfg.kernel_id, n_eigs, quad, node_values), path.with_suffix(".npy")
    return SpectrumEstimate(eigenvalues, node_values, quad, clamped=int(clamped)), path.with_suffix(".npy")


def _save_spectrum(call: _Call, spectrum: SpectrumEstimate, meta: str, cached: Path):
    """The visible `spectrum_<id>.csv` (meta, eigenvalues) and `spectrum_<id>_vectors.npy` (node values).

    The node values are a hard link to `cached`, the `.npy` of the spectrum's cache entry, where the file system links.
    """
    rows = [f"{i + 1},{fmt(v)}" for i, v in enumerate(spectrum.eigenvalues)]
    call.csv(f"spectrum_{call.cfg.kernel_id}.csv", f"# {meta}\nindex,eigenvalue", rows)
    vectors = call.out / f"spectrum_{call.cfg.kernel_id}_vectors.npy"
    call.manifest.files.append(str(vectors))
    if vectors.exists() and os.path.samefile(cached, vectors):
        return
    with suppress(OSError), _replacing(vectors) as tmp:  # without hard links, the file is written below
        os.link(cached, tmp)
        return
    with _replacing(vectors) as tmp, open(tmp, "wb") as fh:
        np.save(fh, spectrum.eigvec_node_values)


def stage_spectrum(call: _Call) -> SpectrumEstimate:
    manifest = call.manifest
    with _timed(manifest, "spectrum"):
        spectrum, npy = _load_spectrum(call)
        if spectrum.clamped:
            manifest.warn(f"nystrom: {spectrum.clamped} negative eigenvalues clamped to zero")
        meta = f"widthlab-spectrum kernel={call.kernel.identifier()} quad={call.quad.signature()} source={spectrum.source}"
        _save_spectrum(call, spectrum, meta, npy)
    return spectrum


# ---------------------------------------------------------------------------
# width stage


def stage_widths(call: _Call, spectrum: SpectrumEstimate) -> list[WidthRow]:
    cfg, kernel, quad, manifest = call.cfg, call.kernel, call.quad, call.manifest
    n_grid = cfg.get("widths", "n_grid")
    dense_max = cfg.dense_max
    p_values = cfg.get("widths", "p_values")
    strategies = cfg.get("widths", "strategies")
    mu = quad.mass
    eval_grid = kernel.domain.grid(cfg.eval_points, endpoint=True)
    candidates = kernel.domain.grid(cfg.candidate_points, endpoint=True)
    trace = spectrum.trace if spectrum.trace is not None else trace_integral(kernel, quad)

    rows: list[WidthRow] = []
    method_eig = f"eigen-{spectrum.source}"

    with _timed(manifest, "widths.spectral_curves"):
        dense = list(range(0, dense_max + 1))
        for n in dense:
            v = l2_widths(spectrum, n)
            rows.append(WidthRow("d_L2", n, KIND_EXACT, v, method_eig, "2"))
            rows.append(WidthRow("a_L2", n, KIND_EXACT, v, method_eig, "2"))
            rows.append(WidthRow("d_Lp_lower", n, KIND_LOWER, linf_kolmogorov_lower(spectrum, mu, n), method_eig, "inf"))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                tl = interp_linf_lower_tail(spectrum, mu, n, trace=trace)
            for w in caught:
                manifest.warn(f"tail clamp at n={n}: {w.message}")
            rows.append(WidthRow("I_Linf_lower_tail", n, KIND_LOWER, tl, "trace-tail", "inf"))

    with _timed(manifest, "widths.mercer_upper"):
        fields = [*_spectrum_fields(cfg), f"eval_points={cfg.eval_points}", f"dense_max={dense_max}"]
        _, (sup2,) = call.cached("envelope", fields, ("sup2",), lambda: [mercer_envelope_sup2(spectrum, kernel, eval_grid, dense_max)])
        for n in dense:
            rows.append(WidthRow("a_Lp_upper", n, KIND_UPPER, math.sqrt(sup2[n]), "mercer-projection", "inf"))

    # n = 0 boundary convention: the empty design, whose power function is sqrt(k(x, x))
    for p in p_values:
        targets, norm = _objective(kernel, quad, p, eval_grid)
        rows.append(WidthRow("I_Lp_upper", 0, KIND_UPPER, norm(np.sqrt(np.maximum(kernel.diag(targets), 0.0))), "empty", p_label(p)))

    if cfg.get("run", "workers") > 1:
        manifest.warn(f"run.workers = {cfg.get('run', 'workers')} ignored: a multistart cell runs its descents on up to one process per CPU")
    greedy: DesignSet | None = None  # the greedy design of max(n_grid) points, made on the first greedy miss

    def search(strategy: str, p: float, n: int) -> tuple[DesignSet, float]:
        nonlocal greedy
        if strategy == "multistart":
            seed = cfg.get("run", "seed")
            return optimize_interpolation_width(kernel, quad, p, n, strategy="multistart", candidates=candidates, eval_grid=eval_grid, seed=seed)
        if strategy == "uniform":
            des = uniform_design(kernel, n)
        else:
            if greedy is None:
                greedy = greedy_design(kernel, candidates, max(n_grid))
            des = greedy if n >= greedy.size else make_design(kernel, greedy.points[:n])
        return des, interpolation_width(des, quad, p, eval_grid=eval_grid)

    designs: dict[tuple[str, int], np.ndarray] = {}
    # widths.csv keeps its rows in (strategy, p label, n) order
    cells = sorted(itertools.product(strategies, p_values, n_grid), key=lambda c: (c[0], p_label(c[1]), c[2]))
    with _timed(manifest, "widths.interpolation"):
        for strategy, p, n in cells:
            points, val, jitter = _cell(call, strategy, p, n, search)
            rows.append(WidthRow("I_Lp_upper", n, KIND_UPPER, val, strategy, p_label(p)))
            if jitter:
                manifest.warn(f"design ({strategy}, n={n}): Cholesky jitter {jitter:.3e} applied")
            if strategy != "multistart":
                designs[(strategy, n)] = points

    with _timed(manifest, "widths.designs"):
        for (strategy, n), points in sorted(designs.items()):
            if strategy == "greedy" and len(points) < n:  # a 2d uniform design is short by construction
                manifest.warn(f"design (greedy, n={n}) holds {len(points)} points: greedy stops once the power function vanishes at every candidate")
            _write_design(call, strategy, n, points)
    validate_chain(rows)
    return rows


def _cell(call: _Call, strategy: str, p: float, n: int, search: Callable[[str, float, int], tuple[DesignSet, float]]) -> tuple[np.ndarray, float, float]:
    """The points, value and Cholesky jitter of one (strategy, p, n) width cell, through `cache/design_<key>.npz`; `search` makes its design and value on a miss.

    The key holds what the cell reads: the strategy, p (17 digits, since
    its label would merge 2 and 2.0000001), n and the candidate and
    evaluation points per axis; for a greedy cell also max(`widths.n_grid`),
    since its design is a prefix of the greedy design of that many points;
    for a multistart cell also the seed and the number of random restarts;
    last, the names of the entry's arrays, so that an entry of another
    format misses. The entry holds the cell whole, the searched design's
    points and jitter and the value, so a hit builds no design and returns
    what the miss did, bit for bit. A multistart entry also holds how the
    cell's descents ran, the search's `DesignSet.descents`, and the
    lookup's `manifest.cache` record carries it as `descents`, on a hit as
    on a miss.
    """
    cfg = call.cfg
    fields = [f"strategy={strategy}", f"p={fmt(p)}", f"n={n}", f"candidate_points={cfg.candidate_points}", f"eval_points={cfg.eval_points}"]
    if strategy == "greedy":
        fields.append(f"n_max={max(cfg.get('widths', 'n_grid'))}")
    names = ("points", "value", "jitter")
    if strategy == "multistart":
        fields += [f"seed={cfg.get('run', 'seed')}", f"restarts={MULTISTART_RESTARTS}"]
        names += ("descents",)
    fields.append(f"arrays={','.join(names)}")

    def compute() -> list:
        des, val = search(strategy, p, n)
        return [des.points, val, des.jitter, des.descents][: len(names)]

    _, (points, value, jitter, *descents) = call.cached("design", fields, names, compute)
    if descents:
        call.manifest.cache[-1]["descents"] = str(descents[0])  # the record of this lookup
    return points, float(value), float(jitter)


# ---------------------------------------------------------------------------
# entropy stage


@dataclass
class EntropyStage:
    rows: list[WidthRow]
    e_l2_report: SlopeReport
    e_linf_report: SlopeReport
    carl_reports: dict[float, CarlReport]


def stage_entropy(call: _Call, spectrum: SpectrumEstimate) -> EntropyStage:
    cfg, manifest = call.cfg, call.manifest
    sigma = np.sqrt(spectrum.eigenvalues)
    op = DiagonalOperator(sigma)
    n_grid = cfg.get("entropy", "n_grid")
    rows: list[WidthRow] = []
    with _timed(manifest, "entropy"):
        # Carl check against the L2 width sequence s_k = sqrt(lambda_{k+1}), over the k where it is positive
        n_max = min(64, int(np.count_nonzero(spectrum.eigenvalues > 0)) - 1)
        # one bracket per index: the rows read entropy.n_grid, the Carl check 1..n_max
        est = {k: diag_entropy_bounds(op, k) for k in sorted({*n_grid, *range(1, n_max + 1)})}
        for n in n_grid:
            rows.append(WidthRow("e_diag_est", n, KIND_LOWER, est[n].lower, est[n].method, "2"))
            rows.append(WidthRow("e_diag_est", n, KIND_UPPER, est[n].upper, est[n].method, "2"))
        window = cfg.get("fit", "entropy_window")
        series = rate_series(rows, "e_diag_est", "e-L2-evidence[diag-surrogate]", kind=KIND_LOWER)
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
        e_upper = np.array([est[k].upper for k in range(1, n_max + 1)])
        s_vals = np.sqrt(spectrum.eigenvalues[1 : n_max + 1])
        carl = {p: carl_check(e_upper, s_vals, p, n_max) for p in (1.0, 2.0)}
        for p, rep in carl.items():
            if not rep.ok:
                manifest.warn(f"carl check flagged indices {rep.flagged} at p={p}: pipeline bug")
    validate_chain(rows)
    return EntropyStage(rows, e_l2, e_linf, carl)


# ---------------------------------------------------------------------------
# fits, verdicts, report


def _grid_error(label: str, n: int, top: int) -> ConfigError:
    return ConfigError(
        f"field widths.n_grid reaches n = {n}, but the greedy gap fits read {label} at every greedy n "
        f"and it has no positive value there; it is computed for n <= {top} only (widths.dense_n_max, capped by "
        f"spectrum.n_eigs - 1), and zero values, such as those of a clamped spectrum, are dropped"
    )


def _fit_error(name: str, label: str) -> ConfigError:
    return ConfigError(
        f"field targets.{name} checks the fit {label}, which this config does not produce: it needs the greedy "
        f"strategy, p = inf in widths.p_values and at least 4 positive values at widths.n_grid inside fit.window"
    )


def _check_fits(cfg: ExperimentConfig):
    """Raise, before any compute, the errors of `stage_fits` and `_eval_targets` that the config alone decides, in their order.

    A greedy fit needs 4 `widths.n_grid` entries inside `fit.window`; a
    greedy gap fit reads its dense series at every greedy n, so none may
    pass `dense_max`; a hard target on I-Linf[greedy] or gap_Linf needs that
    fit. Zero values may still drop a fit or a dense value: the stages
    themselves raise then.
    """
    n_grid, (lo, hi), top = cfg.get("widths", "n_grid"), cfg.get("fit", "window"), cfg.dense_max
    fitted = "greedy" in cfg.get("widths", "strategies") and sum(lo <= n <= hi for n in n_grid) >= 4
    p_labels = {p_label(p) for p in cfg.get("widths", "p_values")} if fitted else set()
    past = [n for n in n_grid if n > top]
    for plab, label in (("inf", "d-L2[sqrt-eigentail]"), ("2", "I-tail-lower")):
        if plab in p_labels and past:
            raise _grid_error(label, past[0], top)
    hard = not cfg.get("targets", "exploratory")
    for name, label in _TARGET_LABELS:
        if hard and cfg.get("targets", name) and label in ("I-Linf[greedy]", "gap_Linf") and "inf" not in p_labels:
            raise _fit_error(name, label)


def _on_greedy_grid(series: RateSeries, ns: np.ndarray, top: int) -> RateSeries:
    """A series of the dense range n <= `top` at the greedy indices `ns`, which `widths.n_grid` sets."""
    missing = [int(n) for n in ns if n not in series.ns]
    if missing:
        raise _grid_error(series.label, missing[0], top)
    return RateSeries(ns, np.array([series.at(int(n)) for n in ns]), series.label)


def stage_fits(call: _Call, spectrum: SpectrumEstimate, rows: list[WidthRow]) -> dict[str, SlopeReport]:
    """Every fit by its slopes.csv label, in slopes.csv order: `eigenvalues`, then the width fits by label, then the gap fits by label."""
    cfg = call.cfg
    window = cfg.get("fit", "window")
    reports: dict[str, SlopeReport] = {}
    gaps: dict[str, SlopeReport] = {}
    with _timed(call.manifest, "fits"):
        d_series = rate_series(rows, "d_L2", "d-L2[sqrt-eigentail]")
        reports["d_L2"] = fit_loglog(d_series, window=window)
        a_series = rate_series(rows, "a_L2", "a-L2[sqrt-eigentail]")
        reports["a_L2"] = fit_loglog(a_series, window=window)
        lam = spectrum.eigenvalues
        pos = lam > 0
        eig_series = RateSeries(np.arange(1, lam.size + 1)[pos], lam[pos], "eigenvalues")
        eig_report = fit_loglog(eig_series, window=window)
        interp: dict[str, RateSeries] = {}
        for strategy in cfg.get("widths", "strategies"):
            for p in cfg.get("widths", "p_values"):
                plab = p_label(p)
                label = f"I-L{plab}[{strategy}]"
                interp[label] = rate_series(rows, "I_Lp_upper", label, method=strategy, p=plab)
                try:
                    reports[label] = fit_loglog(interp[label], window=window)
                except ValueError:
                    continue
        # sup-norm gap: greedy interpolation widths over the L2 width scale
        if "I-Linf[greedy]" in reports:
            i_series = interp["I-Linf[greedy]"]
            gaps["gap_Linf"] = gap_report(i_series, _on_greedy_grid(d_series, i_series.ns, cfg.dense_max))
        # Hilbert-case gap: linear width curve over Kolmogorov width curve at p = 2
        gaps["gap_L2_linear_vs_kolmogorov"] = gap_report(a_series.window(*window), d_series.window(*window))
        # diagnostic: the greedy interpolation width in L2 against its tail floor
        if "I-L2[greedy]" in reports:
            i2 = interp["I-L2[greedy]"]
            tail_series = rate_series(rows, "I_Linf_lower_tail", "I-tail-lower")
            gaps["gap_L2_interp_vs_tail[diagnostic]"] = gap_report(i2, _on_greedy_grid(tail_series, i2.ns, cfg.dense_max))
    return {"eigenvalues": eig_report, **dict(sorted(reports.items())), **dict(sorted(gaps.items()))}


@dataclass
class TargetResult:
    name: str
    label: str  # of the fit it checks
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
    fits: dict[str, SlopeReport]  # by slopes.csv label, in slopes.csv order
    entropy_stage: EntropyStage
    width_rows: list[WidthRow]


# slope target name -> label of the fit it checks, in evaluation order
_TARGET_LABELS = (
    ("eigenvalue_slope", "eigenvalues"),
    ("d_slope", "d_L2"),
    ("i_slope", "I-Linf[greedy]"),
    ("gap_slope", "gap_Linf"),
    ("hilbert_gap_slope", "gap_L2_linear_vs_kolmogorov"),
)


def _eval_targets(call: _Call, fits: dict[str, SlopeReport]) -> list[TargetResult]:
    cfg, manifest = call.cfg, call.manifest
    miss = "exploratory-miss" if cfg.get("targets", "exploratory") else "target-miss"
    out: list[TargetResult] = []
    for name, label in _TARGET_LABELS:
        pair = cfg.get("targets", name)
        if pair is None:
            continue
        # an exploratory target is not failed on a miss, so one without its fit is skipped
        if label not in fits and miss == "exploratory-miss":
            manifest.warn(f"exploratory target targets.{name} skipped: this config does not produce its fit {label}")
            continue
        if label not in fits:
            raise _fit_error(name, label)
        expected, tol = pair
        observed = fits[label].slope
        status = "met" if abs(observed - expected) <= tol else miss
        out.append(TargetResult(name, label, observed, expected, tol, status))
    return out


def _write_width_rows(call: _Call, rows: list[WidthRow]):
    """Write width rows with the config's kernel id and seed, replacing any existing rows of the same scales.

    Single-stage commands share one widths.csv per output directory, so
    an entropy run appends its scale next to previously computed width
    scales instead of clobbering them. The rows of the other scales are
    kept only when `widths_config.txt`, which holds the hash of the config
    that wrote them, names this config; otherwise they are dropped, with a
    manifest warning.
    """
    header = "scale_id,n,kind,value,method,kernel_id,p,seed"
    kid, seed, manifest = call.cfg.kernel_id, call.cfg.get("run", "seed"), call.manifest
    txt_rows = [f"{r.scale_id},{r.n},{r.kind},{fmt(r.value)},{r.method},{kid},{r.p},{seed}" for r in rows]
    path, stamp = call.out / "widths.csv", call.out / "widths_config.txt"
    new_scales = {r.scale_id for r in rows}
    kept: list[str] = []
    if path.exists():
        for line in path.read_text().splitlines()[1:]:
            if line and line.split(",", 1)[0] not in new_scales:
                kept.append(line)
    written_by = stamp.read_text().strip() if stamp.exists() else "unknown"
    if kept and written_by != manifest.config_hash:
        manifest.warn(f"{path}: dropped {len(kept)} rows of another config (hash {written_by}, this config {manifest.config_hash})")
        kept = []
    call.csv(path.name, header, kept + txt_rows)
    call.write(stamp.name, [manifest.config_hash + "\n"])


def _write_slopes(call: _Call, fits: dict[str, SlopeReport], targets: list[TargetResult]):
    status = {t.label: t.status for t in targets}
    rows = [
        f"{lbl},{fmt(rep.slope)},{fmt(rep.stderr)},{rep.window[0]},{rep.window[1]},{status.get(lbl, 'fit')}"
        for lbl, rep in fits.items()
    ]
    call.csv("slopes.csv", "label,slope,stderr,window_lo,window_hi,status", rows)


def target_line(t: TargetResult) -> str:
    """The line of a slope target in `report.txt` and on the CLI's stdout."""
    return f"  [{t.status:>16s}] {t.name}: observed {t.observed:+.4f}, target {t.expected:+.2f} +/- {t.tolerance:.2f}"


GAP_HEADING = "gap slope target (not a certificate: its fit bounds the gap exponent from above only):"


def gap_apart(targets: list[TargetResult]) -> tuple[list[TargetResult], list[TargetResult]]:
    """The certified slope targets, and apart from them the target on the gap_Linf fit, which `report.txt` and the CLI list under GAP_HEADING.

    gap_Linf divides I_Lp_upper, an upper bound, by d_L2, which bounds
    d_n(Linf) only from below (through sqrt(mu)).
    """
    gap = [t for t in targets if t.label == "gap_Linf"]
    return [t for t in targets if t not in gap], gap


def _write_report(call: _Call, targets: list[TargetResult], verdicts: list[Verdict], entropy_stage: EntropyStage):
    cfg, manifest = call.cfg, call.manifest
    lines = []
    lines.append(f"widthlab campaign report (preset: {cfg.preset_name or 'custom'}, config {manifest.config_hash})")
    lines.append("")
    certified, gap = gap_apart(targets)
    lines.append("slope targets (numeric certificates):")
    lines += [target_line(t) for t in certified]
    notes = cfg.get("targets", "notes")
    if notes:
        lines.append(f"  premise flags: {notes}")
    if gap:
        lines.append(GAP_HEADING)
        lines += [target_line(t) for t in gap]
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
    call.write("report.txt", ["\n".join(lines) + "\n"])
    call.write("verdicts.json", [json.dumps([v.to_record() for v in verdicts], indent=2) + "\n"])


def _verdicts(call: _Call, entropy_stage: EntropyStage) -> list[Verdict]:
    alpha = call.cfg.get("targets", "alpha")
    if alpha is None:
        return []
    slope_tol = call.cfg.get("fit", "slope_tol")
    e_l2, e_linf = entropy_stage.e_l2_report, entropy_stage.e_linf_report
    return [
        rate_transfer_verdict(e_l2, e_linf, math.inf, alpha, slope_tol),
        width_gap_verdict(e_l2, e_linf, alpha, slope_tol),
    ]


def run_campaign(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> CampaignResult:
    """Run the full pipeline for one config and write all artifacts."""
    _check_fits(cfg)
    with _call(cfg, out_dir) as call:
        spectrum = stage_spectrum(call)
        width_rows = stage_widths(call, spectrum)
        entropy_stage = stage_entropy(call, spectrum)
        fits = stage_fits(call, spectrum, width_rows)
        verdicts = _verdicts(call, entropy_stage)
        targets = _eval_targets(call, fits)
        _write_width_rows(call, width_rows + entropy_stage.rows)
        _write_slopes(call, fits, targets)
        _write_report(call, targets, verdicts, entropy_stage)
        call.write("config_resolved.txt", [cfg.dump()])
    return CampaignResult(call.out, call.manifest, targets, verdicts, fits, entropy_stage, width_rows)


# lighter entry points used by the CLI subcommands ---------------------------


def run_spectrum_only(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> SpectrumEstimate:
    with _call(cfg, out_dir) as call:
        return stage_spectrum(call)


def run_widths_only(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> list[WidthRow]:
    with _call(cfg, out_dir) as call:
        rows = stage_widths(call, stage_spectrum(call))
        _write_width_rows(call, rows)
    return rows


def run_greedy_only(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> DesignSet:
    with _call(cfg, out_dir) as call:
        n_max = max(cfg.get("widths", "n_grid"))
        des = greedy_design(call.kernel, call.kernel.domain.grid(cfg.candidate_points, endpoint=True), n_max)
        _write_design(call, "greedy", n_max, des.points)
        if des.greedy_sup_path is not None:
            call.csv(f"designs/greedy_sup_{cfg.kernel_id}.csv", "step,sup_power", [f"{i},{fmt(v)}" for i, v in enumerate(des.greedy_sup_path)])
    return des


def run_entropy_only(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> EntropyStage:
    with _call(cfg, out_dir) as call:
        stage = stage_entropy(call, stage_spectrum(call))
        _write_width_rows(call, stage.rows)
    return stage
