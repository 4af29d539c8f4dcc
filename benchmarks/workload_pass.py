"""One pass of a benchmark workload, in a fresh process.

    python3 benchmarks/workload_pass.py --workload bm_gap --seed 1 --out DIR [--trace]
    python3 benchmarks/workload_pass.py --workload bm_gap --seed 1 --setup-only
    python3 benchmarks/workload_pass.py --workload design_search --seed 1 --descent-bounds

A pass calls widthlab's public entry points (`runner.run_campaign`, or the
four `runner.run_*_only` functions) on one output directory, then prints one
JSON line: wall time of the calls, peak RSS of this process, manifest totals
and, with --trace, per-layer metrics. Run it with `src` on PYTHONPATH, as
benchmarks/run.py does. The exit status mirrors `widthlab campaign`: 1 when a
hard slope target is missed, else 0.

--descent-bounds prints, instead of running a pass, the bound that the golden
gate holds each multistart value to (see `descent_bounds`).
"""

from __future__ import annotations

import argparse
import configparser
import ctypes
import glob
import io
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

DEFAULT_SEED = 1234  # the presets' seed; the goldens are made at it

# 1d Matern-3/2 design search: the only workload whose time goes mostly to
# coordinate descent (many small Cholesky factorizations and triangular
# solves) on the --workers thread pool. p = inf is left out because it alone
# takes about 18 s of widths stage, which would make a pass twice as long as
# a matern2d_gap pass.
DESIGN_SEARCH = """
[kernel]
id = matern32
dim = 1

[quadrature]
points_per_axis = 2000

[spectrum]
source = nystrom

[widths]
n_grid = 4,8
p_values = 2
strategies = uniform,greedy,multistart

[run]
workers = 2
"""

CALLS = {
    "bm_gap": ("run_campaign",),
    "matern2d_gap": ("run_campaign",),
    "design_search": ("run_spectrum_only", "run_widths_only", "run_greedy_only", "run_entropy_only"),
}

# Shrinks each workload so that the self-test runs in seconds. Targets turn
# exploratory because slope targets do not hold at these sizes.
TINY = {
    "bm_gap": {
        "quadrature": {"points_per_axis": "200"},
        "spectrum": {"n_eigs": "80"},
        "widths": {"n_grid": "4,8", "eval_points_per_axis": "257", "candidate_points_per_axis": "257"},
        "targets": {"exploratory": "true"},
    },
    "matern2d_gap": {
        "quadrature": {"points_per_axis": "16"},
        "spectrum": {"n_eigs": "80"},
        "widths": {"n_grid": "4,8", "eval_points_per_axis": "33", "candidate_points_per_axis": "17"},
        "targets": {"exploratory": "true"},
    },
    "design_search": {
        "quadrature": {"points_per_axis": "200"},
        "spectrum": {"n_eigs": "80"},
        "widths": {"n_grid": "4", "eval_points_per_axis": "257", "candidate_points_per_axis": "257"},
    },
}


def config_text(workload: str, seed: int, tiny: bool = False) -> str:
    """Config of a workload: its preset (or DESIGN_SEARCH) with the seed set."""
    from widthlab.config import PRESETS

    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(PRESETS.get(workload, DESIGN_SEARCH))
    overrides = {"run": {"seed": str(seed)}}
    if tiny:
        overrides.update(TINY[workload])
    for section, values in overrides.items():
        if not parser.has_section(section):
            parser.add_section(section)
        for key, value in values.items():
            parser.set(section, key, value)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def _blas_threads() -> int | None:
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        query = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if query is not None:
            return int(query())
    return None


def environment() -> dict:
    import numpy
    import scipy
    import widthlab

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "widthlab": widthlab.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
    }


def descent_bounds(cfg) -> list[list[str]]:
    """[n, p, value] of each multistart cell: the value that coordinate descent
    reaches from the uniform and greedy starts alone.

    Those two starts do not depend on the seed, and multistart keeps the best
    refined start, so at any seed a multistart value is at most this bound.
    The arguments are the ones `runner.stage_widths` passes.
    """
    from widthlab.interpolation import optimize_interpolation_width
    from widthlab.runner import fmt, kernel_from_config, quad_from_config

    if "multistart" not in cfg.get("widths", "strategies"):
        return []
    kernel = kernel_from_config(cfg)
    quad = quad_from_config(cfg, kernel)
    eval_grid = kernel.domain.grid(cfg.eval_points, endpoint=True)
    candidates = kernel.domain.grid(cfg.candidate_points, endpoint=True)
    bounds = []
    for p in cfg.get("widths", "p_values"):
        for n in cfg.get("widths", "n_grid"):
            _, value = optimize_interpolation_width(
                kernel, quad, p, int(n), strategy="multistart", candidates=candidates, eval_grid=eval_grid, restarts=0
            )
            bounds.append([str(int(n)), "inf" if p == math.inf else f"{p:g}", fmt(value)])
    return bounds


def _file_states(out: Path) -> dict[Path, tuple[int, int]]:
    # manifest.json is left out: its length varies with the digits of its timings
    return {p: (p.stat().st_mtime_ns, p.stat().st_size) for p in out.rglob("*") if p.is_file() and p.name != "manifest.json"}


def _bytes_written(before: dict[Path, tuple[int, int]], after: dict[Path, tuple[int, int]]) -> int:
    # every artifact is rewritten whole, so a new or touched file was written in full
    return sum(state[1] for path, state in after.items() if before.get(path) != state)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(CALLS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--descent-bounds", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    from widthlab import runner
    from widthlab.config import PRESETS, parse_config

    text = config_text(args.workload, args.seed, args.tiny)
    t_parse = time.perf_counter()
    cfg = parse_config(text, preset_name=args.workload if args.workload in PRESETS else "")
    t1 = time.perf_counter()
    record: dict = {"setup_s": t1 - t0}
    if args.setup_only:
        print(json.dumps(record))
        return 0
    if args.descent_bounds:
        print(json.dumps(descent_bounds(cfg)))
        return 0

    tracer = None
    if args.trace:
        import layer_trace

        tracer = layer_trace.install()
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    wall = 0.0
    cache_hits = 0
    timings: dict[str, float] = {}
    bytes_written = 0
    status = 0
    for name in CALLS[args.workload]:
        before = _file_states(out) if tracer else {}
        t = time.perf_counter()
        result = getattr(runner, name)(cfg, out)
        wall += time.perf_counter() - t
        # each call rewrites manifest.json, so read it after every call
        manifest = json.loads((out / "manifest.json").read_text())
        cache_hits += manifest["cache_hits"]
        for stage, seconds in manifest["timings"].items():
            timings[stage] = timings.get(stage, 0.0) + seconds
        if tracer:
            bytes_written += _bytes_written(before, _file_states(out))
        if name == "run_campaign" and any(target.status == "target-miss" for target in result.targets):
            status = 1

    record.update(
        wall_s=wall,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        cache_hits=cache_hits,
        timings=timings,
        environment=environment(),
    )
    if tracer:
        record["layers"] = layer_trace.layer_metrics(
            tracer,
            wall_s=wall,
            timings=timings,
            cache_hits=cache_hits,
            bytes_written=bytes_written,
            parse_s=t1 - t_parse,
        )
    print(json.dumps(record))
    return status


if __name__ == "__main__":
    sys.exit(main())
