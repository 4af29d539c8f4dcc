"""widthlab benchmark: golden-gated cold and warm pass time, peak RSS, layer timings.

    python3 benchmarks/run.py --workload bm_gap --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --regen-goldens

Run it from the root of a checkout; it imports widthlab from `src`. Each
sample is one iteration on a fresh output directory: a cold pass, then a warm
pass that finds the spectrum cache filled and widths.csv present. Every pass
runs in its own fresh process (`workload_pass.py`), because peak RSS is a
high-water mark of the process, and is gated on the golden value columns
(`golden_gate.py`) before its time counts. Iterations repeat until they have
taken --seconds (at least one); set-up samples come before and do not count.

With --trace 0 the result holds the end-to-end metrics: medians of set-up
time (import widthlab and load the config, in separate fresh processes, after
one untimed process that fills the bytecode cache), cold and warm wall time
and peak RSS. With --trace 1 each iteration runs once untraced and once
traced; the result holds the traced per-layer metrics of the cold and of the
warm pass, and the traced against the untraced times.

The last stdout line is the result as JSON; the line before it has the
details: samples, failures, and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import golden_gate
from workload_pass import CALLS, DEFAULT_SEED

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmarks"
GOLDENS = BENCH / "goldens"
WORK = BENCH / "_work"
SETUP_SAMPLES = 21
HARD_LIMIT_S = 170.0  # a run must end within 180 s
STOP_BEFORE_S = 150.0  # start no iteration expected to end after this
PHASES = ("cold", "warm")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # Bytecode goes to a cache of the benchmark's own, written whatever the
    # caller's environment says, so a stale or missing
    # src/widthlab/__pycache__ cannot change what set-up measures.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONPYCACHEPREFIX=str(WORK / "pycache"),
        # The last digits of a Nystrom spectrum depend on how many threads
        # BLAS splits its sums over, so the goldens hold for one thread
        # count only. One thread holds on any machine and is steadier on a
        # shared one.
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


class Runner:
    """Spawns pass processes within the run's time limit."""

    def __init__(self, workload: str, seed: int, tiny: bool = False):
        self.workload, self.seed, self.tiny = workload, seed, tiny
        self.started = time.monotonic()

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def child(self, *extra: str) -> tuple[dict | None, str]:
        """Run workload_pass.py; returns its record (None on failure) and the error."""
        cmd = [sys.executable, str(BENCH / "workload_pass.py"), "--workload", self.workload, "--seed", str(self.seed)]
        if self.tiny:
            cmd.append("--tiny")
        try:
            proc = subprocess.run(
                cmd + list(extra),
                cwd=ROOT,
                env=child_env(),
                capture_output=True,
                text=True,
                timeout=max(HARD_LIMIT_S - self.elapsed(), 1.0),
            )
        except subprocess.TimeoutExpired:
            return None, "timed out"
        if proc.returncode != 0:
            tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
            return None, f"exit status {proc.returncode}, expected 0: {tail}"
        return json.loads(proc.stdout.strip().splitlines()[-1]), ""

    def iteration(self, out: Path, golden_dir: Path, traced: bool = False) -> dict[str, tuple[dict | None, str]]:
        """A cold and a warm pass on a fresh `out`, each gated on the goldens."""
        shutil.rmtree(out, ignore_errors=True)
        results = {}
        reference = None
        for phase in PHASES:
            record, error = self.child("--out", str(out), *(["--trace"] if traced else []))
            if record is not None:
                reference, problems = golden_gate.check(out, golden_dir, self.seed, reference)
                if problems:
                    record, error = None, "; ".join(problems)
            results[phase] = (record, error)
        return results


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def median(values: list[float]) -> float | None:
    """None when no pass got through the gate; the result is then not correct."""
    return statistics.median(values) if values else None


def tail(values: list[float]) -> dict:
    """The highest percentile with ten samples beyond it: the median below 20 samples."""
    if len(values) < 20:
        return {"samples": len(values), "percentile": 50, "value": median(values)}
    k = len(values) - 11
    return {"samples": len(values), "percentile": round(100 * (k + 1) / len(values)), "value": sorted(values)[k]}


def measure(args) -> int:
    runner = Runner(args.workload, args.seed)
    golden_dir = GOLDENS / args.workload
    setup: list[float] = []
    if not args.trace:
        # the first, untimed, process compiles whatever the bytecode cache lacks
        for i in range(SETUP_SAMPLES + 1):
            record, error = runner.child("--setup-only")
            if record is None:
                print(f"error: set-up process failed: {error}", file=sys.stderr)
                return 1
            if i:
                setup.append(record["setup_s"])

    modes = (False, True) if args.trace else (False,)
    samples = {(traced, phase): [] for traced in modes for phase in PHASES}
    errors: list[str] = []
    attempted = 0
    k = 0
    loop_start = time.monotonic()
    while True:
        t0 = time.monotonic()
        for traced in modes:
            out = WORK / f"{args.workload}-seed{args.seed}-{k}{'-traced' if traced else ''}"
            for phase, (record, error) in runner.iteration(out, golden_dir, traced).items():
                attempted += 1
                if record is None:
                    errors.append(f"iteration {k} {phase}{' traced' if traced else ''}: {error}")
                else:
                    samples[traced, phase].append(record)
            shutil.rmtree(out, ignore_errors=True)
        k += 1
        last = time.monotonic() - t0
        if time.monotonic() - loop_start >= args.seconds or runner.elapsed() + last > STOP_BEFORE_S:
            break

    def series(traced: bool, phase: str, key: str) -> list[float]:
        return [record[key] for record in samples[traced, phase]]

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        metrics = {}
        for name in units:
            phase, layer = name.split(".", 1)
            if phase in PHASES:
                metrics[name] = median([record["layers"][layer] for record in samples[True, phase]])
        for phase in PHASES:
            untraced = median(series(False, phase, "wall_s"))
            traced = median(series(True, phase, "wall_s"))
            metrics[f"untraced.{phase}_s"] = untraced
            metrics[f"traced.{phase}_s"] = traced
            metrics[f"tracing_overhead.{phase}_s"] = None if None in (traced, untraced) else traced - untraced
    else:
        metrics = {
            "setup_s": median(setup),
            "cold_s": median(series(False, "cold", "wall_s")),
            "warm_s": median(series(False, "warm", "wall_s")),
            "cold_peak_rss_mb": median(series(False, "cold", "peak_rss_mb")),
            "warm_peak_rss_mb": median(series(False, "warm", "peak_rss_mb")),
        }
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json", file=sys.stderr)
        return 1
    values = {
        "setup_s": setup,
        **{f"{'traced.' if t else ''}{p}_s": [r["wall_s"] for r in v] for (t, p), v in samples.items()},
        **{f"{'traced.' if t else ''}{p}_peak_rss_mb": [r["peak_rss_mb"] for r in v] for (t, p), v in samples.items()},
    }
    failed = len(errors)
    environment = next((r["environment"] for group in samples.values() for r in group), {})
    environment.update(nproc=len(os.sched_getaffinity(0)), commit=git_commit())
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": round(runner.elapsed(), 3),
        "iterations": k,
        "failed_frac": failed / attempted,
        "errors": errors,
        "values": values,
        "tails": {name: tail(series) for name, series in values.items() if name.endswith("_s")},
        "environment": environment,
    }
    print(json.dumps({"detail": detail}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def regen_goldens(workloads) -> int:
    """Write the golden value files of each workload from a cold and a warm pass."""
    for workload in workloads:
        runner = Runner(workload, DEFAULT_SEED)
        status = make_goldens(runner, GOLDENS / workload, WORK / f"goldens-{workload}")
        if status:
            print(f"error: {workload}: {status}", file=sys.stderr)
            return 1
        print(f"{workload}: goldens written to {(GOLDENS / workload).relative_to(ROOT)}")
    return 0


def make_goldens(runner: Runner, golden_dir: Path, scratch: Path) -> str:
    """Run a cold and a warm pass, require equal value columns, keep the files
    and the descent bounds of the multistart rows."""
    shutil.rmtree(scratch, ignore_errors=True)
    values = []
    for _ in PHASES:
        record, error = runner.child("--out", str(scratch))
        if record is None:
            return error
        values.append(golden_gate.read_values(scratch, golden_gate.golden_files(scratch))[0])
    if values[0] != values[1]:
        return "warm pass differs from the cold pass"
    bounds, error = runner.child("--descent-bounds")
    if bounds is None:
        return error
    names = golden_gate.golden_files(scratch)
    if bounds:
        golden_gate.write_bounds(scratch, bounds)
        names.append(golden_gate.BOUNDS)
    problems = golden_gate.bound_problems(values[0]["widths.csv"], golden_gate.read_bounds(scratch))
    if problems:
        return "; ".join(problems)
    golden_dir.mkdir(parents=True, exist_ok=True)
    for name in (*golden_gate.GATED, golden_gate.BOUNDS):
        (golden_dir / name).unlink(missing_ok=True)
    for name in names:
        shutil.copyfile(scratch / name, golden_dir / name)
    shutil.rmtree(scratch, ignore_errors=True)
    return ""


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(CALLS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--regen-goldens", action="store_true", help="rewrite the golden files (of --workload, or all)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "widthlab" / "__init__.py").is_file():
        print(f"error: no widthlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.regen_goldens:
        return regen_goldens([args.workload] if args.workload else list(CALLS))
    if args.workload is None:
        ap.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
