"""Self-test of the benchmark, at a tiny size: python3 benchmarks/selftest.py

For each workload, shrunk so that a pass takes about a second:

- make tiny goldens by the same path as `run.py --regen-goldens`;
- run a cold and a warm pass at the golden seed, a traced pair at the golden
  seed and a pair at another seed; all must pass the gate, and the traced
  passes must report every per-layer metric;
- copy each run directory, perturb one value column in the copy, and check
  that the gate rejects the copy. At the other seed a multistart value must
  be rejected when it is doubled, and when it lies above its descent bound
  but below its uniform and greedy starts; a truncated widths.csv row must
  count as a rejected pass, not end the run.

It also checks that each stored golden passes its own gate and that a
perturbed copy of it does not. Exits 0 when every check holds.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import golden_gate
from layer_trace import STAGES
from run import GOLDENS, WORK, Runner, make_goldens
from workload_pass import CALLS, DEFAULT_SEED

SCRATCH = WORK / "selftest"


def last_digit(path: Path, golden_dir: Path):
    """Change the last digit of the first value of a gated file."""
    if path.name == "verdicts.json":
        path.write_text(path.read_text().replace('"status": "', '"status": "not-', 1))
        return
    col = 3 if path.name == "widths.csv" else 1
    edit_row(path, lambda cells: cells[col][:-1] + str((int(cells[col][-1]) + 1) % 10), col=col)


def double_multistart(path: Path, golden_dir: Path):
    edit_row(path, lambda cells: repr(2 * float(cells[3])), method="multistart")


def between_bound_and_starts(path: Path, golden_dir: Path):
    """Put the first multistart value halfway between its descent bound and its best start."""
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]

    def value(cells):
        bound = golden_gate.read_bounds(golden_dir)[int(cells[1]), float(cells[6])]
        start = min(float(r[3]) for r in rows if r[4] in ("uniform", "greedy") and r[1] == cells[1] and r[6] == cells[6])
        if not bound < start:
            raise AssertionError(f"descent bound {bound!r} is not below its best start {start!r}")
        return repr((bound + start) / 2)

    edit_row(path, value, method="multistart")


def truncate_multistart(path: Path, golden_dir: Path):
    lines = path.read_text().splitlines()
    i = next(i for i, line in enumerate(lines[1:], 1) if line.split(",")[4] == "multistart")
    lines[i] = ",".join(lines[i].split(",")[:3])
    path.write_text("\n".join(lines) + "\n")


def edit_row(path: Path, new_value, col: int = 3, method: str | None = None):
    """Replace column `col` of the first data row (of `method`, if given) by new_value(cells)."""
    lines = path.read_text().splitlines()
    i = next(i for i, line in enumerate(lines[1:], 1) if method is None or line.split(",")[4] == method)
    cells = lines[i].split(",")
    cells[col] = new_value(cells)
    lines[i] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def rejects(run_dir: Path, golden_dir: Path, seed: int, name: str, edit=last_digit) -> bool:
    copy = run_dir.with_name(run_dir.name + "-perturbed")
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(run_dir, copy)
    edit(copy / name, golden_dir)
    problems = golden_gate.check(copy, golden_dir, seed)[1]
    shutil.rmtree(copy)
    return bool(problems)


def check_workload(workload: str) -> list[str]:
    base = SCRATCH / workload
    golden_dir = base / "golden"
    error = make_goldens(Runner(workload, DEFAULT_SEED, tiny=True), golden_dir, base / "scratch")
    if error:
        return [f"{workload}: making tiny goldens failed: {error}"]
    failures = []
    for seed, traced in ((DEFAULT_SEED, False), (DEFAULT_SEED, True), (DEFAULT_SEED + 1, False)):
        label = f"{workload} seed {seed}{' traced' if traced else ''}"
        out = base / f"seed{seed}{'-traced' if traced else ''}"
        for phase, (record, error) in Runner(workload, seed, tiny=True).iteration(out, golden_dir, traced).items():
            if record is None:
                failures.append(f"{label} {phase}: gate rejected a correct pass: {error}")
            elif traced:
                missing = {"runner.cache_hits", "kernels.entries", *STAGES} - set(record["layers"])
                if missing:
                    failures.append(f"{label} {phase}: per-layer metrics missing: {sorted(missing)}")
        for name in golden_gate.golden_files(golden_dir):
            if not rejects(out, golden_dir, seed, name):
                failures.append(f"{label}: perturbed {name} passed the gate")
        if "multistart" not in (out / "widths.csv").read_text():
            continue
        for edit, what in (
            (double_multistart, "doubled multistart value"),
            (between_bound_and_starts, "multistart value above its descent bound, below its starts"),
            (truncate_multistart, "truncated multistart row"),
        ):
            try:
                if not rejects(out, golden_dir, seed, "widths.csv", edit):
                    failures.append(f"{label}: {what} passed the gate")
            except Exception as exc:  # the gate must report, not raise
                failures.append(f"{label}: {what}: {type(exc).__name__}: {exc}")
    return failures


def check_stored_goldens() -> list[str]:
    failures = []
    for workload in CALLS:
        golden_dir = GOLDENS / workload
        copy = SCRATCH / f"stored-{workload}"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(golden_dir, copy)
        if golden_gate.check(copy, golden_dir, DEFAULT_SEED)[1]:
            failures.append(f"{workload}: stored golden fails its own gate")
        if not rejects(copy, golden_dir, DEFAULT_SEED, "widths.csv"):
            failures.append(f"{workload}: perturbed stored golden passed the gate")
    return failures


def main() -> int:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    failures = check_stored_goldens()
    for workload in CALLS:
        failures += check_workload(workload)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    for failure in failures:
        print(f"FAIL {failure}")
    print(f"selftest: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
