"""Golden gate: a pass counts only if its value columns match a golden run.

The value columns are every column of widths.csv except `seed`, all of
slopes.csv and all of verdicts.json; a golden directory holds those of the
three files that its workload writes. Goldens are made at the presets' seed
by `python3 benchmarks/run.py --regen-goldens`, never by hand. That command
also stores, for a workload with multistart rows, each row's descent bound
(`multistart_bounds.csv`; see `workload_pass.descent_bounds`).

At the golden's own seed every value column must match exactly. The seed
reaches widthlab only as `run.seed`, which drives the random starts of the
multistart design search and nothing else, so at any other seed:

- every row whose method is not seed-dependent must still match exactly;
- a multistart row must keep its golden key columns, and its value must not
  exceed its stored descent bound: the value that coordinate descent reaches
  from the seed-independent uniform and greedy starts. Multistart refines
  those two starts and the seeded ones and keeps the best, so a search cut
  short or skipped shows as a value above the bound.

On top of that every warm pass must match its cold pass exactly, and every
`seed` column must hold the seed that was asked for.
"""

from __future__ import annotations

import json
from pathlib import Path

GATED = ("widths.csv", "slopes.csv", "verdicts.json")
BOUNDS = "multistart_bounds.csv"
SEEDED_METHODS = ("multistart",)
_VALUE = 3  # index of `value` in a widths.csv row once `seed` is dropped
_METHOD = 4
_P = 6


def read_values(run_dir: Path, names) -> tuple[dict, set[str]]:
    """Value columns of the named gated files in run_dir, and the seeds seen."""
    values: dict = {}
    seeds: set[str] = set()
    for name in names:
        text = (run_dir / name).read_text()
        if name == "widths.csv":
            lines = text.splitlines()
            seed_col = lines[0].split(",").index("seed")
            rows = [line.split(",") for line in lines[1:]]
            seeds |= {row[seed_col] for row in rows}
            values[name] = [row[:seed_col] + row[seed_col + 1 :] for row in rows]
        elif name == "verdicts.json":
            values[name] = json.loads(text)
        else:
            values[name] = text.splitlines()
    return values, seeds


def golden_files(golden_dir: Path) -> list[str]:
    return [name for name in GATED if (golden_dir / name).is_file()]


def read_bounds(golden_dir: Path) -> dict[tuple[int, float], float]:
    """Descent bound of each multistart (n, p) in golden_dir; empty if none are stored."""
    path = golden_dir / BOUNDS
    if not path.is_file():
        return {}
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    return {(int(n), float(p)): float(value) for n, p, value in rows}


def write_bounds(golden_dir: Path, bounds: list[list[str]]):
    (golden_dir / BOUNDS).write_text("n,p,value\n" + "".join(",".join(row) + "\n" for row in bounds))


def bound_problems(rows: list[list[str]], bounds: dict[tuple[int, float], float]) -> list[str]:
    """Multistart rows whose value exceeds their descent bound, or have none."""
    problems = []
    for row in rows:
        if row[_METHOD] not in SEEDED_METHODS:
            continue
        bound = bounds.get((int(row[1]), float(row[_P])))
        if bound is None:
            problems.append(f"widths.csv: no descent bound stored for multistart n={row[1]}, p={row[_P]}")
        elif float(row[_VALUE]) > bound:
            problems.append(f"widths.csv: multistart value {row[_VALUE]} at n={row[1]}, p={row[_P]} exceeds its descent bound {bound!r}")
    return problems


def _seeded_problems(rows: list[list[str]], golden: list[list[str]], bounds: dict) -> list[str]:
    def split(table):
        seeded = [row for row in table if row[_METHOD] in SEEDED_METHODS]
        return seeded, [row for row in table if row[_METHOD] not in SEEDED_METHODS]

    seeded, fixed = split(rows)
    golden_seeded, golden_fixed = split(golden)
    problems = []
    if fixed != golden_fixed:
        problems.append("widths.csv: seed-independent rows differ from the golden run")
    keys = [row[:_VALUE] + row[_VALUE + 1 :] for row in seeded]
    if keys != [row[:_VALUE] + row[_VALUE + 1 :] for row in golden_seeded]:
        problems.append("widths.csv: multistart rows differ from the golden run in their key columns")
        return problems
    return problems + bound_problems(seeded, bounds)


def check(run_dir: Path, golden_dir: Path, seed: int, reference: dict | None = None) -> tuple[dict | None, list[str]]:
    """Gate one pass; returns its value columns and the problems found.

    `reference` is the cold pass's value columns when checking a warm pass.
    """
    names = golden_files(golden_dir)
    golden, golden_seeds = read_values(golden_dir, names)
    try:
        values, seeds = read_values(run_dir, names)
    except (OSError, ValueError, IndexError) as exc:
        return None, [f"unreadable output: {exc}"]
    problems = []
    if seeds != {str(seed)}:
        problems.append(f"widths.csv: seed column holds {sorted(seeds)}, expected {seed}")
    for name in names:
        if name == "widths.csv" and golden_seeds != {str(seed)}:
            try:
                problems += _seeded_problems(values[name], golden[name], read_bounds(golden_dir))
            except (ValueError, IndexError) as exc:
                problems.append(f"widths.csv: malformed row: {exc}")
        elif values[name] != golden[name]:
            problems.append(f"{name}: value columns differ from the golden run")
    if reference is not None and values != reference:
        problems.append("value columns differ from the cold pass")
    return values, problems
