"""A seeded sweep of small configs through `widthlab campaign`, in process, each well under a second.

Every config must end with a documented exit code (0 done, 1 invariant
violation or target miss, 2 configuration error, 3 budget), never an
uncaught exception. A run that exits 0 leaves only `manifest.json`, the
files its manifest lists and the cache entries its `cache` records name.
The known exit-1 classes are pinned in `test_pinned_failures.py`.
"""

import json
import math
import random
from pathlib import Path

import pytest

from widthlab.cli import main
from widthlab.kernels import CATALOG_IDS, ONE_DIM_IDS

CONFIGS = 12
SEED = 22  # its draws cover every kernel and strategy, 5 configs in 2d and 5 on a box off [0, 1]


def draw(rng: random.Random) -> str:
    """One small config: a catalog kernel in 1d or 2d, a tiny grid, and for a stationary kernel maybe a box off [0, 1]."""
    kernel = rng.choice(CATALOG_IDS)
    dim = 1 if kernel in ONE_DIM_IDS else rng.choice((1, 2))
    ell = 10 ** rng.uniform(math.log10(0.05), math.log10(30))
    lines = ["[kernel]", f"id = {kernel}", f"dim = {dim}", f"length_scale = {ell:.3g}"]
    if kernel not in ONE_DIM_IDS and rng.random() < 0.5:
        lo, width = rng.choice((-1.0, -0.5, 0.5, 2.0)), rng.choice((0.5, 1.0, 3.0))
        lines.append("domain = " + ";".join([f"{lo:g},{lo + width:g}"] * dim))
    nodes = rng.choice((40, 60, 80)) if dim == 1 else rng.choice((6, 8, 10))
    n_eigs = rng.randint(10, min(40, nodes**dim))
    dense = rng.choice((8, 12, 16))
    points = (rng.choice((9, 17)), rng.choice((9, 17))) if dim == 1 else (rng.choice((3, 5)), rng.choice((3, 5)))
    p_values = rng.sample(("2", "3.5", "inf"), rng.randint(1, 2))
    strategies = rng.sample(("uniform", "greedy", "multistart"), rng.randint(1, 2))
    n_grid = rng.choice(((1, 2, 3, 4), (2, 4, 6, 8), (1, 2, 4, 8)))
    if "multistart" in strategies:  # a descent costs up to 0.5 s a cell at n = 8
        n_grid = n_grid[:2]
    lines += [
        "[quadrature]", f"points_per_axis = {nodes}",
        "[spectrum]", f"n_eigs = {n_eigs}",
        "[widths]", f"n_grid = {','.join(map(str, n_grid))}", f"dense_n_max = {dense}",
        f"p_values = {','.join(p_values)}", f"strategies = {','.join(strategies)}",
        f"eval_points_per_axis = {points[0]}", f"candidate_points_per_axis = {points[1]}",
        "[fit]", f"window = 1,{dense}",
        "[run]", f"seed = {rng.randrange(100)}",
    ]
    return "\n".join(lines) + "\n"


_rng = random.Random(SEED)
SWEEP = [draw(_rng) for _ in range(CONFIGS)]


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    """The exit code and output directory of each swept config."""
    runs = []
    for i, text in enumerate(SWEEP):
        root = tmp_path_factory.mktemp(f"sweep{i}")
        (root / "c.ini").write_text(text + f"out_dir = {root / 'out'}\n")
        runs.append((main(["campaign", "--config", str(root / "c.ini")]), root / "out"))
    return runs


@pytest.mark.parametrize("i", range(CONFIGS))
def test_documented_exit_and_every_file_accounted(outcomes, i):
    code, out = outcomes[i]
    assert code in (0, 1, 2, 3), SWEEP[i]
    if code != 0:
        return
    manifest = json.loads((out / "manifest.json").read_text())
    cached = {r["file"] for r in manifest["cache"]}
    allowed = {out / "manifest.json", *map(Path, manifest["files"])}
    allowed |= {out / "cache" / name for name in cached} | {(out / "cache" / name).with_suffix(".npy") for name in cached}
    assert {p for p in out.rglob("*") if p.is_file()} <= allowed, SWEEP[i]


def test_most_configs_run_through(outcomes):
    assert sum(code == 0 for code, _ in outcomes) >= 6
