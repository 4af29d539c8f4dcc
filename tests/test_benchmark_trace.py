"""The benchmark's layer tracer still sees every layer the runner uses."""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

CONFIG = """
[kernel]
id = matern32
length_scale = 0.2

[quadrature]
points_per_axis = 200

[spectrum]
n_eigs = 40
source = nystrom

[widths]
n_grid = 2,4,8,16
dense_n_max = 16
p_values = 2,inf
strategies = uniform,greedy
eval_points_per_axis = 512
candidate_points_per_axis = 513
"""

# layer_trace.install() patches widthlab for the rest of its process, so the
# pass runs in a child
TRACED_PASS = """
import json, sys
import layer_trace
from widthlab import runner
from widthlab.config import parse_config

tracer = layer_trace.install()
runner.run_widths_only(parse_config(open(sys.argv[1]).read()), sys.argv[2])
print(json.dumps(tracer.totals()[1]))
"""


def traced_counts(tmp_path, config: str) -> dict[str, int]:
    """Work counts of one traced `run_widths_only` pass of `config`."""
    (tmp_path / "c.ini").write_text(config)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "benchmarks")])}
    out = subprocess.run(
        [sys.executable, "-c", TRACED_PASS, str(tmp_path / "c.ini"), str(tmp_path / "out")],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout)


def test_traced_widths_pass_counts_every_layer(tmp_path):
    counts = traced_counts(tmp_path, CONFIG)
    for key in (
        "spectral.extend_points",
        "kernels.entries",
        "spectral.nystrom_calls",
        "widths.bounds_calls",
        "interpolation.power_points",
        "runner.spectrum_load_calls",
        "runner.spectrum_save_calls",
        "interpolation.design_calls",
        "interpolation.greedy_calls",
    ):
        assert counts.get(key, 0) > 0, key


def test_traced_multistart_pass_counts_designs(tmp_path):
    # the descent scores its trials without design or power_values, but its
    # uniform and greedy starts and its result are built by interpolation.design
    config = CONFIG.replace("n_grid = 2,4,8,16", "n_grid = 2").replace("strategies = uniform,greedy", "strategies = multistart")
    counts = traced_counts(tmp_path, config)
    assert counts.get("interpolation.design_calls", 0) > 0
    assert counts.get("kernels.entries", 0) > 0


def test_descent_bounds_pass(tmp_path):
    # the golden gate's multistart bounds come from this path of workload_pass.py
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "workload_pass.py"), "--workload", "design_search", "--seed", "1234", "--tiny", "--descent-bounds"],
        env=env,
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    assert out.returncode == 0, out.stderr
    rows = json.loads(out.stdout)
    # the tiny design_search config has one multistart cell: n = 4, p = 2
    assert [row[:2] for row in rows] == [["4", "2"]]
    for _, _, value in rows:
        assert math.isfinite(float(value)) and float(value) > 0


def test_design_search_pass_leaves_no_process(tmp_path):
    # the pass runs its multistart cell's descents on forked workers; the
    # benchmark rejects a pass that leaves a process running
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    cmd = [sys.executable, str(ROOT / "benchmarks" / "workload_pass.py"), "--workload", "design_search", "--seed", "1234", "--tiny"]
    proc = subprocess.Popen(cmd + ["--out", str(tmp_path / "out")], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmp_path, start_new_session=True)
    pgid = os.getpgid(proc.pid)
    _, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    with pytest.raises(ProcessLookupError):
        os.killpg(pgid, 0)


def test_design_search_pass_reads_every_manifest_field(tmp_path):
    # workload_pass.py sums cache_hits and the stage timings of each call's manifest.json
    spec = importlib.util.spec_from_file_location("layer_trace", ROOT / "benchmarks" / "layer_trace.py")
    layer_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layer_trace)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    cmd = [sys.executable, str(ROOT / "benchmarks" / "workload_pass.py"), "--workload", "design_search", "--seed", "1234", "--tiny"]
    records = []
    for _ in range(2):
        out = subprocess.run(cmd + ["--out", str(tmp_path / "out")], env=env, capture_output=True, text=True, cwd=tmp_path)
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        assert len(lines) == 1, out.stdout
        records.append(json.loads(lines[0]))
    # cold: the widths and entropy calls hit the spectrum entry; warm: every lookup hits,
    # the three width cells' (uniform, greedy, multistart) included
    assert [record["cache_hits"] for record in records] == [2, 7]
    # only run_campaign times the fits stage
    stages = set(layer_trace.STAGES.values()) - {"fits"}
    for record in records:
        assert stages <= set(record["timings"]), stages - set(record["timings"])
