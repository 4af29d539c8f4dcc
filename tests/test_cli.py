"""Config parsing, CLI exit codes, caching, and output determinism."""

import dataclasses
import errno
import filecmp
import hashlib
import importlib.util
import io
import itertools
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
import scipy

import widthlab as wl
from widthlab import interpolation, runner
from widthlab.cli import main
from widthlab.config import _validate
from widthlab.errors import ChainViolationError, ConfigError
from widthlab.runner import run_campaign, run_spectrum_only


SMALL_CONFIG = """
[kernel]
id = brownian

[quadrature]
points_per_axis = 400

[spectrum]
n_eigs = 80
source = analytic

[widths]
n_grid = 2,4,8,16
dense_n_max = 16
p_values = 2,inf
strategies = uniform,greedy
eval_points_per_axis = 1024
candidate_points_per_axis = 1025

[fit]
window = 2,16

[targets]
alpha = 1.0

[run]
seed = 11
out_dir = PLACEHOLDER
"""


def small_config(tmp_path, name="out"):
    return SMALL_CONFIG.replace("PLACEHOLDER", str(tmp_path / name))


def assert_manifest_lists_written(out: Path):
    """The manifest of `out` lists every artifact written there once; the cache is not an artifact."""
    listed = json.loads((out / "manifest.json").read_text())["files"]
    assert all(Path(f).exists() for f in listed)
    assert len(set(listed)) == len(listed)
    written = {
        str(p) for p in out.rglob("*") if p.is_file() and p.name != "manifest.json" and "cache" not in p.relative_to(out).parts
    }
    assert written == set(listed)


# a Nystrom config whose widths and entropy rows share one widths.csv
MATERN_TEXT = (
    "[kernel]\nid = matern32\nlength_scale = 0.2\n[quadrature]\npoints_per_axis = 200\n"
    "[spectrum]\nn_eigs = 40\n[widths]\nn_grid = 2,4,8,16\ndense_n_max = 16\n"
    "eval_points_per_axis = 257\ncandidate_points_per_axis = 257\n"
)


class TestConfigParsing:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="widths.colours"):
            wl.parse_config("[kernel]\nid = brownian\n[widths]\ncolours = red\n")
        with pytest.raises(ConfigError, match="fit.ratio_cap"):
            wl.parse_config("[kernel]\nid = brownian\n[fit]\nratio_cap = 32\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="plotting"):
            wl.parse_config("[kernel]\nid = brownian\n[plotting]\nstyle = x\n")

    def test_unknown_kernel_names_field(self):
        with pytest.raises(ConfigError, match="kernel.id"):
            wl.parse_config("[kernel]\nid = quartic_spline\n")

    def test_large_box_without_overflow_accepted(self):
        # 3 * 1e300 and sqrt(3e300) / 0.3 are finite: matern32 stays finite on this box
        cfg = wl.parse_config("[kernel]\nid = matern32\ndomain = 0,1e150\n")
        assert cfg.get("kernel", "domain") == [(0.0, 1e150)]

    def test_missing_kernel_id(self):
        with pytest.raises(ConfigError, match="kernel.id"):
            wl.parse_config("[run]\nseed = 3\n")

    def test_bad_value_diagnostic(self):
        with pytest.raises(ConfigError, match="run.seed"):
            wl.parse_config("[kernel]\nid = brownian\n[run]\nseed = soon\n")

    def test_decreasing_n_grid_rejected(self):
        with pytest.raises(ConfigError, match="n_grid"):
            wl.parse_config("[kernel]\nid = brownian\n[widths]\nn_grid = 8,4\n")

    def test_p_below_two_rejected(self):
        with pytest.raises(ConfigError, match="p_values"):
            wl.parse_config("[kernel]\nid = brownian\n[widths]\np_values = 1.5\n")

    def test_presets_parse(self):
        for name in wl.PRESETS:
            cfg = wl.load_preset(name)
            assert cfg.preset_name == name
            assert cfg.config_hash()

    def test_roundtrip_dump(self):
        # the dump holds every resolved value, so it parses back to the same run;
        # the last config sets no grid size and no domain
        configs = [wl.load_preset(name) for name in sorted(wl.PRESETS)] + [wl.parse_config("[kernel]\nid = matern12\ndim = 2\n")]
        for cfg in configs:
            text = cfg.dump()
            for key in ("domain", "points_per_axis", "eval_points_per_axis", "candidate_points_per_axis"):
                assert f"\n{key} = " in text, (cfg.preset_name, key)
            assert cfg.get("spectrum", "source") in ("analytic", "nystrom")
            again = wl.parse_config(text)
            assert again.values == cfg.values
            assert again.config_hash() == cfg.config_hash()
            # validation resolves once: a second pass, as after --seed or --out, changes nothing
            _validate(again)
            assert again.config_hash() == cfg.config_hash()

    @pytest.mark.parametrize(
        "explicit",
        ["[spectrum]\nsource = analytic\n", "[widths]\ncandidate_points_per_axis = 4097\n", "domain = 0,1\n"],
        ids=["auto_source", "candidate_points", "domain"],
    )
    def test_one_run_one_hash(self, explicit):
        # a default left out and the same value written out describe one run
        implicit = wl.parse_config("[kernel]\nid = brownian\n")
        assert wl.parse_config("[kernel]\nid = brownian\n" + explicit).config_hash() == implicit.config_hash()

    def test_resolved_presets_pinned(self):
        # the hash covers every resolved value, defaults included: a change to
        # any default moves one of these, and is then a deliberate edit here
        spec = importlib.util.spec_from_file_location("workload_pass", Path(__file__).resolve().parents[1] / "benchmarks" / "workload_pass.py")
        workload_pass = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workload_pass)
        hashes = {name: wl.load_preset(name).config_hash() for name in wl.PRESETS}
        hashes["design_search"] = wl.parse_config(workload_pass.config_text("design_search", workload_pass.DEFAULT_SEED)).config_hash()
        assert hashes == {
            "bm_gap": "05708395b8a7b5bc",
            "bridge_gap": "70873e83f588a592",
            "matern2d_gap": "ed406e24da44e01a",
            "design_search": "6e26b029e52983ac",
        }

    @pytest.mark.parametrize("kid", ["bridge", "brownian", "brownian_int"])
    def test_covariance_boxes(self, kid):
        # a box is refused where the kernel's diagonal is negative at a corner:
        # for these kernels, exactly off [0, 1] (bridge) or below 0
        edges = (-1.0, -0.5, 0.0, 0.3, 1.0, 1.5)
        for lo, hi in itertools.combinations(edges, 2):
            covariance = 0.0 <= lo and hi <= 1.0 if kid == "bridge" else lo >= 0.0
            text = f"[kernel]\nid = {kid}\ndomain = {lo},{hi}\n[spectrum]\nsource = nystrom\n"
            if covariance:
                wl.parse_config(text)
                continue
            with pytest.raises(ConfigError, match=rf"^field kernel.domain: kernel '{kid}' is no covariance on the box \[\({lo}, {hi}\)\]: k\(x, x\) = -"):
                wl.parse_config(text)


# each of these passed validation once and then ended in a traceback
INVALID_FIELDS = {
    "entropy.n_grid": lambda t: t + "[entropy]\nn_grid = 0,1,2,4,8\n",
    # 2^(n-1) overflows a double past n = 1024
    "entropy.n_grid=1025": lambda t: t + "[entropy]\nn_grid = 1,2,4,8,16,32,64,1025\n",
    "fit.window": lambda t: t.replace("window = 2,16", "window = 100,200"),
    "fit.entropy_window": lambda t: t.replace("window = 2,16", "window = 2,16\nentropy_window = 100,200"),
    "quadrature.points_per_axis": lambda t: t.replace("points_per_axis = 400", "points_per_axis = 0"),
    "kernel.length_scale": lambda t: t.replace("id = brownian", "id = matern32\nlength_scale = 0").replace(
        "source = analytic", "source = nystrom"
    ),
    "kernel.domain": lambda t: t.replace("id = brownian", "id = brownian\ndomain = 1,0").replace(
        "source = analytic", "source = nystrom"
    ),
    # non-finite bounds, a squared width that overflows, or kernel values
    # that overflow on the box (3 d2 for matern32, the cube of the bound
    # times the volume for brownian_int, d2 / (2 ell^2) over a vanishing
    # denominator for gaussian) used to end in a traceback from the
    # eigensolver or in exit 1
    **{
        f"kernel.domain={axis}": lambda t, axis=axis: t.replace("id = brownian", f"id = matern32\ndomain = {axis}").replace(
            "source = analytic", "source = nystrom"
        )
        for axis in ("0,inf", "0,1e160", "nan,1", "-inf,inf", "0,1e154")
    },
    "kernel.domain=brownian_int": lambda t: t.replace("id = brownian", "id = brownian_int\ndomain = 0,1e80").replace(
        "source = analytic", "source = nystrom"
    ),
    # the 1-d kernels have a negative diagonal off these boxes, and used to
    # pass validation
    **{
        f"kernel.domain={kid}:{axis}": lambda t, kid=kid, axis=axis: t.replace("id = brownian", f"id = {kid}\ndomain = {axis}").replace(
            "source = analytic", "source = nystrom"
        )
        for kid, axis in (("bridge", "0,2"), ("bridge", "-0.5,0.5"), ("brownian", "-1,1"), ("brownian_int", "-1,1"))
    },
    "kernel.length_scale=1e-170": lambda t: t.replace("id = brownian", "id = gaussian\nlength_scale = 1e-170").replace(
        "source = analytic", "source = nystrom"
    ),
    "widths.candidate_points_per_axis": lambda t: t.replace("candidate_points_per_axis = 1025", "candidate_points_per_axis = 5"),
    "spectrum.n_eigs": lambda t: t.replace("n_eigs = 80", "n_eigs = 1"),
    # repeats are compared by p label, so 2 and 2.0 collide
    "widths.p_values": lambda t: t.replace("p_values = 2,inf", "p_values = 2,inf,2.0"),
    "widths.strategies": lambda t: t.replace("strategies = uniform,greedy", "strategies = uniform,greedy,uniform"),
    "widths.n_grid": lambda t: t.replace("n_grid = 2,4,8,16", "n_grid ="),
    # the 1-d kernels used to pass validation here and end in exit 1
    "kernel.dim": lambda t: t.replace("id = brownian", "id = brownian\ndim = 2").replace("source = analytic", "source = nystrom"),
}


class TestCliExitCodes:
    @pytest.mark.parametrize("field", sorted(INVALID_FIELDS))
    def test_invalid_field_exit_2(self, tmp_path, capsys, field):
        cfgfile = tmp_path / "bad.ini"
        cfgfile.write_text(INVALID_FIELDS[field](small_config(tmp_path)))
        assert main(["campaign", "--config", str(cfgfile)]) == 2
        err = capsys.readouterr().err
        # a key "field=value" names one of several bad values of that field
        assert field.partition("=")[0] in err
        if ":" in field:  # the kernels whose diagonal is negative on the box
            assert "is no covariance on the box" in err
        assert "Traceback" not in err

    def test_greedy_candidates_exit_2(self, tmp_path, capsys):
        # `widthlab greedy` reads the candidate grid whatever widths.strategies holds; this config used to end in a ValueError
        cfgfile = tmp_path / "bad.ini"
        text = small_config(tmp_path).replace("candidate_points_per_axis = 1025", "candidate_points_per_axis = 5")
        cfgfile.write_text(text.replace("strategies = uniform,greedy", "strategies = uniform").replace("n_grid = 2,4,8,16", "n_grid = 4,8"))
        assert main(["greedy", "--config", str(cfgfile)]) == 2
        err = capsys.readouterr().err
        assert "widths.candidate_points_per_axis" in err
        assert "Traceback" not in err

    def test_unknown_kernel_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[kernel]\nid = septic_spline\n")
        code = main(["spectrum", "--config", str(bad)])
        assert code == 2
        assert "kernel.id" in capsys.readouterr().err

    def test_missing_config_exit_2(self, capsys):
        assert main(["widths", "--config", "/nonexistent.ini"]) == 2

    def test_no_config_no_preset_exit_2(self, capsys):
        assert main(["spectrum"]) == 2

    @pytest.mark.parametrize("command", ["entropy", "campaign"])
    def test_entropy_chain_violation_exit_1(self, tmp_path, monkeypatch, capsys, command):
        # an entropy upper curve that rises with n breaks the chain; the entropy
        # rows used to reach widths.csv unchecked
        bounds = runner.diag_entropy_bounds
        monkeypatch.setattr(runner, "diag_entropy_bounds", lambda op, n: dataclasses.replace(bounds(op, n), upper=n * n * bounds(op, n).upper))
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(small_config(tmp_path))
        assert main([command, "--config", str(cfgfile)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("invariant violation: scale e_diag_est, method volume+dyadic-grid[factor-6-unverified]: value rises from ")
        assert not (tmp_path / "out" / "widths.csv").exists()

    def test_chain_violation_exit_1(self, tmp_path, monkeypatch, capsys):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(small_config(tmp_path))

        def boom(*a, **kw):
            raise ChainViolationError("d_Lp_lower[n=4] = 0.5 exceeds I_Lp_upper[greedy-pinf, n=4] = 0.2")

        monkeypatch.setattr("widthlab.cli.runner.run_widths_only", boom)
        code = main(["widths", "--config", str(cfgfile)])
        assert code == 1
        assert "n=4" in capsys.readouterr().err

    def test_budget_exit_3(self, tmp_path, monkeypatch, capsys):
        from widthlab.errors import BudgetError

        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(small_config(tmp_path))
        monkeypatch.setattr(
            "widthlab.cli.runner.run_spectrum_only",
            lambda cfg, out_dir=None: (_ for _ in ()).throw(BudgetError("too big")),
        )
        assert main(["spectrum", "--config", str(cfgfile)]) == 3

    def test_out_of_memory_exit_3(self, tmp_path, monkeypatch, capsys):
        def no_memory(kernel, quad, n_eigs):
            raise MemoryError("Unable to allocate 128. GiB")

        monkeypatch.setattr(runner, "nystrom_spectrum", no_memory)
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(small_config(tmp_path).replace("source = analytic", "source = nystrom"))
        assert main(["spectrum", "--config", str(cfgfile)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("budget exceeded: out of memory (MemoryError('Unable to allocate 128. GiB'))")
        assert "quadrature.points_per_axis" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text,named", [("{not json", "not valid JSON"), ('{"config_hash": "abc"}', "files")], ids=["not_json", "no_files"]
    )
    def test_unreadable_manifest_exit_2(self, tmp_path, capsys, text, named):
        (tmp_path / "report.txt").write_text("report\n")
        (tmp_path / "manifest.json").write_text(text)
        assert main(["report", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "manifest.json" in err and named in err
        assert "Traceback" not in err

    def test_config_is_directory_exit_2(self, tmp_path, capsys):
        assert main(["spectrum", "--config", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert str(tmp_path) in err
        assert "Traceback" not in err

    def test_config_not_utf8_exit_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "latin1.ini"
        cfgfile.write_bytes(small_config(tmp_path).replace("[run]", "# r\xe9sum\xe9\n[run]").encode("latin-1"))
        assert main(["spectrum", "--config", str(cfgfile)]) == 2
        err = capsys.readouterr().err
        assert "latin1.ini" in err
        assert "Traceback" not in err

    def test_out_dir_is_file_exit_2(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(small_config(tmp_path, "taken"))
        for argv in (["spectrum", "--config", str(cfgfile)], ["widths", "--config", str(cfgfile), "--out", str(taken)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "run.out_dir" in err and str(taken) in err
            assert "Traceback" not in err

    # each ended in a raw FileExistsError or IsADirectoryError
    @pytest.mark.parametrize("blocker", ["cache", "designs", "widths.csv"])
    def test_blocked_output_path_exit_2(self, tmp_path, capsys, blocker):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(small_config(tmp_path))
        blocked = tmp_path / "out" / blocker
        blocked.parent.mkdir()
        if blocker == "widths.csv":
            blocked.mkdir()
        else:
            blocked.write_text("")
        assert main(["widths", "--config", str(cfgfile)]) == 2
        err = capsys.readouterr().err
        assert "run.out_dir" in err and str(blocked) in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_full_disk_exit_3(self, tmp_path, monkeypatch, capsys):
        def full(*args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(np, "savez", full)  # the npz of a cache entry, the only file np.savez writes
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(small_config(tmp_path))
        assert main(["widths", "--config", str(cfgfile)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"budget exceeded: field run.out_dir = {tmp_path / 'out'}: ")
        assert os.strerror(errno.ENOSPC) in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_preset_with_config_exit_2(self, tmp_path, capsys):
        # the preset used to win and the config file was ignored
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(small_config(tmp_path).replace("id = brownian", "id = bridge"))
        with pytest.raises(SystemExit) as exited:
            main(["spectrum", "--preset", "bm_gap", "--config", str(cfgfile), "--out", str(tmp_path / "preset")])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: widthlab spectrum")
        assert "argument --config: not allowed with argument --preset" in err
        assert not (tmp_path / "preset").exists() and not (tmp_path / "out").exists()

    # each passed validation and then ended in exit 1 with no field named
    @pytest.mark.parametrize(
        "text",
        ["[kernel]\nid = matern32\n[quadrature]\npoints_per_axis = 100\n", "[kernel]\nid = brownian\n[spectrum]\nn_eigs = 5000\n"],
        ids=["nystrom_nodes", "analytic_registry"],
    )
    def test_n_eigs_past_the_spectrum_exit_2(self, tmp_path, capsys, text):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(text + f"[run]\nout_dir = {tmp_path / 'out'}\n")
        assert main(["campaign", "--config", str(cfgfile)]) == 2
        err = capsys.readouterr().err
        assert "spectrum.n_eigs" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("p_values", ["2,inf", "2"])
    def test_n_grid_past_dense_range_exit_2(self, tmp_path, capsys, p_values):
        # the greedy gap fits read d_L2 (p = inf) or the tail bound (p = 2) at n = 32 > dense_n_max
        text = small_config(tmp_path)
        for old, new in (
            ("points_per_axis = 400", "points_per_axis = 200"),
            ("n_grid = 2,4,8,16", "n_grid = 4,8,16,32"),
            ("p_values = 2,inf", f"p_values = {p_values}"),
            ("eval_points_per_axis = 1024", "eval_points_per_axis = 257"),
            ("candidate_points_per_axis = 1025", "candidate_points_per_axis = 257"),
            ("window = 2,16", "window = 4,32"),
        ):
            text = text.replace(old, new)
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(text)
        assert main(["campaign", "--config", str(cfgfile)]) == 2
        err = capsys.readouterr().err
        assert "widths.n_grid" in err and "widths.dense_n_max" in err
        assert "Traceback" not in err
        assert main(["widths", "--config", str(cfgfile)]) == 0

    def test_clamped_spectrum_exit_codes(self, tmp_path, capsys):
        # 53 of the 100 Nystrom eigenvalues are positive: the Carl check reads
        # only those, and the greedy gap fit finds no positive d_L2 at n = 64
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(
            "[kernel]\nid = gaussian\nlength_scale = 1.0\n[quadrature]\npoints_per_axis = 100\n"
            "[spectrum]\nn_eigs = 100\nsource = nystrom\n"
            "[widths]\neval_points_per_axis = 257\ncandidate_points_per_axis = 257\n"
            f"[run]\nout_dir = {tmp_path / 'out'}\n"
        )
        assert main(["entropy", "--config", str(cfgfile)]) == 0
        assert main(["campaign", "--config", str(cfgfile)]) == 2
        err = capsys.readouterr().err
        assert "widths.n_grid" in err and "widths.dense_n_max" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "old,new",
        [("strategies = uniform,greedy", "strategies = uniform"), ("n_grid = 4,8,16,32,64", "n_grid = 4,8,16")],
        ids=["no_greedy", "three_greedy_n_in_window"],
    )
    def test_hard_target_without_its_fit_exit_2(self, tmp_path, capsys, old, new):
        # the bm_gap targets i_slope and gap_slope read the greedy sup-norm fit, which
        # needs 4 greedy n inside fit.window; both used to be skipped without a word
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(wl.PRESETS["bm_gap"].replace(old, new).replace("runs/bm_gap", str(tmp_path / "out")))
        assert main(["campaign", "--config", str(cfgfile)]) == 2
        err = capsys.readouterr().err
        assert "targets.i_slope" in err and "I-Linf[greedy]" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()  # the config alone decides it, so nothing is computed first

    def test_n_grid_past_n_eigs_exit_2_before_any_compute(self, tmp_path, capsys):
        # the default n_grid reaches 64 > n_eigs - 1 = 39; the config alone
        # decides that, so the campaign computes and writes nothing first
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(
            "[kernel]\nid = matern32\nlength_scale = 0.4\n[quadrature]\npoints_per_axis = 40\n"
            f"[spectrum]\nn_eigs = 40\n[widths]\nstrategies = greedy\n[run]\nout_dir = {tmp_path / 'out'}\n"
        )
        assert main(["campaign", "--config", str(cfgfile)]) == 2
        assert "field widths.n_grid reaches n = 64, but the greedy gap fits read d-L2[sqrt-eigentail]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert main(["widths", "--config", str(cfgfile)]) == 0

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_negative_seed_exit_2(self, tmp_path, capsys, where):
        # a multistart cell hands the seed to np.random.default_rng, which rejects a negative one
        text = multistart_config(tmp_path, "out")
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(text.replace("seed = 11", "seed = -1") if where == "config" else text)
        assert main(["widths", "--config", str(cfgfile)] + (["--seed", "-1"] if where == "flag" else [])) == 2
        err = capsys.readouterr().err
        assert "run.seed" in err
        assert "Traceback" not in err


class TestSpectrumCommand:
    def test_writes_lambda1(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(small_config(tmp_path))
        assert main(["spectrum", "--config", str(cfgfile)]) == 0
        csv = (tmp_path / "out" / "spectrum_brownian.csv").read_text().splitlines()
        first = float(csv[2].split(",")[1])
        assert first == pytest.approx(0.405285, abs=1e-5)

    def test_cache_hit_identical_bytes(self, tmp_path):
        # both sources are cached: the second call hits
        for source, hits in (("nystrom", 1), ("analytic", 1)):
            cfgfile = tmp_path / f"{source}.ini"
            cfgfile.write_text(small_config(tmp_path, source).replace("source = analytic", f"source = {source}"))
            out = tmp_path / source
            assert main(["spectrum", "--config", str(cfgfile)]) == 0
            names = ("spectrum_brownian.csv", "spectrum_brownian_vectors.npy")
            first = [(out / name).read_bytes() for name in names]
            assert main(["spectrum", "--config", str(cfgfile)]) == 0
            assert [(out / name).read_bytes() for name in names] == first
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["cache_hits"] == hits
            # the node values round-trip bit for bit against a fresh solve
            fresh = run_spectrum_only(wl.parse_config(cfgfile.read_text()), tmp_path / f"{source}_fresh")
            saved = np.load(out / "spectrum_brownian_vectors.npy")
            assert (saved.dtype, saved.shape) == (fresh.eigvec_node_values.dtype, fresh.eigvec_node_values.shape)
            assert saved.tobytes() == fresh.eigvec_node_values.tobytes()


def spectrum_call(tmp_path, name="out", source="nystrom"):
    """`widthlab spectrum` on brownian from `<name>.ini`; the visible node values and the manifest."""
    cfgfile = tmp_path / f"{name}.ini"
    cfgfile.write_text(small_config(tmp_path, name).replace("source = analytic", f"source = {source}"))
    assert main(["spectrum", "--config", str(cfgfile)]) == 0
    return tmp_path / name / "spectrum_brownian_vectors.npy", json.loads((tmp_path / name / "manifest.json").read_text())


class TestNodeValuesWrittenOnce:
    """A Nystrom spectrum's node values are one file in the cache; the visible `_vectors.npy` is a hard link to it."""

    def test_cold_links_warm_writes_nothing(self, tmp_path):
        visible, _ = spectrum_call(tmp_path)
        [npy] = (tmp_path / "out" / "cache").glob("*.npy")
        assert os.path.samefile(visible, npy) and visible.stat().st_nlink == 2
        before = visible.stat()
        _, manifest = spectrum_call(tmp_path)
        assert manifest["cache_hits"] == 1
        # a new link would change the inode's ctime, a write its mtime
        after = visible.stat()
        assert (after.st_ino, after.st_mtime_ns, after.st_ctime_ns) == (before.st_ino, before.st_mtime_ns, before.st_ctime_ns)
        assert list((tmp_path / "out" / "cache").glob("*.npy")) == [npy]
        # the bytes are those `np.save` writes for a fresh solve
        fresh = run_spectrum_only(wl.parse_config(small_config(tmp_path, "fresh").replace("source = analytic", "source = nystrom")))
        buf = io.BytesIO()
        np.save(buf, fresh.eigvec_node_values)
        assert visible.read_bytes() == buf.getvalue()

    def test_nothing_writes_through_the_link(self, tmp_path):
        spectrum_call(tmp_path)
        [npy] = (tmp_path / "out" / "cache").glob("*.npy")
        cached = npy.read_bytes()
        visible, _ = spectrum_call(tmp_path, source="analytic")
        assert visible.read_bytes() != cached and npy.read_bytes() == cached
        visible, manifest = spectrum_call(tmp_path)
        assert npy.read_bytes() == cached and os.path.samefile(visible, npy)
        assert manifest["cache_hits"] == 1 and manifest["warnings"] == []

    @pytest.mark.parametrize("fault", ["truncated", "flipped", "missing"])
    def test_faulty_node_values_are_a_miss(self, tmp_path, fault):
        spectrum_call(tmp_path, "fresh")
        spectrum_call(tmp_path)
        [npy] = (tmp_path / "out" / "cache").glob("*.npy")
        data = npy.read_bytes()
        if fault == "missing":
            npy.unlink()
        else:
            # an edit in place, which reaches the visible file too, through the link
            with open(npy, "r+b") as fh:
                if fault == "truncated":
                    fh.truncate(len(data) // 2)
                else:
                    fh.seek(len(data) - 3)
                    fh.write(bytes([data[-3] ^ 1]))
        visible, manifest = spectrum_call(tmp_path)
        assert [w for w in manifest["warnings"] if "unreadable" in w] == [
            f"cache entry {npy} unreadable ({'FileNotFoundError' if fault == 'missing' else 'ValueError'}): recomputed"
        ]
        assert [r["result"] for r in manifest["cache"]] == ["unreadable"]
        for name in ("spectrum_brownian.csv", "spectrum_brownian_vectors.npy"):
            assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes(), name
        assert npy.read_bytes() == data and os.path.samefile(visible, npy)
        _, manifest = spectrum_call(tmp_path)
        assert manifest["cache_hits"] == 1 and manifest["warnings"] == []

    def test_link_fallback_writes_the_file(self, tmp_path, monkeypatch):
        linked, _ = spectrum_call(tmp_path, "linked")

        def no_links(src, dst):
            raise OSError("hard links not supported")

        monkeypatch.setattr(os, "link", no_links)
        visible, _ = spectrum_call(tmp_path)
        assert visible.read_bytes() == linked.read_bytes()
        assert visible.stat().st_nlink == 1
        _, manifest = spectrum_call(tmp_path)
        assert manifest["cache_hits"] == 1 and visible.read_bytes() == linked.read_bytes()


class TestWritesReplace:
    """Cache entries and artifacts are written to a temporary file that replaces the old one; a failure leaves no temporary file."""

    def test_failed_cache_write_leaves_no_temporary(self, tmp_path, capsys):
        spectrum_call(tmp_path)
        [npz] = (tmp_path / "out" / "cache").glob("spectrum_*.npz")
        npz.unlink()
        npz.mkdir()  # the npz can no longer replace it
        assert main(["spectrum", "--config", str(tmp_path / "out.ini")]) == 2
        err = capsys.readouterr().err
        assert "run.out_dir" in err and str(npz) in err
        assert "Traceback" not in err
        assert list((tmp_path / "out" / "cache").glob("*.tmp")) == []

    def test_failed_artifact_write_keeps_the_previous_file(self, tmp_path):
        spectrum_call(tmp_path)
        csv = tmp_path / "out" / "spectrum_brownian.csv"
        before = csv.read_bytes()

        def chunks():
            yield "# partial\n"
            raise RuntimeError("failed midway")

        cfg = wl.parse_config((tmp_path / "out.ini").read_text())
        with pytest.raises(RuntimeError, match="failed midway"), runner._call(cfg, None) as call:
            call.write(csv.name, chunks())
        assert csv.read_bytes() == before
        assert list((tmp_path / "out").rglob("*.tmp")) == []

    def test_failed_manifest_write_keeps_the_previous_one(self, tmp_path, monkeypatch, capsys):
        spectrum_call(tmp_path)
        manifest = tmp_path / "out" / "manifest.json"
        before = manifest.read_bytes()

        def full_disk(obj, fh, **kwargs):
            fh.write('{\n  "config_hash": ')
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(json, "dump", full_disk)
        assert main(["spectrum", "--config", str(tmp_path / "out.ini")]) == 3
        assert "Traceback" not in capsys.readouterr().err
        assert manifest.read_bytes() == before
        assert list((tmp_path / "out").rglob("*.tmp")) == []


def spectrum_lambda1(out_dir, kernel_id="brownian"):
    return float((out_dir / f"spectrum_{kernel_id}.csv").read_text().splitlines()[2].split(",")[1])


class TestSpectrumIdentity:
    """The spectrum solved and cached is the operator on the configured box."""

    def test_auto_off_unit_interval_uses_nystrom(self, tmp_path, capsys):
        text = small_config(tmp_path).replace("id = brownian", "id = brownian\ndomain = 0,2")
        cfgfile = tmp_path / "auto.ini"
        cfgfile.write_text(text.replace("source = analytic", "source = auto"))
        assert main(["spectrum", "--config", str(cfgfile)]) == 0
        assert "source nystrom" in capsys.readouterr().out
        assert spectrum_lambda1(tmp_path / "out") == pytest.approx(1.6211410216123456, abs=1e-9)
        cfgfile = tmp_path / "analytic.ini"
        cfgfile.write_text(text)
        assert main(["spectrum", "--config", str(cfgfile)]) == 2
        assert "spectrum.source" in capsys.readouterr().err

    def test_cache_key_holds_box_position(self, tmp_path):
        text = small_config(tmp_path).replace("source = analytic", "source = nystrom").replace("n_eigs = 80", "n_eigs = 40")
        for domain in ("0,1", "1,2"):
            cfgfile = tmp_path / f"{domain}.ini"
            cfgfile.write_text(text.replace("id = brownian", f"id = brownian\ndomain = {domain}"))
            assert main(["spectrum", "--config", str(cfgfile)]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["cache_hits"] == 0
        assert spectrum_lambda1(tmp_path / "out") == pytest.approx(1.3510347878580942, abs=1e-9)

    def test_warm_run_keeps_clamp_warning(self, tmp_path):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(
            "[kernel]\nid = gaussian\nlength_scale = 1.0\n[quadrature]\npoints_per_axis = 100\n"
            f"[spectrum]\nn_eigs = 100\nsource = nystrom\n[run]\nout_dir = {tmp_path / 'out'}\n"
        )
        runs = []
        for _ in range(2):
            assert main(["spectrum", "--config", str(cfgfile)]) == 0
            runs.append(json.loads((tmp_path / "out" / "manifest.json").read_text()))
        assert [r["cache_hits"] for r in runs] == [0, 1]
        assert any("clamped" in w for w in runs[0]["warnings"])
        assert runs[1]["warnings"] == runs[0]["warnings"]


def a_lp_upper_rows(out_dir):
    return [ln for ln in (out_dir / "widths.csv").read_text().splitlines() if ln.startswith("a_Lp_upper,")]


class TestEnvelopeCache:
    """The Mercer envelope entry is reused only by a config with the same inputs."""

    def test_hit_and_key_fields(self, tmp_path):
        base = small_config(tmp_path, "shared").replace("source = analytic", "source = nystrom")
        runs = []
        for _ in range(2):
            (tmp_path / "c.ini").write_text(base)
            assert main(["widths", "--config", str(tmp_path / "c.ini")]) == 0
            manifest = json.loads((tmp_path / "shared" / "manifest.json").read_text())
            runs.append(((tmp_path / "shared" / "widths.csv").read_bytes(), manifest))
        # the second run hits the spectrum, the envelope, the greedy design and the 16 width cell entries
        assert [m["cache_hits"] for _, m in runs] == [0, 19]
        assert runs[1][0] == runs[0][0]
        assert runs[1][1]["warnings"] == runs[0][1]["warnings"]

        # each change is an envelope miss whose rows equal a fresh directory's; the
        # width cells key the evaluation points, but neither dense_max nor the spectrum,
        # and the greedy design keys neither
        variants = [
            ("eval_points", base.replace("eval_points_per_axis = 1024", "eval_points_per_axis = 513"), 2),
            ("dense_max", base.replace("dense_n_max = 16", "dense_n_max = 12"), 18),
            ("analytic", base.replace("source = nystrom", "source = analytic"), 17),
        ]
        for name, text, spectrum_hits in variants:
            (tmp_path / "c.ini").write_text(text)
            assert main(["widths", "--config", str(tmp_path / "c.ini")]) == 0
            manifest = json.loads((tmp_path / "shared" / "manifest.json").read_text())
            assert manifest["cache_hits"] == spectrum_hits, name
            (tmp_path / f"{name}.ini").write_text(text.replace(str(tmp_path / "shared"), str(tmp_path / name)))
            assert main(["widths", "--config", str(tmp_path / f"{name}.ini")]) == 0
            assert a_lp_upper_rows(tmp_path / "shared") == a_lp_upper_rows(tmp_path / name), name

    def test_analytic_key_names_no_solver(self, tmp_path):
        # the envelope is keyed by its spectrum entry's own fields, so an
        # analytic one names its source and no eigensolver
        (tmp_path / "c.ini").write_text(small_config(tmp_path))
        assert main(["widths", "--config", str(tmp_path / "c.ini")]) == 0
        records = json.loads((tmp_path / "out" / "manifest.json").read_text())["cache"]
        [envelope] = [r["key"] for r in records if r["entry"] == "envelope"]
        assert "|n_eigs=80|source=analytic|eval_points=1024|dense_max=16|" in envelope
        assert "solver=" not in envelope

    @pytest.mark.parametrize("entry,command", [("spectrum", "spectrum"), ("envelope", "widths"), ("design", "widths"), ("greedy", "greedy")])
    def test_unreadable_entry_is_a_miss(self, tmp_path, capsys, entry, command):
        outputs = ("spectrum_brownian.csv", "spectrum_brownian_vectors.npy", "widths.csv", "designs/design_brownian_greedy_n16.csv", "designs/greedy_sup_brownian.csv")
        text = small_config(tmp_path).replace("source = analytic", "source = nystrom")
        if entry == "design":
            # one multistart cell, so one design entry
            text = text.replace("n_grid = 2,4,8,16", "n_grid = 2").replace("p_values = 2,inf", "p_values = 2")
            text = text.replace("strategies = uniform,greedy", "strategies = multistart")
        (tmp_path / "c.ini").write_text(text)
        (tmp_path / "fresh.ini").write_text(text.replace(str(tmp_path / "out"), str(tmp_path / "fresh")))
        assert main([command, "--config", str(tmp_path / "fresh.ini")]) == 0
        assert main([command, "--config", str(tmp_path / "c.ini")]) == 0
        [path] = (tmp_path / "out" / "cache").glob(f"{entry}_*.npz")
        with open(path, "r+b") as fh:
            fh.truncate(100)
        assert main([command, "--config", str(tmp_path / "c.ini")]) == 0
        assert "Traceback" not in capsys.readouterr().err
        for name in outputs:
            if (tmp_path / "fresh" / name).exists():
                assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes(), name
        warned = json.loads((tmp_path / "out" / "manifest.json").read_text())["warnings"]
        assert [w for w in warned if "unreadable" in w] == [f"cache entry {path} unreadable (BadZipFile): recomputed"]
        # the entry was rewritten and is read again on the next run
        assert main([command, "--config", str(tmp_path / "c.ini")]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        # a widths run reads the spectrum, the envelope, the greedy design when a strategy
        # is greedy, and the entry of each width cell: 16 uniform and greedy cells, or one
        # multistart cell; a greedy run reads the greedy design alone
        assert manifest["cache_hits"] == {"spectrum": 1, "envelope": 19, "design": 3, "greedy": 1}[entry]
        assert not any("unreadable" in w for w in manifest["warnings"])


def multistart_config(tmp_path, name):
    """Two multistart cells, (p = 2, n = 1) and (p = inf, n = 1), on a Nystrom spectrum."""
    text = small_config(tmp_path, name).replace("source = analytic", "source = nystrom")
    for old, new in (
        ("id = brownian", "id = matern32\nlength_scale = 0.3"),
        ("points_per_axis = 400", "points_per_axis = 100"),
        ("n_eigs = 80", "n_eigs = 30"),
        ("n_grid = 2,4,8,16", "n_grid = 1"),
        ("strategies = uniform,greedy", "strategies = multistart"),
        ("eval_points_per_axis = 1024", "eval_points_per_axis = 129"),
        ("candidate_points_per_axis = 1025", "candidate_points_per_axis = 129"),
    ):
        text = text.replace(old, new)
    return text


def multistart_rows(out_dir):
    return [ln for ln in (out_dir / "widths.csv").read_text().splitlines() if ",multistart," in ln]


def run_widths(tmp_path, text):
    (tmp_path / "c.ini").write_text(text)
    assert main(["widths", "--config", str(tmp_path / "c.ini")]) == 0


class TestDesignCache:
    """A multistart cell's design entry is reused only by a config with the same inputs."""

    def test_hit_and_key_fields(self, tmp_path):
        base = multistart_config(tmp_path, "shared")
        shared = tmp_path / "shared"
        runs = []
        for _ in range(2):
            run_widths(tmp_path, base)
            runs.append(((shared / "widths.csv").read_bytes(), json.loads((shared / "manifest.json").read_text())))
        # the manifest names every lookup; the second run hits all four entries
        for (_, manifest), result in zip(runs, ("miss", "hit")):
            assert [(r["entry"], r["result"]) for r in manifest["cache"]] == [
                ("spectrum", result), ("envelope", result), ("design", result), ("design", result)
            ]
            assert all((shared / "cache" / r["file"]).exists() for r in manifest["cache"])
        assert [m["cache_hits"] for _, m in runs] == [0, 4]
        assert runs[1][0] == runs[0][0]
        assert runs[1][1]["warnings"] == runs[0][1]["warnings"]
        # cache_hits counts the hit records, and the warm manifest is the cold one but for timings and results
        for _, manifest in runs:
            assert manifest["cache_hits"] == sum(r["result"] == "hit" for r in manifest["cache"])
            del manifest["timings"], manifest["cache_hits"]
            for record in manifest["cache"]:
                del record["result"]
        assert runs[1][1] == runs[0][1]

        # each change is a design miss whose rows equal a fresh directory's
        variants = [
            ("seed", base.replace("seed = 11", "seed = 12"), 0),
            # one label, two exponents; the p = inf cell still hits
            ("p", base.replace("p_values = 2,inf", "p_values = 2.0000001,inf"), 1),
            ("n", base.replace("n_grid = 1", "n_grid = 2"), 0),
            ("candidates", base.replace("candidate_points_per_axis = 129", "candidate_points_per_axis = 65"), 0),
            ("eval_points", base.replace("eval_points_per_axis = 129", "eval_points_per_axis = 65"), 0),
            ("quadrature", base.replace("points_per_axis = 100", "points_per_axis = 90"), 0),
            ("length_scale", base.replace("length_scale = 0.3", "length_scale = 0.25"), 0),
            ("domain", base.replace("id = matern32", "id = matern32\ndomain = 0,2"), 0),
        ]
        for name, text, design_hits in variants:
            run_widths(tmp_path, text)
            lookups = json.loads((shared / "manifest.json").read_text())["cache"]
            assert sum(r["result"] == "hit" for r in lookups if r["entry"] == "design") == design_hits, name
            run_widths(tmp_path, text.replace(str(shared), str(tmp_path / name)))
            assert multistart_rows(shared) == multistart_rows(tmp_path / name), name

    def test_spectrum_and_envelope_names_unchanged(self, tmp_path):
        # the raw keys of the spectrum and envelope entries: a change to them
        # makes every entry of an existing cache/ directory miss once
        run_widths(tmp_path, multistart_config(tmp_path, "out"))
        rule = "midpoint^1x100|m=100|mass=0.99999999999999989|lo=0|hi=1"
        env = json.loads((tmp_path / "out" / "manifest.json").read_text())["environment"]
        libs = "|".join(f"{lib}(version={env[lib]['version']},blas={env[lib]['blas']},blas_version={env[lib]['blas_version']},blas_threads=1)" for lib in ("numpy", "scipy"))
        tail = f"{libs}|version={wl.__version__}"
        solver = "solver=dsytrd+dstevd+dormqr/24/192"
        raw = {
            "spectrum": f"matern32(ell=0.29999999999999999)|{rule}|n_eigs=30|{solver}|{tail}",
            "envelope": f"matern32(ell=0.29999999999999999)|{rule}|n_eigs=30|{solver}|eval_points=129|dense_max=16|{tail}",
        }
        for entry, key in raw.items():
            name = f"{entry}_{hashlib.sha256(key.encode()).hexdigest()[:20]}.npz"
            assert (tmp_path / "out" / "cache" / name).exists(), entry

    def test_spectrum_record_names_solver(self, tmp_path):
        # an entry written by another eigensolver path is not read back as this
        # one's result, and the record names the path on a hit as on a miss
        for result in ("miss", "hit"):
            run_widths(tmp_path, multistart_config(tmp_path, "out"))
            records = json.loads((tmp_path / "out" / "manifest.json").read_text())["cache"]
            spectra = [r for r in records if r["entry"] == "spectrum"]
            assert [r["result"] for r in spectra] == [result]
            assert f"|n_eigs=30|solver={wl.spectral.NYSTROM_SOLVER}|" in spectra[0]["key"]

    def test_cpus_without_affinity(self, tmp_path, monkeypatch):
        # macOS and Windows have no sched_getaffinity: the CPU count falls back to os.cpu_count()
        monkeypatch.delattr(os, "sched_getaffinity")
        run_widths(tmp_path, multistart_config(tmp_path, "out"))
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["environment"]["cpus"] == os.cpu_count()
        procs = min(4, os.cpu_count())
        assert {r["descents"] for r in manifest["cache"] if r["entry"] == "design"} == {f"{procs} processes" if procs > 1 else "serial (one CPU)"}

    @pytest.mark.parametrize("cpus,descents", [(1, "serial (one CPU)"), (2, "2 processes")])
    def test_design_record_names_descents(self, tmp_path, monkeypatch, cpus, descents):
        # the record says how the cell's descents ran, on the miss that ran
        # them and on the hit that reads them back (the tests run one thread);
        # it is what the search that ran reports, not a second guess of it
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        searched = []
        search = runner.optimize_interpolation_width

        def recording(*args, **kwargs):
            des, val = search(*args, **kwargs)
            searched.append(des.descents)
            return des, val

        monkeypatch.setattr(runner, "optimize_interpolation_width", recording)
        for result in ("miss", "hit"):
            run_widths(tmp_path, multistart_config(tmp_path, "out"))
            records = json.loads((tmp_path / "out" / "manifest.json").read_text())["cache"]
            assert [(r["result"], r["descents"]) for r in records if r["entry"] == "design"] == [(result, descents)] * 2
            assert all("descents" not in r for r in records if r["entry"] != "design")
            assert searched == [descents] * 2  # the hit runs no search

    def test_blas_threads_key_every_entry(self, tmp_path, monkeypatch):
        # the BLAS thread count moves the last bits of a spectrum, so an entry
        # written at 2 threads is a miss at 1 (the tests pin BLAS to 1 thread)
        text = multistart_config(tmp_path, "out")
        for threads, result in ((2, "miss"), (1, "miss"), (1, "hit")):
            with monkeypatch.context() as patched:
                if threads == 2:
                    patched.setattr(runner, "_blas_threads", lambda lib: 2)
                run_widths(tmp_path, text)
            manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
            env = manifest["environment"]
            assert (env["numpy"]["blas_threads"], env["scipy"]["blas_threads"]) == (threads, threads)
            assert env["threads"] >= 1
            assert [r["result"] for r in manifest["cache"]] == [result] * 4
            assert all(r["key"].count(f",blas_threads={threads})|") == 2 for r in manifest["cache"])

    @pytest.mark.parametrize("lib", [np, scipy], ids=["numpy", "scipy"])
    def test_library_version_keys_every_entry(self, tmp_path, monkeypatch, lib):
        # another numpy or scipy build may compute other bits, so an entry
        # written under another version misses and the same version hits
        text = multistart_config(tmp_path, "out")
        for version, result in ((lib.__version__, "miss"), ("0.0.0", "miss"), (lib.__version__, "hit")):
            with monkeypatch.context() as patched:
                patched.setattr(lib, "__version__", version)
                run_widths(tmp_path, text)
            manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
            assert manifest["environment"][lib.__name__]["version"] == version
            assert [r["result"] for r in manifest["cache"]] == [result] * 4
            assert all(f"{lib.__name__}(version={version},blas=" in r["key"] for r in manifest["cache"])


def campaign(tmp_path, text, name="c"):
    """`widthlab campaign` on `text`; the manifest of its output directory."""
    (tmp_path / f"{name}.ini").write_text(text)
    assert main(["campaign", "--config", str(tmp_path / f"{name}.ini")]) == 0
    out = Path(wl.parse_config(text).get("run", "out_dir"))
    return json.loads((out / "manifest.json").read_text())


def file_states(out: Path) -> dict[Path, tuple[int, int, int]]:
    return {p: (p.stat().st_ino, p.stat().st_mtime_ns, p.stat().st_size) for p in out.rglob("*") if p.is_file()}


def design_results(manifest) -> list[tuple[str, str]]:
    """(strategy, result) of each width cell lookup."""
    return [(r["key"].split("strategy=")[1].split("|")[0], r["result"]) for r in manifest["cache"] if r["entry"] == "design"]


def nystrom_three_strategies(text: str) -> str:
    """`text` on a small Nystrom spectrum, with the uniform, greedy and multistart strategies."""
    text = text.replace("source = analytic", "source = nystrom").replace("strategies = uniform,greedy", "strategies = uniform,greedy,multistart")
    for old, new in (("points_per_axis = 400", "points_per_axis = 100"), ("n_eigs = 80", "n_eigs = 40")):
        text = text.replace(old, new)
    return text.replace("eval_points_per_axis = 1024", "eval_points_per_axis = 129").replace("= 1025", "= 129")


def forbid_compute(monkeypatch):
    """Make every spectrum, envelope, design and width computation raise."""

    def forbidden(*args, **kwargs):
        raise AssertionError("recomputed on a warm run")

    for owner in (runner, interpolation):
        for name in ("interpolation_width", "greedy_design", "uniform_design", "optimize_interpolation_width"):
            monkeypatch.setattr(owner, name, forbidden)
    monkeypatch.setattr(runner, "nystrom_spectrum", forbidden)
    monkeypatch.setattr(runner, "mercer_envelope_sup2", forbidden)
    # a hit builds no design: no kernel matrix is evaluated and nothing is factored
    monkeypatch.setattr(np.linalg, "cholesky", forbidden)
    build = runner.kernel_from_config
    monkeypatch.setattr(runner, "kernel_from_config", lambda cfg: dataclasses.replace(build(cfg), pairwise=forbidden))
    lam_fn, _, trace = wl.spectral._ANALYTIC_REGISTRY["brownian"]
    monkeypatch.setitem(wl.spectral._ANALYTIC_REGISTRY, "brownian", (lam_fn, forbidden, trace))


class TestWarmCampaign:
    """A second campaign on the same inputs reads every width cell and the spectrum from the cache."""

    @pytest.mark.parametrize("source", ["analytic", "nystrom"])
    def test_warm_campaign_recomputes_nothing(self, tmp_path, monkeypatch, source):
        text = small_config(tmp_path) if source == "analytic" else nystrom_three_strategies(small_config(tmp_path))
        cold = campaign(tmp_path, text)
        before = {name: (tmp_path / "out" / name).read_bytes() for name in ("widths.csv", "slopes.csv", "report.txt", "verdicts.json")}
        forbid_compute(monkeypatch)
        warm = campaign(tmp_path, text)
        assert warm["cache_hits"] == len(warm["cache"]) == len(cold["cache"])
        assert len(design_results(warm)) == (24 if source == "nystrom" else 16)
        assert {name: (tmp_path / "out" / name).read_bytes() for name in before} == before

    def test_warm_stage_commands_compute_nothing(self, tmp_path, monkeypatch):
        # the four stage commands on one directory: a warm pass hits every lookup,
        # and each command lists the same lookups and warnings as its cold pass
        (tmp_path / "c.ini").write_text(nystrom_three_strategies(small_config(tmp_path)))
        commands = ("spectrum", "widths", "greedy", "entropy")

        def manifests() -> list[dict]:
            """The manifest of each command, run in order."""
            out = []
            for command in commands:
                assert main([command, "--config", str(tmp_path / "c.ini")]) == 0
                out.append(json.loads((tmp_path / "out" / "manifest.json").read_text()))
            return out

        cold = manifests()
        forbid_compute(monkeypatch)
        warm = manifests()
        for command, c, w in zip(commands, cold, warm):
            assert w["cache_hits"] == len(w["cache"]), command
            assert [(r["entry"], r["file"]) for r in w["cache"]] == [(r["entry"], r["file"]) for r in c["cache"]], command
            assert w["warnings"] == c["warnings"], command
        assert [r["entry"] for r in warm[2]["cache"]] == ["greedy"]
        assert [r["entry"] for r in warm[1]["cache"]].count("greedy") == 1

    def test_entry_of_the_earlier_format_misses(self, tmp_path):
        # a design entry that holds points and value but no jitter sat at the key
        # without `arrays=`: it is never read, so every cell misses without a warning
        cold = campaign(tmp_path, small_config(tmp_path))
        stale = tmp_path / "stale" / "cache"
        stale.mkdir(parents=True)
        for record in cold["cache"]:
            if record["entry"] == "design":
                key = re.sub(r"\|arrays=[^|]*", "", record["key"])
                np.savez(stale / f"design_{hashlib.sha256(key.encode()).hexdigest()[:20]}.npz", points=np.zeros((1, 1)), value=1.0)
        warm = campaign(tmp_path, small_config(tmp_path, "stale"), "stale")
        assert {result for _, result in design_results(warm)} == {"miss"}
        assert warm["warnings"] == cold["warnings"]
        assert (tmp_path / "stale" / "widths.csv").read_bytes() == (tmp_path / "out" / "widths.csv").read_bytes()

    def test_fit_and_target_edits_hit_every_cell(self, tmp_path):
        campaign(tmp_path, small_config(tmp_path))
        edited = small_config(tmp_path).replace("window = 2,16", "window = 4,16").replace("alpha = 1.0", "alpha = 0.9")
        assert set(design_results(campaign(tmp_path, edited))) == {("greedy", "hit"), ("uniform", "hit")}
        # a greedy cell's design is the n-point greedy design whatever max(n_grid) is,
        # so a longer grid misses only its new cells, as a uniform one does
        raised = small_config(tmp_path).replace("n_grid = 2,4,8,16", "n_grid = 2,4,8,16,32").replace("dense_n_max = 16", "dense_n_max = 32")
        lookups = design_results(campaign(tmp_path, raised))
        assert [result for strategy, result in lookups if strategy == "greedy"] == (["hit"] * 4 + ["miss"]) * 2
        assert [result for strategy, result in lookups if strategy == "uniform"] == (["hit"] * 4 + ["miss"]) * 2
        campaign(tmp_path, raised.replace(str(tmp_path / "out"), str(tmp_path / "fresh")), "fresh")
        for name in ("widths.csv", "slopes.csv"):
            assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes(), name

    def test_longer_greedy_grid_hits_the_shorter_ones_cells(self, tmp_path):
        # the greedy entry is keyed by max(n_grid) and misses, but the cells at
        # n = 1, 2 and 4 hit, and the rows equal those of a fresh directory
        text = (
            "[kernel]\nid = brownian\n[quadrature]\npoints_per_axis = 200\n[spectrum]\nn_eigs = 20\nsource = analytic\n"
            "[widths]\nn_grid = 1,2,4\ndense_n_max = 8\np_values = inf\nstrategies = greedy\neval_points_per_axis = 129\n"
            f"candidate_points_per_axis = 129\n[fit]\nwindow = 1,8\n[run]\nout_dir = {tmp_path / 'out'}\n"
        )
        longer = text.replace("n_grid = 1,2,4", "n_grid = 1,2,4,8")
        for name, config in (("short", text), ("long", longer), ("fresh", longer.replace(str(tmp_path / "out"), str(tmp_path / "fresh")))):
            (tmp_path / f"{name}.ini").write_text(config)
            assert main(["widths", "--config", str(tmp_path / f"{name}.ini")]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert [(r["entry"], r["result"]) for r in manifest["cache"] if r["entry"] in ("greedy", "design")] == [
            ("greedy", "miss"), ("design", "hit"), ("design", "hit"), ("design", "hit"), ("design", "miss")
        ]
        assert (tmp_path / "out" / "widths.csv").read_bytes() == (tmp_path / "fresh" / "widths.csv").read_bytes()

    def test_warm_analytic_campaign_writes_little(self, tmp_path):
        # the cold pass writes the node values once; the warm one rewrites only the small artifacts
        out = tmp_path / "bm_gap"
        run_campaign(wl.load_preset("bm_gap"), out)
        before = file_states(out)
        run_campaign(wl.load_preset("bm_gap"), out)
        written = sum(state[2] for path, state in file_states(out).items() if before.get(path) != state)
        assert written < 100_000

    def test_warm_warnings_match_cold(self, tmp_path):
        # bridge uniform designs hold the boundary point where the kernel vanishes:
        # a hit reads the jitter from its entry and warns of it as the miss did
        text = small_config(tmp_path).replace("id = brownian", "id = bridge")
        cold, warm = campaign(tmp_path, text), campaign(tmp_path, text)
        assert warm["cache_hits"] == len(warm["cache"])
        assert any("jitter" in w for w in cold["warnings"])
        assert warm["warnings"] == cold["warnings"]
        report = (tmp_path / "out" / "report.txt").read_text()
        assert all(w in report for w in warm["warnings"])

    def test_short_greedy_design_warns(self, tmp_path, capsys):
        # the bridge kernel vanishes at both ends of [0, 1], so on 5 candidates
        # greedy runs out after 0.5, 0.25 and 0.75: the n = 4 design holds 3 points
        (tmp_path / "c.ini").write_text(
            "[kernel]\nid = bridge\n[quadrature]\npoints_per_axis = 70\n[spectrum]\nn_eigs = 10\nsource = nystrom\n"
            "[widths]\nn_grid = 1,2,3,4\ndense_n_max = 9\np_values = 2\nstrategies = greedy\neval_points_per_axis = 5\n"
            f"candidate_points_per_axis = 5\n[fit]\nwindow = 1,9\n[run]\nout_dir = {tmp_path / 'out'}\n"
        )
        short = "design (greedy, n=4) holds 3 points: greedy stops once the power function vanishes at every candidate"
        for result in ("miss", "hit"):
            assert main(["widths", "--config", str(tmp_path / "c.ini")]) == 0
            manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
            assert {r for _, r in design_results(manifest)} == {result}
            assert manifest["warnings"] == [short]
        assert (tmp_path / "out" / "designs" / "design_bridge_greedy_n4.csv").read_text() == "x1\n0.5\n0.25\n0.75\n"
        # `widthlab greedy` writes the same design from the same entry, and warns alike, cold and warm
        capsys.readouterr()
        for result in ("miss", "hit"):
            assert main(["greedy", "--config", str(tmp_path / "c.ini"), "--out", str(tmp_path / "greedy")]) == 0
            assert capsys.readouterr().out == "greedy: 3 points selected\n"
            manifest = json.loads((tmp_path / "greedy" / "manifest.json").read_text())
            assert [(r["entry"], r["result"]) for r in manifest["cache"]] == [("greedy", result)]
            assert manifest["warnings"] == [short]
        assert (tmp_path / "greedy" / "designs" / "design_bridge_greedy_n4.csv").read_text() == "x1\n0.5\n0.25\n0.75\n"


class TestWidthsCommand:
    def test_rows_and_boundary_conventions(self, tmp_path):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(small_config(tmp_path))
        assert main(["widths", "--config", str(cfgfile)]) == 0
        lines = (tmp_path / "out" / "widths.csv").read_text().splitlines()
        assert lines[0] == "scale_id,n,kind,value,method,kernel_id,p,seed"
        rows = [ln.split(",") for ln in lines[1:]]
        by_scale_n = {(r[0], int(r[1])): r for r in rows}
        assert ("d_L2", 0) in by_scale_n
        assert ("I_Lp_upper", 0) in by_scale_n
        # d lower at n=4 for the sup norm: sqrt(lambda_5) = 2/(9 pi)
        d4 = [r for r in rows if r[0] == "d_Lp_lower" and r[1] == "4"]
        assert float(d4[0][3]) == pytest.approx(0.0707355302630646, abs=1e-12)
        # sup-width at the uniform 4-point grid and its trace-tail counterpart
        i4 = [r for r in rows if r[0] == "I_Lp_upper" and r[1] == "4" and r[4] == "uniform" and r[6] == "inf"]
        assert float(i4[0][3]) == pytest.approx(0.25, abs=1e-4)
        t4 = [r for r in rows if r[0] == "I_Linf_lower_tail" and r[1] == "4"]
        assert float(t4[0][3]) == pytest.approx(0.15874861209306645, abs=1e-9)

    def test_manifest_warnings_track_jitter(self, tmp_path):
        # bridge uniform designs include the boundary point where the kernel
        # vanishes; the applied ridge must be visible in the manifest
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(small_config(tmp_path).replace("id = brownian", "id = bridge"))
        assert main(["widths", "--config", str(cfgfile)]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert any("jitter" in w for w in manifest["warnings"])


class TestCampaignCommand:
    def test_small_campaign_and_report(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(small_config(tmp_path))
        assert main(["campaign", "--config", str(cfgfile)]) == 0
        out = tmp_path / "out"
        for f in ("widths.csv", "slopes.csv", "report.txt", "verdicts.json", "manifest.json"):
            assert (out / f).exists(), f
        assert_manifest_lists_written(out)
        assert main(["report", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "verdicts" in text

    @pytest.mark.parametrize("source", ["analytic", "nystrom"])
    @pytest.mark.parametrize("command", ["spectrum", "widths", "greedy", "entropy"])
    def test_stage_command_manifest_lists_written(self, tmp_path, command, source):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(small_config(tmp_path) if source == "analytic" else MATERN_TEXT)
        assert main([command, "--config", str(cfgfile), "--out", str(tmp_path / "out")]) == 0
        assert_manifest_lists_written(tmp_path / "out")

    def test_gap_target_printed_apart(self, tmp_path, capsys):
        # the gap target is no certificate: stdout lists it after the certified
        # targets, under the heading report.txt uses
        text = small_config(tmp_path).replace("alpha = 1.0", "alpha = 1.0\ngap_slope = 0.5,5.0\nd_slope = -1.0,5.0")
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(text)
        assert main(["campaign", "--config", str(cfgfile)]) == 0
        lines = capsys.readouterr().out.splitlines()
        certified = next(i for i, ln in enumerate(lines) if "] d_slope:" in ln)
        gap = next(i for i, ln in enumerate(lines) if "] gap_slope:" in ln)
        assert certified < lines.index(runner.GAP_HEADING) == gap - 1
        report = (tmp_path / "out" / "report.txt").read_text().splitlines()
        assert runner.GAP_HEADING in report
        # one formatter prints each target line, on stdout as in report.txt
        assert [lines[certified], lines[gap]] == [ln for ln in report if ": observed " in ln]

    def test_hard_target_miss_exits_1(self, tmp_path, capsys):
        text = small_config(tmp_path).replace("alpha = 1.0", "alpha = 1.0\nd_slope = -5.0,0.01")
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(text)
        assert main(["campaign", "--config", str(cfgfile)]) == 1
        assert "target-miss" in capsys.readouterr().out

    def test_exploratory_miss_exits_0(self, tmp_path):
        text = small_config(tmp_path).replace(
            "alpha = 1.0", "alpha = 1.0\nd_slope = -5.0,0.01\nexploratory = true"
        )
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(text)
        assert main(["campaign", "--config", str(cfgfile)]) == 0

    def test_determinism_across_directories(self, tmp_path):
        for name in ("r1", "r2"):
            cfgfile = tmp_path / f"{name}.ini"
            cfgfile.write_text(small_config(tmp_path, name))
            assert main(["campaign", "--config", str(cfgfile)]) == 0
        for f in ("widths.csv", "slopes.csv", "spectrum_brownian.csv"):
            assert filecmp.cmp(tmp_path / "r1" / f, tmp_path / "r2" / f, shallow=False), f

    def test_worker_pool_output_identical(self, tmp_path):
        # run.workers is accepted but ignored, and the manifest says so
        base = small_config(tmp_path, "serial")
        (tmp_path / "serial.ini").write_text(base)
        parallel = small_config(tmp_path, "parallel") + "workers = 4\n"
        (tmp_path / "parallel.ini").write_text(parallel)
        assert main(["widths", "--config", str(tmp_path / "serial.ini")]) == 0
        assert main(["widths", "--config", str(tmp_path / "parallel.ini")]) == 0
        a = (tmp_path / "serial" / "widths.csv").read_bytes()
        b = (tmp_path / "parallel" / "widths.csv").read_bytes()
        assert a == b
        warned = json.loads((tmp_path / "parallel" / "manifest.json").read_text())["warnings"]
        assert [w for w in warned if "ignored" in w] == ["run.workers = 4 ignored: a multistart cell runs its descents on up to one process per CPU"]
        assert not any("ignored" in w for w in json.loads((tmp_path / "serial" / "manifest.json").read_text())["warnings"])

    def test_widths_csv_row_order(self, tmp_path):
        # p and the strategies out of order, so the cells' (strategy, p label, n) sort shows
        text = small_config(tmp_path).replace("p_values = 2,inf", "p_values = inf,2")
        run_campaign(wl.parse_config(text))
        rows = [ln.split(",") for ln in (tmp_path / "out" / "widths.csv").read_text().splitlines()[1:]]
        dense, method = range(0, 17), "eigen-analytic"
        expected = []
        for n in dense:
            expected += [("d_L2", n, "exact", method, "2"), ("a_L2", n, "exact", method, "2")]
            expected += [("d_Lp_lower", n, "lower", method, "inf"), ("I_Linf_lower_tail", n, "lower", "trace-tail", "inf")]
        expected += [("a_Lp_upper", n, "upper", "mercer-projection", "inf") for n in dense]
        expected += [("I_Lp_upper", 0, "upper", "empty", p) for p in ("inf", "2")]
        expected += [("I_Lp_upper", n, "upper", s, p) for s in ("greedy", "uniform") for p in ("2", "inf") for n in (2, 4, 8, 16)]
        entropy_method = "volume+dyadic-grid[factor-6-unverified]"
        expected += [("e_diag_est", n, k, entropy_method, "2") for n in (1, 2, 4, 8, 16, 32, 64) for k in ("lower", "upper")]
        assert [(r[0], int(r[1]), r[2], r[4], r[6]) for r in rows] == expected

    def test_seed_override_changes_hash(self, tmp_path):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(small_config(tmp_path))
        cfg1 = wl.parse_config(cfgfile.read_text())
        cfg2 = wl.parse_config(cfgfile.read_text())
        cfg2.values["run"]["seed"] = 999
        assert cfg1.config_hash() != cfg2.config_hash()


class TestGreedyAndEntropyCommands:
    def test_greedy_dumps_design_and_decay(self, tmp_path):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(small_config(tmp_path))
        assert main(["greedy", "--config", str(cfgfile)]) == 0
        design = (tmp_path / "out" / "designs" / "design_brownian_greedy_n16.csv").read_text().splitlines()
        assert len(design) == 17
        assert float(design[1]) == pytest.approx(1.0, abs=1e-12)
        sup = (tmp_path / "out" / "designs" / "greedy_sup_brownian.csv").read_text().splitlines()
        vals = [float(ln.split(",")[1]) for ln in sup[1:]]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_entropy_command(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(small_config(tmp_path))
        assert main(["entropy", "--config", str(cfgfile)]) == 0
        lines = (tmp_path / "out" / "widths.csv").read_text().splitlines()
        assert any(ln.startswith("e_diag_est") for ln in lines[1:])

    def test_stage_commands_share_curve_csv(self, tmp_path):
        # entropy after widths must add its scale, not clobber the others
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(small_config(tmp_path))
        assert main(["widths", "--config", str(cfgfile)]) == 0
        assert main(["entropy", "--config", str(cfgfile)]) == 0
        scales = {ln.split(",")[0] for ln in (tmp_path / "out" / "widths.csv").read_text().splitlines()[1:]}
        assert {"I_Lp_upper", "d_L2", "e_diag_est"} <= scales

    def test_other_configs_rows_dropped(self, tmp_path):
        # entropy of one length scale after widths of another: the width rows
        # used to be kept beside the new entropy rows, all labelled alike
        text = MATERN_TEXT + f"[run]\nout_dir = {tmp_path / 'out'}\n"
        first, second = tmp_path / "first.ini", tmp_path / "second.ini"
        first.write_text(text)
        second.write_text(text.replace("length_scale = 0.2", "length_scale = 0.5"))
        assert main(["widths", "--config", str(first)]) == 0
        n_first = len((tmp_path / "out" / "widths.csv").read_text().splitlines()) - 1
        assert main(["entropy", "--config", str(second)]) == 0
        rows = (tmp_path / "out" / "widths.csv").read_text().splitlines()[1:]
        assert rows and {ln.split(",")[0] for ln in rows} == {"e_diag_est"}
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        stamp = tmp_path / "out" / "widths_config.txt"
        assert stamp.read_text() == manifest["config_hash"] + "\n"
        assert str(stamp) in manifest["files"]
        first_hash = wl.parse_config(first.read_text()).config_hash()
        assert [w for w in manifest["warnings"] if "dropped" in w] == [
            f"{tmp_path / 'out' / 'widths.csv'}: dropped {n_first} rows of another config "
            f"(hash {first_hash}, this config {manifest['config_hash']})"
        ]


    @pytest.mark.parametrize("second", ["fo/out/", "{abs}"], ids=["trailing_slash", "absolute"])
    def test_one_directory_two_spellings(self, tmp_path, monkeypatch, second):
        # the hash leaves out run.out_dir, so the rows of one config sent to one
        # directory under two spellings are all kept
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.ini").write_text(MATERN_TEXT)
        assert main(["widths", "--config", "c.ini", "--out", "fo/out"]) == 0
        n_widths = len((tmp_path / "fo" / "out" / "widths.csv").read_text().splitlines()) - 1
        assert main(["entropy", "--config", "c.ini", "--out", second.format(abs=tmp_path / "fo" / "out")]) == 0
        rows = (tmp_path / "fo" / "out" / "widths.csv").read_text().splitlines()[1:]
        n_entropy = sum(ln.startswith("e_diag_est,") for ln in rows)
        assert (n_widths, n_entropy, len(rows)) == (103, 14, 117)
        manifest = json.loads((tmp_path / "fo" / "out" / "manifest.json").read_text())
        assert not [w for w in manifest["warnings"] if "dropped" in w]

    def test_hash_leaves_out_where_results_go(self):
        cfg = wl.parse_config(MATERN_TEXT)
        for key, value in (("out_dir", "elsewhere/"), ("workers", 4)):
            other = wl.parse_config(MATERN_TEXT)
            other.values["run"][key] = value
            assert other.config_hash() == cfg.config_hash(), key


def test_exploratory_target_without_its_fit_warns(tmp_path):
    # two greedy n give no greedy sup-norm fit, so i_slope and gap_slope cannot be checked
    text = wl.PRESETS["bm_gap"].replace("runs/bm_gap", str(tmp_path / "out")).replace("n_grid = 4,8,16,32,64", "n_grid = 4,8")
    text = text.replace("[targets]", "[targets]\nexploratory = true")
    text = text.replace("strategies = uniform,greedy", "strategies = uniform,greedy\neval_points_per_axis = 257\ncandidate_points_per_axis = 257")
    text += "[quadrature]\npoints_per_axis = 200\n"
    cfgfile = tmp_path / "c.ini"
    cfgfile.write_text(text)
    assert main(["campaign", "--config", str(cfgfile)]) == 0
    warned = json.loads((tmp_path / "out" / "manifest.json").read_text())["warnings"]
    assert [w for w in warned if "exploratory" in w] == [
        "exploratory target targets.i_slope skipped: this config does not produce its fit I-Linf[greedy]",
        "exploratory target targets.gap_slope skipped: this config does not produce its fit gap_Linf",
    ]
    assert "targets.i_slope skipped" in (tmp_path / "out" / "report.txt").read_text()
