"""Config parsing, CLI exit codes, caching, and output determinism."""

import filecmp
import json
from pathlib import Path

import numpy as np
import pytest

import widthlab as wl
from widthlab.cli import main
from widthlab.errors import ChainViolationError, ConfigError
from widthlab.runner import run_spectrum_only


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
        cfg = wl.load_preset("bm_gap")
        again = wl.parse_config(cfg.dump())
        assert again.config_hash() == cfg.config_hash()


# each of these passed validation once and then ended in a traceback
INVALID_FIELDS = {
    "entropy.n_grid": lambda t: t + "[entropy]\nn_grid = 0,1,2,4,8\n",
    "fit.window": lambda t: t.replace("window = 2,16", "window = 100,200"),
    "fit.entropy_window": lambda t: t.replace("window = 2,16", "window = 2,16\nentropy_window = 100,200"),
    "quadrature.points_per_axis": lambda t: t.replace("points_per_axis = 400", "points_per_axis = 0"),
    "kernel.length_scale": lambda t: t.replace("id = brownian", "id = matern32\nlength_scale = 0").replace(
        "source = analytic", "source = nystrom"
    ),
    "kernel.domain": lambda t: t.replace("id = brownian", "id = brownian\ndomain = 1,0").replace(
        "source = analytic", "source = nystrom"
    ),
    "widths.candidate_points_per_axis": lambda t: t.replace("candidate_points_per_axis = 1025", "candidate_points_per_axis = 5"),
    "spectrum.n_eigs": lambda t: t.replace("n_eigs = 80", "n_eigs = 1"),
}


class TestCliExitCodes:
    @pytest.mark.parametrize("field", sorted(INVALID_FIELDS))
    def test_invalid_field_exit_2(self, tmp_path, capsys, field):
        cfgfile = tmp_path / "bad.ini"
        cfgfile.write_text(INVALID_FIELDS[field](small_config(tmp_path)))
        assert main(["campaign", "--config", str(cfgfile)]) == 2
        err = capsys.readouterr().err
        assert field in err
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


class TestSpectrumCommand:
    def test_writes_lambda1(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.ini"
        cfgfile.write_text(small_config(tmp_path))
        assert main(["spectrum", "--config", str(cfgfile)]) == 0
        csv = (tmp_path / "out" / "spectrum_brownian.csv").read_text().splitlines()
        first = float(csv[2].split(",")[1])
        assert first == pytest.approx(0.405285, abs=1e-5)

    def test_cache_hit_identical_bytes(self, tmp_path):
        # only Nystrom spectra are cached; analytic ones are recomputed
        for source, hits in (("nystrom", 1), ("analytic", 0)):
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
        # the manifest lists every artifact once; the cache is not an artifact
        listed = json.loads((out / "manifest.json").read_text())["files"]
        assert all(Path(f).exists() for f in listed)
        assert len(set(listed)) == len(listed)
        written = {
            str(p) for p in out.rglob("*") if p.is_file() and p.name != "manifest.json" and "cache" not in p.relative_to(out).parts
        }
        assert written == set(listed)
        assert main(["report", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "verdicts" in text

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
        assert [w for w in warned if "ignored" in w] == ["run.workers = 4 ignored: width cells run serially"]
        assert not any("ignored" in w for w in json.loads((tmp_path / "serial" / "manifest.json").read_text())["warnings"])

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
