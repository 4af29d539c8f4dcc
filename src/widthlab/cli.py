"""Command line entry points.

Subcommands: spectrum, widths, greedy, entropy, campaign, report.
Exit codes: 0 success, 1 acceptance or invariant failure, 2 configuration
error, 3 resource or budget exceeded. No environment variables are
consulted; every run is fully determined by the config and flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import PRESETS, ExperimentConfig, load_preset, parse_config
from .errors import BudgetError, ChainViolationError, ConfigError, WidthLabError
from . import runner


def _resolve_config(args) -> ExperimentConfig:
    if getattr(args, "preset", None):
        cfg = load_preset(args.preset)
    elif getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        cfg = parse_config(path.read_text())
    else:
        raise ConfigError("provide --config PATH or --preset NAME")
    if getattr(args, "seed", None) is not None:
        cfg.values["run"]["seed"] = int(args.seed)
    if getattr(args, "out", None):
        cfg.values["run"]["out_dir"] = str(args.out)
    return cfg


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--config", help="path to a config file")
    sub.add_argument("--preset", choices=sorted(PRESETS), help="built-in campaign preset")
    sub.add_argument("--out", help="output directory (overrides run.out_dir)")
    sub.add_argument("--seed", type=int, help="seed override (overrides run.seed)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="widthlab", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("spectrum", "estimate or tabulate the integral-operator eigensystem"),
        ("widths", "compute width curves (bounds, designs, interpolation values)"),
        ("greedy", "run power-function greedy selection and dump the design"),
        ("entropy", "diagonal-operator entropy brackets from the spectrum"),
        ("campaign", "full pipeline: spectrum, widths, entropy, fits, verdicts"),
        ("report", "print the report of a completed run directory"),
    ):
        sub = subs.add_parser(name, help=help_text)
        if name == "report":
            sub.add_argument("--out", required=True, help="run directory to summarize")
        else:
            _add_common(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            report_path = Path(args.out) / "report.txt"
            if not report_path.exists():
                raise ConfigError(f"no report.txt under {args.out}")
            sys.stdout.write(report_path.read_text())
            manifest_path = Path(args.out) / "manifest.json"
            if manifest_path.exists():
                manifest = json.loads(manifest_path.read_text())
                sys.stdout.write(f"(config {manifest['config_hash']}, {len(manifest['files'])} files)\n")
            return 0

        cfg = _resolve_config(args)
        if args.command == "spectrum":
            spectrum = runner.run_spectrum_only(cfg)
            print(f"spectrum: {spectrum.n_eigs} modes, source {spectrum.source}, lambda_1 = {spectrum.eigenvalues[0]:.6g}")
            return 0
        if args.command == "widths":
            stage = runner.run_widths_only(cfg)
            print(f"widths: {len(stage.rows)} curve rows written")
            return 0
        if args.command == "greedy":
            des = runner.run_greedy_only(cfg)
            print(f"greedy: {des.size} points selected")
            return 0
        if args.command == "entropy":
            stage = runner.run_entropy_only(cfg)
            print(f"entropy: evidence slope {stage.e_l2_report.slope:+.4f}")
            return 0
        if args.command == "campaign":
            result = runner.run_campaign(cfg)
            for t in result.targets:
                print(f"[{t.status:>16s}] {t.name}: observed {t.observed:+.4f} target {t.expected:+.2f} +/- {t.tolerance:.2f}")
            for v in result.verdicts:
                print(f"[{v.status:>20s}] {v.claim}")
            print(f"report: {result.out_dir / 'report.txt'}")
            # exploratory misses are reported, not failed; hard misses fail
            return 1 if any(t.status == "target-miss" for t in result.targets) else 0
        raise ConfigError(f"unknown command {args.command}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except ChainViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except WidthLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
