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

from .config import PRESETS, ExperimentConfig, _validate, load_preset, parse_config
from .errors import BudgetError, ChainViolationError, ConfigError, WidthLabError
from . import runner


def _read_text(path: Path) -> str:
    """A UTF-8 file the command reads; a ConfigError naming it when it cannot be read."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _resolve_config(args) -> ExperimentConfig:
    if args.preset:
        cfg = load_preset(args.preset)
    elif args.config:
        cfg = parse_config(_read_text(Path(args.config)))
    else:
        raise ConfigError("provide --config PATH or --preset NAME")
    if args.seed is not None:
        cfg.values["run"]["seed"] = int(args.seed)
    if args.out:
        cfg.values["run"]["out_dir"] = str(args.out)
    _validate(cfg)  # the flags override validated fields, so check them like the file's
    return cfg


def _add_common(sub: argparse.ArgumentParser):
    source = sub.add_mutually_exclusive_group()
    source.add_argument("--config", help="path to a config file")
    source.add_argument("--preset", choices=sorted(PRESETS), help="built-in campaign preset")
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
            text = _read_text(report_path)
            manifest_path = Path(args.out) / "manifest.json"
            if manifest_path.exists():
                try:
                    manifest = json.loads(_read_text(manifest_path))
                    text += f"(config {manifest['config_hash']}, {len(manifest['files'])} files)\n"
                except json.JSONDecodeError as exc:
                    raise ConfigError(f"{manifest_path} is not valid JSON ({exc})") from exc
                except (KeyError, TypeError) as exc:
                    raise ConfigError(f"{manifest_path}: field config_hash or files missing or malformed ({exc!r})") from exc
            sys.stdout.write(text)
            return 0

        cfg = _resolve_config(args)
        if args.command == "spectrum":
            spectrum = runner.run_spectrum_only(cfg)
            print(f"spectrum: {spectrum.n_eigs} modes, source {spectrum.source}, lambda_1 = {spectrum.eigenvalues[0]:.6g}")
            return 0
        if args.command == "widths":
            rows = runner.run_widths_only(cfg)
            print(f"widths: {len(rows)} curve rows written")
            return 0
        if args.command == "greedy":
            des = runner.run_greedy_only(cfg)
            print(f"greedy: {des.size} points selected")
            return 0
        if args.command == "entropy":
            stage = runner.run_entropy_only(cfg)
            print(f"entropy: evidence slope {stage.e_l2_report.slope:+.4f}")
            return 0
        # argparse admits no other command: this is `campaign`
        result = runner.run_campaign(cfg)
        certified, gap = runner.gap_apart(result.targets)
        for t in certified:
            print(runner.target_line(t))
        if gap:
            print(runner.GAP_HEADING)
            for t in gap:
                print(runner.target_line(t))
        for v in result.verdicts:
            print(f"[{v.status:>20s}] {v.claim}")
        print(f"report: {result.out_dir / 'report.txt'}")
        # exploratory misses are reported, not failed; hard misses fail
        return 1 if any(t.status == "target-miss" for t in result.targets) else 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"budget exceeded: out of memory ({exc!r}); a Nystrom spectrum of n nodes holds about 3 n^2 doubles: lower quadrature.points_per_axis", file=sys.stderr)
        return 3
    except ChainViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except WidthLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
