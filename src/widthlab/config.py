"""Experiment configuration: strict flat key-value format plus presets.

The config format is INI-style sections of `key = value` lines. Unknown
sections or keys are rejected with the offending field named, so a
config file documents exactly what a run did. Presets are built-in
configs for the three standing campaigns; `--seed` and `--out` may
override their run section from the command line.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field

from .errors import ConfigError
from .kernels import CATALOG_IDS

# schema: section -> key -> (parser, default); None default means required
_SCHEMA: dict[str, dict[str, tuple]] = {
    "kernel": {
        "id": ("str", None),
        "dim": ("int", 1),
        "domain": ("box", None),  # "0,1" or "0,1;0,1"; default unit box
        "length_scale": ("float", 0.3),
    },
    "quadrature": {
        "points_per_axis": ("int", None),  # default depends on dim
    },
    "spectrum": {
        "n_eigs": ("int", 260),
        "source": ("str", "auto"),  # auto | analytic | nystrom
    },
    "widths": {
        "n_grid": ("intlist", [4, 8, 16, 32, 64]),
        "dense_n_max": ("int", 64),
        "p_values": ("plist", [2.0, math.inf]),
        "strategies": ("strlist", ["uniform", "greedy"]),
        "eval_points_per_axis": ("int", None),  # default depends on dim
        "candidate_points_per_axis": ("int", None),
    },
    "entropy": {
        "n_grid": ("intlist", [1, 2, 4, 8, 16, 32, 64]),
    },
    "fit": {
        "window": ("intpair", (4, 64)),
        "entropy_window": ("intpair", (8, 64)),
        "slope_tol": ("float", 0.1),
    },
    "targets": {
        "alpha": ("float", None),
        "eigenvalue_slope": ("floatpair", None),
        "d_slope": ("floatpair", None),
        "i_slope": ("floatpair", None),
        "gap_slope": ("floatpair", None),
        "hilbert_gap_slope": ("floatpair", None),
        "exploratory": ("bool", False),
        "notes": ("str", ""),
    },
    "run": {
        "seed": ("int", 0),
        "out_dir": ("str", "runs/out"),
        "workers": ("int", 1),  # ignored; width cells run serially
    },
}

_VALID_SOURCES = ("auto", "analytic", "nystrom")
_VALID_STRATEGIES = ("uniform", "greedy", "multistart")


def _parse_value(kind: str, raw: str, where: str):
    raw = raw.strip()
    try:
        if kind == "str":
            return raw
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if kind == "intlist":
            return [int(t) for t in raw.replace(";", ",").split(",") if t.strip()]
        if kind == "strlist":
            return [t.strip() for t in raw.split(",") if t.strip()]
        if kind == "plist":
            out = []
            for t in raw.split(","):
                t = t.strip()
                if not t:
                    continue
                out.append(math.inf if t.lower() in ("inf", "infinity") else float(t))
            return out
        if kind == "intpair":
            parts = [int(t) for t in raw.split(",")]
            if len(parts) != 2:
                raise ValueError(raw)
            return (parts[0], parts[1])
        if kind == "floatpair":
            parts = [float(t) for t in raw.split(",")]
            if len(parts) != 2:
                raise ValueError(raw)
            return (parts[0], parts[1])
        if kind == "box":
            axes = []
            for axis in raw.split(";"):
                lo, hi = (float(t) for t in axis.split(","))
                axes.append((lo, hi))
            return axes
    except ValueError as exc:
        raise ConfigError(f"cannot parse field {where} = '{raw}' as {kind}") from exc
    raise ConfigError(f"unknown schema kind '{kind}' for field {where}")


@dataclass
class ExperimentConfig:
    """Validated configuration for one run; see _SCHEMA for fields."""

    values: dict[str, dict[str, object]] = field(default_factory=dict)
    source_text: str = ""
    preset_name: str = ""

    def get(self, section: str, key: str):
        return self.values[section][key]

    # -- resolved accessors -------------------------------------------------
    @property
    def kernel_id(self) -> str:
        return str(self.get("kernel", "id"))

    @property
    def dim(self) -> int:
        return int(self.get("kernel", "dim"))

    def domain_axes(self) -> list[tuple[float, float]]:
        axes = self.get("kernel", "domain")
        if axes is None:
            return [(0.0, 1.0)] * self.dim
        return list(axes)

    @property
    def quad_points(self) -> int:
        v = self.get("quadrature", "points_per_axis")
        if v is None:
            return 2000 if self.dim == 1 else 64
        return int(v)

    @property
    def eval_points(self) -> int:
        v = self.get("widths", "eval_points_per_axis")
        if v is None:
            return 4096 if self.dim == 1 else 128
        return int(v)

    @property
    def candidate_points(self) -> int:
        v = self.get("widths", "candidate_points_per_axis")
        if v is None:
            return 4097 if self.dim == 1 else 64
        return int(v)

    def target(self, key: str):
        return self.get("targets", key)

    def config_hash(self) -> str:
        canon = []
        for section in sorted(self.values):
            for key in sorted(self.values[section]):
                canon.append(f"{section}.{key}={self.values[section][key]!r}")
        return hashlib.sha256("\n".join(canon).encode()).hexdigest()[:16]

    def dump(self) -> str:
        lines = []
        for section in self.values:
            lines.append(f"[{section}]")
            for key, val in self.values[section].items():
                if val is None:
                    continue
                if isinstance(val, (list, tuple)):
                    txt = ",".join("inf" if v == math.inf else str(v) for v in val)
                elif isinstance(val, float) and val == math.inf:
                    txt = "inf"
                else:
                    txt = str(val)
                lines.append(f"{key} = {txt}")
            lines.append("")
        return "\n".join(lines)


def parse_config(text: str, preset_name: str = "") -> ExperimentConfig:
    """Parse and validate config text against the schema."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    values: dict[str, dict[str, object]] = {s: {k: d for k, (_, d) in keys.items()} for s, keys in _SCHEMA.items()}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown config key {section}.{key}")
            kind = _SCHEMA[section][key][0]
            values[section][key] = _parse_value(kind, raw, f"{section}.{key}")

    cfg = ExperimentConfig(values=values, source_text=text, preset_name=preset_name)
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig):
    if cfg.values["kernel"]["id"] is None:
        raise ConfigError("missing required field kernel.id")
    if cfg.kernel_id not in CATALOG_IDS:
        raise ConfigError(f"unknown kernel id '{cfg.kernel_id}' (field kernel.id)")
    if cfg.dim not in (1, 2):
        raise ConfigError(f"field kernel.dim must be 1 or 2, got {cfg.dim}")
    axes = cfg.domain_axes()
    if len(axes) != cfg.dim:
        raise ConfigError("field kernel.domain does not match kernel.dim")
    if any(hi <= lo for lo, hi in axes):
        raise ConfigError(f"field kernel.domain needs lo < hi on every axis, got {axes}")
    if not cfg.get("kernel", "length_scale") > 0:
        raise ConfigError("field kernel.length_scale must be > 0")
    for name in ("quadrature.points_per_axis", "widths.eval_points_per_axis", "widths.candidate_points_per_axis"):
        v = cfg.get(*name.split("."))
        if v is not None and v < 1:
            raise ConfigError(f"field {name} must be >= 1, got {v}")
    for section in ("widths", "entropy"):
        n_grid = cfg.get(section, "n_grid")
        if any(b <= a for a, b in zip(n_grid, n_grid[1:])) or (n_grid and n_grid[0] < 1):
            raise ConfigError(f"field {section}.n_grid must be strictly increasing positive integers")
    n_max = max(cfg.get("widths", "n_grid"), default=0)
    if {"greedy", "multistart"} & set(cfg.get("widths", "strategies")) and n_max > cfg.candidate_points**cfg.dim:
        raise ConfigError(f"field widths.candidate_points_per_axis gives fewer candidates than the {n_max} points of widths.n_grid")
    for p in cfg.get("widths", "p_values"):
        if not (p == math.inf or p >= 2.0):
            raise ConfigError(f"field widths.p_values entries must be >= 2 or inf, got {p}")
    for s in cfg.get("widths", "strategies"):
        if s not in _VALID_STRATEGIES:
            raise ConfigError(f"unknown strategy '{s}' in widths.strategies")
    if cfg.get("spectrum", "source") not in _VALID_SOURCES:
        raise ConfigError(f"field spectrum.source must be one of {_VALID_SOURCES}")
    for key in ("window", "entropy_window"):
        lo, hi = cfg.get("fit", key)
        if lo < 1 or hi <= lo:
            raise ConfigError(f"field fit.{key} must be an increasing positive pair")
    lo, hi = cfg.get("fit", "window")
    top = min(cfg.get("widths", "dense_n_max"), cfg.get("spectrum", "n_eigs") - 1)
    if min(hi, top) - lo < 3:
        raise ConfigError(
            f"field fit.window keeps fewer than 4 of the indices 1..{top} set by widths.dense_n_max and spectrum.n_eigs"
        )
    lo, hi = cfg.get("fit", "entropy_window")
    if sum(lo <= n <= hi for n in cfg.get("entropy", "n_grid")) < 4:
        raise ConfigError("field fit.entropy_window keeps fewer than 4 entries of entropy.n_grid")
    if cfg.get("run", "workers") < 1:
        raise ConfigError("field run.workers must be >= 1")


# ---------------------------------------------------------------------------
# presets


_BM_GAP = """
[kernel]
id = brownian

[spectrum]
n_eigs = 260
source = analytic

[widths]
n_grid = 4,8,16,32,64
dense_n_max = 64
p_values = 2,inf
strategies = uniform,greedy

[fit]
window = 4,64
entropy_window = 8,64

[targets]
alpha = 1.0
d_slope = -1.0,0.03
i_slope = -0.5,0.07
gap_slope = 0.5,0.10
hilbert_gap_slope = 0.0,0.10

[run]
seed = 1234
out_dir = runs/bm_gap
"""

_BRIDGE_GAP = """
[kernel]
id = bridge

[spectrum]
n_eigs = 260
source = analytic

[widths]
n_grid = 4,8,16,32,64
dense_n_max = 64
p_values = 2,inf
strategies = uniform,greedy

[fit]
window = 4,64
entropy_window = 8,64

[targets]
alpha = 1.0
d_slope = -1.0,0.10
i_slope = -0.5,0.07
gap_slope = 0.5,0.10
hilbert_gap_slope = 0.0,0.10
notes = d-slope tolerance widened: the exact tail sqrt(lambda_(n+1)) = 1/(pi(n+1)) sits visibly above its n^-1 asymptote on [4,64]

[run]
seed = 1234
out_dir = runs/bridge_gap
"""

_MATERN2D_GAP = """
[kernel]
id = matern32
dim = 2
domain = 0,1;0,1
length_scale = 0.4

[quadrature]
points_per_axis = 64

[spectrum]
n_eigs = 260
source = nystrom

[widths]
n_grid = 4,8,16,32,64
dense_n_max = 64
p_values = 2,inf
strategies = uniform,greedy

[fit]
window = 8,64
entropy_window = 8,64

[targets]
alpha = 0.8
eigenvalue_slope = -2.5,0.3
d_slope = -1.25,0.15
i_slope = -0.75,0.15
gap_slope = 0.5,0.15
exploratory = true
notes = smoothness order 5/2 on a 2d box is fractional; the integer-order rate formulas are extended beyond their stated hypothesis

[run]
seed = 1234
out_dir = runs/matern2d_gap
"""

PRESETS: dict[str, str] = {
    "bm_gap": _BM_GAP,
    "bridge_gap": _BRIDGE_GAP,
    "matern2d_gap": _MATERN2D_GAP,
}


def load_preset(name: str) -> ExperimentConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset '{name}'; available: {', '.join(sorted(PRESETS))}")
    return parse_config(PRESETS[name], preset_name=name)
