"""Experiment configuration: strict flat key-value format plus presets.

The config format is INI-style sections of `key = value` lines. Unknown
sections or keys are rejected with the offending field named, so a
config file documents exactly what a run did. Presets are built-in
configs for the three standing campaigns; `--seed` and `--out` may
override their run section from the command line.
"""

from __future__ import annotations

import configparser
import functools
import hashlib
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .entropy import MAX_ENTROPY_INDEX
from .kernels import CATALOG_IDS, ONE_DIM_IDS, Kernel, make_kernel
from .quadrature import DEFAULT_POINTS, Box
from .spectral import ANALYTIC_MAX_TERMS, has_analytic_spectrum

# schema: section -> key -> (parser, default). kernel.id is required; a None
# grid size or box is filled per kernel.dim by _validate; a None target is unset.
_SCHEMA: dict[str, dict[str, tuple]] = {
    "kernel": {
        "id": ("str", None),
        "dim": ("int", 1),
        "domain": ("box", None),  # "0,1" or "0,1;0,1"
        "length_scale": ("float", 0.3),
    },
    "quadrature": {
        "points_per_axis": ("int", None),
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
        "eval_points_per_axis": ("int", None),
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
        "workers": ("int", 1),  # ignored; multistart descents use up to one process per CPU
    },
}

# fields that do not change what a run computes
_UNHASHED = {("run", "out_dir"), ("run", "workers")}

# the grid sizes whose default depends on kernel.dim: (dim 1, dim 2)
_DIM_DEFAULTS = {
    ("quadrature", "points_per_axis"): DEFAULT_POINTS["quadrature"],
    ("widths", "eval_points_per_axis"): DEFAULT_POINTS["eval"],
    ("widths", "candidate_points_per_axis"): DEFAULT_POINTS["candidates"],
}

_VALID_SOURCES = ("auto", "analytic", "nystrom")
_VALID_STRATEGIES = ("uniform", "greedy", "multistart")


def p_label(p: float) -> str:
    """The label of an L_p exponent in artifacts: `2`, `3.5`, `inf`."""
    return "inf" if p == math.inf else f"{p:g}"


def _parse_bool(raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError(raw)


def _items(raw: str) -> list[str]:
    """The nonempty comma-separated entries of a list value."""
    return [t.strip() for t in raw.split(",") if t.strip()]


def _pair(parse, raw: str) -> tuple:
    """Exactly two comma-separated values; any other count raises ValueError."""
    first, second = map(parse, raw.split(","))
    return first, second


def _join(values) -> str:
    return ",".join(str(v) for v in values)


# schema kind -> (parse the stripped text, raising ValueError; format a value as text that parses back to it).
# A plist entry needs no case of its own: float() reads inf and infinity in any case
_KINDS = {
    "str": (str, str),
    "int": (int, str),
    "float": (float, str),
    "bool": (_parse_bool, str),
    "intlist": (lambda raw: [int(t) for t in _items(raw.replace(";", ","))], _join),
    "strlist": (_items, _join),
    "plist": (lambda raw: [float(t) for t in _items(raw)], _join),
    "intpair": (functools.partial(_pair, int), _join),
    "floatpair": (functools.partial(_pair, float), _join),
    "box": (lambda raw: [_pair(float, axis) for axis in raw.split(";")], lambda axes: ";".join(map(_join, axes))),
}


def _parse_value(kind: str, raw: str, where: str):
    raw = raw.strip()
    try:
        return _KINDS[kind][0](raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse field {where} = '{raw}' as {kind}") from exc


@dataclass
class ExperimentConfig:
    """The resolved run: every field of _SCHEMA, defaults filled and `spectrum.source` never `auto`."""

    values: dict[str, dict[str, object]] = field(default_factory=dict)
    preset_name: str = ""

    def get(self, section: str, key: str):
        return self.values[section][key]

    @property
    def kernel_id(self) -> str:
        return self.get("kernel", "id")

    @property
    def dim(self) -> int:
        return self.get("kernel", "dim")

    @property
    def eval_points(self) -> int:
        return self.get("widths", "eval_points_per_axis")

    @property
    def candidate_points(self) -> int:
        return self.get("widths", "candidate_points_per_axis")

    @property
    def dense_max(self) -> int:
        """The last index of the dense width range: `widths.dense_n_max`, capped by `spectrum.n_eigs` - 1."""
        return min(self.get("widths", "dense_n_max"), self.get("spectrum", "n_eigs") - 1)

    def kernel(self) -> Kernel:
        """The kernel of `kernel.id` on the box `kernel.domain`, with `kernel.length_scale`."""
        axes = self.get("kernel", "domain")
        box = Box(tuple(lo for lo, _ in axes), tuple(hi for _, hi in axes))
        return make_kernel(self.kernel_id, dim=self.dim, domain=box, length_scale=self.get("kernel", "length_scale"))

    def config_hash(self) -> str:
        """Hash of the resolved values that decide the run's results.

        `run.out_dir` (where the results go, however it is spelled) and
        `run.workers` (ignored) are left out, so a directory reached by two
        spellings, or a relative and an absolute path, keeps one hash.
        """
        canon = []
        for section in sorted(self.values):
            for key in sorted(self.values[section]):
                if (section, key) in _UNHASHED:
                    continue
                canon.append(f"{section}.{key}={self.values[section][key]!r}")
        return hashlib.sha256("\n".join(canon).encode()).hexdigest()[:16]

    def dump(self) -> str:
        """The resolved run as config text, which parse_config reads back to the same values."""
        lines = []
        for section in self.values:
            lines.append(f"[{section}]")
            for key, val in self.values[section].items():
                if val is not None:
                    lines.append(f"{key} = {_KINDS[_SCHEMA[section][key][0]][1](val)}")
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

    cfg = ExperimentConfig(values=values, preset_name=preset_name)
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig):
    """Check every field and resolve the ones whose default depends on others.

    The per-dim grid sizes and box are filled and `spectrum.source = auto`
    becomes analytic or nystrom, so a second call (after --seed or --out)
    changes nothing.
    """
    if cfg.kernel_id is None:
        raise ConfigError("missing required field kernel.id")
    if cfg.kernel_id not in CATALOG_IDS:
        raise ConfigError(f"unknown kernel id '{cfg.kernel_id}' (field kernel.id)")
    if cfg.dim not in (1, 2):
        raise ConfigError(f"field kernel.dim must be 1 or 2, got {cfg.dim}")
    if cfg.dim != 1 and cfg.kernel_id in ONE_DIM_IDS:
        raise ConfigError(f"field kernel.dim = {cfg.dim}: kernel '{cfg.kernel_id}' is one-dimensional")
    for (section, key), per_dim in _DIM_DEFAULTS.items():
        if cfg.values[section][key] is None:
            cfg.values[section][key] = per_dim[cfg.dim - 1]
    if cfg.values["kernel"]["domain"] is None:
        cfg.values["kernel"]["domain"] = [(0.0, 1.0)] * cfg.dim
    axes = cfg.get("kernel", "domain")
    if len(axes) != cfg.dim:
        raise ConfigError("field kernel.domain does not match kernel.dim")
    # a non-finite bound makes its squared width non-finite too
    if not math.isfinite(sum((hi - lo) * (hi - lo) for lo, hi in axes)):
        raise ConfigError(f"field kernel.domain needs finite bounds whose squared widths sum to a finite value, got {axes}")
    if any(hi <= lo for lo, hi in axes):
        raise ConfigError(f"field kernel.domain needs lo < hi on every axis, got {axes}")
    ell = cfg.get("kernel", "length_scale")
    if not ell > 0:
        raise ConfigError("field kernel.length_scale must be > 0")
    # every value a catalog kernel forms on the box grows with the distance
    # between its points (3 d2 and sqrt(3 d2) / ell for matern32) or with
    # their coordinates (their cubes for brownian_int), so it is largest
    # between two corners of the box; the Nystrom matrix and the trace
    # integral weigh kernel values by quadrature weights summing to the volume.
    # The diagonal is smallest at a corner: constant, rising (s, s^3 / 3) or
    # concave (s - s^2), and a negative one is no covariance
    corners = np.array(list(itertools.product(*axes)))
    kernel = cfg.kernel()
    with np.errstate(all="ignore"):
        corner_values = kernel.pairwise(corners, corners)
        weighted = kernel.domain.volume * np.abs(corner_values).max()
    for corner, variance in zip(corners.tolist(), np.diagonal(corner_values)):
        if variance < 0:
            raise ConfigError(f"field kernel.domain: kernel '{cfg.kernel_id}' is no covariance on the box {axes}: k(x, x) = {variance:.6g} at x = {corner}")
    if not (np.isfinite(corner_values).all() and np.isfinite(weighted)):
        scale = "" if cfg.kernel_id in ONE_DIM_IDS else f" with kernel.length_scale = {ell}"
        raise ConfigError(f"field kernel.domain: kernel '{cfg.kernel_id}'{scale} overflows on the box {axes}")
    for section, key in _DIM_DEFAULTS:
        if cfg.get(section, key) < 1:
            raise ConfigError(f"field {section}.{key} must be >= 1, got {cfg.get(section, key)}")
    for section in ("widths", "entropy"):
        n_grid = cfg.get(section, "n_grid")
        if not n_grid or n_grid[0] < 1 or any(b <= a for a, b in zip(n_grid, n_grid[1:])):
            raise ConfigError(f"field {section}.n_grid must be a nonempty list of strictly increasing positive integers")
    n_top = cfg.get("entropy", "n_grid")[-1]
    if n_top > MAX_ENTROPY_INDEX:
        raise ConfigError(f"field entropy.n_grid reaches n = {n_top}: 2^(n-1) balls is a finite double only for n <= {MAX_ENTROPY_INDEX}")
    n_max = max(cfg.get("widths", "n_grid"))
    if n_max > cfg.candidate_points**cfg.dim:
        raise ConfigError(f"field widths.candidate_points_per_axis gives fewer candidates than the {n_max} points of widths.n_grid")
    p_values = cfg.get("widths", "p_values")
    for p in p_values:
        if not (p == math.inf or p >= 2.0):
            raise ConfigError(f"field widths.p_values entries must be >= 2 or inf, got {p}")
    labels = [p_label(p) for p in p_values]
    if len(set(labels)) < len(labels):
        raise ConfigError(f"field widths.p_values repeats an entry: {','.join(labels)}")
    strategies = cfg.get("widths", "strategies")
    for s in strategies:
        if s not in _VALID_STRATEGIES:
            raise ConfigError(f"unknown strategy '{s}' in widths.strategies")
    if len(set(strategies)) < len(strategies):
        raise ConfigError(f"field widths.strategies repeats an entry: {','.join(strategies)}")
    source = cfg.get("spectrum", "source")
    if source not in _VALID_SOURCES:
        raise ConfigError(f"field spectrum.source must be one of {_VALID_SOURCES}")
    closed_form = has_analytic_spectrum(cfg.kernel_id, kernel.domain)
    if source == "auto":
        source = cfg.values["spectrum"]["source"] = "analytic" if closed_form else "nystrom"
    if source == "analytic" and not closed_form:
        raise ConfigError(
            f"field spectrum.source = analytic: no closed-form eigensystem for kernel "
            f"'{cfg.kernel_id}' on domain {axes}; the registry covers brownian and bridge on [0, 1]"
        )
    n_eigs, nodes = cfg.get("spectrum", "n_eigs"), cfg.get("quadrature", "points_per_axis") ** cfg.dim
    if source == "analytic" and n_eigs > ANALYTIC_MAX_TERMS:
        raise ConfigError(f"field spectrum.n_eigs = {n_eigs}: the analytic registry tabulates at most {ANALYTIC_MAX_TERMS} modes")
    if source == "nystrom" and n_eigs > nodes:
        raise ConfigError(f"field spectrum.n_eigs = {n_eigs}: a Nystrom spectrum has one mode per node, and quadrature.points_per_axis gives {nodes}")
    for key in ("window", "entropy_window"):
        lo, hi = cfg.get("fit", key)
        if lo < 1 or hi <= lo:
            raise ConfigError(f"field fit.{key} must be an increasing positive pair")
    lo, hi = cfg.get("fit", "window")
    top = cfg.dense_max
    if min(hi, top) - lo < 3:
        raise ConfigError(
            f"field fit.window keeps fewer than 4 of the indices 1..{top} set by widths.dense_n_max and spectrum.n_eigs"
        )
    lo, hi = cfg.get("fit", "entropy_window")
    if sum(lo <= n <= hi for n in cfg.get("entropy", "n_grid")) < 4:
        raise ConfigError("field fit.entropy_window keeps fewer than 4 entries of entropy.n_grid")
    if cfg.get("run", "workers") < 1:
        raise ConfigError("field run.workers must be >= 1")
    if cfg.get("run", "seed") < 0:
        raise ConfigError(f"field run.seed must be >= 0, got {cfg.get('run', 'seed')}")


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
