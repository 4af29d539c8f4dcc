"""Per-layer self time and work counts for one traced pass.

`install()` wraps widthlab's layer functions at the names through which
runner (and interpolation, for its own calls) reaches them: runner binds
`nystrom_spectrum`, `greedy_design` and the other layer functions at import,
and `Kernel.pairwise` is a field of a frozen dataclass, so it is wrapped on
the kernel that `runner.kernel_from_config` builds.

Each wrapped call is a span. Spans nest on a per-thread stack, so the
--workers pool threads get parent spans of their own, and a span's self time
is its duration minus the wrapped calls it makes on its own thread. Self
times of spans on different threads add up, so a layer busy on two threads at
once can report more seconds than the pass took.
"""

from __future__ import annotations

import dataclasses
import functools
import threading
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[tuple[list, dict, dict]] = []

    def _thread_state(self) -> tuple[list, dict, dict]:
        """This thread's span stack, seconds and counts; no lock per span."""
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], defaultdict(float), defaultdict(int))
            with self._lock:
                self._threads.append(state)
        return state

    def totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and counts summed over threads; call once the pass is over."""
        seconds: dict[str, float] = defaultdict(float)
        counts: dict[str, int] = defaultdict(int)
        with self._lock:
            for _, thread_seconds, thread_counts in self._threads:
                for key, value in thread_seconds.items():
                    seconds[key] += value
                for key, value in thread_counts.items():
                    counts[key] += value
        return seconds, counts

    def wrap(self, layer: str, fn, counts=None):
        """`fn` timed as a span of `layer`; `counts(*args)` adds named work counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, seconds, tally = self._thread_state()
            children = [0.0]
            stack.append(children)
            failed = False
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                seconds[layer] += elapsed - children[0]
                tally[layer + "_calls"] += 1
                tally[layer + "_failed"] += failed
                if counts is not None:
                    for key, n in counts(*args, **kwargs).items():
                        tally[key] += n

        return traced


def install() -> Tracer:
    """Wrap the layer functions of widthlab for the rest of this process."""
    from widthlab import asymptotics, interpolation, runner, spectral

    tracer = Tracer()

    def patch(owner, name: str, layer: str, counts=None):
        setattr(owner, name, tracer.wrap(layer, getattr(owner, name), counts))

    patch(runner, "_save_spectrum", "runner.spectrum_save")
    patch(runner, "_load_spectrum", "runner.spectrum_load")
    patch(runner, "nystrom_spectrum", "spectral.nystrom", lambda kernel, quad, n_eigs: {"spectral.matrix_n": quad.size})
    patch(
        spectral.SpectrumEstimate,
        "extend",
        "spectral.extend",
        lambda self, kernel, points, n_modes=None: {"spectral.extend_points": len(points)},
    )
    patch(runner, "make_design", "interpolation.design")
    patch(interpolation, "design", "interpolation.design")
    patch(
        interpolation,
        "power_values",
        "interpolation.power_values",
        lambda des, points, diag=None: {"interpolation.power_points": np.atleast_2d(points).shape[0]},
    )
    patch(runner, "greedy_design", "interpolation.greedy")
    patch(interpolation, "greedy_design", "interpolation.greedy")
    patch(runner, "diag_entropy_bounds", "entropy.diag_bounds")
    patch(runner, "carl_check", "entropy.carl_check")
    for name in ("l2_widths", "linf_kolmogorov_lower", "interp_linf_lower_tail", "rate_transfer_verdict", "width_gap_verdict"):
        patch(runner, name, "widths.bounds")
    # gap_report fits through asymptotics.fit_loglog, so its fits are counted too
    patch(runner, "fit_loglog", "asymptotics.fit")
    patch(asymptotics, "fit_loglog", "asymptotics.fit")

    build_kernel = runner.kernel_from_config

    def kernel_from_config(cfg):
        kernel = build_kernel(cfg)
        pairwise = tracer.wrap("kernels.pairwise", kernel.pairwise, lambda a, b: {"kernels.entries": len(a) * len(b)})
        return dataclasses.replace(kernel, pairwise=pairwise)

    runner.kernel_from_config = kernel_from_config
    return tracer


# manifest.timings key of each stage metric
STAGES = {
    "stage.spectrum_s": "spectrum",
    "stage.widths.mercer_upper_s": "widths.mercer_upper",
    "stage.widths.designs_s": "widths.designs",
    "stage.widths.interpolation_s": "widths.interpolation",
    "stage.entropy_s": "entropy",
    "stage.fits_s": "fits",
}


def layer_metrics(
    tracer: Tracer, wall_s: float, timings: dict[str, float], cache_hits: int, bytes_written: int, parse_s: float
) -> dict[str, float]:
    """The per-layer metrics of one pass, by name."""
    s, c = tracer.totals()
    design_calls = c["interpolation.design_calls"]
    metrics = {
        "config.parse_s": parse_s,
        "runner.spectrum_save_s": s["runner.spectrum_save"],
        "runner.spectrum_save_calls": c["runner.spectrum_save_calls"],
        "runner.spectrum_load_s": s["runner.spectrum_load"],
        "runner.bytes_written": bytes_written,
        "runner.cache_hits": cache_hits,
        "spectral.nystrom_s": s["spectral.nystrom"],
        "spectral.nystrom_calls": c["spectral.nystrom_calls"],
        "spectral.matrix_n": c["spectral.matrix_n"],
        "spectral.extend_s": s["spectral.extend"],
        "spectral.extend_points": c["spectral.extend_points"],
        "kernels.pairwise_s": s["kernels.pairwise"],
        "kernels.pairwise_calls": c["kernels.pairwise_calls"],
        "kernels.entries": c["kernels.entries"],
        "interpolation.design_s": s["interpolation.design"],
        "interpolation.design_calls": design_calls,
        "interpolation.design_failed": c["interpolation.design_failed"] / design_calls if design_calls else 0.0,
        "interpolation.power_values_s": s["interpolation.power_values"],
        "interpolation.power_points": c["interpolation.power_points"],
        "interpolation.greedy_s": s["interpolation.greedy"],
        "entropy.diag_bounds_s": s["entropy.diag_bounds"],
        "entropy.diag_bounds_calls": c["entropy.diag_bounds_calls"],
        "entropy.carl_check_s": s["entropy.carl_check"],
        "widths.bounds_s": s["widths.bounds"],
        "asymptotics.fit_s": s["asymptotics.fit"],
        "asymptotics.fit_calls": c["asymptotics.fit_calls"],
    }
    metrics.update({name: timings.get(key, 0.0) for name, key in STAGES.items()})
    # outside every manifest timer, widths.spectral_curves included
    metrics["stage.untimed_s"] = wall_s - sum(timings.values())
    return metrics
