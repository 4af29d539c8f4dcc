"""widthlab: a desk-scale laboratory for width scales of kernel embeddings.

Computes and compares, for a catalog of kernels on boxes:

- integral-operator spectra (dense Nystrom and closed-form references),
- kernel interpolation widths via the power function, with uniform,
  greedy, and refined designs,
- certified lower bounds for Kolmogorov and interpolation widths in sup
  norm, and a linear upper bound from the spectral projection,
- entropy-number brackets for diagonal operators,
- log-log rate fits, gap reports between width scales, and
  rate-transfer verdicts that keep rule-based conclusions separate from
  numeric certificates.
"""

from .version import __version__
from .quadrature import Box, QuadratureRule, midpoint_rule, unit_interval
from .kernels import (
    CATALOG_IDS,
    Kernel,
    eval_kernel,
    gram_matrix,
    make_kernel,
    trace_integral,
)
from .spectral import (
    SpectrumEstimate,
    analytic_eigenvalues,
    analytic_spectrum,
    analytic_trace,
    has_analytic_spectrum,
    nystrom_spectrum,
    tail_sum,
)
from .interpolation import (
    DesignSet,
    design,
    greedy_design,
    interpolation_width,
    optimize_interpolation_width,
    power_values,
    uniform_design,
)
from .widths import (
    WidthRow,
    interp_linf_lower_tail,
    l2_widths,
    linf_kolmogorov_lower,
    mercer_envelope_sup2,
    rate_series,
    rate_transfer_verdict,
    validate_chain,
    width_gap_verdict,
)
from .entropy import (
    CarlReport,
    DiagonalOperator,
    EntropyEstimate,
    carl_check,
    carl_constant,
    diag_entropy_bounds,
)
from .asymptotics import (
    RateSeries,
    SlopeReport,
    Verdict,
    fit_loglog,
    gap_report,
)
from .config import ExperimentConfig, PRESETS, load_preset, parse_config
from .runner import CampaignResult, RunManifest, run_campaign

__all__ = [name for name in dir() if not name.startswith("_")]
