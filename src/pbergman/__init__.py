"""Numerical laboratory for p-Bergman kernels, metrics, and the extremal
problems behind them on planar circular domains, plus an L^p-integrability
criterion for lacunary power series on the unit disk."""

from .geometry import (
    Domain,
    QuadratureGrid,
    build_grid,
    format_domain,
    parse_domain,
)
from .series import (
    BasisSpec,
    CoeffVector,
    admissible_exponents,
    evaluate,
)
from .solver import (
    ExtremalProblem,
    InfeasibleConstraintsError,
    Solution,
    derivative_constraint,
    minimize_pnorm,
    multistart_minimize,
    point_constraint,
    solution_record,
)
from .kernel import (
    BoundaryMarginError,
    KernelResult,
    MetricResult,
    Setup,
    h_function,
    kernel_metric_sweep,
    metric_at,
    mp_minimizer,
    offdiag_kernel,
)
from .analysis import (
    DegenerateFitError,
    HolderFit,
    LeviRecord,
    LimitRecord,
    dp_estimate,
    fit_power_law,
    holder_exponent,
    hp_scaling_exponent,
    levi_form_log_kp,
    levi_metric_gap,
    limit_sweep,
)
from .lacunary import (
    LacunarySeries,
    NotLacunaryError,
    RefinementError,
    circle_norm_ratio,
    criterion_integral,
    direct_lp,
    equivalence_ratio,
    integrability_record,
    lacunarity_constant,
    read_series_csv,
    series_grid_values,
)

__version__ = "0.1.0"
