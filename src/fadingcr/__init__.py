"""Rate-distortion and power-distortion trade-offs for a state-dependent
fading Gaussian channel under a common-reconstruction constraint."""

from .model import (
    ChannelParams,
    CodingParams,
    Config,
    ConfigError,
    Degenerate,
    Discrete,
    FadingModel,
    PerStatePolicy,
    Rayleigh,
)
from .rate_core import (
    ConverseCovariance,
    NumericalError,
    cond_var_s_given_shat_y,
    cond_var_y_given_u,
    converse_rate,
    kappa_member,
    psd_feasible,
    rate_per_state,
    var_y,
)
from .gaussian_oracle import (
    JointCovariance,
    McEstimate,
    build_covariance,
    gp_rate_oracle,
    mc_estimate,
    mutual_information,
    schur_conditional_variance,
)
from .ergodic import QuadratureRule, avg_power, ergodic_rate, make_rule
from .optimize import (
    Frontier,
    FrontierPoint,
    RateSolution,
    UnreachableError,
    concave_envelope,
    maximize_rate,
    min_power,
    optimize_rho_per_state,
    power_distortion_curve,
    rd_frontier,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelParams", "CodingParams", "Config", "ConfigError", "Degenerate",
    "Discrete", "FadingModel", "PerStatePolicy", "Rayleigh",
    "ConverseCovariance", "NumericalError", "cond_var_s_given_shat_y",
    "cond_var_y_given_u", "converse_rate", "kappa_member", "psd_feasible",
    "rate_per_state", "var_y",
    "JointCovariance", "McEstimate", "build_covariance", "gp_rate_oracle",
    "mc_estimate", "mutual_information", "schur_conditional_variance",
    "QuadratureRule", "avg_power", "ergodic_rate", "make_rule",
    "Frontier", "FrontierPoint", "RateSolution", "UnreachableError",
    "concave_envelope", "maximize_rate", "min_power", "optimize_rho_per_state",
    "power_distortion_curve", "rd_frontier",
    "__version__",
]
