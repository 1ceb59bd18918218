"""Barrier-stopping gambler's-ruin walks: closed forms, oracles, verification."""

from .core import (
    AbsorptionNotCertainError,
    LatticeState,
    ParameterError,
    Strategy,
    UnsupportedRegimeError,
    WalkParams,
    stop_probability,
)
from .charpoly import (
    CharData,
    DerivativeBundle,
    PhiPair,
    RootPair,
    derivatives_at_1,
    phi_roots,
    tau_roots,
    theta,
)
from .mgf import mgf_a, mgf_b, mgf_b_s1, mgf_c, mgf_interior, mgf_value
from .metrics import (
    AbsorptionProfile,
    TimeProfile,
    absorption_profile,
    bc_ratio,
    mean_time_any,
    mean_time_at,
    time_profile,
)
from .oracle import ExactSolution, SimResult, mgf_dp, simulate, solve_exact

__version__ = "0.1.0"

__all__ = [
    "AbsorptionNotCertainError",
    "AbsorptionProfile",
    "CharData",
    "DerivativeBundle",
    "ExactSolution",
    "LatticeState",
    "ParameterError",
    "PhiPair",
    "RootPair",
    "SimResult",
    "Strategy",
    "TimeProfile",
    "UnsupportedRegimeError",
    "WalkParams",
    "absorption_profile",
    "bc_ratio",
    "derivatives_at_1",
    "mean_time_any",
    "mean_time_at",
    "mgf_a",
    "mgf_b",
    "mgf_b_s1",
    "mgf_c",
    "mgf_dp",
    "mgf_interior",
    "mgf_value",
    "phi_roots",
    "simulate",
    "solve_exact",
    "stop_probability",
    "tau_roots",
    "theta",
    "time_profile",
]
