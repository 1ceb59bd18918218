"""Barrier-stopping gambler's-ruin walks: closed forms, oracles, verification."""

from .core import (
    ParameterError,
    Profile,
    Strategy,
    UnsupportedRegimeError,
    WalkParams,
)
from .charpoly import (
    DerivativeBundle,
    PhiPair,
    RootPair,
    derivatives_at_1,
    phi_roots,
    tau_roots,
    theta,
)
from .mgf import Characteristic, characteristic, mgf_a, mgf_b, mgf_c
from .mgf import mgf_interior, mgf_states, mgf_value
from .metrics import absorption_profile, bc_ratio, mean_time_any, time_profile
from .oracle import ExactSolution, SimResult, mgf_dp, simulate, solve_exact

__version__ = "0.1.0"

__all__ = [
    "Characteristic",
    "DerivativeBundle",
    "ExactSolution",
    "ParameterError",
    "PhiPair",
    "Profile",
    "RootPair",
    "SimResult",
    "Strategy",
    "UnsupportedRegimeError",
    "WalkParams",
    "absorption_profile",
    "bc_ratio",
    "characteristic",
    "derivatives_at_1",
    "mean_time_any",
    "mgf_a",
    "mgf_b",
    "mgf_c",
    "mgf_dp",
    "mgf_interior",
    "mgf_states",
    "mgf_value",
    "phi_roots",
    "simulate",
    "solve_exact",
    "tau_roots",
    "theta",
    "time_profile",
]
