"""Barrier-stopping gambler's-ruin walks: closed forms, oracles, verification."""

from .core import (
    ConvergenceError,
    ParameterError,
    Profile,
    Strategy,
    UnsupportedRegimeError,
    WalkParams,
    WorkerError,
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

__version__ = "0.1.0"

# served by __getattr__, so that only a caller of an oracle loads ruinwalk.oracle
_ORACLE_NAMES = frozenset({"ExactSolution", "SimResult", "mgf_dp", "simulate", "solve_exact"})


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Characteristic",
    "ConvergenceError",
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
    "WorkerError",
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
