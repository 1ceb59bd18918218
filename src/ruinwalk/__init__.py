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

__version__ = "0.1.0"

# every other public name, by the submodule that defines it: __getattr__
# serves it on first use, so `import ruinwalk` compiles only core
_LAZY = {
    name: module
    for module, names in {
        "charpoly": "DerivativeBundle PhiPair RootPair derivatives_at_1 phi_roots tau_roots theta",
        "mgf": "Characteristic characteristic mgf_a mgf_b mgf_c mgf_interior mgf_states mgf_value",
        "metrics": "absorption_profile bc_ratio mean_time_any time_profile",
        "oracle": "ExactSolution SimResult mgf_dp simulate solve_exact",
    }.items()
    for name in names.split()
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f".{_LAZY[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})


__all__ = sorted([
    "ConvergenceError", "ParameterError", "Profile", "Strategy",
    "UnsupportedRegimeError", "WalkParams", "WorkerError", *_LAZY,
])
