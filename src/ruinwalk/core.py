"""Domain types and stopping-rule semantics for barrier-stopping ruin walks.

The walk lives on the non-negative integers, starts at ``i0`` and moves one
unit per time step: up with probability ``p``, down with ``q = 1 - p``.
State 0 absorbs on arrival.  A *multiple function barrier* (mfb) is a state
where, on every time step spent there, the walker is absorbed with
probability ``s`` and otherwise steps away as usual (up with ``p*(1-s)``,
down with ``q*(1-s)``).  A stop decision consumes no extra time step, so
absorption time equals arrival time.

The three stopping strategies differ only in which multiples of ``i0`` act
as barriers, and from when:

* ``A``: every multiple of ``i0`` is a barrier, from t=0 onward (so the
  walk may already stop at the start).
* ``B``: like A, but the barrier at ``i0`` is inactive at t=0 and active
  for t>0.  Barriers beyond ``i0`` are unreachable at t=0, so no rule is
  needed for them.
* ``C``: only ``2*i0, 3*i0, ...`` are barriers; ``i0`` stays a normal
  state at all times.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class ParameterError(ValueError):
    """Out-of-range walk parameters."""


class UnsupportedRegimeError(ValueError):
    """No closed-form path exists for the requested parameter regime."""


class AbsorptionNotCertainError(ValueError):
    """A mean was requested that requires almost-sure absorption."""


class Strategy(str, Enum):
    A = "A"
    B = "B"
    C = "C"

    @property
    def first_barrier_multiple(self) -> int:
        """Smallest k such that k*i0 is a barrier."""
        return 2 if self is Strategy.C else 1

    @property
    def start_is_delayed(self) -> bool:
        """True if the barrier at i0 is inactive at t=0."""
        return self is Strategy.B


@dataclass(frozen=True)
class WalkParams:
    """Problem instance: step-up probability p, stop probability s, stake i0.

    Derived quantities: ``q = 1 - p`` and the drift ratio ``omega = p/q``.
    The driftless walk is detected exactly by ``p == 0.5``; the closed forms
    branch on it only at s=0, where its mean absorption time is infinite.
    """

    p: float
    s: float
    i0: int

    def __post_init__(self):
        if not isinstance(self.i0, int) or isinstance(self.i0, bool):
            raise ParameterError(f"i0 must be an integer, got {self.i0!r}")
        if not 0.0 < self.p < 1.0:
            raise ParameterError(f"p must lie in (0, 1), got {self.p}")
        if not 0.0 <= self.s <= 1.0:
            raise ParameterError(f"s must lie in [0, 1], got {self.s}")
        if self.i0 < 1:
            raise ParameterError(f"i0 must be >= 1, got {self.i0}")

    @property
    def q(self) -> float:
        return 1.0 - self.p

    @property
    def omega(self) -> float:
        return self.p / self.q

    @property
    def omega_pow(self) -> float:
        """omega raised to the stake, omega**i0."""
        return self.omega ** self.i0

    @property
    def symmetric(self) -> bool:
        """Exactly driftless (p == q)."""
        return self.p == 0.5


@dataclass(frozen=True)
class LatticeState:
    """A capital level decomposed as position = k*i0 + n with 0 <= n < i0."""

    position: int
    k: int
    n: int

    @classmethod
    def from_position(cls, position: int, i0: int) -> "LatticeState":
        if position < 0:
            raise ParameterError(f"position must be >= 0, got {position}")
        k, n = divmod(position, i0)
        return cls(position=position, k=k, n=n)

    @property
    def on_barrier_lattice(self) -> bool:
        return self.n == 0


def is_active_barrier(strategy: Strategy, position: int, i0: int, time: int) -> bool:
    """Whether ``position`` acts as a stopping barrier at ``time``.

    State 0 is not a barrier in this sense; it absorbs unconditionally and
    is handled by :func:`stop_probability` directly.
    """
    if position <= 0 or position % i0 != 0:
        return False
    k = position // i0
    if k < Strategy(strategy).first_barrier_multiple:
        return False
    if strategy is Strategy.B and position == i0 and time == 0:
        return False
    return True


def stop_probability(
    params: WalkParams, strategy: Strategy, position: int, time: int
) -> float:
    """Probability that a walker sitting at ``position`` at ``time`` is absorbed now.

    Returns 1 at state 0, ``s`` at an active barrier and 0 elsewhere.
    """
    if time < 0:
        raise ParameterError(f"time must be >= 0, got {time}")
    if position == 0:
        return 1.0
    if is_active_barrier(strategy, position, params.i0, time):
        return params.s
    return 0.0
