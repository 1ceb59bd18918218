"""Domain types for barrier-stopping ruin walks, and the profile type they share.

The walk lives on the non-negative integers, starts at ``i0`` and moves one
unit per time step: up with probability ``p``, down with ``q = 1 - p``.
State 0 absorbs on arrival.  A *multiple function barrier* (mfb) is a state
where, on every time step spent there, the walker is absorbed with
probability ``s`` and otherwise steps away as usual (up with ``p*(1-s)``,
down with ``q*(1-s)``).  A stop decision consumes no extra time step, so
absorption time equals arrival time.

The three stopping strategies differ only in which multiples of ``i0`` act
as barriers, and from when; :class:`Strategy` states that rule once, and
every layer reads it from there:

* ``A``: every multiple of ``i0`` is a barrier, from t=0 onward (so the
  walk may already stop at the start).
* ``B``: like A, but the barrier at ``i0`` is inactive at t=0 and active
  for t>0.  Barriers beyond ``i0`` are unreachable at t=0, so no rule is
  needed for them.
* ``C``: only ``2*i0, 3*i0, ...`` are barriers; ``i0`` stays a normal
  state at all times.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple


class ParameterError(ValueError):
    """Out-of-range walk parameters."""


class UnsupportedRegimeError(ValueError):
    """No closed-form path exists for the requested parameter regime."""


class ConvergenceError(RuntimeError):
    """An oracle could not resolve its answer to working precision."""


class WorkerError(RuntimeError):
    """A forked worker process ended without sending its result."""


class Strategy(str, Enum):
    """The stop rule: :meth:`is_barrier` for t > 0 and :attr:`stops_at_start` for t = 0."""

    A = "A"
    B = "B"
    C = "C"

    @property
    def first_barrier_multiple(self) -> int:
        """Smallest k such that k*i0 is a barrier."""
        return 2 if self is Strategy.C else 1

    @property
    def stops_at_start(self) -> bool:
        """Whether the start state i0 stops with probability s at t = 0 (A only)."""
        return self is Strategy.A

    def is_barrier(self, state, i0: int):
        """Whether ``state`` stops with probability s at t > 0; elementwise on an int array."""
        return (state % i0 == 0) & (state >= self.first_barrier_multiple * i0)


class WalkParams(NamedTuple("WalkParams", [("p", float), ("s", float), ("i0", int)])):
    """Problem instance: step-up probability p, stop probability s, stake i0.

    Derived quantities: ``q = 1 - p`` and the drift ratio ``omega = p/q``.
    The driftless walk is detected exactly by ``p == 0.5``; no closed form
    branches on it.
    Like every record here it is an immutable NamedTuple, equal to the plain
    tuple ``(p, s, i0)``; every way of making one, ``_replace`` and
    ``_make`` included, checks the fields.
    """

    __slots__ = ()

    def __new__(cls, p: float, s: float, i0: int):
        if not isinstance(i0, int) or isinstance(i0, bool):
            raise ParameterError(f"i0 must be an integer, got {i0!r}")
        if not 0.0 < p < 1.0:
            raise ParameterError(f"p must lie in (0, 1), got {p}")
        if not 0.0 <= s <= 1.0:
            raise ParameterError(f"s must lie in [0, 1], got {s}")
        if i0 < 1:
            raise ParameterError(f"i0 must be >= 1, got {i0}")
        return super().__new__(cls, p, s, i0)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def q(self) -> float:
        return 1.0 - self.p

    @property
    def omega(self) -> float:
        return self.p / self.q

    @property
    def omega_pow(self) -> float:
        """omega raised to the stake, omega**i0; an unsupported regime where it overflows."""
        try:
            return self.omega ** self.i0
        except OverflowError:
            raise UnsupportedRegimeError(
                f"omega**i0 overflows at p={self.p}, i0={self.i0}; "
                "no closed-form answer is available for this instance"
            ) from None

    @property
    def symmetric(self) -> bool:
        """Exactly driftless (p == q)."""
        return self.p == 0.5


class Profile(NamedTuple):
    """Values at ruin (k = 0) and at every barrier k*i0: masses or killed times.

    ``head`` holds barriers 0..a explicitly.  Past it the values are
    geometric: barrier ``a + m`` has
    ``head[a] * rho**m + m * mass * rho**(m-1) * drho``, where ``mass`` is
    the absorption mass at barrier a and ``drho`` the z-derivative of rho
    at z=1; a mass profile has ``drho = 0``.  ``gap`` is ``1 - rho``, kept
    apart so that it keeps its digits when rho nears 1.  ``rho = 0`` means
    nothing lies past the head.
    """

    head: tuple[float, ...]
    rho: float = 0.0
    gap: float = 1.0
    drho: float = 0.0
    mass: float = 0.0

    def at(self, k: int) -> float:
        """The value at barrier k; 0 at negative k."""
        m = k - len(self.head) + 1
        if m <= 0:
            return self.head[k] if k >= 0 else 0.0
        return self._past(m) if self.rho else 0.0

    def upto(self, k: int) -> list[float]:
        """The values at barriers 0..k, each the same float as :meth:`at` gives."""
        values = list(self.head[:max(k + 1, 0)])
        past = range(1, k - len(self.head) + 2)
        values += [self._past(m) for m in past] if self.rho else [0.0] * len(past)
        return values

    def _past(self, m: int) -> float:
        """The value m >= 1 barriers past the head's last, for rho != 0."""
        grow = self.rho ** (m - 1)
        return self.head[-1] * grow * self.rho + m * self.mass * grow * self.drho

    def beyond(self, k: int) -> float:
        """The exact sum of the values at the barriers past k; inf where the gap is 0.

        A gap of 0 is a tail ratio of 1 that nothing stops: the visits of a
        walk that never stops at a barrier and drifts up (z = 1, s = 0,
        p >= 1/2), whose sum diverges.
        """
        last = len(self.head) - 1
        if k < last:
            return sum(self.head[max(k + 1, 0):]) + self.beyond(last)
        if not self.rho:
            return 0.0
        if not self.gap:
            return math.inf
        tail = self.at(k) * self.rho / self.gap
        if self.drho:  # times add mass * rho**(k-a) * drho / gap**2, gap**2 may underflow
            tail += self.mass * self.rho ** (k - last) * self.drho / self.gap / self.gap
        return tail

    @property
    def total(self) -> float:
        """The sum over ruin and every barrier."""
        return sum(self.head) + self.beyond(len(self.head) - 1)
