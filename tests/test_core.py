import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruinwalk import charpoly as cp
from ruinwalk import mgf, oracle, verify
from ruinwalk.core import (
    ParameterError,
    Profile,
    Strategy,
    UnsupportedRegimeError,
    WalkParams,
)


class TestWalkParams:
    def test_derived_quantities(self):
        params = WalkParams(0.4, 0.5, 2)
        assert params.q == pytest.approx(0.6, abs=0)
        assert params.omega == pytest.approx(0.4 / 0.6, rel=1e-15)
        assert params.omega_pow == pytest.approx((0.4 / 0.6) ** 2, rel=1e-15)

    def test_omega_pow_out_of_float_range(self):
        # overflow is an unsupported regime; underflow to 0 is a value
        with pytest.raises(UnsupportedRegimeError, match="overflow"):
            WalkParams(0.99, 0.5, 200).omega_pow
        assert WalkParams(0.01, 0.5, 200).omega_pow == 0.0

    def test_symmetric_flag_is_exact(self):
        assert WalkParams(0.5, 0.1, 1).symmetric
        assert not WalkParams(0.5 + 1e-12, 0.1, 1).symmetric

    @pytest.mark.parametrize("p", [0.0, 1.0, 1.2, -0.1])
    def test_rejects_bad_p(self, p):
        with pytest.raises(ParameterError):
            WalkParams(p, 0.5, 1)

    @pytest.mark.parametrize("s", [-0.01, 1.01])
    def test_rejects_bad_s(self, s):
        with pytest.raises(ParameterError):
            WalkParams(0.5, s, 1)

    @pytest.mark.parametrize("i0", [0, -3, 1.5])
    def test_rejects_bad_i0(self, i0):
        with pytest.raises(ParameterError):
            WalkParams(0.5, 0.5, i0)


    @pytest.mark.parametrize("name", ["p", "s", "i0", "_memo", "other"])
    def test_refuses_assignment_and_deletion(self, name):
        params = WalkParams(0.4, 0.5, 2)
        with pytest.raises(AttributeError):
            setattr(params, name, 0.3)
        with pytest.raises(AttributeError):
            delattr(params, name)
        assert (params.p, params.s, params.i0) == (0.4, 0.5, 2)

    def test_pickles_by_its_fields_alone(self):
        params = WalkParams(0.4, 0.5, 2)
        mgf.characteristic(params, 1.0)
        back = pickle.loads(pickle.dumps(params))
        assert back == params and repr(back) == repr(params)
        assert back._memo == {}


RECORDS = ("Profile", "RootPair", "PhiPair", "Characteristic", "DerivativeBundle",
           "LucasTerms", "ExactSolution", "SimResult", "CheckResult")


def _records():
    """One instance of every record type in the package, by name."""
    params = WalkParams(0.4, 0.3, 2)
    char = mgf.characteristic(params, 0.7)
    der = cp.derivatives_at_1(params)
    return {
        "Profile": Profile((1.0, 2.0, 3.0), rho=0.5, gap=0.5, drho=0.25, mass=0.75),
        "RootPair": char.roots,
        "PhiPair": char.phi,
        "Characteristic": char,
        "DerivativeBundle": der,
        "LucasTerms": der.lucas,
        "ExactSolution": oracle.solve_exact(params, Strategy.B),
        "SimResult": oracle.simulate(params, Strategy.B, trials=2000, seed=3),
        "CheckResult": verify.check_step_roots(n_samples=10),
    }


class TestRecords:
    """The records are NamedTuples: immutable, and tuples of their fields."""

    @pytest.mark.parametrize("name", RECORDS)
    def test_refuse_assignment(self, name):
        record = _records()[name]
        assert type(record).__name__ == name
        for field in (*record._fields, "other"):
            with pytest.raises(AttributeError):
                setattr(record, field, None)

    @pytest.mark.parametrize("name", RECORDS)
    def test_are_tuples_of_their_fields(self, name):
        record = _records()[name]
        assert record == tuple(record) == tuple(getattr(record, f) for f in record._fields)

    @pytest.mark.parametrize("name", ["ExactSolution", "SimResult"])
    def test_oracle_results_survive_a_pickle_round_trip(self, name):
        record = _records()[name]
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is type(record) and back == record
        assert back.probability(2) == record.probability(2)


class TestProfile:
    # head (1, 2, 3), then 3 * rho**m + m * mass * rho**(m-1) * drho
    PROFILE = Profile((1.0, 2.0, 3.0), rho=0.5, gap=0.5, drho=0.25, mass=0.75)

    def test_tail_continues_the_head(self):
        prof = self.PROFILE
        assert [prof.at(k) for k in range(-1, 3)] == [0.0, 1.0, 2.0, 3.0]
        for m in range(1, 6):
            want = 3.0 * 0.5 ** m + m * 0.75 * 0.5 ** (m - 1) * 0.25
            assert prof.at(2 + m) == pytest.approx(want, rel=1e-15)

    def test_beyond_is_the_exact_sum(self):
        prof = self.PROFILE
        for k in range(5):
            want = math.fsum(prof.at(j) for j in range(k + 1, 200))
            assert prof.beyond(k) == pytest.approx(want, rel=1e-15)
        assert prof.total == pytest.approx(math.fsum(prof.at(j) for j in range(200)), rel=1e-15)

    def test_head_only(self):
        # an infinite head value stays in the head: nothing lies past it
        prof = Profile((math.inf, 0.5))
        assert [prof.at(k) for k in (2, 3, 10)] == [0.0] * 3
        assert prof.beyond(1) == 0.0 and prof.beyond(0) == 0.5
        assert prof.total == math.inf


_value = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestProfileUpto:
    @given(
        head=st.lists(_value, min_size=1, max_size=5),
        rho=st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1.0, exclude_max=True)),
        drho=st.one_of(st.just(0.0), _value),
        mass=_value,
        k=st.integers(min_value=-2, max_value=40),
    )
    @settings(max_examples=300, deadline=None)
    def test_reads_the_very_floats_of_at(self, head, rho, drho, mass, k):
        prof = Profile(tuple(head), rho, 1.0 - rho, drho, mass)
        got = prof.upto(k)
        assert len(got) == max(k + 1, 0)
        # repr tells -0.0 from 0.0, so this is equality to the bit
        assert list(map(repr, got)) == [repr(prof.at(j)) for j in range(k + 1)]

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_inside_the_head_is_a_prefix_of_it(self, k):
        assert TestProfile.PROFILE.upto(k) == [1.0, 2.0, 3.0][: k + 1]

    def test_nothing_past_a_head_with_rho_zero(self):
        assert Profile((0.25, 0.5)).upto(4) == [0.25, 0.5, 0.0, 0.0, 0.0]


class TestStopRule:
    # the multiples of i0 that stop with probability s at t > 0, up to 4*i0
    MULTIPLES = {Strategy.A: (1, 2, 3, 4), Strategy.B: (1, 2, 3, 4), Strategy.C: (2, 3, 4)}

    @pytest.mark.parametrize("i0", [1, 2, 3])
    def test_barriers_tabulated(self, i0, strategy):
        states = range(4 * i0 + 1)
        want = [x in {k * i0 for k in self.MULTIPLES[strategy]} for x in states]
        got = [strategy.is_barrier(x, i0) for x in states]
        assert got == want
        assert all(type(b) is bool for b in got)
        on_array = strategy.is_barrier(np.arange(4 * i0 + 1), i0)
        assert on_array.dtype == bool and on_array.tolist() == want

    def test_only_a_stops_at_the_start(self):
        assert [st.stops_at_start for st in Strategy] == [True, False, False]

    def test_first_barrier_is_the_lowest_stopping_multiple(self, strategy):
        first = strategy.first_barrier_multiple
        assert strategy.is_barrier(first * 3, 3)
        assert not any(strategy.is_barrier(k * 3, 3) for k in range(first))
