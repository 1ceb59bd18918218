import ast
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ruinwalk import metrics, oracle, rng
from ruinwalk.core import ParameterError, Strategy, UnsupportedRegimeError, WalkParams

from conftest import SQRT3, small_grid


class TestPhilox:
    # published known-answer vectors for the 10-round 4x32 variant
    KAT = [
        ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
        (
            (0xFFFFFFFF,) * 4,
            (0xFFFFFFFF,) * 2,
            (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD),
        ),
        (
            (0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
            (0xA4093822, 0x299F31D0),
            (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1),
        ),
    ]

    def test_known_answer_vectors(self):
        for ctr, key, want in self.KAT:
            got = rng.philox4x32(np.array([ctr], dtype=np.uint32), key)[0]
            assert tuple(int(x) for x in got) == want

    def test_uniforms_are_a_pure_function_of_inputs(self):
        a = rng.step_uniforms(7, np.arange(100), 3)
        b = rng.step_uniforms(7, np.arange(100), 3)
        assert np.array_equal(a, b)
        # batching must not matter
        c = np.concatenate(
            [rng.step_uniforms(7, np.arange(0, 40), 3),
             rng.step_uniforms(7, np.arange(40, 100), 3)]
        )
        assert np.array_equal(a, c)

    def test_uniforms_in_unit_interval_and_roughly_uniform(self):
        block = rng.block_uniforms(123, np.arange(200_000), 0)
        lanes = [rng.step_uniforms(123, np.arange(200_000), 0)] + list(block.T)
        for u in lanes:  # every output word of the block, not only word 0
            assert float(u.min()) >= 0.0 and float(u.max()) < 1.0
            assert abs(float(u.mean()) - 0.5) < 0.005
            assert abs(float(u.var()) - 1.0 / 12.0) < 0.002

    # trial ids on both sides of 2**32 exercise the high counter word
    TRIALS = np.array(
        [0, 1, 7, 2**32 - 1, 2**32, 2**32 + 5, 2**40 + 3, 2**64 - 1], dtype=np.uint64
    )
    SEED = 0x1234_5678_9ABC  # a key with both 32-bit words non-zero

    def test_step_uniform_is_word_step_mod_4_of_counter_step_div_4(self):
        key = rng.split_key(self.SEED)
        lo = [int(t) & 0xFFFFFFFF for t in self.TRIALS]
        hi = [int(t) >> 32 for t in self.TRIALS]
        for step in (0, 1, 2, 3, 4, 5, 11, 4 * 1000 + 2, 4 * (2**32 - 1) + 3):
            counter = np.array([[step // 4, a, b, 0] for a, b in zip(lo, hi)], dtype=np.uint32)
            words = rng.philox4x32(counter, key)
            want = [int(w) * 2.0**-32 for w in words[:, step % 4]]
            assert rng.step_uniforms(self.SEED, self.TRIALS, step).tolist() == want

    def test_block_uniforms_agree_with_step_uniforms(self):
        for block in (0, 1, 9, 2**32 - 1):
            got = rng.block_uniforms(self.SEED, self.TRIALS, block)
            assert got.shape == (len(self.TRIALS), 4)
            for lane in range(4):
                want = rng.step_uniforms(self.SEED, self.TRIALS, 4 * block + lane)
                assert np.array_equal(got[:, lane], want)
                # a block handed in, with rows dropped from it and the trials alike
                kept = [0, 3, 6]
                from_block = rng.step_uniforms(
                    self.SEED, self.TRIALS[kept], 4 * block + lane, got[kept]
                )
                assert np.array_equal(from_block, want[kept])

    def test_block_outside_the_counter_word_is_rejected(self):
        for block in (-1, 2**32):
            with pytest.raises(ValueError):
                rng.block_uniforms(1, self.TRIALS, block)

    def test_one_block_per_row_matches_the_scalar_block_rows(self):
        blocks = np.array([0, 9, 1, 2**32 - 1, 9, 0, 5, 3], dtype=np.int64)
        got = rng.block_uniforms(self.SEED, self.TRIALS, blocks)
        for row, block in enumerate(blocks.tolist()):
            want = rng.block_uniforms(self.SEED, self.TRIALS, block)[row]
            assert np.array_equal(got[row], want)

    def test_a_row_block_outside_the_counter_word_is_rejected(self):
        for bad in (-1, 2**32):
            blocks = np.zeros(len(self.TRIALS), dtype=np.int64)
            blocks[3] = bad
            with pytest.raises(ValueError):
                rng.block_uniforms(1, self.TRIALS, blocks)


class TestSolveExact:
    def test_symmetric_unit_stake_spot_values(self):
        sol = oracle.solve_exact(WalkParams(0.5, 0.5, 1), Strategy.B)
        assert sol.p0 == pytest.approx(4.0 - 2.0 * SQRT3, abs=1e-10)
        assert sol.m_total == pytest.approx(2.0 * (SQRT3 - 1.0), abs=1e-10)

    def test_no_stop_classical_chain(self):
        sol = oracle.solve_exact(WalkParams(0.4, 0.0, 2), Strategy.B)
        assert sol.p0 == pytest.approx(1.0, abs=1e-10)
        assert sol.m_total == pytest.approx(10.0, abs=1e-8)
        assert all(v == 0.0 for v in sol.pk.values())

    @pytest.mark.parametrize("i0", [1, 2, 5, 200])
    def test_no_stop_symmetric_walk_is_parabolic(self, i0, strategy, monkeypatch):
        # a double fixed point: reported at once, with no squaring and no solve
        monkeypatch.setattr(oracle, "solve_banded", _no_call)
        sol = oracle.solve_exact(WalkParams(0.5, 0.0, i0), strategy)
        assert sol.squarings == 0
        assert sol.p0 == 1.0
        assert sol.escape_mass == 0.0
        assert math.isinf(sol.m_total)
        assert math.isinf(sol.et[0])
        assert [sol.masses.at(k) for k in range(1, 5)] == [0.0] * 4

    def test_stopping_walk_solves_by_transfer(self, strategy, monkeypatch):
        calls = []
        solve = oracle.solve_banded
        monkeypatch.setattr(
            oracle, "solve_banded", lambda f, rhs: calls.append(len(rhs)) or solve(f, rhs)
        )
        sol = oracle.solve_exact(WalkParams(0.5, 0.1, 2), strategy)
        cut = (strategy.first_barrier_multiple + 1) * 2
        assert calls == [cut, cut]  # the masses' and the times' solve, on the head only
        assert 0 < sol.squarings <= 64
        assert sol.fixed_point_residual < 1e-15
        ref = oracle._solve_truncated(WalkParams(0.5, 0.1, 2), strategy, 512)
        assert sol.p0 == pytest.approx(ref["p0"], abs=1e-13)
        assert sol.m_total == pytest.approx(ref["m_total"], rel=1e-10)

    def test_no_stop_upward_drift_reports_escape(self):
        params = WalkParams(0.7, 0.0, 2)
        sol = oracle.solve_exact(params, Strategy.A)
        assert sol.p0 == pytest.approx(1.0 / params.omega_pow, abs=1e-10)
        assert sol.escape_mass == pytest.approx(1.0 - sol.p0, abs=1e-9)
        want = params.i0 / ((params.p - params.q) * params.omega_pow)
        assert sol.et[0] == pytest.approx(want, rel=1e-9)

    def test_all_stop_symmetric_middle_mass(self):
        sol = oracle.solve_exact(WalkParams(0.5, 1.0, 2), Strategy.B)
        assert sol.pk[1] == pytest.approx(0.5, abs=1e-12)
        assert sol.p0 == pytest.approx(0.25, abs=1e-12)
        assert sol.m_total == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
    def test_rejects_a_tolerance_that_is_not_finite_and_positive(self, tol):
        params = WalkParams(0.4, 0.5, 2)
        with pytest.raises(ParameterError, match="tol must be finite and > 0"):
            oracle.solve_exact(params, Strategy.A, tol=tol)
        with pytest.raises(ParameterError, match="tol must be finite and > 0"):
            oracle.mgf_dp(params, Strategy.A, 0.5, 2, tol=tol)

    def test_stopping_walk_never_reports_an_infinite_time(self):
        # Upward drift with rare stops: every trial is eventually absorbed
        # after a mean time of 6624.92.  Truncation doubling needed more
        # barriers than it allowed here; the tail's boundary condition needs none.
        params = WalkParams(0.55, 1e-4, 2)
        sol = oracle.solve_exact(params, Strategy.B)
        assert sol.m_total == pytest.approx(6624.9197, rel=1e-8)
        assert sol.m_total == pytest.approx(
            metrics.mean_time_any(params, Strategy.B), rel=1e-10
        )
        assert sol.escape_mass < 1e-12

    def test_escape_mass_negligible_with_interior_stop(self, strategy):
        for params in small_grid():
            sol = oracle.solve_exact(params, strategy, tol=1e-10)
            assert sol.escape_mass < 1e-9


class TestIndependence:
    def test_imports_only_core_rng_numpy_and_the_standard_library(self):
        # the oracles check the closed forms, so they must share no code with
        # charpoly, mgf or metrics; ast.walk also reaches imports in functions
        tree = ast.parse(Path(oracle.__file__).read_text())
        found = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                found.update(
                    f".{node.module}" if node.module else f".{alias.name}"
                    for alias in node.names
                )
            elif isinstance(node, ast.ImportFrom):
                found.add(node.module.split(".")[0])
            elif isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
        assert {".core", ".rng", "numpy"} <= found
        allowed = {".core", ".rng", "numpy"} | set(sys.stdlib_module_names)
        assert found - allowed == set()


def _no_call(*args):
    raise AssertionError("no linear solve expected")


class TestTransferSolve:
    """The untruncated solve against the truncated one and the closed forms."""

    @pytest.mark.parametrize("i0", [1, 2, 5])
    @pytest.mark.parametrize(
        "p, s",
        # no truncation converges for a (nearly) driftless walk that never
        # stops: those are left to the parabolic and the escape tests
        [(p, s) for p in (0.3, 0.5, 0.5 + 1e-7, 0.7) for s in (0.0, 0.01, 0.3, 1.0)
         if s > 0.0 or abs(p - 0.5) > 1e-6],
    )
    def test_matches_truncated_solve(self, p, s, i0, strategy):
        params = WalkParams(p, s, i0)
        sol = oracle.solve_exact(params, strategy)
        # twice the barriers the solution reports, plus 64 for the walks
        # without stops, whose truncation error decays like (3/7)**(k * i0):
        # the sink's pull on the compared barriers is below rounding
        trunc_k = 2 * sol.truncation_k + 64
        ref = oracle._solve_truncated(params, strategy, trunc_k)
        masses = [ref["p0"]] + [ref["pk"][k] for k in range(1, trunc_k // 2)]
        assert [sol.masses.at(k) for k in range(trunc_k // 2)] == pytest.approx(
            masses, rel=0.0, abs=1e-13
        )
        times = [ref["et"][k] for k in range(sol.truncation_k)]
        assert [sol.times.at(k) for k in range(sol.truncation_k)] == pytest.approx(
            times, rel=1e-10, abs=0.0
        )
        assert sol.m_total == pytest.approx(ref["m_total"], rel=1e-10)
        assert sol.escape_mass == pytest.approx(ref["escape"], abs=1e-13)

    def test_dicts_agree_with_the_accessors(self, strategy):
        sol = oracle.solve_exact(WalkParams(0.45, 0.3, 2), strategy)
        assert sorted(sol.pk) == list(range(1, sol.truncation_k))
        assert sorted(sol.et) == list(range(sol.truncation_k))
        assert all(sol.masses.at(k) == v for k, v in sol.pk.items())
        assert all(sol.times.at(k) == v for k, v in sol.et.items())
        # the dicts end at the first barrier past the head whose mass and
        # time are both below tol * 1e-6; the accessors go on from there
        last = sol.truncation_k - 1
        assert max(sol.pk[last], sol.et[last]) < 1e-16 <= max(sol.pk[last - 1], sol.et[last - 1])
        beyond = [sol.masses.at(k) for k in range(last + 1, last + 4)]
        assert 0.0 < beyond[2] < beyond[1] < beyond[0] < sol.pk[last]
        assert sol.masses.at(-1) == sol.times.at(-1) == 0.0

    @pytest.mark.parametrize(
        "p, s, i0, strategy",
        [(0.7, 1e-4, i0, Strategy.A) for i0 in (1, 2, 3, 5)]
        + [(0.55, 1e-4, 2, Strategy.B)]
        + [(0.7, 0.01, i0, st) for i0 in range(1, 6) for st in Strategy],
    )
    def test_formerly_unconverged_walks_match_the_closed_forms(self, p, s, i0, strategy):
        # truncation doubling raised ConvergenceError on every one of these
        params = WalkParams(p, s, i0)
        sol = oracle.solve_exact(params, strategy)
        prof = metrics.absorption_profile(params, strategy)
        assert [sol.masses.at(k) for k in range(257)] == pytest.approx(
            [prof.at(k) for k in range(257)], rel=0.0, abs=1e-9
        )
        assert sol.m_total == pytest.approx(metrics.mean_time_any(params, strategy), rel=1e-7)

    @pytest.mark.parametrize("i0", [1, 2, 5])
    @pytest.mark.parametrize("p", [0.5 + 1e-7, 0.55, 0.7])
    def test_no_stop_upward_drift_escapes_exactly(self, p, i0, strategy):
        params = WalkParams(p, 0.0, i0)
        sol = oracle.solve_exact(params, strategy)
        assert sol.escape_mass == pytest.approx(1.0 - params.omega_pow ** -1, abs=1e-13)
        assert sol.p0 == pytest.approx(params.omega_pow ** -1, abs=1e-13)
        # conditioned on ruin the walk drifts down at p - q
        want = i0 / ((params.p - params.q) * params.omega_pow)
        assert sol.et[0] == pytest.approx(want, rel=1e-10)
        assert sol.m_total == sol.et[0]

    @pytest.mark.parametrize("i0", [1, 2, 5])
    @pytest.mark.parametrize("p", [0.55, 0.6, 0.7, 0.9])
    @pytest.mark.parametrize("s", [1e-30, 1e-60, 1e-100])
    def test_tiny_stop_matches_the_small_s_mean(self, s, p, i0, strategy):
        # e* = 1 - r* is of order s here; a stopping test absolute in e*
        # reported 2.43e32 at (0.6, 1e-60, 1) and the s = 0 answer at 1e-100
        params = WalkParams(p, s, i0)
        sol = oracle.solve_exact(params, strategy)
        want = i0 * (1.0 - params.omega_pow ** -1) / s
        assert sol.m_total == pytest.approx(want, rel=1e-12)
        assert sol.escape_mass < 1e-12

    def test_tiny_stop_mean_at_s_1e_30(self):
        sol = oracle.solve_exact(WalkParams(0.6, 1e-30, 1), Strategy.A)
        assert sol.m_total == pytest.approx(1e30 / 3.0, rel=1e-13)

    @pytest.mark.parametrize("p", [0.55, 0.6, 0.9])
    def test_tail_out_of_range_raises(self, p, strategy):
        # 1 - rho is about 1e-200, and the tail's time sum divides by its square
        with pytest.raises(oracle.ConvergenceError, match="underflows"):
            oracle.solve_exact(WalkParams(p, 1e-200, 1), strategy)

    def test_eigenvalue_ratio_below_rounding_keeps_squaring(self):
        # kappa is about 1e-19 here, where (trace - root) / (trace + root)
        # cancelled to 0: no squaring was taken and the mean was 1.5e-8 off
        params = WalkParams(0.9, 1e-12, 20)
        sol = oracle.solve_exact(params, Strategy.A)
        assert sol.squarings >= 1
        want = 20 * (1.0 - params.omega_pow ** -1) / 1e-12
        assert sol.m_total == pytest.approx(want, rel=1e-10)

    def test_long_period_has_an_answer_where_the_closed_form_overflows(self):
        # tau1**330 leaves float range; below i0 = 323 the closed form answers
        params = WalkParams(0.9, 0.5, 330)
        with pytest.raises(UnsupportedRegimeError):
            metrics.absorption_profile(params, Strategy.B)
        sol = oracle.solve_exact(params, Strategy.B)
        masses = [sol.p0, *sol.pk.values()]
        assert all(math.isfinite(m) and m >= 0.0 for m in masses)
        assert sum(masses) == pytest.approx(1.0, abs=1e-12)
        assert 0.0 < sol.p0 < 1e-310
        assert all(math.isfinite(t) and t >= 0.0 for t in sol.et.values())
        assert math.isfinite(sol.m_total)


class TestSolveBanded:
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 200])
    def test_matches_dense_solve(self, n):
        gen = np.random.default_rng(n)
        for _ in range(20):
            sub = gen.uniform(-1.0, 1.0, n - 1)
            sup = gen.uniform(-1.0, 1.0, n - 1)
            # diagonally dominant by columns, pivots of either sign
            col = np.abs(np.append(sub, 0.0)) + np.abs(np.insert(sup, 0, 0.0))
            diag = (col + gen.uniform(0.01, 1.0, n)) * gen.choice([-1.0, 1.0], n)
            rhs = gen.uniform(-1.0, 1.0, n)
            dense = np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)
            factors = oracle._factor_tridiagonal(sub.tolist(), diag.tolist(), sup.tolist())
            got = oracle.solve_banded(factors, rhs.tolist())
            want = np.linalg.solve(dense, rhs)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def _dense_truncated(params, strategy, trunc_k):
    """The forward first-step systems, one dense column per target.

    Restates the stop rule itself, not through ``Strategy.is_barrier``, so
    that a fault in the rule shows against the oracle that reads it.
    """
    p, q, s, i0 = params.p, params.q, params.s, params.i0
    top = trunc_k * i0
    kmin = strategy.first_barrier_multiple
    barrier = [x % i0 == 0 and x >= kmin * i0 for x in range(top)]
    alpha = np.array([1.0 - s if barrier[x] else 1.0 for x in range(1, top)])
    a = np.eye(top - 1) - np.diag(alpha[:-1] * p, 1) - np.diag(alpha[1:] * q, -1)
    targets = [k * i0 for k in range(trunc_k)]
    rhs = np.zeros((top - 1, trunc_k))
    rhs[0, 0] = alpha[0] * q  # ruin: h = 1 at state 0
    for col, y in enumerate(targets[1:], start=1):
        rhs[y - 1, col] = s if barrier[y] else 0.0
    h = np.zeros((top + 1, trunc_k))
    h[0, 0] = 1.0
    h[1:top] = np.linalg.solve(a, rhs)
    t = np.zeros((top + 1, trunc_k))
    t[1:top] = np.linalg.solve(a, alpha[:, None] * (p * h[2:] + q * h[:-2]))
    if strategy is Strategy.C:
        return h[i0], t[i0]
    step = 1.0 - s if strategy is Strategy.A else 1.0
    start_h = step * (p * h[i0 + 1] + q * h[i0 - 1])
    start_t = start_h + step * (p * t[i0 + 1] + q * t[i0 - 1])
    if strategy is Strategy.A:
        start_h[1] += s
    return start_h, start_t


class TestAdjointSolve:
    @pytest.mark.parametrize("trunc_k", [8, 64])
    @pytest.mark.parametrize("i0", [1, 3])
    @pytest.mark.parametrize("s", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
    def test_matches_dense_forward_solve(self, p, s, i0, trunc_k, strategy):
        params = WalkParams(p, s, i0)
        sol = oracle._solve_truncated(params, strategy, trunc_k)
        mass, time = _dense_truncated(params, strategy, trunc_k)
        assert sorted(sol["pk"]) == list(range(1, trunc_k))
        assert sorted(sol["et"]) == list(range(trunc_k))
        got_mass = [sol["p0"]] + [sol["pk"][k] for k in range(1, trunc_k)]
        assert np.allclose(got_mass, mass, rtol=0.0, atol=1e-13)
        assert sol["escape"] == pytest.approx(max(0.0, 1.0 - mass.sum()), abs=1e-13)
        got_time = [sol["et"][k] for k in range(trunc_k)]
        assert np.allclose(got_time, time, rtol=1e-12, atol=0.0)
        assert sol["m_total"] == pytest.approx(time.sum(), rel=1e-12)


class TestMgfDp:
    def test_requires_z_strictly_inside(self):
        params = WalkParams(0.4, 0.5, 1)
        for z in (0.0, 1.0, 1.2):
            with pytest.raises(ParameterError):
                oracle.mgf_dp(params, Strategy.A, z, 1)

    def test_tiny_z_keeps_only_the_start_term(self):
        params = WalkParams(0.4, 0.5, 2)
        assert oracle.mgf_dp(params, Strategy.A, 1e-6, 2) == pytest.approx(
            1.0, abs=1e-5
        )
        assert oracle.mgf_dp(params, Strategy.B, 1e-6, 2) == pytest.approx(
            0.0, abs=1e-5
        )

    def test_ruin_state_one_down_step_relation(self):
        # value(0) == q*z*value(1) when state 1 is not a barrier
        params = WalkParams(0.5, 0.5, 2)
        z = 0.5
        v0 = oracle.mgf_dp(params, Strategy.A, z, 0, tol=1e-12)
        v1 = oracle.mgf_dp(params, Strategy.A, z, 1, tol=1e-12)
        assert v0 == pytest.approx(params.q * z * v1, abs=1e-10)

    def test_tolerance_refinement_consistent(self):
        params = WalkParams(0.45, 0.2, 2)
        coarse = oracle.mgf_dp(params, Strategy.C, 0.9, 2, tol=1e-8)
        fine = oracle.mgf_dp(params, Strategy.C, 0.9, 2, tol=1e-9)
        assert abs(coarse - fine) < 1e-8


class TestSimulate:
    def test_all_stop_eager_strategy_absorbs_at_start(self):
        sim = oracle.simulate(WalkParams(0.3, 1.0, 3), Strategy.A, 500, seed=9)
        assert sim.absorption_counts == {3: 500}
        assert sim.mean_time == 0.0
        assert sim.escaped == 0

    def test_bit_reproducible_across_runs_and_workers(self):
        params = WalkParams(0.5, 0.5, 1)
        a = oracle.simulate(params, Strategy.B, 150_000, seed=42)
        b = oracle.simulate(params, Strategy.B, 150_000, seed=42)
        c = oracle.simulate(params, Strategy.B, 150_000, seed=42, workers=4)
        d = oracle.simulate(params, Strategy.B, 150_000, seed=42, workers=2)
        assert a == b == c == d

    def test_seed_changes_the_sample(self):
        params = WalkParams(0.5, 0.5, 1)
        a = oracle.simulate(params, Strategy.B, 10_000, seed=1)
        b = oracle.simulate(params, Strategy.B, 10_000, seed=2)
        assert a != b

    def test_concordance_with_exact_solver(self):
        params = WalkParams(0.5, 0.5, 1)
        sol = oracle.solve_exact(params, Strategy.B, tol=1e-11)
        sim = oracle.simulate(params, Strategy.B, 1_000_000, seed=20240914)
        est, se = sim.probability(0)
        assert abs(est - sol.p0) < 4.0 * se
        mt, mse = sim.mean_time, sim.mean_time_se
        assert abs(mt - sol.m_total) < 4.0 * mse

    def test_counts_and_escapes_add_up(self):
        params = WalkParams(0.5, 0.1, 2)
        # a trial survives 100 steps with probability 1.29e-3 (forward
        # propagation of the chain), so about 64 of 50,000 are expected to
        # escape; this seed gives 66
        sim = oracle.simulate(params, Strategy.C, 50_000, seed=5, max_steps=100)
        assert sum(sim.absorption_counts.values()) + sim.escaped == sim.trials
        assert sim.escaped > 0  # tight cap forces visible escapes
        assert sim.trial_steps == sum(sim.time_sum_by_state.values()) + 100 * sim.escaped

    @pytest.mark.parametrize(
        "p, s, i0, strategy, max_steps",
        [
            (0.5, 0.3, 2, Strategy.B, 1001),
            (0.45, 0.1, 3, Strategy.A, 1001),
            (0.4, 0.5, 1, Strategy.B, 1001),  # stop and ruin both possible at state 1
            (0.4, 0.5, 1, Strategy.A, 1001),
            (0.5, 0.1, 2, Strategy.C, 37),  # many escapes, cap not a multiple of 4
        ],
    )
    def test_matches_per_step_reference_loop(self, p, s, i0, strategy, max_steps):
        params = WalkParams(p, s, i0)
        sim = oracle.simulate(params, strategy, 3000, seed=77, max_steps=max_steps)
        counts, tsum, tsq, escaped, steps = _reference_walk(params, strategy, 3000, 77, max_steps)
        assert sim.absorption_counts == counts
        assert sim.time_sum_by_state == tsum
        assert sim.time_sq_sum_by_state == tsq
        assert (sim.escaped, sim.trial_steps) == (escaped, steps)
        if max_steps == 37:
            assert escaped > 0

    @pytest.mark.parametrize(
        "p, s, i0, strategy, max_steps",
        [
            (0.5, 0.3, 2, Strategy.B, 1001),
            (0.45, 0.1, 3, Strategy.A, 1001),
            (0.4, 0.5, 1, Strategy.B, 1001),
            (0.4, 0.5, 1, Strategy.A, 1001),
            # trials that join at tick 4m escape at tick 4m + 37, mid-block;
            # B's late joiners take their first step with i0 not yet a barrier
            (0.5, 0.1, 2, Strategy.C, 37),
            (0.5, 0.3, 2, Strategy.B, 37),
            (0.45, 0.1, 3, Strategy.A, 37),
            # s = 0: the stop threshold is 0, which no word is below
            (0.5, 0.0, 2, Strategy.B, 37),
            # s = 1: the stop threshold rounds to 2**32, so every barrier arrival stops
            (0.4, 1.0, 2, Strategy.B, 1001),
        ],
    )
    @pytest.mark.parametrize("table", [None, 4], ids=["table", "modulo"])
    def test_refilled_batches_match_the_reference_loop(
        self, p, s, i0, strategy, max_steps, table, monkeypatch
    ):
        # ranges of 1,000 trials in batches of 64: three streams, two of
        # them walked here and one in a forked worker wherever two CPUs
        # are usable, each refilled hundreds of times
        monkeypatch.setattr(oracle, "_RANGE", 1000)
        monkeypatch.setattr(oracle, "_BATCH", 64)
        if table is not None:  # states past 3 take the modulo and tally one by one
            monkeypatch.setattr(oracle, "_TABLE", table)
        params = WalkParams(p, s, i0)
        sim = oracle.simulate(params, strategy, 3000, seed=77, max_steps=max_steps, workers=2)
        counts, tsum, tsq, escaped, steps = _reference_walk(params, strategy, 3000, 77, max_steps)
        assert sim.absorption_counts == counts
        assert sim.time_sum_by_state == tsum
        assert sim.time_sq_sum_by_state == tsq
        assert (sim.escaped, sim.trial_steps) == (escaped, steps)
        if max_steps == 37:
            assert escaped > 0

    def test_identical_across_workers_and_stream_sizes(self, monkeypatch):
        params = WalkParams(0.5, 0.1, 2)
        runs = []
        for range_size, batch in ((1000, 64), (700, 48), (oracle._RANGE, oracle._BATCH)):
            monkeypatch.setattr(oracle, "_RANGE", range_size)
            monkeypatch.setattr(oracle, "_BATCH", batch)
            for workers in (1, 2, 4):
                runs.append(oracle.simulate(params, Strategy.B, 5000, 11, 40, workers))
        assert runs[0].escaped > 0
        assert all(run == runs[0] for run in runs)

    def test_trials_split_into_equal_ranges_whatever_the_workers(self, monkeypatch):
        # 1,001 trials over ranges of at most 1,000 make two, of 500 and 501
        monkeypatch.setattr(oracle, "_RANGE", 1000)
        seen, real = [], oracle._range_trials

        def range_trials(params, strategy, seed, lo, hi, max_steps):
            seen.append((lo, hi))
            return real(params, strategy, seed, lo, hi, max_steps)

        monkeypatch.setattr(oracle, "_range_trials", range_trials)
        params = WalkParams(0.5, 0.3, 2)
        one = oracle.simulate(params, Strategy.B, 1001, seed=5, max_steps=200, workers=1)
        assert seen == [(0, 500), (500, 1001)]
        monkeypatch.setattr(oracle, "_usable_cpus", lambda: 2)
        assert oracle.simulate(params, Strategy.B, 1001, seed=5, max_steps=200, workers=2) == one

    def test_drifting_escapes_keep_memory_bounded(self, monkeypatch):
        # every trial not ruined at once walks up to max_steps; a table, a
        # bincount or any buffer sized by the states reached or by the clock
        # would grow tenfold between the two runs
        import tracemalloc

        monkeypatch.setattr(oracle, "_TABLE", 64)  # past state 63 the modulo serves
        params = WalkParams(0.9, 0.0, 1)
        oracle.simulate(params, Strategy.A, 8, seed=2, max_steps=10)  # imports, off the books
        peaks = []
        for max_steps in (300, 3000):
            tracemalloc.start()
            try:
                sim = oracle.simulate(params, Strategy.A, 8, seed=2, max_steps=max_steps)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert sim.escaped > 0
            assert sim.trial_steps == sum(sim.time_sum_by_state.values()) + max_steps * sim.escaped
        assert peaks[1] < peaks[0] + 4096
        assert peaks[1] < 1 << 16

    def test_tallies_are_exact_integers_past_float_precision(self, monkeypatch):
        # a batch of 2**52 leaves no tick whose float sums are sure to be
        # exact, so every event is tallied one by one in Python integers
        monkeypatch.setattr(oracle, "_BATCH", 1 << 52)
        params = WalkParams(0.5, 0.1, 2)
        fast = oracle.simulate(params, Strategy.B, 2000, seed=4, max_steps=500)
        monkeypatch.setattr(oracle, "_BATCH", 1 << 10)
        assert oracle.simulate(params, Strategy.B, 2000, seed=4, max_steps=500) == fast

    def test_generator_reports_the_four_lane_stream(self):
        sim = oracle.simulate(WalkParams(0.5, 0.5, 1), Strategy.B, 10, seed=3)
        gen = dict(sim.generator)
        assert gen["counter_layout"] == "(step // 4, trial_lo32, trial_hi32, 0)"
        assert gen["output_lane"] == "step % 4"
        assert gen["key"] == rng.split_key(3)
        assert isinstance(sim.trial_steps, int)

    def test_rejects_bad_arguments(self):
        params = WalkParams(0.5, 0.5, 1)
        with pytest.raises(ParameterError):
            oracle.simulate(params, Strategy.B, 0, seed=1)
        with pytest.raises(ParameterError):
            oracle.simulate(params, Strategy.B, 10, seed=1, max_steps=0)


def _word_step_or_neighbour(n: int, side: int) -> float:
    """n * 2**-32, or its float neighbour below (side -1) or above (+1), held in [0, 1]."""
    x = n * 2.0**-32
    if side:
        x = min(max(math.nextafter(x, 2.0 * side), 0.0), 1.0)
    return x


class TestWordThresholds:
    """The walk's integer test of a Philox word against the float rule u < x."""

    @given(
        st.one_of(
            st.floats(0.0, 1.0),
            st.sampled_from([0.0, 1.0, 5e-324, 2.2250738585072014e-308, 2**-32, 1 - 2**-32]),
            st.floats(0.0, 2.2250738585072014e-308),  # subnormals
            # x * 2**32 an integer, and its float neighbours on either side
            st.builds(_word_step_or_neighbour, st.integers(0, 2**32), st.sampled_from([-1, 0, 1])),
        )
    )
    @settings(max_examples=500, deadline=None)
    def test_integer_decision_equals_the_float_rule(self, x):
        bound = math.ceil(x * 2**32)
        words = sorted({w for w in (0, 1, bound - 1, bound, 2**32 - 1) if 0 <= w < 2**32})
        got = oracle._word_below(x)(np.array(words, dtype=np.uint32))
        assert got.dtype == bool
        assert got.tolist() == [w * 2.0**-32 < x for w in words]


class TestWorkers:
    """Worker processes, on ranges of 1,000 trials: 3,000 trials span three."""

    PARAMS = WalkParams(0.5, 0.3, 2)

    @pytest.fixture(autouse=True)
    def _three_ranges_two_cpus(self, monkeypatch):
        monkeypatch.setattr(oracle, "_RANGE", 1000)
        monkeypatch.setattr(oracle, "_usable_cpus", lambda: 2)

    @pytest.fixture
    def forks(self, monkeypatch):
        """The number of forks, counted in this process around the real ``os.fork``."""
        calls, real_fork = [], os.fork

        def fork():
            calls.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        return calls

    @staticmethod
    def _in_children(monkeypatch, act):
        """``_range_trials`` runs ``act(lo)`` in a forked worker, and walks here."""
        parent, real = os.getpid(), oracle._range_trials

        def range_trials(params, strategy, seed, lo, hi, max_steps):
            if os.getpid() != parent:
                act(lo)
            return real(params, strategy, seed, lo, hi, max_steps)

        monkeypatch.setattr(oracle, "_range_trials", range_trials)

    @staticmethod
    def _assert_every_child_reaped():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("workers", [2, 64])
    def test_one_fork_per_usable_cpu_past_the_first(self, forks, workers):
        one = oracle.simulate(self.PARAMS, Strategy.B, 3000, seed=5, max_steps=200)
        assert forks == []
        got = oracle.simulate(self.PARAMS, Strategy.B, 3000, seed=5, max_steps=200, workers=workers)
        assert got == one
        assert forks == [1]
        self._assert_every_child_reaped()

    def test_one_worker_or_one_range_forks_nothing(self, forks):
        oracle.simulate(self.PARAMS, Strategy.B, 3000, seed=5, max_steps=200, workers=1)
        oracle.simulate(self.PARAMS, Strategy.B, 1000, seed=5, max_steps=200, workers=2)
        assert forks == []

    def test_without_fork_every_share_runs_here(self, monkeypatch):
        one = oracle.simulate(self.PARAMS, Strategy.B, 3000, seed=5, max_steps=200)
        monkeypatch.delattr(os, "fork")
        assert oracle.simulate(self.PARAMS, Strategy.B, 3000, seed=5, max_steps=200, workers=2) == one

    def test_a_workers_exception_comes_back_with_its_type(self, monkeypatch):
        def refuse(lo):
            raise ParameterError(f"range at {lo} refused")

        self._in_children(monkeypatch, refuse)
        with pytest.raises(ParameterError, match="range at 1000 refused"):  # the child's range
            oracle.simulate(self.PARAMS, Strategy.B, 3000, seed=5, max_steps=200, workers=2)
        self._assert_every_child_reaped()

    @pytest.mark.parametrize("code", [3, 0])  # 0: ends cleanly, but sends nothing
    def test_a_worker_that_dies_raises_convergence_error(self, monkeypatch, code):
        self._in_children(monkeypatch, lambda lo: os._exit(code))
        with pytest.raises(oracle.ConvergenceError, match=rf"worker 1 .*exit status {code}\)"):
            oracle.simulate(self.PARAMS, Strategy.B, 3000, seed=5, max_steps=200, workers=2)
        self._assert_every_child_reaped()

    def test_a_failing_parent_share_kills_its_workers(self, monkeypatch):
        import time

        parent = os.getpid()

        def range_trials(params, strategy, seed, lo, hi, max_steps):
            if os.getpid() != parent:
                time.sleep(60)  # would outlive the test unless killed
            raise KeyboardInterrupt

        monkeypatch.setattr(oracle, "_range_trials", range_trials)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            oracle.simulate(self.PARAMS, Strategy.B, 3000, seed=5, max_steps=200, workers=2)
        assert time.monotonic() - start < 10.0
        self._assert_every_child_reaped()


def _reference_walk(params, strategy, trials, seed, max_steps):
    """Plain per-step Monte Carlo: one ``step_uniforms`` call per step.

    Restates the stop rule itself, as :func:`_dense_truncated` does.
    """
    p, s, i0 = params.p, params.s, params.i0
    kmin = strategy.first_barrier_multiple
    ids = np.arange(trials, dtype=np.uint64)
    x = np.full(trials, i0, dtype=np.int64)
    counts, tsum, tsq = {}, {}, {}
    steps = 0

    def record(states, when):
        nonlocal steps
        vals, cnt = np.unique(states, return_counts=True)
        for v, c in zip(vals.tolist(), cnt.tolist()):
            counts[v] = counts.get(v, 0) + c
            tsum[v] = tsum.get(v, 0.0) + c * float(when)
            tsq[v] = tsq.get(v, 0.0) + c * float(when) ** 2
            steps += c * when

    t = 0
    while x.size and t < max_steps:
        u = rng.step_uniforms(seed, ids, t)
        on_barrier = (x % i0 == 0) & (x >= kmin * i0)
        if strategy is Strategy.B and t == 0:
            on_barrier &= x != i0
        sbar = np.where(on_barrier, s, 0.0)
        stopped = u < sbar
        record(x[stopped], t)
        x, ids, u, sbar = x[~stopped], ids[~stopped], u[~stopped], sbar[~stopped]
        x = x + np.where(u < sbar + (1.0 - sbar) * p, 1, -1)
        ruined = x == 0
        record(x[ruined], t + 1)
        x, ids = x[~ruined], ids[~ruined]
        t += 1
    steps += int(x.size) * max_steps
    by_state = (dict(sorted(d.items())) for d in (counts, tsum, tsq))
    return (*by_state, int(x.size), steps)
