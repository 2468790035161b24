import re
import tracemalloc
import warnings

import numpy as np
import pytest

from oracles import density_column, rk4_reference, sample_path, simpson_heat
from qtricycle import (
    PositivityError,
    TricycleConfig,
    branch_heat,
    cycle_coefficients,
    gibbs_state,
    heat_via_trajectory,
    oracle,
    perturbed_state,
    propagate,
)
from qtricycle.optimize import max_cooling_rate
from qtricycle.oracle import _MAX_STEPS, default_steps
from qtricycle.protocol import frequency


@pytest.fixture(scope="module")
def frozen_branch():
    # relative frequency sweep of 2e-10 around omega = 1: effectively a
    # constant generator while keeping the standard schedule machinery
    return TricycleConfig(T_c=0.5, T_h=1.0, T_p=0.7, zeta_c=1e10, zeta_h=1e10,
                          delta_c=1e-10).branch("c")


@pytest.fixture(scope="module")
def cold_trajectory_200():
    branch = TricycleConfig().branch("c")
    return branch, propagate(branch, 200.0)


def path_of(traj):
    """x at each of the ``steps + 1`` sample times of the branch map ``traj``."""
    return sample_path(traj.branch, traj.tau, traj.steps, traj.x0)


class TestStationaryAndRelaxation:
    def test_gibbs_stays_put(self, frozen_branch):
        path = path_of(propagate(frozen_branch, 5.0))
        drift = np.max(np.abs(path - path[0]))
        assert drift < 1e-10

    def test_monotone_relaxation_toward_gibbs(self, frozen_branch):
        target = gibbs_state(frozen_branch.temperature, 1.0)[0]
        path = path_of(propagate(frozen_branch, 10.0, x0=0.9))
        distance = np.abs(path - target)
        assert np.all(np.diff(distance) <= 1e-15)
        assert distance[-1] < 1e-4 * distance[0]

    def test_heat_vanishes_at_equilibrium(self, frozen_branch):
        traj = propagate(frozen_branch, 5.0)
        assert abs(heat_via_trajectory(traj)) < 1e-10


class TestSlowDriving:
    def test_tracks_instantaneous_equilibrium(self):
        branch = TricycleConfig().branch("c")
        traj = propagate(branch, 500.0)
        target = gibbs_state(branch.temperature, frequency(branch, 1.0))[0]
        assert abs(traj.x - target) < 1e-5

    def test_heat_matches_expansion_to_one_percent(self, cold_trajectory_200):
        branch, traj = cold_trajectory_200
        q = heat_via_trajectory(traj)
        bt = branch_heat(branch, 200.0)
        assert abs(q - bt.Q) < 0.01 * abs(q)

    def test_neglected_term_decays_quadratically(self):
        branch = TricycleConfig().branch("c")
        errs = {}
        for tau in (100.0, 200.0):
            q = heat_via_trajectory(propagate(branch, tau))
            bt = branch_heat(branch, tau)
            errs[tau] = abs(q - bt.Q)
        assert 0.2 <= errs[200.0] / errs[100.0] <= 0.35

    def test_state_agrees_with_perturbed_state(self):
        # second-order remainder bound, all three default branches
        for res in "chp":
            for tau in (100.0, 200.0):
                branch = TricycleConfig().branch(res)
                traj = propagate(branch, tau)
                path = path_of(traj)
                stride = max(1, traj.steps // 20)
                worst = 0.0
                for idx in range(0, traj.steps + 1, stride):
                    p = perturbed_state(branch, idx / traj.steps, tau)
                    worst = max(worst, abs(float(path[idx]) - p))
                assert worst < 5.0 / tau ** 2, (res, tau, worst)


class TestIntegratorContracts:
    def test_weak_damping_long_run_stays_finite_without_warnings(self):
        # weak damping: the default step resolves the relaxation, but w dt is
        # about 17, far beyond RK4's stability bound for a rotating coherence;
        # the population carries none, so no overflow reaches the state
        branch = TricycleConfig(gamma0=1e-3).branch("c")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            traj = propagate(branch, 1e5)
            path = path_of(traj)
        assert np.all(np.isfinite(path))
        assert all(map(np.isfinite, (traj.A, traj.B, traj.heat_slope, traj.heat_intercept)))

    def test_populations_from_an_equal_start_stay_physical(self):
        branch = TricycleConfig().branch("c")
        traj = propagate(branch, 40.0, x0=0.5)
        for x in path_of(traj)[:: traj.steps // 10]:
            assert -1e-10 <= x <= 1.0 + 1e-10

    def test_initial_population_outside_unit_interval_rejected(self):
        # x0 is the population itself: no slack, and NaN fails both bounds
        branch = TricycleConfig().branch("c")
        for x0 in (1.2, -2e-12, float("nan")):
            with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
                propagate(branch, 10.0, x0=x0)
        for x0 in (0.0, 1.0):
            assert propagate(branch, 10.0, x0=x0).x0 == x0

    def test_step_count_above_the_limit_rejected_before_allocating(self):
        # tau = 1e9 asks for about 5.7e10 steps on the default cold branch:
        # minutes of RK4, or a MemoryError, without the limit
        branch = TricycleConfig().branch("c")
        assert default_steps(branch, 1e9) > _MAX_STEPS
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceed the oracle's limit"):
                propagate(branch, 1e9)
            with pytest.raises(ValueError, match="exceed the oracle's limit"):
                propagate(branch, 10.0, steps=_MAX_STEPS + 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_default_step_rule(self):
        branch = TricycleConfig().branch("c")
        steps = default_steps(branch, 100.0)
        assert steps >= 1000 and steps % 2 == 0
        assert steps >= 50 * 100.0  # fastest rate exceeds 1 here

    def test_step_floor_enforced(self):
        branch = TricycleConfig().branch("c")
        with pytest.raises(ValueError):
            propagate(branch, 10.0, steps=500)

    def test_odd_step_count_runs(self):
        branch = TricycleConfig().branch("c")
        odd = propagate(branch, 10.0, steps=1001)
        assert odd.steps == 1001 and len(path_of(odd)) == 1002
        assert odd.heat == pytest.approx(propagate(branch, 10.0, steps=1000).heat, rel=1e-9)

    def test_unstable_step_size_reported(self):
        branch = TricycleConfig(gamma0=80.0).branch("c")
        with pytest.raises(PositivityError):
            propagate(branch, 100.0, steps=1000)

    def test_not_a_number_is_reported(self):
        # gamma0 = 1e300 overflows the first step's map to NaN, which fails
        # neither comparison of a bare range check
        branch = TricycleConfig(gamma0=1e300).branch("c")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PositivityError, match=r"population nan .* at t=0\.01 "):
                propagate(branch, 10.0, steps=1000)

    @pytest.mark.parametrize("reservoir", "chp")
    def test_batch_size_leaves_the_branch_unchanged(self, reservoir, monkeypatch):
        # batches of 256 steps carry the population across 22-46 boundaries
        branch = TricycleConfig().branch(reservoir)
        traj = propagate(branch, 100.0)
        path = path_of(traj)
        monkeypatch.setattr(oracle, "_CHUNK", 256)
        small = propagate(branch, 100.0)
        assert np.max(np.abs(path_of(small) - path)) <= 1e-14
        for name in ("A", "B", "heat_slope", "heat_intercept", "x", "heat"):
            assert getattr(small, name) == pytest.approx(getattr(traj, name),
                                                         rel=1e-14, abs=1e-14), name
        assert small.A == pytest.approx(traj.A, rel=1e-14)  # A is 1e-45 to 1e-69 here

    def test_sample_records(self, cold_trajectory_200):
        # the default start is the Gibbs population at s = 0, and the path starts there
        branch, traj = cold_trajectory_200
        x0 = gibbs_state(branch.temperature, frequency(branch, 0.0))[0]
        assert traj.x0 == x0 and path_of(traj)[0] == x0

    def test_nonpositive_duration_rejected(self):
        branch = TricycleConfig().branch("c")
        for tau in (0.0, -2.0):
            with pytest.raises(ValueError, match="tau must be > 0"):
                propagate(branch, tau)

    def test_non_finite_duration_rejected(self):
        branch = TricycleConfig().branch("c")
        for tau in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="tau must be > 0 and finite, got"):
                propagate(branch, tau)

    def test_underflowing_step_rejected(self):
        # tau > 0, but tau / steps rounds to 0.0, so no step would advance the state
        branch = TricycleConfig().branch("c")
        for tau, steps in ((5e-324, None), (1e-320, 100_000)):
            with pytest.raises(ValueError, match="underflows to 0"):
                propagate(branch, tau, steps)
        assert heat_via_trajectory(propagate(branch, 1e-320)) != 0.0


class TestHeatQuadrature:
    """The heat the RK4 steps carry against Simpson's rule over the sampled
    path, which shares no heat code with it, and against the same branch at
    twice the step count."""

    @pytest.mark.parametrize("tau", [20.0, 100.0, 400.0])
    @pytest.mark.parametrize("reservoir", "chp")
    def test_matches_simpson_and_the_doubled_step_count(self, reservoir, tau):
        branch = TricycleConfig().branch(reservoir)
        traj = propagate(branch, tau)
        assert traj.heat == pytest.approx(simpson_heat(branch, tau, path_of(traj)), rel=1e-9)
        doubled = propagate(branch, tau, steps=2 * traj.steps)
        assert traj.heat == pytest.approx(doubled.heat, rel=1e-9)


class TestAgainstStageByStageReference:
    """The batched step maps against RK4 applied stage vector by stage vector."""

    @pytest.mark.parametrize("reservoir", "chp")
    def test_gibbs_start_at_tau_100(self, reservoir):
        branch = TricycleConfig().branch(reservoir)
        traj = propagate(branch, 100.0)
        initial = density_column(gibbs_state(branch.temperature, frequency(branch, 0.0)))
        ref, heat = rk4_reference(branch, 100.0, traj.steps, initial)
        path = path_of(traj)
        assert np.max(np.abs(path - ref[:, 0].real)) <= 1e-13
        assert np.max(np.abs(1.0 - path - ref[:, 3].real)) <= 1e-13
        assert heat_via_trajectory(traj) == pytest.approx(heat, rel=1e-13)

    def test_coherent_start(self):
        # the reference carries the coherences through the full 4x4 generator;
        # they never feed the populations, so its populations are those the
        # integrator gets from the population pair alone
        initial = density_column((0.5, 0.5), rho10=0.2 + 0.1j)
        for reservoir in "chp":
            branch = TricycleConfig().branch(reservoir)
            traj = propagate(branch, 40.0, x0=0.5)
            ref, heat = rk4_reference(branch, 40.0, traj.steps, initial)
            assert abs(ref[len(ref) // 10, 1]) > 1e-3  # the coherence is carried
            path = path_of(traj)
            assert np.max(np.abs(path - ref[:, 0].real)) <= 1e-13, reservoir
            assert np.max(np.abs(1.0 - path - ref[:, 3].real)) <= 1e-13, reservoir
            assert traj.heat == pytest.approx(heat, rel=1e-13), reservoir

    def test_unstable_step_fails_at_the_same_time(self):
        branch = TricycleConfig(gamma0=80.0).branch("c")
        initial = density_column(gibbs_state(branch.temperature, frequency(branch, 0.0)))
        messages = []
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for run in (lambda: propagate(branch, 100.0, steps=1000),
                        lambda: rk4_reference(branch, 100.0, 1000, initial)):
                with pytest.raises(PositivityError) as info:
                    run()
                messages.append(str(info.value))
        # same text, t= included, apart from the offending population's digits
        assert "at t=0.5 " in messages[0]
        assert re.sub(r"population \S+ ", "", messages[0]) == \
            re.sub(r"population \S+ ", "", messages[1])

    def test_unstable_step_past_the_first_batch_fails_at_the_same_time(self):
        # the rate rises as omega falls, so at gamma0 = 104 the step crosses
        # RK4's stability bound late in the cold branch: step 3313 fails,
        # past the first batch of steps
        branch = TricycleConfig(gamma0=104.0).branch("c")
        initial = density_column(gibbs_state(branch.temperature, frequency(branch, 0.0)))
        assert 3313 > oracle._CHUNK
        messages = []
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for run in (lambda: propagate(branch, 100.0, steps=4000),
                        lambda: rk4_reference(branch, 100.0, 4000, initial)):
                with pytest.raises(PositivityError) as info:
                    run()
                messages.append(str(info.value))
        assert "at t=82.825 " in messages[0]  # 3313 * 100 / 4000
        assert re.sub(r"population \S+ ", "", messages[0]) == \
            re.sub(r"population \S+ ", "", messages[1])


class TestBranchMap:
    """The branch as one affine map of its start population: the final x is
    A x0 + B and the heat heat_slope x0 + heat_intercept."""

    @pytest.mark.parametrize("tau", [20.0, 100.0, 400.0])
    @pytest.mark.parametrize("reservoir", "chp")
    def test_map_reproduces_propagate_from_seeded_starts(self, reservoir, tau):
        branch = TricycleConfig().branch(reservoir)
        for x0 in np.random.default_rng(7).random(5).tolist():
            traj = propagate(branch, tau, x0=x0)
            assert abs(traj.A * x0 + traj.B - traj.x) <= 1e-15
            scale = abs(traj.heat_slope) + abs(traj.heat_intercept)
            assert abs(traj.heat_slope * x0 + traj.heat_intercept - traj.heat) <= 1e-13 * scale

    def test_map_does_not_depend_on_the_start(self):
        branch = TricycleConfig().branch("h")
        maps = [propagate(branch, 30.0, x0=x0) for x0 in (0.0, 0.3, 1.0)]
        for name in ("A", "B", "heat_slope", "heat_intercept"):
            assert len({getattr(m, name) for m in maps}) == 1, name

    def test_periodic_state_of_the_cycle_returns(self):
        # a quench keeps the population, so the cycle c -> h -> p is the map
        # x -> A x + B of the three branch maps, with its fixed point B / (1 - A)
        config = TricycleConfig()
        peak = max_cooling_rate(cycle_coefficients(config), config.alpha)
        legs = list(zip("chp", (peak.tau_c, peak.tau_h, peak.tau_p)))
        A, B = 1.0, 0.0
        for reservoir, tau in legs:
            leg = propagate(config.branch(reservoir), tau)
            A, B = leg.A * A, leg.A * B + leg.B
        periodic = B / (1.0 - A)
        x = periodic
        for reservoir, tau in legs:
            x = propagate(config.branch(reservoir), tau, x0=x).x
        assert 1e-4 < periodic < 1e-3
        assert abs(x - periodic) <= 1e-15

    def test_memory_does_not_grow_with_the_step_count(self):
        branch = TricycleConfig().branch("c")
        tracemalloc.start()
        try:
            traj = propagate(branch, 100.0, steps=2 ** 19)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert traj.heat == pytest.approx(propagate(branch, 100.0).heat, rel=1e-9)
