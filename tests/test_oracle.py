import re
import tracemalloc
import warnings

import numpy as np
import pytest

from oracles import density_column, rk4_reference
from qtricycle import (
    PositivityError,
    TricycleConfig,
    branch_heat,
    gibbs_state,
    heat_via_trajectory,
    oracle,
    perturbed_state,
    propagate,
)
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


class TestStationaryAndRelaxation:
    def test_gibbs_stays_put(self, frozen_branch):
        traj = propagate(frozen_branch, 5.0)
        drift = np.max(np.abs(traj.states - traj.states[0]))
        assert drift < 1e-10

    def test_monotone_relaxation_toward_gibbs(self, frozen_branch):
        target = gibbs_state(frozen_branch.temperature, 1.0)[0]
        traj = propagate(frozen_branch, 10.0, initial=(0.9, 0.1))
        distance = np.abs(traj.states[:, 0] - target)
        assert np.all(np.diff(distance) <= 1e-15)
        assert distance[-1] < 1e-4 * distance[0]

    def test_heat_vanishes_at_equilibrium(self, frozen_branch):
        traj = propagate(frozen_branch, 5.0)
        assert abs(heat_via_trajectory(traj)) < 1e-10


class TestSlowDriving:
    def test_tracks_instantaneous_equilibrium(self):
        branch = TricycleConfig().branch("c")
        traj = propagate(branch, 500.0)
        final = traj.states[-1]
        target = gibbs_state(branch.temperature, frequency(branch, 1.0))
        assert np.max(np.abs(final - target)) < 1e-5

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
                stride = max(1, (len(traj.times) - 1) // 20)
                worst = 0.0
                for idx in range(0, len(traj.times), stride):
                    s = traj.times[idx] / tau
                    p = perturbed_state(branch, min(s, 1.0), tau)
                    ref = np.array([p, 1.0 - p])
                    worst = max(worst, float(np.max(np.abs(traj.states[idx] - ref))))
                assert worst < 5.0 / tau ** 2, (res, tau, worst)


class TestIntegratorContracts:
    def test_trace_conserved(self, cold_trajectory_200):
        _, traj = cold_trajectory_200
        trace = traj.states[:, 0] + traj.states[:, 1]
        assert np.max(np.abs(trace - 1.0)) < 1e-12

    def test_states_are_real_population_pairs(self, cold_trajectory_200):
        _, traj = cold_trajectory_200
        assert traj.states.dtype == np.float64
        assert traj.states.shape == (len(traj.times), 2)

    def test_weak_damping_long_run_stays_finite_without_warnings(self):
        # weak damping: the default step resolves the relaxation, but w dt is
        # about 17, far beyond RK4's stability bound for a rotating coherence;
        # the pair carries none, so no overflow reaches the state
        branch = TricycleConfig(gamma0=1e-3).branch("c")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            traj = propagate(branch, 1e5)
        assert np.all(np.isfinite(traj.states))

    def test_populations_from_an_equal_start_stay_physical(self):
        branch = TricycleConfig().branch("c")
        traj = propagate(branch, 40.0, initial=(0.5, 0.5))
        for p1, p0 in traj.states[:: len(traj.times) // 10]:
            assert abs(p1 + p0 - 1.0) <= 1e-10
            assert -1e-10 <= p1 <= 1.0 + 1e-10 and -1e-10 <= p0 <= 1.0 + 1e-10

    def test_initial_trace_violation_rejected(self):
        branch = TricycleConfig().branch("c")
        for initial in ((0.6, 0.6), (0.5, 0.5 - 2e-12)):
            with pytest.raises(ValueError, match="trace violated"):
                propagate(branch, 10.0, initial=initial)
        propagate(branch, 10.0, initial=(0.5, 0.5 - 5e-13))  # within 1e-12

    def test_initial_population_outside_unit_interval_rejected(self):
        branch = TricycleConfig().branch("c")
        for initial in ((1.2, -0.2), (-2e-12, 1.0 + 2e-12)):
            with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
                propagate(branch, 10.0, initial=initial)
        propagate(branch, 10.0, initial=(-5e-13, 1.0 + 5e-13))  # within 1e-12

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

    def test_odd_step_count_rejected(self):
        branch = TricycleConfig().branch("c")
        with pytest.raises(ValueError, match="even"):
            propagate(branch, 10.0, steps=1001)

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
        monkeypatch.setattr(oracle, "_CHUNK", 256)
        small = propagate(branch, 100.0)
        assert np.max(np.abs(small.states - traj.states)) <= 1e-14
        assert heat_via_trajectory(small) == pytest.approx(heat_via_trajectory(traj),
                                                           rel=1e-14, abs=1e-14)

    def test_sample_records(self, cold_trajectory_200):
        branch, traj = cold_trajectory_200
        assert traj.times[0] == 0.0
        assert traj.omegas[0] == pytest.approx(frequency(branch, 0.0), rel=1e-14)

    def test_nonpositive_duration_rejected(self):
        branch = TricycleConfig().branch("c")
        for tau in (0.0, -2.0):
            with pytest.raises(ValueError, match="tau must be > 0"):
                propagate(branch, tau)

    def test_underflowing_step_rejected(self):
        # tau > 0, but tau / steps rounds to 0.0, so no step would advance the state
        branch = TricycleConfig().branch("c")
        for tau, steps in ((5e-324, None), (1e-320, 100_000)):
            with pytest.raises(ValueError, match="underflows to 0"):
                propagate(branch, tau, steps)
        assert heat_via_trajectory(propagate(branch, 1e-320)) != 0.0

    def test_heat_needs_enough_samples(self, frozen_branch):
        traj = propagate(frozen_branch, 5.0)
        clipped = type(traj)(branch=traj.branch, tau=traj.tau,
                             times=traj.times[:100], states=traj.states[:100])
        with pytest.raises(ValueError):
            heat_via_trajectory(clipped)

    def test_heat_of_halves_adds_up(self):
        # each half keeps its own times, so its spacing is not tau / (n - 1)
        branch = TricycleConfig().branch("c")
        traj = propagate(branch, 10.0, steps=4000)
        halves = [type(traj)(branch=branch, tau=traj.tau, times=traj.times[part],
                             states=traj.states[part])
                  for part in (slice(None, 2001), slice(2000, None))]
        total = sum(heat_via_trajectory(half) for half in halves)
        assert total == pytest.approx(heat_via_trajectory(traj), rel=1e-12)


class TestAgainstStageByStageReference:
    """The batched step maps against RK4 applied stage vector by stage vector."""

    @pytest.mark.parametrize("reservoir", "chp")
    def test_gibbs_start_at_tau_100(self, reservoir):
        branch = TricycleConfig().branch(reservoir)
        traj = propagate(branch, 100.0)
        initial = density_column(gibbs_state(branch.temperature, frequency(branch, 0.0)))
        ref = rk4_reference(branch, 100.0, len(traj.times) - 1, initial)
        assert np.max(np.abs(traj.states - ref[:, ::3].real)) <= 1e-13

    def test_coherent_start(self):
        # the reference carries the coherences through the full 4x4 generator;
        # they never feed the populations, so its populations are those the
        # integrator gets from the population pair alone
        initial = density_column((0.5, 0.5), rho10=0.2 + 0.1j)
        for reservoir in "chp":
            branch = TricycleConfig().branch(reservoir)
            traj = propagate(branch, 40.0, initial=(0.5, 0.5))
            ref = rk4_reference(branch, 40.0, len(traj.times) - 1, initial)
            assert abs(ref[len(ref) // 10, 1]) > 1e-3  # the coherence is carried
            assert np.max(np.abs(traj.states - ref[:, ::3].real)) <= 1e-13, reservoir

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
