import re
import warnings

import numpy as np
import pytest

from oracles import rk4_reference
from qtricycle import (
    DensityVector,
    PositivityError,
    TricycleConfig,
    branch_heat,
    gibbs_state,
    heat_via_trajectory,
    perturbed_state,
    propagate,
)
from qtricycle.oracle import default_steps
from qtricycle.protocol import frequency


@pytest.fixture(scope="module")
def frozen_branch():
    # relative frequency sweep of 2e-10 around omega = 1: effectively a
    # constant generator while keeping the standard schedule machinery
    return TricycleConfig(T_c=0.5, T_h=1.0, T_p=0.7, zeta_c=1e10, zeta_h=1e10,
                          delta_c=1e-10).branch("c", 5.0)


@pytest.fixture(scope="module")
def cold_trajectory_200():
    branch = TricycleConfig().branch("c", 200.0)
    return branch, propagate(branch, 200.0)


class TestStationaryAndRelaxation:
    def test_gibbs_stays_put(self, frozen_branch):
        traj = propagate(frozen_branch, 5.0)
        drift = np.max(np.abs(traj.states - traj.states[0]))
        assert drift < 1e-10

    def test_monotone_relaxation_toward_gibbs(self, frozen_branch):
        target = gibbs_state(frozen_branch.temperature, 1.0).excited
        start = DensityVector.from_populations(0.9)
        traj = propagate(frozen_branch, 10.0, initial=start)
        distance = np.abs(traj.states[:, 0].real - target)
        assert np.all(np.diff(distance) <= 1e-15)
        assert distance[-1] < 1e-4 * distance[0]

    def test_heat_vanishes_at_equilibrium(self, frozen_branch):
        traj = propagate(frozen_branch, 5.0)
        assert abs(heat_via_trajectory(traj)) < 1e-10


class TestSlowDriving:
    def test_tracks_instantaneous_equilibrium(self):
        branch = TricycleConfig().branch("c", 500.0)
        traj = propagate(branch, 500.0)
        final = traj.states[-1]
        target = gibbs_state(branch.temperature, frequency(branch, 1.0)).as_array()
        assert np.max(np.abs(final - target)) < 1e-5

    def test_heat_matches_expansion_to_one_percent(self, cold_trajectory_200):
        branch, traj = cold_trajectory_200
        q = heat_via_trajectory(traj)
        bt = branch_heat(branch, 200.0)
        assert abs(q - bt.Q) < 0.01 * abs(q)

    def test_neglected_term_decays_quadratically(self):
        branch_factory = TricycleConfig().branch
        errs = {}
        for tau in (100.0, 200.0):
            branch = branch_factory("c", tau)
            q = heat_via_trajectory(propagate(branch, tau))
            bt = branch_heat(branch, tau)
            errs[tau] = abs(q - bt.Q)
        assert 0.2 <= errs[200.0] / errs[100.0] <= 0.35

    def test_state_agrees_with_perturbed_state(self):
        # second-order remainder bound, all three default branches
        for res in "chp":
            for tau in (100.0, 200.0):
                branch = TricycleConfig().branch(res, tau)
                traj = propagate(branch, tau)
                stride = max(1, (len(traj.times) - 1) // 20)
                worst = 0.0
                for idx in range(0, len(traj.times), stride):
                    s = traj.times[idx] / tau
                    ref = perturbed_state(branch, min(s, 1.0), tau).as_array()
                    worst = max(worst, float(np.max(np.abs(traj.states[idx] - ref))))
                assert worst < 5.0 / tau ** 2, (res, tau, worst)


class TestIntegratorContracts:
    def test_trace_conserved(self, cold_trajectory_200):
        _, traj = cold_trajectory_200
        trace = traj.states[:, 0] + traj.states[:, 3]
        assert np.max(np.abs(trace - 1.0)) < 1e-12

    def test_diagonal_initial_keeps_zero_coherence(self, cold_trajectory_200):
        _, traj = cold_trajectory_200
        assert np.max(np.abs(traj.states[:, 1:3])) < 1e-14

    def test_zero_coherence_stays_zero_under_unstable_rotation(self):
        # weak damping: the default step resolves the relaxation, but w dt is
        # about 17, far beyond RK4's stability bound for the rotating coherences
        branch = TricycleConfig(gamma0=1e-3).branch("c", 1e5)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            traj = propagate(branch, 1e5)
        assert np.all(traj.states[:, 1:3] == 0.0)
        assert np.all(np.isfinite(traj.states))

    def test_coherence_decays_and_states_stay_physical(self):
        branch = TricycleConfig().branch("c", 40.0)
        initial = DensityVector(0.5, 0.2 + 0.0j, 0.2 - 0.0j, 0.5)
        traj = propagate(branch, 40.0, initial=initial)
        coh = np.abs(traj.states[:, 1])
        assert coh[-1] < 1e-8 * coh[0]
        for sample in traj.samples[:: len(traj.times) // 10]:
            sample.state.validate(atol=1e-10)

    def test_default_step_rule(self):
        branch = TricycleConfig().branch("c", 100.0)
        steps = default_steps(branch, 100.0)
        assert steps >= 1000 and steps % 2 == 0
        assert steps >= 50 * 100.0  # fastest rate exceeds 1 here

    def test_step_floor_enforced(self):
        branch = TricycleConfig().branch("c", 10.0)
        with pytest.raises(ValueError):
            propagate(branch, 10.0, steps=500)

    def test_odd_step_count_rejected(self):
        branch = TricycleConfig().branch("c", 10.0)
        with pytest.raises(ValueError, match="even"):
            propagate(branch, 10.0, steps=1001)

    def test_unstable_step_size_reported(self):
        branch = TricycleConfig(gamma0=80.0).branch("c", 100.0)
        with pytest.raises(PositivityError):
            propagate(branch, 100.0, steps=1000)

    def test_sample_records(self, cold_trajectory_200):
        branch, traj = cold_trajectory_200
        samples = traj.samples[:3]
        assert samples[0].t == 0.0
        assert samples[0].omega == pytest.approx(frequency(branch, 0.0), rel=1e-14)
        expected_U = 0.5 * samples[0].omega * (
            samples[0].state.rho11.real - samples[0].state.rho00.real)
        assert samples[0].U == pytest.approx(expected_U, rel=1e-12)

    def test_heat_needs_enough_samples(self, frozen_branch):
        traj = propagate(frozen_branch, 5.0)
        clipped = type(traj)(branch=traj.branch, tau=traj.tau,
                             times=traj.times[:100], states=traj.states[:100])
        with pytest.raises(ValueError):
            heat_via_trajectory(clipped)

    def test_heat_of_halves_adds_up(self):
        # each half keeps its own times, so its spacing is not tau / (n - 1)
        branch = TricycleConfig().branch("c", 10.0)
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
        branch = TricycleConfig().branch(reservoir, 100.0)
        traj = propagate(branch, 100.0)
        initial = gibbs_state(branch.temperature, frequency(branch, 0.0))
        ref = rk4_reference(branch, 100.0, len(traj.times) - 1, initial)
        assert np.max(np.abs(traj.states - ref)) <= 1e-13

    def test_coherent_start(self):
        branch = TricycleConfig().branch("c", 40.0)
        initial = DensityVector(0.5, 0.2 + 0.1j, 0.2 - 0.1j, 0.5)
        traj = propagate(branch, 40.0, initial=initial)
        ref = rk4_reference(branch, 40.0, len(traj.times) - 1, initial)
        assert np.max(np.abs(traj.states - ref)) <= 1e-13
        # rho01 runs on its own diagonal entry and stays the conjugate of rho10
        assert np.max(np.abs(traj.states[:, 2] - np.conj(traj.states[:, 1]))) < 1e-15

    def test_unstable_step_fails_at_the_same_time(self):
        branch = TricycleConfig(gamma0=80.0).branch("c", 100.0)
        initial = gibbs_state(branch.temperature, frequency(branch, 0.0))
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
