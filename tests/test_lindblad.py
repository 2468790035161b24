import math

import numpy as np
import pytest

from oracles import as_array, drazin_inverse, spectral_drazin
from qtricycle import (
    DensityVector,
    bose_occupation,
    damping_rate,
    gibbs_state,
    liouvillian,
)


def random_bath(rng):
    return (float(rng.uniform(0.1, 2.0)),       # T
            float(rng.uniform(0.1, 5.0)),       # omega
            float(rng.uniform(0.1, 3.0)),       # gamma0
            float(rng.uniform(-0.5, 1.5)))      # alpha


class TestBoseOccupation:
    def test_unit_occupation_at_log_two(self):
        assert bose_occupation(1.0, math.log(2.0)) == pytest.approx(1.0, rel=1e-12)

    def test_frozen_bath_limit(self):
        assert bose_occupation(1.0, 50.0) < 2e-22
        assert bose_occupation(1.0, 1.0) == pytest.approx(1.0 / (math.e - 1.0), rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            bose_occupation(0.0, 1.0)
        with pytest.raises(ValueError):
            bose_occupation(1.0, 0.0)
        with pytest.raises(ValueError):
            bose_occupation(1.0, -2.0)


class TestDampingRate:
    def test_flat_bath(self):
        assert damping_rate(0.7, 0.0, 3.21) == pytest.approx(0.7, rel=1e-15)

    def test_unit_frequency(self):
        for alpha in (-0.5, 0.3, 1.0, 1.5):
            assert damping_rate(0.7, alpha, 1.0) == pytest.approx(0.7, rel=1e-15)

    def test_linear_scaling(self):
        assert damping_rate(1.0, 1.0, 2.0) == pytest.approx(2.0, rel=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            damping_rate(1.0, 0.5, 0.0)
        with pytest.raises(ValueError):
            damping_rate(0.0, 0.5, 1.0)


class TestGibbsState:
    def test_unit_occupation_point(self):
        state = gibbs_state(1.0, math.log(2.0))
        assert state.rho11.real == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert state.rho00.real == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert state.rho10 == 0.0

    def test_ground_state_limit(self):
        state = gibbs_state(1e-3, 1.0)
        assert state.rho11.real < 1e-300
        assert state.rho00.real == pytest.approx(1.0, abs=1e-15)

    def test_excited_population_identity(self, rng):
        for _ in range(100):
            T, w, _, _ = random_bath(rng)
            state = gibbs_state(T, w)
            assert abs(state.rho11.real - 1.0 / (math.exp(w / T) + 1.0)) < 1e-14
            state.validate()


class TestLiouvillian:
    def test_matrix_entries(self, rng):
        T, w, g0, a = random_bath(rng)
        n = bose_occupation(T, w)
        g = damping_rate(g0, a, w)
        L = liouvillian(T, w, g0, a)
        assert L[0, 0] == pytest.approx(-g * (n + 1.0), rel=1e-14)
        assert L[0, 3] == pytest.approx(g * n, rel=1e-14)
        assert L[3, 0] == pytest.approx(g * (n + 1.0), rel=1e-14)
        assert L[3, 3] == pytest.approx(-g * n, rel=1e-14)
        assert L[1, 1] == pytest.approx(-g * (n + 0.5) - 1j * w, rel=1e-14)
        assert L[2, 2] == pytest.approx(-g * (n + 0.5) + 1j * w, rel=1e-14)

    def test_annihilates_gibbs(self, rng):
        for _ in range(50):
            T, w, g0, a = random_bath(rng)
            resid = liouvillian(T, w, g0, a) @ as_array(gibbs_state(T, w))
            assert np.max(np.abs(resid)) < 1e-12

    def test_trace_preservation(self, rng):
        for _ in range(50):
            T, w, g0, a = random_bath(rng)
            L = liouvillian(T, w, g0, a)
            assert np.max(np.abs(L[0] + L[3])) < 1e-12

    def test_stacked_call_equals_scalar_calls(self, rng):
        T, _, g0, a = random_bath(rng)
        omegas = rng.uniform(0.1, 5.0, size=(3, 7))
        stacked = liouvillian(T, omegas, g0, a)
        assert stacked.shape == (3, 7, 4, 4)
        for idx in np.ndindex(omegas.shape):
            single = liouvillian(T, float(omegas[idx]), g0, a)
            assert single.shape == (4, 4)
            assert np.array_equal(stacked[idx], single)
            assert np.array_equal(np.signbit(stacked[idx].view(float)),
                                  np.signbit(single.view(float)))


class TestDrazinInverse:
    def test_matrix_entries(self, rng):
        T, w, g0, a = random_bath(rng)
        n = bose_occupation(T, w)
        g = damping_rate(g0, a, w)
        D = drazin_inverse(T, w, g0, a)
        scale = g * (2.0 * n + 1.0) ** 2
        assert D[0, 0] == pytest.approx(-(n + 1.0) / scale, rel=1e-14)
        assert D[0, 3] == pytest.approx(n / scale, rel=1e-14)
        assert D[1, 1] == pytest.approx(1.0 / (-g * (n + 0.5) - 1j * w), rel=1e-14)
        assert D[2, 2] == pytest.approx(1.0 / (-g * (n + 0.5) + 1j * w), rel=1e-14)

    def test_annihilates_gibbs(self, rng):
        for _ in range(50):
            T, w, g0, a = random_bath(rng)
            resid = drazin_inverse(T, w, g0, a) @ as_array(gibbs_state(T, w))
            assert np.max(np.abs(resid)) < 1e-12

    def test_drazin_identities(self, rng):
        for _ in range(200):
            T, w, g0, a = random_bath(rng)
            L = liouvillian(T, w, g0, a)
            D = drazin_inverse(T, w, g0, a)
            nL = np.max(np.abs(L))
            nD = np.max(np.abs(D))
            assert np.max(np.abs(L @ D @ L - L)) < 1e-10 * nL
            assert np.max(np.abs(D @ L @ D - D)) < 1e-10 * nD
            assert np.max(np.abs(L @ D - D @ L)) < 1e-10 * nL * nD

    def test_traceless_population_contraction(self, rng):
        direction = np.array([1.0, 0.0, 0.0, -1.0], dtype=complex)
        for _ in range(50):
            T, w, g0, a = random_bath(rng)
            n = bose_occupation(T, w)
            g = damping_rate(g0, a, w)
            image = drazin_inverse(T, w, g0, a) @ direction
            gain = 1.0 / (g * (2.0 * n + 1.0))
            assert abs(image[0] + gain) < 1e-12 * gain
            assert abs(image[3] - gain) < 1e-12 * gain
            assert abs(image[1]) == 0.0 and abs(image[2]) == 0.0

    def test_matches_spectral_construction(self, rng):
        for _ in range(50):
            T, w, g0, a = random_bath(rng)
            L = liouvillian(T, w, g0, a)
            D = drazin_inverse(T, w, g0, a)
            assert np.max(np.abs(D - spectral_drazin(L))) < 1e-9


class TestDensityVector:
    def test_roundtrip(self):
        state = DensityVector.from_populations(0.25)
        assert DensityVector(*as_array(state).tolist()) == state
        state.validate()

    def test_trace_violation(self):
        with pytest.raises(ValueError, match="trace"):
            DensityVector(0.6, 0.0, 0.0, 0.6).validate()

    def test_hermiticity_violation(self):
        with pytest.raises(ValueError, match="hermiticity"):
            DensityVector(0.5, 0.1j, 0.1j, 0.5).validate()

    def test_positivity_violation(self):
        with pytest.raises(ValueError, match="outside"):
            DensityVector(1.2, 0.0, 0.0, -0.2).validate()
        with pytest.raises(ValueError, match="positivity"):
            DensityVector(0.5, 0.6, 0.6, 0.5).validate()
