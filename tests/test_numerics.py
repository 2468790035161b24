"""Reference checks for the package's own scalar numerics.

The equilibrium entropy is checked against 50-digit ``mpmath`` values
(skipped without mpmath), the test reference ``oracles.simpson`` against
exact integrals, and the CLI is checked to import without scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qtricycle
from oracles import simpson
from qtricycle.thermo import equilibrium_entropy


@pytest.fixture
def entropy_reference():
    mpmath = pytest.importorskip("mpmath")

    def reference(x):
        """Binary entropy at beta*omega = x (a float or mpf), to 50 digits."""
        with mpmath.workdps(50):
            x = mpmath.mpf(x)
            e = mpmath.exp(-x)
            p = e / (1 + e)
            return float(-(p * mpmath.log(p) + (1 - p) * mpmath.log(1 - p)))

    return reference, mpmath.mpf


class TestSimpson:
    @pytest.mark.parametrize("intervals", [2, 10, 1000])
    def test_exact_on_cubics(self, intervals):
        x = np.linspace(-1.0, 2.0, intervals + 1)
        y = 4.0 * x ** 3 - 3.0 * x ** 2 + 2.0 * x - 1.0
        exact = 2.0 ** 4 - 2.0 ** 3 + 2.0 ** 2 - 2.0 - (1.0 + 1.0 + 1.0 + 1.0)
        assert simpson(y, 3.0 / intervals) == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize("samples", [2, 4, 1001 + 1])
    def test_odd_interval_count_rejected(self, samples):
        with pytest.raises(ValueError, match="even interval count"):
            simpson(np.ones(samples), 0.1)


class TestEquilibriumEntropy:
    @pytest.mark.parametrize("x", [1e-8, 1e-4, 0.1, 0.6931471805599453, 1.0, 2.5, 8.0,
                                   25.0, 60.0, 200.0, 500.0, 700.0])
    def test_matches_50_digit_reference(self, entropy_reference, x):
        reference, _ = entropy_reference
        assert equilibrium_entropy(1.0, x) == pytest.approx(reference(x), rel=4e-15)

    def test_temperature_enters_through_the_ratio(self, entropy_reference):
        reference, mpf = entropy_reference
        for T, w in ((0.2, 0.55), (0.5, 3.1), (1.7, 0.01)):
            assert equilibrium_entropy(T, w) == pytest.approx(reference(mpf(w) / mpf(T)),
                                                              rel=4e-15)

    def test_array_input(self, entropy_reference):
        reference, _ = entropy_reference
        x = np.geomspace(1e-8, 700.0, 50)
        S = equilibrium_entropy(1.0, x)
        assert S.shape == x.shape
        for xi, Si in zip(x, S):
            assert Si == pytest.approx(reference(xi), rel=4e-15)


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(qtricycle.__file__).resolve().parent.parent)
    code = ("import sys, qtricycle.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out.strip() == "[]"
