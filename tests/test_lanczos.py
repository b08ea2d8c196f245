import warnings

import numpy as np
import pytest

from bsesolve import (
    BseHamiltonian,
    GeneratorSpec,
    SolverConfig,
    ValidationError,
    direct_solve_definite,
    estimate_bounds,
    generate,
    solve,
    update_cutoff,
)
from bsesolve.lanczos import SpectralBounds, _density_cutoff
from bsesolve.metrics import PhaseLedger

from conftest import LAM2


class TestEstimateBounds:
    def test_2x2_exact_krylov_termination(self, ham2):
        bounds = estimate_bounds(ham2, nevex=0, steps=2, seed=1)
        assert bounds.mu_1 == pytest.approx(-1.01 * LAM2, rel=1e-10)
        assert bounds.mu_n == -bounds.mu_1
        np.testing.assert_allclose(
            np.sort(bounds.ritz_values), [-LAM2, LAM2], atol=1e-10
        )

    def test_2x2_default_steps_stop_at_the_dimension(self, ham2):
        # n = 2 holds only two Lanczos vectors; the default 24 steps must
        # not demand four
        bounds = estimate_bounds(ham2, nevex=0, seed=1)
        assert bounds.steps == 2
        assert bounds.mu_1 == pytest.approx(-1.01 * LAM2, rel=1e-10)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_steps_stop_at_the_dimension(self, m):
        # 24 steps on n < 24 repeated every eigenvalue as ghost nodes, and a
        # crossing node next to its own copy put the midpoint cutoff on an
        # eigenvalue: lambda_1 = -11.333152345667138 at m = 3, seed 3
        for seed in range(4):
            ham = generate(GeneratorSpec(m=m, seed=seed))
            lam = direct_solve_definite(ham).lambdas
            scale = np.abs(lam).max()
            for nevex in range(m + 1):
                bounds = estimate_bounds(ham, nevex=nevex, seed=0)
                assert bounds.ritz_values.size == bounds.steps <= ham.n
                assert np.abs(lam - bounds.mu_nevex).min() > 1e-9 * scale

    def test_tda_diagonal_brackets_spectrum(self):
        a = np.diag(np.arange(1.0, 9.0))
        ham = BseHamiltonian(a, np.zeros((8, 8)))
        bounds = estimate_bounds(ham, nevex=2, steps=16, seed=3)
        assert bounds.mu_1 <= -8.0
        assert bounds.mu_n >= 8.0
        assert bounds.mu_1 >= -8.0 * 1.011

    def test_invariants(self, ham_mid):
        bounds = estimate_bounds(ham_mid, nevex=4, steps=24, seed=9)
        assert bounds.mu_n == -bounds.mu_1
        assert bounds.mu_1 <= bounds.mu_nevex <= bounds.mu_n
        assert bounds.steps % 2 == 0
        assert bounds.ritz_weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.isrealobj(bounds.ritz_values)

    def test_bound_quality_against_oracle_100_seeds(self):
        # lambda_1 never falls below the inflated lower bound, and the
        # density cutoff sits at lambda_nevex without a bias to either side.
        # Read from the |lambda|-weighted S H measure it landed too deep:
        # median |error| 0.244, median signed error -0.244
        ok_low = 0
        errors = []
        for seed in range(100):
            ham = generate(GeneratorSpec(m=64, seed=1000 + seed))
            bounds = estimate_bounds(ham, nevex=8, steps=24, seed=seed)
            lams = direct_solve_definite(ham).lambdas
            ok_low += lams[0] >= bounds.mu_1
            errors.append((bounds.mu_nevex - lams[7]) / abs(lams[7]))
        assert ok_low >= 95
        assert np.median(np.abs(errors)) <= 0.12
        assert abs(np.median(errors)) <= 0.10

    def test_validation(self, ham_mid):
        with pytest.raises(ValidationError):
            estimate_bounds(ham_mid, nevex=4, steps=5)
        with pytest.raises(ValidationError):
            estimate_bounds(ham_mid, nevex=100, steps=8)

    def test_degenerate_spectrum_breaks_down(self):
        # H from A=I, B=0 has minimal polynomial degree 2: every Krylov
        # space closes after two steps, and its two nodes are the exact
        # eigenvalues; a breakdown before 4 steps raised after 3 restarts
        ham = BseHamiltonian(np.eye(4), np.zeros((4, 4)))
        bounds = estimate_bounds(ham, nevex=1, steps=8, seed=0)
        assert bounds.steps == 2
        np.testing.assert_allclose(bounds.ritz_values, [-1.0, 1.0], rtol=0, atol=1e-14)
        assert bounds.mu_1 == pytest.approx(-1.01, rel=1e-14)
        assert bounds.mu_nevex == pytest.approx(0.0, abs=1e-14)  # the midpoint

    def test_breakdown_is_relative_to_the_scale_of_h(self):
        # an absolute floor on beta ended the pass after one step when
        # |lambda| < 1e-14, leaving no node to bound the spectrum
        ham = BseHamiltonian(1e-20 * np.diag([1.0, 2.0, 3.0, 4.0]), np.zeros((4, 4)))
        bounds = estimate_bounds(ham, nevex=1, seed=0)
        assert bounds.steps == 8
        np.testing.assert_allclose(
            bounds.ritz_values, 1e-20 * np.array([-4, -3, -2, -1, 1, 2, 3, 4.0]), rtol=1e-8
        )

    def test_deterministic_per_seed(self, ham_mid):
        b1 = estimate_bounds(ham_mid, nevex=4, steps=24, seed=5)
        b2 = estimate_bounds(ham_mid, nevex=4, steps=24, seed=5)
        assert b1.mu_1 == b2.mu_1 and b1.mu_nevex == b2.mu_nevex

    def test_flops_recorded(self, ham_mid):
        ledger = PhaseLedger()
        estimate_bounds(ham_mid, nevex=4, steps=24, seed=5, ledger=ledger)
        n = ham_mid.n
        # one H-product per step, 8 n^2 each
        assert ledger.flops == {"lanczos": 24 * 8.0 * n * n}


def _sh_weights(theta, counts):
    """Gauss weights of the S H measure for nodes with the given counts."""
    weights = np.asarray(counts) * np.abs(theta)
    return weights / weights.sum()


class TestDensityCutoff:
    THETA = np.array([-4.0, -2.0, -1.0, 1.0, 2.0, 4.0])
    COUNTS = np.array([0.1, 0.2, 0.2, 0.2, 0.2, 0.1])

    def test_crossing_of_the_counting_weights(self):
        # counts cross 2/10 at theta = -2 (0.1, 0.3); the S H weights
        # 0.2, 0.2, 0.1 cross it at the deep node -4 already
        weights = _sh_weights(self.THETA, self.COUNTS)
        assert weights[0] >= 2 / 10
        assert _density_cutoff(self.THETA, weights, 2, 10) == -1.5
        assert _density_cutoff(self.THETA, weights, 1, 10) == -3.0
        assert _density_cutoff(self.THETA, weights, 5, 10) == 0.0

    def test_node_at_zero_is_guarded(self):
        theta = np.array([-3.0, -1.0, 0.0, 1.0, 3.0])
        weights = _sh_weights(theta, [0.25, 0.25, 0.0, 0.25, 0.25])
        weights[2] = 0.1  # rounding leaves some S H weight on a zero node
        weights /= weights.sum()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _density_cutoff(theta, weights, 1, 4) == -2.0
            assert _density_cutoff(theta, weights, 2, 4) == -0.5
            assert _density_cutoff(np.array([0.0, 0.0]), np.array([0.5, 0.5]), 1, 2) == 0.0

    def test_no_negative_node(self):
        assert _density_cutoff(np.array([1.0, 2.0]), np.array([0.5, 0.5]), 1, 4) == 0.0

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_tiny_dimensions(self, m):
        # at most n <= 8 Lanczos steps; the bounds stay ordered and a solve
        # over every column converges
        ham = generate(GeneratorSpec(m=m, seed=m))
        for nevex in range(m + 1):
            bounds = estimate_bounds(ham, nevex=nevex, seed=0)
            assert bounds.mu_1 <= bounds.mu_nevex <= 0.0
            assert bounds.ritz_weights.sum() == pytest.approx(1.0, abs=1e-12)
        res = solve(ham, SolverConfig(nev=1, nex=m - 1))
        lam = direct_solve_definite(ham).lambdas[0]
        assert res.converged and abs(res.lambdas[0] - lam) <= 1e-12 * abs(lam)


class TestUpdateCutoff:
    FLOOR = 1e-8

    def _bounds(self, mu_nevex=-0.1):
        return SpectralBounds(
            mu_1=-2.0, mu_nevex=mu_nevex, mu_n=2.0, steps=4,
            ritz_values=np.array([-1.0, 1.0]), ritz_weights=np.array([0.5, 0.5]),
        )

    def _update(self, values, residuals=None, mu_nevex=-0.1):
        if residuals is None:
            residuals = np.ones(len(values))
        return update_cutoff(self._bounds(mu_nevex), values, residuals, self.FLOOR)

    def test_interval_narrows(self):
        updated = self._update([-0.5])
        assert updated.mu_nevex == -0.5
        assert updated.mu_1 == -2.0 and updated.mu_n == 2.0

    def test_single_element(self):
        assert self._update([-1.3]).mu_nevex == -1.3

    def test_takes_the_maximum(self):
        assert self._update([-1.5, -0.7, -1.1]).mu_nevex == -0.7

    def test_no_value_left_gives_zero(self):
        assert self._update([]).mu_nevex == 0.0
        assert self._update([-1.5, -0.7], [0.0, self.FLOOR], mu_nevex=-0.4).mu_nevex == 0.0

    def test_reflection_preserved(self):
        updated = self._update([-0.2])
        assert updated.mu_n == -updated.mu_1

    def test_positive_value_clamps_to_zero(self):
        assert self._update([-1.5, 2.5], mu_nevex=-0.4).mu_nevex == 0.0

    def test_residual_at_or_below_floor_skipped(self):
        values = [-1.5, -1.1, -0.7]
        residuals = [1.0, 1.0, self.FLOOR]
        assert self._update(values, residuals).mu_nevex == -1.1
        assert self._update(values, [1.0, 0.5 * self.FLOOR, 0.0]).mu_nevex == -1.5

    def test_value_below_mu_1_skipped(self):
        assert self._update([-2.5, -1.1]).mu_nevex == -1.1
        assert self._update([-2.5]).mu_nevex == 0.0
        assert self._update([-2.0, -2.5]).mu_nevex == -2.0

    def test_targets_dropped_after_values_below_mu_1(self):
        b = self._bounds()
        ones = np.ones(3)
        # the one target is -1.1, not the spurious -2.5 below mu_1
        assert update_cutoff(b, [-2.5, -1.1, -0.7], ones, self.FLOOR, 1).mu_nevex == -0.7
        assert update_cutoff(b, [-0.7, -2.5, -1.1], ones, self.FLOOR, 2).mu_nevex == 0.0
        # a dropped target is not replaced by a value at the floor
        residuals = [1.0, 1.0, self.FLOOR]
        assert update_cutoff(b, [-1.5, -1.1, -0.7], residuals, self.FLOOR, 1).mu_nevex == -1.1
        assert update_cutoff(b, [-1.5, -1.1, -0.7], residuals, self.FLOOR, 2).mu_nevex == 0.0
