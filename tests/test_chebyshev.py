import numpy as np
import pytest

from bsesolve import (
    BseHamiltonian,
    FilterConfig,
    GeneratorSpec,
    ValidationError,
    chebyshev_filter,
    direct_solve_definite,
    estimate_bounds,
    generate,
    materialize,
    rng,
    scalar_filter_value,
)
from bsesolve.metrics import PhaseLedger

from conftest import LAM2, dense_filter


def _config_for(ham, nevex, degree):
    bounds = estimate_bounds(ham, nevex=nevex, steps=16, seed=2)
    return FilterConfig.from_bounds(bounds, degree)


class TestFilterConfig:
    def test_zero_degree_rejected(self):
        with pytest.raises(ValidationError):
            FilterConfig(degree=0, center=0.0, half_width=1.0, scale_ref=-2.0)
        with pytest.raises(ValidationError):
            FilterConfig(degree=7, center=0.0, half_width=1.0, scale_ref=-2.0, precision="float16")

    def test_empty_interval_rejected(self):
        with pytest.raises(ValidationError):
            FilterConfig(degree=8, center=0.0, half_width=0.0, scale_ref=-2.0)

    def test_from_bounds(self, ham_mid):
        bounds = estimate_bounds(ham_mid, nevex=4, steps=16, seed=0)
        cfg = FilterConfig.from_bounds(bounds, 10)
        assert cfg.center == (bounds.mu_n + bounds.mu_nevex) / 2
        assert cfg.half_width == (bounds.mu_n - bounds.mu_nevex) / 2
        assert cfg.scale_ref == bounds.mu_1


class TestScalarMatrixConsistency:
    def test_2x2_eigenvector(self, ham2):
        # amplified side: the eigenvalue at -sqrt(3.75) sits outside the
        # damped interval, where the gain is O(1) or larger
        cfg = FilterConfig(degree=8, center=0.5, half_width=1.5, scale_ref=-1.01 * LAM2)
        v = np.array([1.0, -2.0 * (2.0 + LAM2)])  # eigenvector of -LAM2
        v /= np.linalg.norm(v)
        gain = scalar_filter_value(-LAM2, cfg)
        assert abs(gain) > 0.5  # O(1) gain: outside the damped interval
        out = chebyshev_filter(ham2, v[:, None], cfg)[:, 0]
        assert np.abs(out - gain * v).max() <= 1e-12 * abs(gain)

    def test_every_oracle_eigenpair(self, ham_small):
        eig = direct_solve_definite(ham_small)
        cfg = _config_for(ham_small, nevex=4, degree=12)
        out = chebyshev_filter(ham_small, eig.v, cfg)
        for i in range(eig.n):
            gain = scalar_filter_value(eig.lambdas[i], cfg)
            err = np.linalg.norm(out[:, i] - gain * eig.v[:, i])
            assert err <= 1e-10 * max(abs(gain), 1.0)

    @pytest.mark.parametrize("degree", [1, 7, 13])
    def test_odd_degrees_match_scalar_gain(self, ham_small, degree):
        eig = direct_solve_definite(ham_small)
        cfg = _config_for(ham_small, nevex=4, degree=degree)
        out = chebyshev_filter(ham_small, eig.v, cfg)
        gains = np.array([scalar_filter_value(lam, cfg) for lam in eig.lambdas])
        err = np.linalg.norm(out - eig.v * gains, axis=0)
        assert (err <= 1e-10 * np.maximum(np.abs(gains), 1.0)).all()
        # odd degree: the gain at the center of the damped interval is 0
        assert abs(scalar_filter_value(cfg.center, cfg)) <= 1e-12

    def test_center_gain_is_deeply_damped(self, ham_small):
        # p(t) = C_d((t-c)/e) / C_d(x_s) with x_s = (s-c)/e equioscillates
        # on the damped interval [c-e, c+e]: the center (even d) and both
        # edges are equal peaks of |p|, each 1/|C_d(x_s)|, and |p| never
        # exceeds that bound in between
        cfg = _config_for(ham_small, nevex=4, degree=12)
        c, e = cfg.center, cfg.half_width
        bound = 1.0 / np.cosh(cfg.degree * np.arccosh(abs((cfg.scale_ref - c) / e)))
        center_gain, upper_gain, lower_gain = (
            abs(scalar_filter_value(t, cfg)) for t in (c, c + e, c - e)
        )
        assert center_gain == pytest.approx(bound, rel=1e-12)
        assert upper_gain == pytest.approx(bound, rel=1e-12)
        assert lower_gain == pytest.approx(bound, rel=1e-12)
        peak = max(abs(scalar_filter_value(t, cfg)) for t in np.linspace(c - e, c + e, 2001))
        assert peak <= bound * (1 + 1e-12)
        assert center_gain < 1e-2

    def test_anchor_gain_is_one(self, ham_small):
        cfg = _config_for(ham_small, nevex=4, degree=16)
        assert scalar_filter_value(cfg.scale_ref, cfg) == pytest.approx(1.0, abs=1e-9)


class TestFilterBehavior:
    def test_parity_preserved_in_block_diagonal_limit(self):
        # polynomial in H keeps H's invariant half-spaces invariant
        ham = BseHamiltonian(np.eye(3), np.zeros((3, 3)))
        cfg = FilterConfig(degree=2, center=0.0, half_width=1.1, scale_ref=-1.05)
        upper = np.concatenate([np.ones((3, 1)), np.zeros((3, 1))], axis=0)
        out = chebyshev_filter(ham, upper, cfg)
        assert np.abs(out[3:]).max() == 0.0

    def test_damping_ratio_matches_scalar_prediction(self, ham_small):
        eig = direct_solve_definite(ham_small)
        cfg = _config_for(ham_small, nevex=4, degree=12)
        inside = np.nonzero(
            (eig.lambdas > cfg.center - cfg.half_width)
            & (eig.lambdas < cfg.center + cfg.half_width)
        )[0]
        i_damped = inside[len(inside) // 2]
        out_damped = chebyshev_filter(ham_small, eig.v[:, [i_damped]], cfg)
        out_target = chebyshev_filter(ham_small, eig.v[:, [0]], cfg)
        measured = np.linalg.norm(out_damped) / np.linalg.norm(out_target)
        predicted = abs(scalar_filter_value(eig.lambdas[i_damped], cfg)) / abs(
            scalar_filter_value(eig.lambdas[0], cfg)
        )
        assert measured == pytest.approx(predicted, rel=1e-8)
        assert measured < 1.0

    def test_gain_grows_toward_mu_1(self, ham_small):
        cfg = _config_for(ham_small, nevex=4, degree=12)
        lo = cfg.center - cfg.half_width
        grid = np.linspace(lo - 1e-6, cfg.scale_ref, 40)
        gains = np.abs([scalar_filter_value(t, cfg) for t in grid])
        assert (np.diff(gains) > 0).all()

    @pytest.mark.parametrize("degree", [14, 15])
    def test_matches_dense_recurrence(self, ham_mid, degree):
        # the real-block recurrence against the textbook one on dense H
        cfg = _config_for(ham_mid, nevex=6, degree=degree)
        x = np.random.default_rng(5).standard_normal((ham_mid.n, 4)) * (1 + 0.5j)
        out = chebyshev_filter(ham_mid, x, cfg)
        ref = dense_filter(materialize(ham_mid), x, cfg)
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()
        vec = chebyshev_filter(ham_mid, x[:, 0], cfg)
        assert vec.shape == (ham_mid.n,)
        np.testing.assert_array_equal(vec, out[:, 0])

    def test_flop_model(self, ham_mid):
        ledger = PhaseLedger()
        cfg = _config_for(ham_mid, nevex=6, degree=10)
        chebyshev_filter(ham_mid, np.ones((ham_mid.n, 3), dtype=complex), cfg, ledger)
        n = ham_mid.n
        assert ledger.flops["filter"] == pytest.approx(10 * 4.0 * n * n * 3)


class TestFilterPrecision:
    #: float32 against float64 output, max-norm relative: a degree-20
    #: filter rounds 20 GEMMs at unit roundoff eps32 each; the measured
    #: error was 1 to 8 eps32 over three instances each at m = 16, 256, 1024
    RTOL = 32 * np.finfo(np.float32).eps

    @pytest.mark.parametrize("m", [16, 256, 1024])
    def test_float32_tracks_float64(self, m):
        ham = generate(GeneratorSpec(m=m, seed=m))
        k = max(2, m // 16)
        bounds = estimate_bounds(ham, nevex=k, steps=24, seed=1)
        x = rng.complex_normal_matrix(rng.substream(m, 9), ham.n, k)
        out = {
            p: chebyshev_filter(ham, x, FilterConfig.from_bounds(bounds, 20, precision=p))
            for p in ("float32", "float64")
        }
        assert out["float32"].dtype == np.complex128
        err = np.abs(out["float32"] - out["float64"]).max() / np.abs(out["float64"]).max()
        assert err <= self.RTOL
        # the float32 copy of R lives only during the call
        assert ham._r.dtype == np.float64
        big = [v for v in vars(ham).values() if isinstance(v, np.ndarray) and v.size >= ham.n**2]
        assert len(big) == 1 and big[0] is ham._r
