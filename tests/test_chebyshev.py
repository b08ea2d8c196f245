import tracemalloc

import numpy as np
import pytest

from bsesolve import (
    BseHamiltonian,
    FilterConfig,
    GeneratorSpec,
    SolverConfig,
    ValidationError,
    apply_h,
    chebyshev_filter,
    direct_solve_definite,
    estimate_bounds,
    generate,
    materialize,
    rng,
    scalar_filter_value,
    solve,
)
from bsesolve.chebyshev import from_complex_rows, residual_shifts, to_complex_rows
from bsesolve.hamiltonian import real_symmetric_form
from bsesolve.metrics import PhaseLedger

from conftest import LAM2, dense_filter


def _config_for(ham, nevex, degree):
    bounds = estimate_bounds(ham, nevex=nevex, steps=16, seed=2)
    return FilterConfig.from_bounds(bounds, degree)


class TestFilterConfig:
    def test_zero_degree_rejected(self):
        with pytest.raises(ValidationError):
            FilterConfig(degree=0, center=0.0, half_width=1.0, scale_ref=-2.0)

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
        # a single vector is held to the same reference, not to the bits of
        # its column in a block: the GEMM rounds a column by the block's width
        vec = chebyshev_filter(ham_mid, x[:, 0], cfg)
        assert vec.shape == (ham_mid.n,)
        assert np.abs(vec - ref[:, 0]).max() <= 1e-12 * np.abs(ref).max()

    def test_flop_model(self, ham_mid):
        ledger = PhaseLedger()
        cfg = _config_for(ham_mid, nevex=6, degree=10)
        chebyshev_filter(ham_mid, np.ones((ham_mid.n, 3), dtype=complex), cfg, ledger)
        n = ham_mid.n
        assert ledger.flops["filter"] == pytest.approx(10 * 4.0 * n * n * 3)

    def test_real_form_of_other_dtype_rejected(self, ham_mid):
        # float16 would otherwise run a recurrence at 3 significant digits
        cfg = _config_for(ham_mid, nevex=6, degree=4)
        r16 = real_symmetric_form(ham_mid).astype(np.float16)
        with pytest.raises(ValidationError, match="float32 or float64"):
            chebyshev_filter(ham_mid, np.ones((ham_mid.n, 2), dtype=complex), cfg, real_form=r16)

    def test_real_form_of_other_shape_rejected(self, ham_mid):
        cfg = _config_for(ham_mid, nevex=6, degree=4)
        r = real_symmetric_form(ham_mid, np.float32)[:-2, :-2]
        with pytest.raises(ValidationError, match="float32 or float64"):
            chebyshev_filter(ham_mid, np.ones((ham_mid.n, 2), dtype=complex), cfg, real_form=r)

    def test_operand_with_three_axes_rejected(self, ham_mid):
        cfg = _config_for(ham_mid, nevex=6, degree=4)
        with pytest.raises(ValidationError, match="1 or 2 axes"):
            chebyshev_filter(ham_mid, np.ones((ham_mid.n, 2, 2), dtype=complex), cfg)


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
        cfg = FilterConfig.from_bounds(bounds, 20)
        out64 = chebyshev_filter(ham, x, cfg)
        out32 = chebyshev_filter(ham, x, cfg, real_form=real_symmetric_form(ham, np.float32))
        assert out32.dtype == np.complex128
        err = np.abs(out32 - out64).max() / np.abs(out64).max()
        assert err <= self.RTOL
        # the float64 R of the first call was built for it alone
        np.testing.assert_array_equal(
            out64, chebyshev_filter(ham, x, cfg, real_form=real_symmetric_form(ham))
        )
        big = [v for v in vars(ham).values() if isinstance(v, np.ndarray) and v.size >= ham.n**2]
        assert big == []

    @pytest.mark.parametrize("m", [16, 256])
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_narrow_blocks_track_float64(self, m, k):
        # below 2k = 16 real columns OpenBLAS runs the float32 products on
        # its M-edge kernels, which the widths above barely reach
        ham, bounds, v, lam, r = _ritz_pairs(m, k, 1e-3, k)
        cfg = FilterConfig.from_bounds(bounds, 20)
        r32 = real_symmetric_form(ham, np.float32)
        for corrected in ((), (None, lam, r)):
            out64 = chebyshev_filter(ham, v, cfg, *corrected)
            out32 = chebyshev_filter(ham, v, cfg, *corrected, real_form=r32)
            assert np.abs(out32 - out64).max() <= self.RTOL * np.abs(out64).max(), corrected


class TestBlockConversions:
    """y = Q* x / sqrt(2) in and sqrt(2) Q y out, in either block dtype."""

    @staticmethod
    def _operand(seed, n=64, k=5, integer=False):
        gen = np.random.default_rng(seed)
        if integer:
            return gen.integers(-999, 1000, (n, k)) + 1j * gen.integers(-999, 1000, (n, k))
        return gen.standard_normal((n, k)) + 1j * gen.standard_normal((n, k))

    def test_row_block_round_trips_exactly(self):
        # integer entries make every sum and the halving exact
        x = self._operand(1, integer=True)
        for dtype in (np.complex64, np.complex128):
            out = from_complex_rows(to_complex_rows(x, dtype))
            assert out.dtype == np.complex128 and out.flags.f_contiguous
            np.testing.assert_array_equal(out, x)

    @pytest.mark.parametrize("k", [1, 5])
    def test_round_trips_to_working_precision(self, k):
        x = self._operand(2, k=k)
        scale = np.abs(x).max()
        for dtype, real in ((np.complex128, np.float64), (np.complex64, np.float32)):
            back = from_complex_rows(to_complex_rows(x, dtype))
            assert np.abs(back - x).max() <= np.finfo(real).eps * scale, dtype

    def test_row_block_is_q_star_x(self):
        x = self._operand(3)
        m = x.shape[0] // 2
        ref = np.concatenate([x[:m] + x[m:], 1j * (x[m:] - x[:m])]) / 2
        y = to_complex_rows(x, np.complex64)
        assert y.dtype == np.complex64 and y.flags.c_contiguous
        assert np.abs(y - ref).max() <= np.finfo(np.float32).eps * np.abs(ref).max()


def _ritz_pairs(m, seed, rel_residual, k=None):
    """k eigenpairs (default max(2, m // 16)) of an n = 2m instance perturbed
    to residuals near rel_residual * |mu_1|, with the bounds of a nevex = 2k
    filter."""
    ham = generate(GeneratorSpec(m=m, seed=m + seed))
    k = max(2, m // 16) if k is None else k
    bounds = estimate_bounds(ham, nevex=2 * k, steps=24, seed=1)
    eig = direct_solve_definite(ham)
    noise = rng.complex_normal_matrix(rng.substream(seed, 9), ham.n, k)
    v = eig.v[:, :k] + rel_residual * noise / np.linalg.norm(noise, axis=0)
    v /= np.linalg.norm(v, axis=0)
    lam = eig.lambdas[:k].copy()
    return ham, bounds, v, lam, apply_h(ham, v) - v * lam


class TestCorrectedFilter:
    """p(H) v = p(lam') v + q(H) r' on Ritz pairs (v, lam) with residual r."""

    @pytest.mark.parametrize("m, seed", [(16, 0), (64, 1), (256, 2)])
    def test_float64_equals_plain_filter(self, m, seed):
        # the identity itself: every column, inside and outside the
        # shift window, matches the plain float64 filter
        ham, bounds, v, lam, r = _ritz_pairs(m, seed, 1e-3)
        lam[-1] = bounds.mu_1 - bounds.mu_n  # far below mu_1: shifted to c
        r[:, -1] = apply_h(ham, v[:, -1]) - lam[-1] * v[:, -1]
        cfg = FilterConfig.from_bounds(bounds, 20)
        plain = chebyshev_filter(ham, v, cfg)
        corrected = chebyshev_filter(ham, v, cfg, None, lam, r)
        assert np.abs(corrected - plain).max() <= 1e-12 * np.abs(plain).max()

    #: float32 corrected against float64, max-norm relative, in units of
    #: eps32 * max ||r|| / |mu_1|: measured 4 to 37 over three instances
    #: each at m = 16, 64, 256 and 1024; the plain float32 filter measures
    #: 8e8 to 4e9 in the same units
    K = 100.0

    @pytest.mark.parametrize("m, seed", [(16, 0), (16, 1), (256, 0)])
    def test_float32_error_scales_with_the_residual(self, m, seed):
        ham, bounds, v, lam, r = _ritz_pairs(m, seed, 1e-9)
        scale = np.finfo(np.float32).eps * np.linalg.norm(r, axis=0).max() / abs(bounds.mu_1)
        cfg = FilterConfig.from_bounds(bounds, 20)
        ref = chebyshev_filter(ham, v, cfg)
        r32 = real_symmetric_form(ham, np.float32)

        def err(out):
            return np.abs(out - ref).max() / np.abs(ref).max()

        assert err(chebyshev_filter(ham, v, cfg, None, lam, r, real_form=r32)) <= self.K * scale
        assert err(chebyshev_filter(ham, v, cfg, real_form=r32)) > 1e3 * self.K * scale

    def test_flop_model(self, ham_mid):
        # q_1 is a scaling: degree - 1 products
        ham, bounds, v, lam, r = _ritz_pairs(16, 0, 1e-3)
        ledger = PhaseLedger()
        chebyshev_filter(ham, v, FilterConfig.from_bounds(bounds, 10), ledger, lam, r)
        assert ledger.flops["filter"] == pytest.approx(9 * 4.0 * ham.n**2 * v.shape[1])

    def test_degree_one(self):
        ham, bounds, v, lam, r = _ritz_pairs(16, 0, 1e-3)
        cfg = FilterConfig.from_bounds(bounds, 1)
        plain = chebyshev_filter(ham, v, cfg)
        corrected = chebyshev_filter(ham, v, cfg, None, lam, r)
        assert np.abs(corrected - plain).max() <= 1e-12 * np.abs(plain).max()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_corrected_call_holds_no_full_temporaries(self, dtype):
        # the shifted source goes into the block and p(lam') v into the
        # output one pass of columns at a time, and Z is formed half a block
        # at a time: at n = 2048, k = 320 a corrected call peaked at 1.75
        # times a plain call in float32 and 1.33 times in float64 before
        m, k = 1024, 320
        g = np.random.default_rng(5)
        a = g.standard_normal((m, m)) + 1j * g.standard_normal((m, m))
        b = g.standard_normal((m, m)) + 1j * g.standard_normal((m, m))
        ham = BseHamiltonian(a + a.conj().T, b + b.T)
        real_form = real_symmetric_form(ham, dtype)
        v = g.standard_normal((2 * m, k)) + 1j * g.standard_normal((2 * m, k))
        r = g.standard_normal((2 * m, k)) + 1j * g.standard_normal((2 * m, k))
        lam = np.linspace(-60.0, -40.0, k)
        cfg = FilterConfig(degree=3, center=100.0, half_width=150.0, scale_ref=-70.0)

        def peak(*args):
            tracemalloc.start()
            try:
                chebyshev_filter(ham, v, cfg, None, *args, real_form=real_form)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(lam, r) <= 1.25 * peak()

    def test_shift_window(self):
        cfg = FilterConfig(degree=4, center=1.0, half_width=4.0, scale_ref=-8.0)
        # window [mu_1 - e/4, mu_n] = [-9, 5]; outside it the shift is c
        values = np.array([-9.5, -9.0, -8.5, -3.0, 5.0, 5.5])
        np.testing.assert_array_equal(
            residual_shifts(values, cfg), [1.0, -9.0, -8.5, -3.0, 5.0, 1.0]
        )

    def test_target_below_mu_1_converges(self):
        # lambda_1 = -1959.54 lies below mu_1 = -1957.85: clipping the
        # shift to mu_1 stalled this solve at residual 8e-6
        ham = generate(GeneratorSpec(m=256, seed=13))
        res = solve(ham, SolverConfig(nev=16, nex=16))
        assert res.lambdas[0] < res.bounds.mu_1
        assert res.converged and res.iterations_used == 4

    def test_backup_projection_purges_after_row_2(self):
        # clipping the shift to mu_1 - e/4 (no shift to c below it) let a
        # spurious value through: lambda_min(Q*SQ) = 0.59 after row 2 and
        # 5 iterations
        ham = generate(GeneratorSpec(m=256, seed=1))
        res = solve(ham, SolverConfig(nev=16, nex=16, rr_variant="backup"))
        assert res.converged and res.iterations_used == 4
        assert min(row.lambda_min_m for row in res.trace[1:]) >= 0.99
