import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from bsesolve import hamiltonian, ortho, solver
from bsesolve import (
    BseHamiltonian,
    Definiteness,
    GeneratorSpec,
    IndefiniteError,
    PhaseLedger,
    SolverConfig,
    ValidationError,
    apply_h,
    apply_s,
    complete_spectrum,
    direct_solve_definite,
    generate,
    materialize,
    mirror_largest,
    rho_sh,
    solve,
)

from conftest import LAM2


def _block_diag_2x2():
    """Two decoupled copies of the 2x2 reference case (n = 4)."""
    return BseHamiltonian(np.diag([2.0, 2.0]), np.diag([0.5, 0.5]))


def _solve_and_check_oracle(ham, cfg):
    """Solve, and check convergence and the eigenvalues against the oracle."""
    res = solve(ham, cfg)
    assert res.converged
    assert (res.residual_norms <= cfg.tol).all()
    lam = direct_solve_definite(ham).lambdas[: cfg.nev]
    assert np.abs(res.lambdas - lam).max() <= 1e-13 * np.abs(lam).max()
    return res


class TestSolve:
    def test_smallest_pair_of_extended_2x2(self):
        ham = _block_diag_2x2()
        res = solve(ham, SolverConfig(nev=1, nex=1, lanczos_steps=2, seed=3))
        assert res.converged
        assert res.lambdas[0] == pytest.approx(-LAM2, abs=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_m1_without_extra_vectors(self, seed):
        ham = generate(GeneratorSpec(m=1, seed=seed))
        cfg = SolverConfig(nev=1, nex=0, seed=seed)
        res = solve(ham, cfg)
        assert res.converged
        resid = np.linalg.norm(apply_h(ham, res.v) - res.v * res.lambdas)
        assert resid <= cfg.tol
        lam = direct_solve_definite(ham).lambdas[0]
        assert res.lambdas[0] == pytest.approx(lam, abs=cfg.tol * rho_sh(ham))

    def test_tda_diagonal_returns_most_negative_values(self):
        a = np.diag(np.arange(1.0, 9.0))
        ham = BseHamiltonian(a, np.zeros((8, 8)))
        res = solve(ham, SolverConfig(nev=3, nex=3, deg=8, lanczos_steps=4, seed=1))
        assert res.converged
        np.testing.assert_allclose(res.lambdas, [-8.0, -7.0, -6.0], atol=1e-8)
        # eigenvectors live on the lower (conjugate) block
        assert np.abs(res.v[:8]).max() <= 1e-6

    def test_oracle_agreement_generated(self):
        ham = generate(GeneratorSpec(m=64, seed=21))
        cfg = SolverConfig(nev=8, seed=21)
        res = solve(ham, cfg)
        eig = direct_solve_definite(ham)
        assert res.converged
        scale = rho_sh(ham)
        assert np.abs(res.lambdas - eig.lambdas[:8]).max() <= 10 * cfg.tol * scale
        assert res.residual_norms.max() <= cfg.tol

    def test_deterministic_per_seed(self):
        ham = generate(GeneratorSpec(m=32, seed=4))
        cfg = SolverConfig(nev=4, seed=9)
        r1, r2 = solve(ham, cfg), solve(ham, cfg)
        np.testing.assert_array_equal(r1.lambdas, r2.lambdas)
        np.testing.assert_array_equal(r1.v, r2.v)

    def test_forced_hermitian_has_no_backup_events(self):
        ham = generate(GeneratorSpec(m=32, seed=6))
        res = solve(ham, SolverConfig(nev=4, seed=6, rr_variant="hermitian"))
        assert res.backup_events == 0
        assert all(row.variant == "hermitian" for row in res.trace)

    def test_forced_backup_variant(self):
        ham = generate(GeneratorSpec(m=32, seed=6))
        res = solve(ham, SolverConfig(nev=4, seed=6, rr_variant="backup"))
        assert res.converged
        assert all(row.variant == "backup" for row in res.trace)
        eig = direct_solve_definite(ham)
        assert np.abs(res.lambdas - eig.lambdas[:4]).max() <= 1e-6 * rho_sh(ham)

    def test_auto_uses_no_backup_on_healthy_instances(self):
        # the corner case behind the backup variant should not fire on
        # generated instances: at most 1 event in 100 seeds
        events = 0
        for seed in range(100):
            ham = generate(GeneratorSpec(m=24, seed=100 + seed))
            res = solve(ham, SolverConfig(nev=3, seed=seed))
            events += res.backup_events > 0
        assert events <= 1

    def test_nonconvergence_is_soft(self):
        ham = generate(GeneratorSpec(m=32, seed=8))
        res = solve(ham, SolverConfig(nev=4, seed=8, maxiter=1, deg=2))
        assert not res.converged
        assert res.iterations_used == 1
        assert res.lambdas.shape == (4,) and res.v.shape == (64, 4)
        assert len(res.trace) == 1

    def test_indefinite_input_rejected(self):
        ham = BseHamiltonian(np.array([[1.0]]), np.array([[2.0]]))
        with pytest.raises(IndefiniteError):
            solve(ham, SolverConfig(nev=1, nex=0, deg=2, lanczos_steps=2))

    def test_validation_errors(self):
        ham = generate(GeneratorSpec(m=8, seed=0))
        with pytest.raises(ValidationError):
            solve(ham, SolverConfig(nev=5, nex=5))  # nevex > n/2
        with pytest.raises(ValidationError):
            solve(ham, SolverConfig(nev=2, deg=0))
        with pytest.raises(ValidationError):
            solve(ham, SolverConfig(nev=0))
        with pytest.raises(ValidationError):
            solve(ham, SolverConfig(nev=2, tol=-1.0))

    def test_trace_monotonicity(self):
        ham = generate(GeneratorSpec(m=48, seed=12))
        res = solve(ham, SolverConfig(nev=6, seed=12))
        locked = [row.locked for row in res.trace]
        ks = [row.k for row in res.trace]
        assert all(b >= a for a, b in zip(locked, locked[1:]))
        assert all(b <= a for a, b in zip(ks, ks[1:]))
        assert ks[0] == 12  # nevex columns active at the start

    @pytest.mark.parametrize(
        "m, nev, nex, variant",
        [(48, 6, None, "auto"), (32, 4, 0, "auto"), (64, 8, 1, "backup"), (8, 1, 1, "auto")],
    )
    def test_cutoff_between_mu_1_and_zero(self, m, nev, nex, variant):
        # from iteration 2 on the cutoff is update_cutoff's: never below
        # mu_1 and clamped to 0
        ham = generate(GeneratorSpec(m=m, seed=12))
        res = solve(ham, SolverConfig(nev=nev, nex=nex, seed=12, rr_variant=variant))
        assert len(res.trace) >= 2
        for row in res.trace[1:]:
            assert res.bounds.mu_1 <= row.mu_nevex <= 0.0

    def test_nex_0_converges_at_m_4(self):
        # every active value is a target here; a cutoff on one of them left
        # the solve at residual 1.5e-3 after 25 iterations
        ham = generate(GeneratorSpec(m=4, seed=0))
        res = solve(ham, SolverConfig(nev=1, nex=0, seed=0))
        assert res.converged and res.iterations_used <= 10
        lam = direct_solve_definite(ham).lambdas[0]
        assert abs(res.lambdas[0] - lam) <= 1e-13 * abs(lam)

    def test_validated_sweep_with_extra_vectors_converges(self):
        # m in {2..64} x coupling x generator seeds 0-2 x nex in {1, nev},
        # solver seed 0: 108 solves.  With the cutoff on a target, m = 32,
        # coupling 0, seed 2, nex = 1 ran to maxiter
        failed = []
        for m in (2, 4, 8, 16, 32, 64):
            nev = max(1, m // 8)
            for coupling in (0.0, 0.5, 0.9, 0.999):
                for seed in range(3):
                    ham = generate(GeneratorSpec(m=m, seed=seed, coupling_ratio=coupling))
                    for nex in sorted({1, nev}):
                        res = solve(ham, SolverConfig(nev=nev, nex=nex))
                        if not res.converged:
                            failed.append((m, coupling, seed, nex))
        assert failed == []

    @pytest.mark.parametrize("m, nev", [(32, 4), (128, 8)])
    def test_nex_1_last_target_converges(self, m, nev):
        # the one extra column settles on lambda_{nev+1}, the cutoff sits on
        # its Ritz value, and the last target stalled at 1.5e-7 (m = 32) and
        # 2.6e-8 (m = 128) while the locked components of the residual block
        # set the float32 rounding scale of the corrected filter
        res = _solve_and_check_oracle(
            generate(GeneratorSpec(m=m, seed=1)), SolverConfig(nev=nev, nex=1, seed=1)
        )
        assert res.iterations_used <= 12

    @pytest.mark.parametrize("nex", [12, 14, 16])
    def test_many_targets_keep_full_rank(self, nex):
        # these raised RankDeficiencyError in the Householder fallback
        _solve_and_check_oracle(
            generate(GeneratorSpec(m=32, seed=1)), SolverConfig(nev=16, nex=nex)
        )

    def test_degenerate_cluster(self):
        # B = 0 and an 8-fold eigenvalue of A: H has the 8-fold pair +-8 next
        # to zero, in the filter's damped interval, as wide as nevex
        a = np.diag(np.concatenate([np.full(8, 8.0), np.linspace(9.0, 40.0, 24)]))
        ham = BseHamiltonian(a.astype(np.complex128), np.zeros((32, 32), np.complex128))
        _solve_and_check_oracle(ham, SolverConfig(nev=4, nex=4))

    def test_locked_residuals_below_tolerance(self):
        ham = generate(GeneratorSpec(m=48, seed=13))
        cfg = SolverConfig(nev=6, seed=13)
        res = solve(ham, cfg)
        assert (res.residual_norms <= cfg.tol).all()
        assert (np.diff(res.lambdas) >= 0).all()

    def test_relative_residual_flag(self):
        ham = generate(GeneratorSpec(m=32, seed=14))
        cfg = SolverConfig(nev=4, seed=14, rel_res=True)
        res = solve(ham, cfg)
        assert res.converged
        assert res.residual_norms.max() <= cfg.tol * abs(res.bounds.mu_1)

    def test_odd_degree_matches_even(self):
        ham = generate(GeneratorSpec(m=32, seed=15))
        r_even = solve(ham, SolverConfig(nev=4, seed=15))
        r_odd = solve(ham, SolverConfig(nev=4, seed=15, deg=15))
        assert r_odd.converged
        np.testing.assert_allclose(
            r_even.lambdas, r_odd.lambdas, atol=1e-12 * rho_sh(ham)
        )

    def test_phase_flops_accumulate(self):
        ham = generate(GeneratorSpec(m=32, seed=16))
        res = solve(ham, SolverConfig(nev=4, seed=16))
        for phase in ("lanczos", "filter", "ortho", "rr", "residuals"):
            assert res.ledger.flops.get(phase, 0.0) > 0
        assert sum(row.flops for row in res.trace) == pytest.approx(
            res.ledger.total_flops() - res.ledger.flops["lanczos"]
        )


class TestDefinitePhase:
    def test_certificate_is_timed_and_charged_when_it_factors(self):
        ham = generate(GeneratorSpec(m=32, seed=17))
        res = solve(BseHamiltonian(ham.a, ham.b), SolverConfig(nev=4, seed=17))
        assert res.ledger.seconds["definite"] > 0
        assert res.ledger.flops["definite"] == ham.n**3 / 3.0

    def test_cached_class_is_not_charged(self):
        ham = generate(GeneratorSpec(m=32, seed=17))
        assert ham.definiteness is Definiteness.DEFINITE
        res = solve(ham, SolverConfig(nev=4, seed=17))
        assert res.ledger.seconds["definite"] > 0
        assert "definite" not in res.ledger.flops

    def test_one_solve_builds_the_real_form_once(self, monkeypatch):
        real_form = hamiltonian.real_symmetric_form
        built = []

        def counted(ham):
            built.append(ham)
            return real_form(ham)

        monkeypatch.setattr(hamiltonian, "real_symmetric_form", counted)
        ham = generate(GeneratorSpec(m=32, seed=18))
        assert len(built) == 1  # generate's certificate, not kept
        fresh = BseHamiltonian(ham.a, ham.b)
        res = solve(fresh, SolverConfig(nev=4, seed=18))
        assert res.converged
        assert built[1:] == [fresh]

    def test_rejected_hamiltonian_keeps_no_real_form(self, monkeypatch):
        real_form = hamiltonian.real_symmetric_form
        built = []

        def counted(ham):
            built.append(ham)
            return real_form(ham)

        monkeypatch.setattr(hamiltonian, "real_symmetric_form", counted)
        ham = generate(GeneratorSpec(m=16, seed=5, coupling_ratio=10.0, mode="indefinite"))
        fresh = BseHamiltonian(ham.a, ham.b)
        built.clear()
        cfg = SolverConfig(nev=2, seed=5)
        # unclassified: R is built for the certificate, then dropped
        with pytest.raises(IndefiniteError):
            solve(fresh, cfg)
        assert fresh.definiteness is Definiteness.INDEFINITE
        assert fresh._r is None and built == [fresh]
        # classified INDEFINITE: rejected without building R
        with pytest.raises(IndefiniteError):
            solve(fresh, cfg)
        assert fresh._r is None and built == [fresh]


class TestIndependentResidualGate:
    """Residuals recomputed from the returned pairs, not read from the result."""

    @pytest.mark.parametrize("m, nev", [(16, 4), (64, 8), (256, 16)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_returned_pairs_meet_tol_and_match_oracle(self, m, nev, seed):
        ham = generate(GeneratorSpec(m=m, seed=seed))
        eig = direct_solve_definite(ham)
        scale = rho_sh(ham)
        dense = materialize(ham)
        for variant in ("hermitian", "backup"):
            cfg = SolverConfig(nev=nev, seed=seed, rr_variant=variant)
            res = solve(BseHamiltonian(ham.a, ham.b), cfg)
            assert res.converged
            np.testing.assert_allclose(np.linalg.norm(res.v, axis=0), 1.0, rtol=1e-12)
            # dense H: independent of the product kernel the solve ran on
            resid = np.linalg.norm(dense @ res.v - res.v * res.lambdas, axis=0)
            assert resid.max() <= cfg.tol
            assert np.abs(res.lambdas - eig.lambdas[:nev]).max() <= cfg.tol * scale


def _forbid_scipy_linalg(monkeypatch) -> list[str]:
    """Make every public scipy.linalg callable raise; returns the call log.

    Covers scipy.linalg, its blas and lapack wrappers, and any name a
    bsesolve module imported from them directly.
    """
    calls: list[str] = []

    def forbidden(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"solve() called {name}")

        return call

    def is_forbidden(obj) -> bool:
        if isinstance(obj, type) and issubclass(obj, BaseException):
            return False  # LinAlgError and LinAlgWarning are not calls
        return callable(obj)

    for module in (scipy.linalg, scipy.linalg.blas, scipy.linalg.lapack):
        for name in dir(module):
            if not name.startswith("_") and is_forbidden(getattr(module, name)):
                monkeypatch.setattr(module, name, forbidden(f"{module.__name__}.{name}"))
    for modname, module in list(sys.modules.items()):
        if not modname.startswith("bsesolve"):
            continue
        for name, obj in list(vars(module).items()):
            origin = getattr(obj, "__module__", None) or ""
            if origin.startswith("scipy.linalg") and is_forbidden(obj):
                monkeypatch.setattr(module, name, forbidden(f"{modname}.{name}"))
    return calls


class TestSolvePathUsesNumpyOnly:
    """numpy and scipy each bundle an OpenBLAS with its own thread pool; a
    solve that crosses between them pays for both pools spinning.

    The rule holds for the whole process too: no bsesolve module imports
    scipy at module level, only the oracles and the `verify` checks import
    it inside the function that calls it (see TestProcessLoadsOneBlas in
    test_cli.py).  Such a function-level `import scipy.linalg` binds the
    patched module, so the guard still catches a call made through it.
    """

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"rr_variant": "backup"}, {"deg": 7}],
        ids=["auto", "backup", "odd_degree"],
    )
    def test_no_scipy_linalg_call(self, monkeypatch, overrides):
        generated = generate(GeneratorSpec(m=32, seed=30))
        ham = BseHamiltonian(generated.a, generated.b)  # definiteness not cached
        calls = _forbid_scipy_linalg(monkeypatch)
        res = solve(ham, SolverConfig(nev=4, seed=30, **overrides))
        monkeypatch.undo()
        assert calls == []
        assert res.converged
        assert ham.definiteness is Definiteness.DEFINITE
        if overrides.get("rr_variant") == "backup":
            assert all(row.variant == "backup" for row in res.trace)

    def test_guard_catches_a_scipy_call(self, monkeypatch):
        calls = _forbid_scipy_linalg(monkeypatch)
        with pytest.raises(AssertionError):
            scipy.linalg.cholesky(np.eye(2))
        monkeypatch.undo()
        assert calls == ["scipy.linalg.cholesky"]


def _float64_only(monkeypatch):
    """Run every filter call of later solves in float64, corrected from row 2 on."""
    filt = solver.chebyshev_filter

    def float64_filter(ham, vhat, cfg, ledger=None, *args, **kwargs):
        return filt(ham, vhat, replace(cfg, precision="float64"), ledger, *args, **kwargs)

    monkeypatch.setattr(solver, "chebyshev_filter", float64_filter)


def _plain_only(monkeypatch):
    """Drop the residual correction: every filter call of later solves is plain."""
    filt = solver.chebyshev_filter

    def plain_filter(ham, vhat, cfg, ledger=None, *args, real_form=None):
        return filt(ham, vhat, cfg, ledger, real_form=real_form)

    monkeypatch.setattr(solver, "chebyshev_filter", plain_filter)


def _precisions(res):
    return [row.precision for row in res.trace]


class TestFilterPrecision:
    """Row 1 filters in plain float32; every later row runs the corrected
    float32 filter on the residual block."""

    @pytest.mark.parametrize("seed", range(4))
    def test_float32_then_corrected_every_row(self, seed):
        ham = generate(GeneratorSpec(m=64, seed=50 + seed))
        res = solve(ham, SolverConfig(nev=8, seed=seed, tol=1e-10))
        assert res.converged
        prec = _precisions(res)
        assert prec == ["float32"] + ["float32-corrected"] * (len(prec) - 1)

    def test_trace_columns_follow_the_ledger(self):
        ham = generate(GeneratorSpec(m=32, seed=16))
        res = solve(BseHamiltonian(ham.a, ham.b), SolverConfig(nev=4, seed=16))
        for phase in ("filter", "ortho", "rr", "residuals"):
            per_iter = [getattr(row, f"{phase}_s") for row in res.trace]
            assert min(per_iter) > 0
            assert sum(per_iter) == pytest.approx(res.ledger.seconds[phase], rel=1e-9)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_correction_passes_the_float32_floor(self, monkeypatch, seed):
        # the residuals go below 10 eps32 |mu_1| (about 2.4e-3 here) with
        # every row in float32; a plain float32 filter stalls near 2.5e-4
        # and runs to maxiter at n = 512
        ham = generate(GeneratorSpec(m=256, seed=seed))
        cfg = SolverConfig(nev=16, seed=seed)
        res = solve(ham, cfg)
        assert res.converged
        assert set(_precisions(res)[1:]) == {"float32-corrected"}
        _plain_only(monkeypatch)
        stalled = solve(ham, replace(cfg, maxiter=12))
        assert not stalled.converged
        assert min(row.min_res_unlocked for row in stalled.trace) > 1e3 * cfg.tol
        monkeypatch.undo()
        _float64_only(monkeypatch)
        ref = solve(ham, cfg)
        assert res.iterations_used == ref.iterations_used
        scale = np.abs(ref.lambdas).max()
        assert np.abs(res.lambdas - ref.lambdas).max() <= 1e-13 * scale

    def test_float32_form_cast_once_per_solve(self, monkeypatch):
        forms = []
        filt = solver.chebyshev_filter

        def recording_filter(*args, real_form=None):
            forms.append(real_form)
            return filt(*args, real_form=real_form)

        monkeypatch.setattr(solver, "chebyshev_filter", recording_filter)
        ham = generate(GeneratorSpec(m=32, seed=16))
        res = solve(ham, SolverConfig(nev=4, seed=16))
        assert len(forms) == res.iterations_used >= 2
        assert all(r is forms[0] for r in forms)
        assert forms[0].dtype == np.float32
        # the Hamiltonian keeps only its float64 R
        big = [v for v in vars(ham).values() if isinstance(v, np.ndarray) and v.size >= ham.n**2]
        assert len(big) == 1 and big[0] is ham._r and ham._r.dtype == np.float64

    @pytest.mark.parametrize("coupling", [0.5, 0.999])
    def test_converges_in_either_gemm_orientation(self, monkeypatch, coupling):
        # a C-order R turns the filter's NN sgemm into the NT one, which
        # rounds differently; before the locked components were deflated
        # from the residual block, the C-order solves stalled at 2.9e-8 and
        # 2.1e-8 and ran to maxiter
        filt = solver.chebyshev_filter
        ham = generate(GeneratorSpec(m=32, seed=2, coupling_ratio=coupling))
        for order in ("F", "C"):

            def ordered_filter(*args, real_form=None):
                return filt(*args, real_form=np.asarray(real_form, order=order))

            monkeypatch.setattr(solver, "chebyshev_filter", ordered_filter)
            res = solve(ham, SolverConfig(nev=4, nex=1))
            assert res.converged, order
            assert res.iterations_used <= 8, order

    def test_cutoff_after_float32_skips_values_at_the_floor(self):
        # after the float32 iteration 1 the Ritz values are [-141.7, -41.7]:
        # the first is spurious (below mu_1), the second the target, at the
        # float32 floor; a cutoff kept at the Lanczos value (the second
        # eigenvalue) or put on the target stalled this solve for 25
        # iterations, so the rule drops the spurious value and then the
        # target, and 0 (the widest passband) stands in.  Counting the
        # target before dropping the spurious value took 18 iterations.
        ham = generate(GeneratorSpec(m=8, seed=0, coupling_ratio=0.999))
        res = solve(ham, SolverConfig(nev=1, nex=1, seed=0))
        assert res.converged and res.iterations_used <= 3
        assert _precisions(res)[:2] == ["float32", "float32-corrected"]
        assert res.trace[1].mu_nevex == 0.0

    @pytest.mark.parametrize("variant, tol", [("auto", 1e-8), ("backup", 1e-8), ("auto", 1e-9)])
    def test_matches_float64_only_run(self, monkeypatch, variant, tol):
        ham = generate(GeneratorSpec(m=128, seed=60))
        cfg = SolverConfig(nev=8, seed=60, tol=tol, rr_variant=variant)
        mixed = solve(ham, cfg)
        _float64_only(monkeypatch)
        ref = solve(ham, cfg)
        assert mixed.converged and ref.converged
        assert abs(mixed.iterations_used - ref.iterations_used) <= 1
        scale = np.abs(ref.lambdas).max()
        assert np.abs(mixed.lambdas - ref.lambdas).max() <= 1e-13 * scale


class TestDeflateLocked:
    def test_removes_the_locked_components_only(self):
        ham = generate(GeneratorSpec(m=16, seed=3))
        eig = direct_solve_definite(ham)
        g = np.random.default_rng(3)
        locked = eig.v[:, :3]
        rest = eig.v[:, 3:9] @ (g.standard_normal((6, 5)) + 1j * g.standard_normal((6, 5)))
        block = rest + locked @ (g.standard_normal((3, 5)) + 1j * g.standard_normal((3, 5)))
        ledger = PhaseLedger()
        out = ortho.deflate_locked(block, locked, ledger, "filter")
        assert np.abs(out - rest).max() <= 1e-12 * np.abs(rest).max()
        assert np.abs(apply_s(locked).conj().T @ out).max() <= 1e-12
        assert ledger.flops == {"filter": 8.0 * 32 * 3 * (3 + 2 * 5)}


class TestHermitianParity:
    def _hermitian_baseline(self, a, nev, nex, deg, tol, maxiter, seed):
        """Plain hermitian Chebyshev subspace iteration on A (textbook form)."""
        rng = np.random.default_rng(seed)
        m = a.shape[0]
        w = np.linalg.eigvalsh(a)
        # target the nev largest of A (mirrors the most negative of H for B=0)
        lo, hi = w[0], w[-1]
        nevex = nev + nex
        v = rng.standard_normal((m, nevex)) + 1j * rng.standard_normal((m, nevex))
        mu_hi = hi + 0.01 * abs(hi)
        cutoff = w[-nevex]
        locked = 0
        vals = np.array([])
        for it in range(1, maxiter + 1):
            c, e = (cutoff + (lo - 0.01 * abs(lo))) / 2, (cutoff - (lo - 0.01 * abs(lo))) / 2
            s = mu_hi
            sigma = sigma1 = e / (s - c)
            y0, y1 = v, (a @ v - c * v) * (sigma1 / e)
            for _ in range(2, deg + 1):
                sn = 1 / (2 / sigma1 - sigma)
                y0, y1, sigma = y1, (2 * sn / e) * (a @ y1 - c * y1) - sigma * sn * y0, sn
            q, _ = np.linalg.qr(np.concatenate([vecs_locked, y1], axis=1)) if locked else np.linalg.qr(y1)
            q = q[:, locked:]
            g = q.conj().T @ (a @ q)
            theta, z = np.linalg.eigh((g + g.conj().T) / 2)
            order = np.argsort(-theta)  # largest first = convergence targets
            theta, z = theta[order], z[:, order]
            vt = q @ z
            res = np.linalg.norm(a @ vt - vt * theta, axis=0)
            nl = 0
            while nl < len(theta) and res[nl] <= tol:
                nl += 1
            if nl:
                newly = vt[:, :nl]
                vecs_locked = np.concatenate([vecs_locked, newly], axis=1) if locked else newly
                vals = np.concatenate([vals, theta[:nl]])
                locked += nl
            if locked >= nev:
                return it
            v = vt[:, nl:]
            nc = theta[nl:][res[nl:] > tol]
            if nc.size:
                cutoff = nc.min()
        return maxiter + 1

    def test_tda_iteration_parity_with_hermitian_baseline(self):
        # with B = 0 the pseudo-hermitian pipeline should not need more
        # than a couple of extra iterations over a plain hermitian run
        for seed in (0, 1, 2):
            spec = GeneratorSpec(m=64, seed=40 + seed, coupling_ratio=0.0)
            ham = generate(spec)
            cfg = SolverConfig(nev=8, seed=40 + seed)
            res = solve(ham, cfg)
            assert res.converged
            baseline_iters = self._hermitian_baseline(
                np.conj(ham.a), 8, 8, cfg.deg, cfg.tol, cfg.maxiter, 40 + seed
            )
            assert res.iterations_used <= baseline_iters + 2


class TestCompleteSpectrum:
    def test_extended_2x2_partners(self):
        ham = _block_diag_2x2()
        res = solve(ham, SolverConfig(nev=1, nex=1, lanczos_steps=2, seed=3))
        comp = complete_spectrum(res)
        np.testing.assert_allclose(comp.values, [-LAM2, LAM2], atol=1e-9)
        r = apply_h(ham, comp.right) - comp.right * comp.values
        assert np.linalg.norm(r, axis=0).max() <= 1e-9

    def test_partner_residuals_bounded_by_original(self):
        ham = generate(GeneratorSpec(m=32, seed=18))
        res = solve(ham, SolverConfig(nev=4, seed=18))
        comp = complete_spectrum(res)
        r = np.linalg.norm(apply_h(ham, comp.right) - comp.right * comp.values, axis=0)
        assert r.max() <= 10 * res.residual_norms.max()

    def test_left_vectors_and_positivity(self):
        ham = generate(GeneratorSpec(m=32, seed=19))
        res = solve(ham, SolverConfig(nev=4, seed=19))
        comp = complete_spectrum(res)
        hd = materialize(ham)
        left_res = np.linalg.norm(
            hd.conj().T @ comp.left - comp.left * comp.values, axis=0
        )
        assert left_res.max() <= 10 * res.residual_norms.max() + 1e-12
        overlap = np.real(np.einsum("ij,ij->j", comp.left.conj(), comp.right))
        assert overlap.min() > 0

    def test_tda_partners_on_mirror_block(self):
        a = np.diag(np.arange(1.0, 5.0))
        ham = BseHamiltonian(a, np.zeros((4, 4)))
        res = solve(ham, SolverConfig(nev=2, nex=2, deg=6, lanczos_steps=4, seed=2))
        comp = complete_spectrum(res)
        # partners of lower-supported eigenvectors are upper-supported
        for j, lam in enumerate(comp.values):
            half = comp.right[:4, j] if lam < 0 else comp.right[4:, j]
            assert np.abs(half).max() <= 1e-6


class TestMirrorLargest:
    def test_matches_oracle_largest(self):
        ham = generate(GeneratorSpec(m=32, seed=20))
        res = solve(ham, SolverConfig(nev=4, seed=20))
        largest = mirror_largest(res)
        eig = direct_solve_definite(ham)
        np.testing.assert_allclose(
            largest.lambdas, eig.lambdas[-4:], atol=10 * 1e-8 * rho_sh(ham)
        )
        r = apply_h(ham, largest.v) - largest.v * largest.lambdas
        assert np.linalg.norm(r, axis=0).max() <= 10 * res.residual_norms.max()
        np.testing.assert_array_equal(
            np.sort(largest.residual_norms), np.sort(res.residual_norms)
        )


class TestBenchmarkTracerSeam:
    """perfbench/tracing.py wraps names that solver.solve looks up at call
    time and reads s_orthonormalize's (q, method) tuple; a solve under its
    spans must record a call in every library span it requires."""

    def test_spans_record_every_required_library_call(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import tracing

        for name in (
            "is_definite",
            "estimate_bounds",
            "chebyshev_filter",
            "s_orthonormalize",
            "build_hermitian_rq",
            "build_backup_rq",
            "residuals",
        ):
            monkeypatch.setattr(solver, name, getattr(solver, name))  # undone after the test
        tracer = tracing.Tracer(prefix="t")
        tracing.install_solver_spans(tracer)
        res = solve(generate(GeneratorSpec(m=64, seed=2)), SolverConfig(nev=4, seed=2))
        assert res.converged and res.iterations_used > 1

        # the worker records these three around the solve itself
        own = {"generate.generate", "hamiltonian.construct", "solver.solve"}
        seen = {span["name"] for span in tracer.spans}
        assert [name for name in tracing.REQUIRED if name not in own | seen] == []
        assert seen & set(tracing.PROJECT)
        ortho_spans = [s for s in tracer.spans if s["name"] == "ortho.s_orthonormalize"]
        assert len(ortho_spans) == res.iterations_used
        assert all(span["cholqr"] == 1 for span in ortho_spans)
