import numpy as np
import pytest

from bsesolve import (
    GeneratorSpec,
    HermitianRqError,
    ValidationError,
    apply_h,
    apply_s,
    build_backup_rq,
    build_hermitian_rq,
    cond_of_h,
    diagnostics,
    direct_solve_definite,
    dual_basis_explicit,
    generate,
    lock_converged,
    materialize,
    residuals,
    rho_sh,
)
from bsesolve.metrics import PhaseLedger
from bsesolve.rayleigh_ritz import RitzSet

from conftest import LAM2


def _rand_q(n, k, seed):
    g = np.random.default_rng(seed)
    x = g.standard_normal((n, k)) + 1j * g.standard_normal((n, k))
    q, _ = np.linalg.qr(x)
    return q


def _singular_column(m):
    """(e_1 + e_{m+1})/sqrt(2): sigma(Q_1) = 1/sqrt(2), so Q*SQ = 0."""
    q = np.zeros((2 * m, 1), dtype=complex)
    q[0, 0] = q[m, 0] = 1 / np.sqrt(2)
    return q


class TestHermitianVariant:
    def test_hand_case_k1(self, ham2):
        ritz, red = build_hermitian_rq(ham2, np.array([[1.0], [0.0]], dtype=complex))
        assert red.w[0, 0] == pytest.approx(2.0)
        assert red.m[0, 0] == pytest.approx(1.0)
        assert red.g[0, 0] == pytest.approx(0.5)
        assert ritz.values[0] == pytest.approx(2.0)

    def test_exact_invariant_subspace(self):
        ham = generate(GeneratorSpec(m=4, seed=5))
        eig = direct_solve_definite(ham)
        idx = [0, 1]
        q, _ = np.linalg.qr(eig.v[:, idx])
        ritz, _ = build_hermitian_rq(ham, q)
        np.testing.assert_allclose(
            ritz.values, eig.lambdas[idx], atol=1e-10 * rho_sh(ham)
        )
        res = residuals(ham, ritz)
        assert res.max() <= 1e-10 * rho_sh(ham)

    def test_tda_reduces_to_hermitian_rr_on_a(self, ham_small):
        import scipy.linalg as sla

        a = ham_small.a
        ham_tda = type(ham_small)(a, np.zeros_like(a))
        q1 = _rand_q(8, 3, 7)
        q = np.concatenate([q1, np.zeros((8, 3))], axis=0)
        ritz, _ = build_hermitian_rq(ham_tda, q)
        expected = np.sort(sla.eigvalsh(q1.conj().T @ a @ q1))
        np.testing.assert_allclose(ritz.values, expected, atol=1e-10)

    def test_values_are_real_and_sorted(self, ham_mid):
        ritz, _ = build_hermitian_rq(ham_mid, _rand_q(32, 6, 1))
        assert ritz.values.dtype.kind == "f"
        assert (np.diff(ritz.values) >= 0).all()
        np.testing.assert_allclose(np.linalg.norm(ritz.vectors, axis=0), 1.0, atol=1e-12)

    def test_singular_qsq_raises(self, ham_mid):
        with pytest.raises(HermitianRqError):
            build_hermitian_rq(ham_mid, _singular_column(16))

    def test_w_is_hermitian_positive(self, ham_mid):
        _, red = build_hermitian_rq(ham_mid, _rand_q(32, 5, 2))
        assert np.abs(red.w - red.w.conj().T).max() <= 1e-10 * np.abs(red.w).max()
        assert np.linalg.eigvalsh(red.w).min() > 0

    def test_m_spectrum_inside_unit_interval(self, ham_mid):
        _, red = build_hermitian_rq(ham_mid, _rand_q(32, 5, 3))
        eigs = np.linalg.eigvalsh(red.m)
        assert eigs.min() >= -1 - 1e-10 and eigs.max() <= 1 + 1e-10

    def test_w_interlaces_with_sh(self, ham_mid):
        # eigenvalues of Q*SHQ interlace those of SH
        import scipy.linalg as sla

        from bsesolve import materialize_sh

        _, red = build_hermitian_rq(ham_mid, _rand_q(32, 5, 4))
        sh_eigs = sla.eigvalsh(materialize_sh(ham_mid))
        w_eigs = np.linalg.eigvalsh(red.w)
        scale = sh_eigs[-1]
        assert w_eigs.min() >= sh_eigs[0] - 1e-10 * scale
        assert w_eigs.max() <= sh_eigs[-1] + 1e-10 * scale

    def test_flop_model_charges_the_h_product_once(self, ham_mid):
        ledger = PhaseLedger()
        q = _rand_q(ham_mid.n, 3, 12)
        build_hermitian_rq(ham_mid, q, ledger)
        n, k = ham_mid.n, 3
        # H Q plus H V = (H Q) C, 8 n k^2 of the 20 n k^2
        assert ledger.flops == {"rr": 8.0 * n * n * k + 20.0 * n * k * k + 16.0 * k**3}


class TestBackupVariant:
    def test_hand_case_k1(self, ham2):
        ritz, red = build_backup_rq(ham2, np.array([[1.0], [0.0]], dtype=complex))
        assert red.d[0] == pytest.approx(1.0)
        assert ritz.values[0] == pytest.approx(2.0)

    def test_exact_invariant_subspace(self):
        ham = generate(GeneratorSpec(m=4, seed=5))
        eig = direct_solve_definite(ham)
        scale = rho_sh(ham)
        q, _ = np.linalg.qr(eig.v[:, [2, 5]])
        ritz, red = build_backup_rq(ham, q)
        np.testing.assert_allclose(
            np.sort(ritz.values), np.sort(eig.lambdas[[2, 5]]), atol=1e-8 * scale
        )
        # imaginary parts of the reduced spectrum stay negligible
        from bsesolve.direct import dense_general_eig

        w, _ = dense_general_eig(red.g)
        assert np.abs(w.imag).max() <= 1e-8 * scale

    def test_singular_qsq_survives(self, ham_mid):
        ritz, red = build_backup_rq(ham_mid, _singular_column(16))
        assert np.isfinite(ritz.values).all()
        assert red.d[0] == pytest.approx(1.0)  # zero diagonal replaced

    def test_agrees_with_hermitian_variant_near_invariance(self, ham_mid):
        # the two projections are different operators on a generic
        # subspace; close to an invariant subspace they both reproduce it
        eig = direct_solve_definite(ham_mid)
        scale = rho_sh(ham_mid)
        perturbed = eig.v[:, :4] + 1e-7 * _rand_q(32, 4, 9)
        q, _ = np.linalg.qr(perturbed)
        r_h, _ = build_hermitian_rq(ham_mid, q)
        r_b, _ = build_backup_rq(ham_mid, q)
        np.testing.assert_allclose(r_h.values, r_b.values, atol=1e-9 * scale)

    def test_flop_model_charges_the_h_product_once(self, ham_mid):
        ledger = PhaseLedger()
        q = _rand_q(ham_mid.n, 3, 13)
        build_backup_rq(ham_mid, q, ledger)
        n, k = ham_mid.n, 3
        # H Q plus H V = (H Q) Y, 8 n k^2 of the 28 n k^2
        assert ledger.flops == {"rr": 8.0 * n * n * k + 28.0 * n * k * k + 30.0 * k**3}


class TestResiduals:
    def test_exact_eigenpair_residual_vanishes(self, ham_mid):
        eig = direct_solve_definite(ham_mid)
        ritz = RitzSet(values=eig.lambdas[:3], vectors=eig.v[:, :3])
        res = residuals(ham_mid, ritz)
        assert res.max() <= 1e-12 * rho_sh(ham_mid)

    def test_residual_block_is_kept(self, ham_mid):
        # the block H V - V Lambda is what the next corrected filter reads
        g = np.random.default_rng(4)
        v = g.standard_normal((32, 3)) + 1j * g.standard_normal((32, 3))
        ritz = RitzSet(values=np.array([-2.0, -1.0, 0.5]), vectors=v)
        res = residuals(ham_mid, ritz)
        np.testing.assert_array_equal(
            ritz.residual_vectors, apply_h(ham_mid, v) - v * ritz.values
        )
        np.testing.assert_array_equal(res, np.linalg.norm(ritz.residual_vectors, axis=0))

    @pytest.mark.parametrize("build", [build_hermitian_rq, build_backup_rq])
    def test_projection_h_vectors_replace_the_product(self, ham_mid, build):
        # H V from the projection's H Q: accurate to eps ||H|| like a direct
        # product, and the residuals make no H-product of their own; the
        # residual block is written over H V, which is then cleared
        q = _rand_q(32, 5, 18)
        ritz, _ = build(ham_mid, q)
        direct = apply_h(ham_mid, ritz.vectors)
        assert np.abs(ritz.h_vectors - direct).max() <= 1e-14 * rho_sh(ham_mid)
        hv = ritz.h_vectors.copy()
        ledger = PhaseLedger()
        res = residuals(ham_mid, ritz, ledger)
        assert ledger.flops == {}
        assert ritz.h_vectors is None
        np.testing.assert_array_equal(
            ritz.residual_vectors, hv - ritz.vectors * ritz.values
        )
        np.testing.assert_array_equal(res, np.linalg.norm(ritz.residual_vectors, axis=0))

    def test_pythagoras_for_rayleigh_quotient(self, ham_mid):
        g = np.random.default_rng(3)
        v = g.standard_normal(32) + 1j * g.standard_normal(32)
        v /= np.linalg.norm(v)
        hv = apply_h(ham_mid, v)
        lam = float(np.real(np.vdot(v, hv)))
        ritz = RitzSet(values=np.array([lam]), vectors=v[:, None])
        res = residuals(ham_mid, ritz)[0]
        expected_sq = np.linalg.norm(hv) ** 2 - lam**2
        assert res**2 == pytest.approx(expected_sq, rel=1e-10)

    def test_homogeneity_under_scaling(self, ham2):
        v = np.array([0.8, 0.6j])
        v /= np.linalg.norm(v)
        ritz1 = RitzSet(values=np.array([1.3]), vectors=v[:, None])
        r1 = residuals(ham2, ritz1)[0]
        scaled = type(ham2)(3.0 * ham2.a, 3.0 * ham2.b)
        ritz3 = RitzSet(values=np.array([3 * 1.3]), vectors=v[:, None])
        r3 = residuals(scaled, ritz3)[0]
        assert r3 == pytest.approx(3 * r1, rel=1e-12)


class TestLocking:
    def _ritz(self, values, res):
        k = len(values)
        ritz = RitzSet(
            values=np.asarray(values, dtype=float),
            vectors=np.eye(max(k, 2), k, dtype=complex)[: max(k, 2)],
        )
        ritz.residual_norms = np.asarray(res, dtype=float)
        return ritz

    def test_nothing_converged(self):
        assert lock_converged(self._ritz([-3, -2, -1], [1, 1, 1]), 1e-8, 3) == 0

    def test_prefix_locks(self):
        count = lock_converged(self._ritz([-3, -2, -1], [1e-10, 1e-9, 1.0]), 1e-8, 3)
        assert count == 2

    def test_interior_converged_pair_is_blocked(self):
        count = lock_converged(self._ritz([-3, -2, -1], [1.0, 1e-12, 1.0]), 1e-8, 3)
        assert count == 0

    def test_window_cap(self):
        count = lock_converged(self._ritz([-4, -3, -2, -1], [1e-12] * 4), 1e-8, 2)
        assert count == 2

    def test_all_lock_on_exact_run(self, ham_mid):
        eig = direct_solve_definite(ham_mid)
        ritz = RitzSet(values=eig.lambdas[:4].copy(), vectors=eig.v[:, :4].copy())
        residuals(ham_mid, ritz)
        assert lock_converged(ritz, 1e-8, 4) == 4 == ritz.k

    def test_normalizer_scales_threshold(self):
        ritz = self._ritz([-1.0], [5e-7])
        assert lock_converged(ritz, 1e-8, 1, normalizer=100.0) == 1

    def test_requires_residuals(self):
        ritz = RitzSet(values=np.array([1.0]), vectors=np.ones((2, 1)))
        with pytest.raises(ValidationError):
            lock_converged(ritz, 1e-8, 1)


class TestDiagnostics:
    def test_module_binds_no_dense_oracle(self):
        # the solve-path module takes rho(SH) and cond(H) from its caller
        import bsesolve.rayleigh_ritz as rr

        for name in ("rho_sh", "cond_of_h", "materialize"):
            assert not hasattr(rr, name), name

    def test_hand_case(self, ham2):
        q = np.array([[1.0], [0.0]], dtype=complex)
        ritz, _ = build_hermitian_rq(ham2, q)
        residuals(ham2, ritz)
        diag = diagnostics(q, ritz, rho_sh(ham2), cond_of_h(ham2))
        assert diag.lambda_min_m == pytest.approx(1.0)
        assert diag.ritz_interval == pytest.approx(2.5)
        assert not diag.spurious.any() and not diag.singular

    def test_singular_direction_flagged(self, ham_mid):
        q = _singular_column(16)
        ritz = RitzSet(values=np.array([0.0]), vectors=q.copy())
        diag = diagnostics(q, ritz, rho_sh(ham_mid), cond_of_h(ham_mid))
        assert diag.singular
        assert np.isinf(diag.ritz_interval) and np.isinf(diag.delta_tilde_bound)

    def test_m_eigenvalues_follow_upper_half_singular_values(self):
        import scipy.linalg as sla

        q = _rand_q(24, 5, 11)
        eig_m = np.sort(np.linalg.eigvalsh((q.conj().T @ apply_s(q) + (q.conj().T @ apply_s(q)).conj().T) / 2))
        s1 = np.sort(sla.svdvals(q[:12]))
        np.testing.assert_allclose(eig_m, 2 * s1**2 - 1, atol=1e-10)

    def test_ritz_values_inside_interval(self, ham_mid):
        q = _rand_q(32, 5, 12)
        ritz, _ = build_hermitian_rq(ham_mid, q)
        diag = diagnostics(q, ritz, rho_sh(ham_mid), cond_of_h(ham_mid))
        assert np.abs(ritz.values).max() <= diag.ritz_interval * (1 + 1e-12)
        assert not diag.spurious.any()


class TestDualBasis:
    def test_unit_vector_is_self_dual(self, ham2):
        q = np.array([[1.0], [0.0]], dtype=complex)
        np.testing.assert_allclose(dual_basis_explicit(q, "full"), q, atol=1e-14)

    @pytest.mark.parametrize("choice", ["full", "diagonal"])
    def test_biorthogonality(self, choice):
        q = _rand_q(30, 5, 13)
        ql = dual_basis_explicit(q, choice)
        assert np.abs(ql.conj().T @ q - np.eye(5)).max() <= 1e-10

    def test_diagonal_choice_with_zero_entry(self):
        q = np.zeros((8, 2), dtype=complex)
        q[0, 0] = q[4, 0] = 1 / np.sqrt(2)  # zero S-overlap column
        q[1, 1] = 1.0
        ql = dual_basis_explicit(q, "diagonal")
        assert np.abs(ql.conj().T @ q - np.eye(2)).max() <= 1e-10

    def test_norm_identity_for_full_choice(self):
        q = _rand_q(26, 4, 14)
        import scipy.linalg as sla

        ql = dual_basis_explicit(q, "full")
        m = q.conj().T @ apply_s(q)
        lam_min = np.abs(np.linalg.eigvalsh((m + m.conj().T) / 2)).min()
        assert sla.svdvals(ql)[0] == pytest.approx(1 / lam_min, rel=1e-8)

    def test_singular_full_choice_rejected(self):
        q = _singular_column(6)
        with pytest.raises(ValidationError):
            dual_basis_explicit(q, "full")

    def test_unknown_choice_rejected(self):
        with pytest.raises(ValidationError):
            dual_basis_explicit(_rand_q(8, 2, 15), "other")


class TestPetrovGalerkin:
    def test_hermitian_variant_residuals_orthogonal_to_dual(self, ham_mid):
        scale = rho_sh(ham_mid)
        q = _rand_q(32, 5, 16)
        ritz, _ = build_hermitian_rq(ham_mid, q)
        ql = dual_basis_explicit(q, "full")
        r = apply_h(ham_mid, ritz.vectors) - ritz.vectors * ritz.values
        assert np.abs(ql.conj().T @ r).max() <= 1e-8 * scale

    def test_backup_variant_residuals_orthogonal_to_dual(self, ham_mid):
        # the projection property holds with the complex reduced
        # eigenvalues; the real-part truncation only matters once the
        # imaginary parts have converged to zero
        from bsesolve.direct import dense_general_eig

        scale = rho_sh(ham_mid)
        q = _rand_q(32, 5, 16)
        _, red = build_backup_rq(ham_mid, q)
        values, y = dense_general_eig(red.g)
        vectors = q @ y
        vectors /= np.linalg.norm(vectors, axis=0)
        ql = dual_basis_explicit(q, "diagonal")
        r = apply_h(ham_mid, vectors) - vectors * values
        assert np.abs(ql.conj().T @ r).max() <= 1e-8 * scale

    def test_backup_variant_real_parts_near_invariance(self, ham_mid):
        eig = direct_solve_definite(ham_mid)
        scale = rho_sh(ham_mid)
        q, _ = np.linalg.qr(eig.v[:, :5] + 1e-6 * _rand_q(32, 5, 17))
        ritz, _ = build_backup_rq(ham_mid, q)
        ql = dual_basis_explicit(q, "diagonal")
        r = apply_h(ham_mid, ritz.vectors) - ritz.vectors * ritz.values
        assert np.abs(ql.conj().T @ r).max() <= 1e-8 * scale
