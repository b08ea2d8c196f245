import numpy as np
import pytest
import scipy.linalg as sla

from bsesolve import (
    GeneratorSpec,
    PhaseLedger,
    RankDeficiencyError,
    apply_s,
    cholqr_with_fallback,
    direct_solve_definite,
    generate,
    s_orthonormalize,
)
from bsesolve.ortho import locked_set


def _rand(n, k, seed):
    g = np.random.default_rng(seed)
    return g.standard_normal((n, k)) + 1j * g.standard_normal((n, k))


def _with_condition(n, k, cond, seed):
    """n x k matrix with singular values clustered at 1 and 1/cond."""
    u, _ = np.linalg.qr(_rand(n, k, seed))
    v, _ = np.linalg.qr(_rand(k, k, seed + 1))
    s = np.ones(k)
    s[k // 2:] = 1.0 / cond
    return u @ np.diag(s) @ v.conj().T


class TestCholQr:
    def test_identity_columns_stay_put(self):
        x = np.eye(6, 3, dtype=complex)
        q, method = cholqr_with_fallback(x)
        assert method == "cholqr"
        np.testing.assert_allclose(q, x, atol=1e-14)

    def test_well_conditioned_uses_cholqr(self):
        q, method = cholqr_with_fallback(_rand(40, 6, 0))
        assert method == "cholqr"
        assert np.abs(q.conj().T @ q - np.eye(6)).max() <= 1e-12

    def test_ill_conditioned_falls_back_to_householder(self):
        x = _with_condition(60, 6, 1e8, seed=0)
        q, method = cholqr_with_fallback(x)
        assert method == "householder"
        assert np.abs(q.conj().T @ q - np.eye(6)).max() <= 1e-12

    def test_numerically_dependent_columns_rejected(self):
        v = _rand(30, 1, 4)
        w = _rand(30, 1, 5)
        x = np.concatenate([v, v + 1e-12 * w], axis=1)
        with pytest.raises(RankDeficiencyError):
            cholqr_with_fallback(x)

    def test_more_columns_than_rows_rejected(self):
        with pytest.raises(RankDeficiencyError):
            cholqr_with_fallback(_rand(3, 5, 6))

    def test_deterministic(self):
        x = _rand(25, 5, 8)
        q1, _ = cholqr_with_fallback(x)
        q2, _ = cholqr_with_fallback(x.copy())
        np.testing.assert_array_equal(q1, q2)


class TestSOrthonormalize:
    def test_no_locked_is_plain_qr(self):
        q, method = s_orthonormalize(_rand(24, 5, 0))
        assert np.abs(q.conj().T @ q - np.eye(5)).max() <= 1e-12
        assert method == "cholqr"

    def test_active_block_orthogonal_to_flipped_locked(self):
        # Vhat carries a strong component along the S-partner of the
        # locked eigenvector; the projection must remove it
        ham = generate(GeneratorSpec(m=2, seed=1))
        eig = direct_solve_definite(ham)
        locked = eig.v[:, :1]
        vhat = _rand(4, 2, 2)
        vhat[:, :1] += 10.0 * apply_s(locked)
        q, _ = s_orthonormalize(vhat, locked_set(locked))
        assert q.shape == (4, 2)
        assert np.abs(apply_s(locked).conj().T @ q).max() <= 1e-10

    def test_locked_eigencomponents_leave_and_the_rest_stays(self):
        # Y holds exact eigenvectors and the block is rest + Y C with rest
        # in the span of the other eigenvectors: the returned block must
        # span span(rest), which an orthogonal projection against S Y
        # does not give
        m, nlock, k = 12, 3, 5
        ham = generate(GeneratorSpec(m=m, seed=4))
        eig = direct_solve_definite(ham)
        target = np.arange(m, m + nlock)  # the smallest positive eigenvalues
        locked = eig.v[:, target]
        rest = np.delete(eig.v, target, axis=1) @ _rand(2 * m - nlock, k, 5)
        block = rest + 10.0 * locked @ _rand(nlock, k, 6)
        ledger = PhaseLedger()
        q, method = s_orthonormalize(block, locked_set(locked, ledger), ledger)
        basis, _ = np.linalg.qr(rest)
        assert q.shape == (2 * m, k) and method == "cholqr"
        assert np.abs(q - basis @ (basis.conj().T @ q)).max() <= 1e-12
        n = 2 * m
        assert ledger.flops == {
            "ortho": 8.0 * n * nlock * (nlock + 2 * k) + 2 * 12.0 * n * k * k
        }

    def test_invariant_on_random_instances(self):
        for seed in range(20):
            n, k, nlock = 30, 4, 3
            locked = _rand(n, nlock, seed)
            locked /= np.linalg.norm(locked, axis=0)
            q, _ = s_orthonormalize(_rand(n, k, seed + 100), locked_set(locked))
            assert np.abs(q.conj().T @ q - np.eye(k)).max() <= 1e-10
            assert np.abs(apply_s(locked).conj().T @ q).max() <= 1e-10

    def test_idempotent_up_to_phase(self):
        locked = _rand(40, 2, 3)
        locked /= np.linalg.norm(locked, axis=0)
        q1, _ = s_orthonormalize(_rand(40, 5, 4), locked_set(locked))
        q2, _ = s_orthonormalize(q1, locked_set(locked))
        assert np.abs(q2 - q1).max() <= 1e-12

    def test_aligned_input_unchanged_up_to_phase(self):
        q0, _ = np.linalg.qr(_rand(20, 4, 5))
        q, _ = s_orthonormalize(q0)
        assert np.abs(q - q0).max() <= 1e-12

    def test_half_singular_value_complement_law(self):
        q, _ = s_orthonormalize(_rand(40, 6, 9))
        s1 = np.sort(sla.svdvals(q[:20]))
        s2 = np.sort(sla.svdvals(q[20:]))[::-1]
        assert np.abs(s2**2 - (1 - s1**2)).max() <= 1e-10
