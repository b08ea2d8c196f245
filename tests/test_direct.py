import numpy as np
import pytest
import scipy.linalg as sla

from bsesolve import (
    BseHamiltonian,
    GeneratorSpec,
    IndefiniteError,
    NumericalError,
    RitzSet,
    ValidationError,
    apply_s,
    cond_of_h,
    dense_general_eig,
    dense_hermitian_eig,
    direct_solve_definite,
    generate,
    materialize,
    residuals,
    rho_sh,
)

from conftest import LAM2


class TestDirectSolve:
    def test_2x2_closed_form(self, ham2):
        eig = direct_solve_definite(ham2)
        np.testing.assert_allclose(eig.lambdas, [-LAM2, LAM2], atol=1e-12)
        v_plus = eig.v[:, 1]
        expected = np.array([0.992028, -0.126003])
        phase = v_plus[0] / abs(v_plus[0])
        np.testing.assert_allclose(np.abs(v_plus / phase), np.abs(expected), atol=1e-5)

    def test_tda_block_supported_eigenvectors(self):
        ham = generate(GeneratorSpec(m=4, seed=2, coupling_ratio=0.0))
        eig = direct_solve_definite(ham)
        w = sla.eigvalsh(ham.a)
        np.testing.assert_allclose(
            eig.lambdas, np.sort(np.concatenate([w, -w])), atol=1e-10
        )
        # negative eigenvalues live on the lower block, positive on the upper
        for i in range(4):
            assert np.linalg.norm(eig.v[:4, i]) <= 1e-8
            assert np.linalg.norm(eig.v[4:, 4 + i]) <= 1e-8

    def test_residuals_and_left_vectors_random(self):
        ham = generate(GeneratorSpec(m=16, seed=3))
        eig = direct_solve_definite(ham)
        scale = rho_sh(ham)
        assert residuals(ham, RitzSet(values=eig.lambdas, vectors=eig.v)).max() <= 1e-10 * scale
        np.testing.assert_array_equal(eig.u, apply_s(eig.v))
        gram = eig.v.conj().T @ apply_s(eig.v)
        assert np.abs(gram - np.diag(eig.d)).max() <= 1e-10

    def test_bi_orthogonality_diagonal_signs_follow_eigenvalues(self, ham_mid):
        # d_i = v_i* S v_i has the sign of lambda_i for a definite problem
        eig = direct_solve_definite(ham_mid)
        assert (np.sign(eig.d.real) == np.sign(eig.lambdas)).all()

    def test_indefinite_input_reported(self):
        ham = BseHamiltonian(np.array([[1.0]]), np.array([[2.0]]))
        with pytest.raises(IndefiniteError):
            direct_solve_definite(ham)

    def test_unit_columns(self, ham_small):
        eig = direct_solve_definite(ham_small)
        np.testing.assert_allclose(np.linalg.norm(eig.v, axis=0), 1.0, atol=1e-12)


class TestCond:
    def test_2x2_value(self, ham2):
        assert cond_of_h(ham2) == pytest.approx(5.0 / 3.0, rel=1e-12)
        sv = sla.svdvals(materialize(ham2))
        np.testing.assert_allclose(sv, [2.5, 1.5], atol=1e-12)

    def test_identity_tda(self):
        ham = BseHamiltonian(np.eye(3), np.zeros((3, 3)))
        assert cond_of_h(ham) == pytest.approx(1.0)

    def test_matches_singular_value_ratio(self):
        ham = generate(GeneratorSpec(m=8, seed=17))
        sv = sla.svdvals(materialize(ham))
        cond = cond_of_h(ham)
        assert abs(cond - sv[0] / sv[-1]) <= 1e-10 * cond

    def test_indefinite_rejected(self):
        ham = BseHamiltonian(np.array([[1.0]]), np.array([[2.0]]))
        with pytest.raises(IndefiniteError):
            cond_of_h(ham)


class TestReducedEigensolvers:
    def test_hermitian_identity_and_diagonal(self):
        w, y = dense_hermitian_eig(np.eye(3))
        np.testing.assert_allclose(w, 1.0)
        w, _ = dense_hermitian_eig(np.diag([3.0, -1.0, 2.0]))
        np.testing.assert_allclose(w, [-1.0, 2.0, 3.0])

    def test_hermitian_2x2_vs_quadratic_formula(self):
        g = np.array([[1.0, 2.0 - 1j], [2.0 + 1j, -1.0]])
        disc = np.sqrt(1.0 + np.abs(g[0, 1]) ** 2)
        w, y = dense_hermitian_eig(g)
        np.testing.assert_allclose(w, [-disc, disc], atol=1e-12)
        assert np.abs(y.conj().T @ y - np.eye(2)).max() <= 1e-12

    def test_hermitian_residuals_random(self):
        g = np.random.default_rng(0).standard_normal((8, 8))
        g = g + g.T + 1j * np.zeros((8, 8))
        w, y = dense_hermitian_eig(g)
        res = np.abs(g @ y - y * w).max()
        assert res <= 1e-12 * 8 * np.abs(w).max()

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValidationError):
            dense_hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_general_diagonal(self):
        w, _ = dense_general_eig(np.diag([2.0 + 1j, -1.0, 0.5j]))
        np.testing.assert_allclose(w, [-1.0, 0.5j, 2.0 + 1j], atol=1e-12)

    def test_general_jordan_block(self):
        w, _ = dense_general_eig(np.array([[1.0, 1.0], [0.0, 1.0]]))
        np.testing.assert_allclose(w, [1.0, 1.0], atol=1e-8)

    def test_general_companion_matrix(self):
        # companion of z^2 - 3.75
        c = np.array([[0.0, 3.75], [1.0, 0.0]])
        w, y = dense_general_eig(c)
        np.testing.assert_allclose(w, [-LAM2, LAM2], atol=1e-12)
        res = np.abs(c @ y - y * w).max()
        assert res <= 1e-10 * 2 * np.abs(w).max()

    def test_general_eig_reports_failure(self):
        with pytest.raises(NumericalError):
            dense_general_eig(np.array([[np.inf, 0.0], [0.0, 1.0]]))
