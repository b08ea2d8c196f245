import logging

import numpy as np
import pytest
import scipy.linalg as sla

from bsesolve import (
    BseHamiltonian,
    Definiteness,
    GeneratorSpec,
    ValidationError,
    apply_h,
    apply_j,
    apply_k,
    apply_s,
    direct_solve_definite,
    generate,
    is_definite,
    materialize,
    materialize_sh,
    validate_pseudo_hermitian,
)
from bsesolve import hamiltonian
from bsesolve.hamiltonian import cached_real_form, real_symmetric_form
from bsesolve.metrics import PhaseLedger

from conftest import LAM2


def _rand(n, k, seed):
    g = np.random.default_rng(seed)
    return g.standard_normal((n, k)) + 1j * g.standard_normal((n, k))


class TestStructureOperators:
    def test_apply_s_definition(self):
        np.testing.assert_array_equal(apply_s(np.array([1.0, 1.0])), [1.0, -1.0])

    def test_apply_s_involution_and_isometry(self):
        x = _rand(12, 3, 0)
        np.testing.assert_array_equal(apply_s(apply_s(x)), x)
        assert np.linalg.norm(apply_s(x)) == np.linalg.norm(x)

    def test_k_and_j_squares(self):
        x = _rand(10, 2, 1)
        np.testing.assert_array_equal(apply_k(apply_k(x)), x)
        np.testing.assert_array_equal(apply_j(apply_j(x)), -x)

    def test_odd_row_count_rejected(self):
        with pytest.raises(ValidationError):
            apply_s(np.ones(3))

    def test_s_diagonalizes_oracle_eigenvectors(self, ham_mid):
        # bi-orthogonality: V* (S V) is diagonal for a definite problem
        eig = direct_solve_definite(ham_mid)
        gram = eig.v.conj().T @ apply_s(eig.v)
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() <= 1e-10


class TestApplyH:
    def test_first_column_2x2(self, ham2):
        np.testing.assert_allclose(apply_h(ham2, np.array([1.0, 0.0])), [2.0, -0.5])

    def test_eigenvector_2x2(self, ham2):
        # right eigenvector for lambda = +sqrt(3.75)
        v = np.array([1.0, -2.0 * (2.0 - LAM2)])
        v /= np.linalg.norm(v)
        np.testing.assert_allclose(apply_h(ham2, v), LAM2 * v, atol=1e-12)

    def test_tda_block_diagonal_limit(self):
        a = _rand(3, 3, 2)
        a = a @ a.conj().T + np.eye(3)
        ham = BseHamiltonian(a, np.zeros((3, 3)))
        x = _rand(6, 2, 3)
        out = apply_h(ham, x)
        np.testing.assert_allclose(out[:3], a @ x[:3], atol=1e-12)
        np.testing.assert_allclose(out[3:], -np.conj(a) @ x[3:], atol=1e-12)

    def test_linearity(self, ham_small):
        x, y = _rand(16, 2, 4), _rand(16, 2, 5)
        lhs = apply_h(ham_small, 0.3 * x + 2j * y)
        rhs = 0.3 * apply_h(ham_small, x) + 2j * apply_h(ham_small, y)
        scale = np.abs(lhs).max()
        assert np.abs(lhs - rhs).max() <= 1e-13 * scale

    def test_matches_dense(self, ham_small):
        x = _rand(16, 4, 6)
        np.testing.assert_allclose(
            apply_h(ham_small, x), materialize(ham_small) @ x, atol=1e-12
        )

    @pytest.mark.parametrize("m", [1, 2, 7, 32, 200])
    @pytest.mark.parametrize(
        "layout", ["1d", "k1", "k3", "k64", "c_order", "column_slice", "real"]
    )
    def test_matches_dense_over_sizes_and_layouts(self, m, layout):
        ham = generate(GeneratorSpec(m=m, seed=90 + m))
        n = ham.n
        x = {
            "1d": lambda: _rand(n, 1, m)[:, 0],
            "k1": lambda: _rand(n, 1, m),
            "k3": lambda: np.asfortranarray(_rand(n, 3, m)),
            "k64": lambda: np.asfortranarray(_rand(n, 64, m)),
            "c_order": lambda: np.ascontiguousarray(_rand(n, 5, m)),
            "column_slice": lambda: np.asfortranarray(_rand(n, 9, m))[:, 1::3],
            "real": lambda: np.random.default_rng(m).standard_normal((n, 4)),
        }[layout]()
        expected = materialize(ham) @ x
        out = apply_h(ham, x)
        assert out.shape == x.shape and out.dtype == np.complex128
        assert np.abs(out - expected).max() <= 4e-15 * np.abs(expected).max()

    def test_input_is_not_modified(self, ham_small):
        x = _rand(16, 3, 9)
        kept = x.copy()
        apply_h(ham_small, x)
        np.testing.assert_array_equal(x, kept)

    def test_dimension_mismatch(self, ham_small):
        with pytest.raises(ValidationError):
            apply_h(ham_small, np.ones(8))

    def test_flop_model(self, ham_small):
        ledger = PhaseLedger()
        apply_h(ham_small, _rand(16, 3, 7), ledger, "filter")
        # one real n x n times n x 2k GEMM
        assert ledger.flops["filter"] == 4.0 * 16 * 16 * 3

    def test_zero_input(self, ham_small):
        out = apply_h(ham_small, np.zeros((16, 2)))
        assert np.abs(out).max() == 0.0


class TestValidatePseudoHermitian:
    def test_materialized_hamiltonian_passes(self, ham_small):
        ok, defect = validate_pseudo_hermitian(materialize(ham_small))
        assert ok and defect <= 1e-13

    def test_perturbed_block_fails_with_measured_defect(self, ham_small):
        h = materialize(ham_small).copy()
        h[0, 1] += 1e-3
        ok, defect = validate_pseudo_hermitian(h)
        assert not ok
        assert 1e-4 < defect < 1e-2

    def test_diagonal_real_matrices_satisfy_the_relation(self):
        # S commutes with real diagonal matrices, so both the identity and
        # diag(1, -1) satisfy S H = H* S exactly (the identity is not of
        # BSE block form, but the defining relation only tests S H - H* S)
        ok, defect = validate_pseudo_hermitian(np.eye(2))
        assert ok and defect == 0.0
        ok, defect = validate_pseudo_hermitian(np.diag([1.0, -1.0]))
        assert ok and defect == 0.0

    def test_nilpotent_offdiagonal_fails(self):
        ok, defect = validate_pseudo_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert not ok and defect == pytest.approx(1.0)

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValidationError):
            validate_pseudo_hermitian(np.eye(3))


class TestDefiniteness:
    def test_2x2_definite(self, ham2):
        assert is_definite(ham2) is Definiteness.DEFINITE
        np.testing.assert_allclose(
            np.linalg.eigvalsh(materialize_sh(ham2)), [1.5, 2.5]
        )

    def test_2x2_indefinite(self):
        ham = BseHamiltonian(np.array([[1.0]]), np.array([[2.0]]))
        assert is_definite(ham) is Definiteness.INDEFINITE

    def test_tda_hpd(self):
        a = _rand(4, 4, 8)
        a = a @ a.conj().T + np.eye(4)
        ham = BseHamiltonian(a, np.zeros((4, 4)))
        assert is_definite(ham) is Definiteness.DEFINITE

    def test_result_is_cached(self, ham2):
        is_definite(ham2)
        assert ham2.definiteness is Definiteness.DEFINITE

    def test_sh_is_hermitian(self, ham_small):
        sh = materialize_sh(ham_small)
        assert np.abs(sh - sh.conj().T).max() <= 1e-12 * np.abs(sh).max()


def _complex_cholesky_class(ham):
    """Reference classification: Cholesky of the complex S H (LAPACK zpotrf)."""
    try:
        sla.cholesky(materialize_sh(ham), lower=True)
    except sla.LinAlgError:
        return Definiteness.INDEFINITE
    return Definiteness.DEFINITE


def _shifted(ham, lam_min_target):
    """ham with A shifted so that lambda_min(S H) sits at lam_min_target.

    A - s I shifts both diagonal blocks of S H by -s, so every eigenvalue
    of S H moves by exactly -s.
    """
    lam_min = np.linalg.eigvalsh(materialize_sh(ham))[0]
    shift = lam_min - lam_min_target
    return BseHamiltonian(ham.a - shift * np.eye(ham.m), ham.b)


class TestRealSymmetricForm:
    @pytest.mark.parametrize("m", [1, 2, 7, 32])
    @pytest.mark.parametrize(
        "coupling, mode", [(0.5, "definite"), (10.0, "indefinite")]
    )
    def test_spectrum_matches_sh(self, m, coupling, mode):
        spec = GeneratorSpec(m=m, seed=60 + m, coupling_ratio=coupling, mode=mode)
        ham = generate(spec)
        r = real_symmetric_form(ham)
        assert r.dtype == np.float64 and r.flags.f_contiguous
        np.testing.assert_array_equal(r, r.T)
        expected = np.linalg.eigvalsh(materialize_sh(ham))
        assert (expected[0] > 0) == (mode == "definite")
        rho = np.abs(expected).max()
        assert np.abs(np.linalg.eigvalsh(r) - expected).max() <= 1e-13 * rho

    @pytest.mark.parametrize(
        "spec, expected",
        [
            (GeneratorSpec(m=16, seed=1), Definiteness.DEFINITE),
            (GeneratorSpec(m=16, seed=2, coupling_ratio=0.0), Definiteness.DEFINITE),
            (GeneratorSpec(m=16, seed=3, coupling_ratio=0.99), Definiteness.DEFINITE),
            (
                GeneratorSpec(m=16, seed=4, coupling_ratio=1.5, mode="indefinite"),
                Definiteness.DEFINITE,
            ),
            (
                GeneratorSpec(m=16, seed=5, coupling_ratio=10.0, mode="indefinite"),
                Definiteness.INDEFINITE,
            ),
            (
                GeneratorSpec(m=12, seed=0, coupling_ratio=5.0, mode="indefinite"),
                Definiteness.INDEFINITE,
            ),
            (
                GeneratorSpec(m=3, seed=6, coupling_ratio=2.0, mode="indefinite"),
                Definiteness.INDEFINITE,
            ),
        ],
    )
    def test_class_matches_complex_cholesky(self, spec, expected):
        ham = generate(spec)
        assert _complex_cholesky_class(ham) is expected
        assert is_definite(BseHamiltonian(ham.a, ham.b)) is expected

    @pytest.mark.parametrize("m", [2, 16, 48])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_class_matches_at_the_boundary(self, m, sign):
        base = generate(GeneratorSpec(m=m, seed=80 + m))
        rho = np.abs(np.linalg.eigvalsh(materialize_sh(base))).max()
        ham = _shifted(base, sign * 1e-6 * rho)
        lam_min = np.linalg.eigvalsh(materialize_sh(ham))[0]
        assert np.sign(lam_min) == sign
        expected = Definiteness.DEFINITE if sign > 0 else Definiteness.INDEFINITE
        assert _complex_cholesky_class(ham) is expected
        assert is_definite(ham) is expected


class TestCachedRealForm:
    """R lives on a Hamiltonian from its first H-product until it is dropped."""

    def test_built_by_the_first_product_and_read_only(self, ham_small):
        assert ham_small._r is None
        apply_h(ham_small, _rand(16, 2, 10))
        r = ham_small._r
        np.testing.assert_array_equal(r, real_symmetric_form(ham_small))
        assert not r.flags.writeable
        with pytest.raises(ValueError):
            r[0, 0] = 1.0
        apply_h(ham_small, _rand(16, 2, 11))
        assert cached_real_form(ham_small) is r

    def test_generate_returns_no_real_form(self):
        ham = generate(GeneratorSpec(m=24, seed=3))
        assert ham.definiteness is Definiteness.DEFINITE
        assert ham._r is None

    def test_is_definite_keeps_no_real_form(self, ham_small):
        fresh = BseHamiltonian(ham_small.a, ham_small.b)
        assert is_definite(fresh) is Definiteness.DEFINITE
        assert fresh._r is None

    def test_is_definite_factors_the_cached_form(self, ham_small, monkeypatch):
        fresh = BseHamiltonian(ham_small.a, ham_small.b)
        cached_real_form(fresh)
        built = []
        monkeypatch.setattr(
            hamiltonian, "real_symmetric_form", lambda ham: built.append(ham)
        )
        assert is_definite(fresh) is Definiteness.DEFINITE
        assert built == []

    def test_not_in_repr_or_init(self, ham2):
        apply_h(ham2, np.array([1.0, 0.0]))
        assert "_r" not in repr(ham2)
        with pytest.raises(TypeError):
            BseHamiltonian(ham2.a, ham2.b, _r=np.eye(2))


class TestConstruction:
    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            BseHamiltonian(np.array([[np.nan]]), np.array([[0.0]]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            BseHamiltonian(np.eye(2), np.eye(3))

    def test_large_hermiticity_defect_rejected(self):
        a = np.array([[1.0, 1e-3], [0.0, 1.0]])
        with pytest.raises(ValidationError):
            BseHamiltonian(a, np.zeros((2, 2)))

    def test_small_defect_symmetrized_with_warning(self, caplog):
        a = np.array([[1.0, 1e-13], [0.0, 1.0]])
        with caplog.at_level(logging.WARNING, logger="bsesolve.hamiltonian"):
            ham = BseHamiltonian(a, np.zeros((2, 2)))
        assert "symmetrized" in caplog.text
        assert np.abs(ham.a - ham.a.conj().T).max() == 0.0

    def test_blocks_are_read_only(self, ham2):
        with pytest.raises(ValueError):
            ham2.a[0, 0] = 3.0
