import dataclasses
import logging
import tracemalloc

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
from bsesolve.hamiltonian import (
    inverse_cholesky,
    max_abs,
    real_symmetric_form,
    symmetric_part,
    symmetry_defect,
    validate_blocks,
)
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
        # two complex m x m times m x 2k GEMMs: 2 * 8 m^2 (2k) = 8 n^2 k
        assert ledger.flops == {"filter": 8.0 * 16 * 16 * 3}

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


def _exact_blocks(m, seed):
    """An exactly hermitian A and exactly symmetric B, F-order complex128."""
    a = np.asfortranarray(_rand(m, m, seed))
    b = np.asfortranarray(_rand(m, m, seed + 1))
    return symmetric_part(a, hermitian=True), symmetric_part(b, hermitian=False)


def _perturbed(m, seed, hermitian, where, eps=1e-9):
    """A random block of the given symmetry with one entry moved by about eps."""
    x = _exact_blocks(m, seed)[0 if hermitian else 1].copy(order="F")
    t = hamiltonian._TILE
    i, j = {"diagonal_tile": (t - 1, t - 2), "off_diagonal_tile": (m - 1, t - 1)}[where]
    x[i, j] += eps * (1 + 2j)
    return x


class TestTileWalk:
    """The tile-pair walk gives the bits of the full-array expressions."""

    SIZES = [1, hamiltonian._TILE - 1, hamiltonian._TILE, hamiltonian._TILE + 1,
             2 * hamiltonian._TILE + 3]

    @pytest.mark.parametrize("m", SIZES[3:])
    @pytest.mark.parametrize("where", ["diagonal_tile", "off_diagonal_tile"])
    @pytest.mark.parametrize("hermitian", [True, False], ids=["A", "B"])
    def test_defect_equals_the_full_array_value(self, m, where, hermitian):
        x = _perturbed(m, m, hermitian, where)
        pair = x.conj().T if hermitian else x.T
        full = np.abs(x - pair).max()
        assert full > 1e-10
        assert symmetry_defect(x, hermitian) == full
        assert max_abs(x) == np.abs(x).max()

    @pytest.mark.parametrize("m", SIZES)
    def test_exact_blocks_have_zero_defect(self, m):
        a, b = _exact_blocks(m, 3)
        assert symmetry_defect(a, True) == 0.0
        assert symmetry_defect(b, False) == 0.0

    @pytest.mark.parametrize("m", SIZES)
    @pytest.mark.parametrize("hermitian", [True, False], ids=["A", "B"])
    def test_symmetric_part_in_place_is_bit_identical(self, m, hermitian):
        x = np.asfortranarray(_rand(m, m, m))
        x[0, 0] = complex(-0.0, -0.0)  # signed zeros keep their sign too
        expected = (x + (x.conj().T if hermitian else x.T)) / 2.0
        assert symmetric_part(x, hermitian) is x
        assert x.tobytes(order="F") == expected.tobytes(order="F")

    def test_empty_block(self):
        x = np.zeros((0, 0), dtype=np.complex128)
        assert symmetry_defect(x, True) == 0.0 and max_abs(x) == 0.0


class TestValidateBlocks:
    @pytest.mark.parametrize("where", ["diagonal_tile", "off_diagonal_tile"])
    @pytest.mark.parametrize("bad", ["A", "B", "both"])
    def test_matches_the_dense_check(self, where, bad):
        m = 2 * hamiltonian._TILE + 3
        a, b = _exact_blocks(m, 8)
        if bad in ("A", "both"):
            a = _perturbed(m, 8, True, where)
        if bad in ("B", "both"):
            b = 3.0 * _perturbed(m, 8, False, where)
        dense = np.block([[a, b], [-np.conj(b), -np.conj(a)]])
        ok_dense, defect_dense = validate_pseudo_hermitian(dense)
        ok, defect = validate_blocks(a, b)
        assert (ok, defect) == (ok_dense, defect_dense)
        assert f"max defect {defect:.3e}" == f"max defect {defect_dense:.3e}"

    def test_exact_and_rejected_blocks(self, ham_small):
        assert validate_blocks(ham_small.a, ham_small.b) == (True, 0.0)
        a = ham_small.a.copy()
        a[0, 1] += 1e-3
        ok, defect = validate_blocks(a, ham_small.b)
        assert not ok and defect == pytest.approx(1e-3)

    @pytest.mark.parametrize("case", ["exact", "repaired", "defective"])
    def test_check_structure_matches_the_dense_check(self, case):
        from bsesolve.verify import check_structure

        m = 2 * hamiltonian._TILE + 3
        a, b = _exact_blocks(m, 9)
        if case == "repaired":  # a defect below SYMMETRY_RTOL, repaired on load
            a = _perturbed(m, 9, True, "off_diagonal_tile", eps=1e-14)
        ham = BseHamiltonian(a, b)
        if case == "defective":  # blocks swapped in past the repair
            ham.b = _perturbed(m, 9, False, "diagonal_tile")
        ok, defect = validate_pseudo_hermitian(materialize(ham))
        assert ok is (case != "defective")
        check = check_structure(ham.a, ham.b)
        assert (check.passed, check.detail) == (ok, f"max defect {defect:.3e}")
        assert validate_blocks(ham.a, ham.b) == (ok, defect)

    def test_shapes_checked(self):
        with pytest.raises(ValidationError):
            validate_blocks(np.eye(2), np.eye(3))
        with pytest.raises(ValidationError):
            validate_blocks(np.ones((2, 3)), np.ones((2, 3)))


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


def _dense_class(ham):
    """Reference classification: numpy's Cholesky of the whole n x n form R."""
    try:
        np.linalg.cholesky(real_symmetric_form(ham))
    except np.linalg.LinAlgError:
        return Definiteness.INDEFINITE
    return Definiteness.DEFINITE


class TestSchurCertificate:
    """is_definite's Schur step on the m x m blocks classifies as a Cholesky of R."""

    @pytest.mark.parametrize(
        "m, seed",
        [(m, seed) for m in (1, 2, 3, 5, 16, 33, 64) for seed in range(6)]
        # past 128 columns inverse_cholesky recurses: one level at 129, two
        # at 257 and 300, three at 513
        + [(129, 0), (129, 1), (300, 0), (300, 1), (257, 0), (513, 0)],
    )
    def test_matches_dense_cholesky(self, m, seed):
        for ratio in (0.5, 0.99, 0.999999, 1.0, 1.000001, 1.01, 1.5, 3.0):
            mode = "definite" if ratio < 1 else "indefinite"
            ham = generate(GeneratorSpec(m=m, seed=seed, coupling_ratio=ratio, mode=mode))
            fresh = BseHamiltonian(ham.a, ham.b)
            verdict = is_definite(fresh)
            if ratio < 1:
                assert verdict is Definiteness.DEFINITE
            eigs = np.linalg.eigvalsh(real_symmetric_form(ham))
            if abs(eigs[0]) <= 4 * ham.n * np.finfo(float).eps * np.abs(eigs).max():
                # |B| = A at m = 1 and ratio 1 makes R exactly singular: its
                # class is set by rounding (numpy's solve divides by L_P, the
                # BLAS Cholesky multiplies by 1 / L_P), so either is right
                assert m == 1 and ratio == 1.0
                continue
            assert verdict is _dense_class(ham), ratio

    @pytest.mark.parametrize("m", [1, 5, 64, 200])
    def test_degenerate_blocks(self, m):
        a = generate(GeneratorSpec(m=m, seed=m)).a
        b = generate(GeneratorSpec(m=m, seed=m + 1)).b
        zero = np.zeros((m, m))
        cases = [
            (a, zero, Definiteness.DEFINITE),
            (zero, b, Definiteness.INDEFINITE),
            (zero, zero, Definiteness.INDEFINITE),
            (-a, zero, Definiteness.INDEFINITE),
            (-a, b, Definiteness.INDEFINITE),
        ]
        for a_block, b_block, expected in cases:
            ham = BseHamiltonian(a_block, b_block)
            assert _dense_class(ham) is expected
            assert is_definite(ham) is expected

    def test_empty_blocks_are_definite(self):
        ham = BseHamiltonian(np.zeros((0, 0)), np.zeros((0, 0)))
        assert is_definite(ham) is Definiteness.DEFINITE

    @pytest.mark.parametrize(
        "m, seed", [(1, 0), (5, 1), (33, 2), (64, 3), (200, 4), (257, 5), (513, 6)]
    )
    def test_matches_dense_cholesky_at_bisected_boundary(self, m, seed):
        # B -> t B: definite at t = 0, indefinite for large t; bisect the
        # reference's switch point t*, then classify just either side of it
        base = generate(GeneratorSpec(m=m, seed=seed))

        def scaled(t):
            return BseHamiltonian(base.a, t * base.b)

        lo, hi = 0.0, 1.0
        while _dense_class(scaled(hi)) is Definiteness.DEFINITE:
            lo, hi = hi, 2.0 * hi
        while hi - lo > 1e-12 * hi:
            mid = 0.5 * (lo + hi)
            if _dense_class(scaled(mid)) is Definiteness.DEFINITE:
                lo = mid
            else:
                hi = mid
        for t, expected in (
            (lo * (1 - 1e-9), Definiteness.DEFINITE),
            (hi * (1 + 1e-9), Definiteness.INDEFINITE),
        ):
            assert _dense_class(scaled(t)) is expected
            assert is_definite(scaled(t)) is expected

    def test_allocates_no_n_by_n_array(self):
        ham = generate(GeneratorSpec(m=256, seed=0))
        fresh = BseHamiltonian(ham.a, ham.b)
        nbytes = 8 * fresh.n**2  # one float64 n x n array
        tracemalloc.start()
        try:
            assert is_definite(fresh) is Definiteness.DEFINITE
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # [P; C] (two real m x m arrays of n^2/4 doubles) and GEMM results
        # and leaf factors of at most half a block: 2.5 arrays at m = 256;
        # a dense Cholesky of R peaks at two n x n arrays (8 m x m)
        assert nbytes / 4 <= peak <= 2.75 * nbytes / 4

    def test_numpy_cholesky_sees_leaves_only(self, monkeypatch):
        rows = []
        cholesky = np.linalg.cholesky

        def recording(x):
            rows.append(x.shape[0])
            return cholesky(x)

        monkeypatch.setattr(np.linalg, "cholesky", recording)
        ham = generate(GeneratorSpec(m=300, seed=0))
        assert is_definite(BseHamiltonian(ham.a, ham.b)) is Definiteness.DEFINITE
        assert rows and max(rows) <= hamiltonian._INVERSE_LEAF


def _spd(k, dtype, seed):
    """A well-conditioned k x k symmetric or hermitian positive definite matrix."""
    g = np.random.default_rng(seed)
    f = g.standard_normal((k, k))
    if dtype is np.complex128:
        f = f + 1j * g.standard_normal((k, k))
    x = f @ f.conj().T + k * np.eye(k)
    return (x + x.conj().T) / 2.0


class TestInvertLower:
    """inverse_cholesky: the inverse of the lower Cholesky factor, the one
    kernel behind the certificate, CholQR2 and the hermitian projection."""

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("k", [1, 2, 64, 128])
    def test_leaf_is_numpy_inverse_bit_for_bit(self, k, dtype):
        x = _spd(k, dtype, k)
        expected = np.linalg.inv(np.linalg.cholesky(x))
        np.testing.assert_array_equal(inverse_cholesky(x), expected)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("k", [129, 300, 513])
    def test_recursion_is_accurate(self, k, dtype):
        x = _spd(k, dtype, k)
        lower = np.linalg.cholesky(x)
        inverse = inverse_cholesky(x.copy())
        assert np.abs(lower @ inverse - np.eye(k)).max() <= 1e-14
        assert np.abs(inverse - np.linalg.inv(lower)).max() <= 1e-13 * np.abs(inverse).max()

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("k", [3, 129, 300])
    def test_in_place_and_lower_triangular(self, k, dtype):
        x = _spd(k, dtype, k)
        out = inverse_cholesky(x)
        assert out is x
        assert not np.triu(out, 1).any()

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("k, r", [(5, 3), (128, 200), (300, 300)])
    def test_rows_below_come_back_times_the_inverse(self, k, r, dtype):
        x = _spd(k, dtype, k)
        g = np.random.default_rng(r)
        y = g.standard_normal((r, k))
        if dtype is np.complex128:
            y = y + 1j * g.standard_normal((r, k))
        inverse = np.linalg.inv(np.linalg.cholesky(x))
        out = inverse_cholesky(np.vstack([x, y]))
        scale = np.abs(y).max() * np.abs(inverse).max()
        assert np.abs(out[:k] - inverse).max() <= 1e-13 * np.abs(inverse).max()
        assert np.abs(out[k:] - y @ inverse.conj().T).max() <= 1e-13 * scale

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_indefinite_last_leaf_raises(self, dtype):
        # the leading 299 x 299 block is definite; the last diagonal entry
        # makes the whole matrix indefinite, which only the last leaf sees
        x = _spd(300, dtype, 7)
        lower = np.linalg.cholesky(x[:299, :299])
        v = x[:299, 299]
        x[299, 299] = np.vdot(np.linalg.solve(lower, v), np.linalg.solve(lower, v)).real - 1.0
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(x)
        with pytest.raises(np.linalg.LinAlgError):
            inverse_cholesky(x)


def _big_arrays(ham):
    """Arrays of n^2 or more elements held on ham."""
    return [
        v for v in vars(ham).values() if isinstance(v, np.ndarray) and v.size >= ham.n**2
    ]


class TestCachedRealForm:
    """A Hamiltonian caches no real form: it keeps its blocks only, and R is
    built by its users, in the dtype they ask for."""

    def test_fields_are_the_blocks_and_the_class(self):
        names = [f.name for f in dataclasses.fields(BseHamiltonian)]
        assert names == ["a", "b", "_definiteness"]

    def test_products_keep_no_n_by_n_array(self, ham_small):
        fresh = BseHamiltonian(ham_small.a, ham_small.b)
        apply_h(fresh, _rand(16, 2, 10))
        real_symmetric_form(fresh, np.float32)
        assert _big_arrays(fresh) == []
        assert set(vars(fresh)) <= {"a", "b", "_definiteness"}
        assert not fresh.a.flags.writeable and not fresh.b.flags.writeable

    def test_generate_returns_no_real_form(self):
        ham = generate(GeneratorSpec(m=24, seed=3))
        assert ham.definiteness is Definiteness.DEFINITE
        assert _big_arrays(ham) == []

    def test_is_definite_keeps_no_real_form(self, ham_small):
        fresh = BseHamiltonian(ham_small.a, ham_small.b)
        assert is_definite(fresh) is Definiteness.DEFINITE
        assert _big_arrays(fresh) == []

    @pytest.mark.parametrize("m", [1, 7, 64, 100])
    def test_float32_form_is_the_rounded_float64_form(self, m):
        ham = generate(GeneratorSpec(m=m, seed=m))
        r32 = real_symmetric_form(ham, np.float32)
        assert r32.dtype == np.float32 and r32.flags.f_contiguous
        np.testing.assert_array_equal(r32, real_symmetric_form(ham).astype(np.float32))

    def test_float32_form_allocates_only_its_result(self):
        ham = generate(GeneratorSpec(m=256, seed=0))
        nbytes = 4 * ham.n**2  # the float32 result
        tracemalloc.start()
        try:
            r32 = real_symmetric_form(ham, np.float32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r32.nbytes == nbytes
        # a float64 R cast to float32 peaks at 3 * nbytes
        assert peak <= 1.25 * nbytes

    def test_is_definite_builds_no_real_form(self, ham_small, monkeypatch):
        built = []
        monkeypatch.setattr(
            hamiltonian, "real_symmetric_form", lambda ham, dtype=None: built.append(ham)
        )
        fresh = BseHamiltonian(ham_small.a, ham_small.b)
        assert is_definite(fresh) is Definiteness.DEFINITE
        indefinite = BseHamiltonian(ham_small.a, 100.0 * ham_small.b)
        assert is_definite(indefinite) is Definiteness.INDEFINITE
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

    def test_exact_f_order_blocks_are_taken_without_a_copy(self):
        a, b = _exact_blocks(5, 2)
        ham = BseHamiltonian(a, b)
        assert ham.a is a and ham.b is b

    def test_allocates_tiles_not_blocks(self):
        m = 256
        a, b = _exact_blocks(m, 4)
        tracemalloc.start()
        try:
            BseHamiltonian(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a full-array check peaks at 2.5 blocks above its inputs
        assert peak <= 0.25 * 16 * m * m

    @pytest.mark.parametrize("hermitian", [True, False], ids=["A", "B"])
    def test_repair_matches_the_full_array_form_on_a_copy(self, hermitian, caplog):
        m = hamiltonian._TILE + 5
        x = _perturbed(m, 6, hermitian, "off_diagonal_tile", eps=1e-13)
        before = x.copy()
        expected = (x + (x.conj().T if hermitian else x.T)) / 2.0
        a, b = (x, _exact_blocks(m, 6)[1]) if hermitian else (_exact_blocks(m, 6)[0], x)
        with caplog.at_level(logging.WARNING, logger="bsesolve.hamiltonian"):
            ham = BseHamiltonian(a, b)
        fixed = ham.a if hermitian else ham.b
        assert fixed.tobytes(order="F") == expected.tobytes(order="F")
        assert x.tobytes() == before.tobytes() and x.flags.writeable
        kind = "hermiticity" if hermitian else "symmetry"
        defect = np.abs(x - (x.conj().T if hermitian else x.T)).max()
        assert f"{kind} defect of {defect:.3e} (scale {np.abs(x).max():.3e})" in caplog.text

    def test_small_defect_symmetrized_with_warning(self, caplog):
        a = np.array([[1.0, 1e-13], [0.0, 1.0]])
        with caplog.at_level(logging.WARNING, logger="bsesolve.hamiltonian"):
            ham = BseHamiltonian(a, np.zeros((2, 2)))
        assert "symmetrized" in caplog.text
        assert np.abs(ham.a - ham.a.conj().T).max() == 0.0

    def test_blocks_are_read_only(self, ham2):
        with pytest.raises(ValueError):
            ham2.a[0, 0] = 3.0
