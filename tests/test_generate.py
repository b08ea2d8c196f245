import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from bsesolve import (
    Definiteness,
    GeneratorSpec,
    ValidationError,
    apply_h,
    apply_k,
    apply_s,
    dense_general_eig,
    direct_solve_definite,
    field_of_values_bounds,
    generate,
    materialize,
    quadruplet_partners,
    rho_sh,
)
from bsesolve import rng
from bsesolve.generate import TAG_COUPLING, TAG_RESONANT

from conftest import LAM2


class TestGeneratorSpec:
    def test_definite_requires_small_coupling(self):
        with pytest.raises(ValidationError):
            GeneratorSpec(m=4, seed=0, coupling_ratio=1.5, mode="definite")

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(m=0, seed=0),
            dict(m=4, seed=0, alpha=0.0),
            dict(m=4, seed=0, coupling_ratio=-0.1),
            dict(m=4, seed=0, mode="weird"),
        ],
    )
    def test_invalid_specs(self, kwargs):
        with pytest.raises(ValidationError):
            GeneratorSpec(**kwargs)

    @pytest.mark.parametrize(
        "name, value, mode",
        [
            ("alpha", np.nan, "definite"),
            ("alpha", np.inf, "definite"),
            ("coupling_ratio", np.nan, "definite"),
            ("coupling_ratio", np.nan, "indefinite"),
            ("coupling_ratio", np.inf, "indefinite"),
        ],
    )
    def test_non_finite_parameter_is_rejected_by_name(self, name, value, mode):
        # NaN passed `alpha <= 0` and reached eigvalsh, which raised
        # LinAlgError; a non-finite ratio surfaced only as non-finite B
        with pytest.raises(ValidationError, match=f"^{name} must be"):
            GeneratorSpec(m=4, seed=0, mode=mode, **{name: value})

    @pytest.mark.parametrize("name, value", [("m", 2.5), ("m", 4.0), ("seed", 1.5)])
    def test_non_integer_count_is_rejected_by_name(self, name, value):
        # m = 2.5 passed validation and ended in a bare TypeError inside numpy
        with pytest.raises(ValidationError, match=f"^{name} must be an integer"):
            GeneratorSpec(**{"m": 4, "seed": 0, name: value})

    def test_numpy_integers_generate_as_python_integers(self):
        ref = generate(GeneratorSpec(m=6, seed=3))
        ham = generate(GeneratorSpec(m=np.int64(6), seed=np.int64(3)))
        assert ham.a.tobytes() == ref.a.tobytes() and ham.b.tobytes() == ref.b.tobytes()


class TestGenerate:
    def test_deterministic_per_seed(self):
        spec = GeneratorSpec(m=6, seed=123)
        h1, h2 = generate(spec), generate(spec)
        np.testing.assert_array_equal(h1.a, h2.a)
        np.testing.assert_array_equal(h1.b, h2.b)

    def test_definite_mode_is_certified(self):
        ham = generate(GeneratorSpec(m=1, seed=7, coupling_ratio=0.25, alpha=1.0))
        assert ham.definiteness is Definiteness.DEFINITE

    def test_zero_coupling_gives_tda_spectrum(self):
        ham = generate(GeneratorSpec(m=5, seed=3, coupling_ratio=0.0))
        assert np.abs(ham.b).max() == 0.0
        eig_a = sla.eigvalsh(ham.a)
        lams = direct_solve_definite(ham).lambdas
        np.testing.assert_allclose(
            lams, np.sort(np.concatenate([eig_a, -eig_a])), atol=1e-10
        )

    def test_coupling_norm_is_calibrated(self):
        ham = generate(GeneratorSpec(m=10, seed=4, coupling_ratio=0.3))
        lam_min = sla.eigvalsh(ham.a)[0]
        assert sla.svdvals(ham.b)[0] == pytest.approx(0.3 * lam_min, rel=1e-12)

    def test_spectrum_real_and_symmetric(self):
        ham = generate(GeneratorSpec(m=16, seed=9, coupling_ratio=0.5))
        lams = direct_solve_definite(ham).lambdas
        scale = rho_sh(ham)
        assert np.abs(lams + lams[::-1]).max() <= 1e-10 * scale

    @pytest.mark.parametrize("m", [1, 2, 4, 8, 16, 32, 64])
    def test_definite_mode_all_sizes_100_seeds(self, m):
        for seed in range(100):
            ham = generate(GeneratorSpec(m=m, seed=seed, coupling_ratio=0.5))
            assert ham.definiteness is Definiteness.DEFINITE

    def test_indefinite_mode_records_outcome(self):
        ham = generate(GeneratorSpec(m=6, seed=2, coupling_ratio=4.0, mode="indefinite"))
        assert ham.definiteness in (Definiteness.DEFINITE, Definiteness.INDEFINITE)


def _full_array_blocks(spec):
    """A and B formed as whole-array expressions, each a new array (reference)."""
    m = spec.m

    def normals(tag):
        flat = rng.complex_normals(rng.substream(spec.seed, tag), m * m)
        return np.asfortranarray(flat.reshape((m, m), order="F"))

    c = normals(TAG_RESONANT)
    a = c @ c.conj().T + spec.alpha * np.eye(m)
    a = (a + a.conj().T) / 2.0
    if spec.coupling_ratio == 0.0:
        return a, np.zeros((m, m), dtype=np.complex128)
    d = normals(TAG_COUPLING)
    b0 = (d + d.T) / 2.0
    b_norm = np.linalg.svd(b0, compute_uv=False)[0]
    lam_min = float(np.linalg.eigvalsh(a)[0])
    return a, (spec.coupling_ratio * lam_min / b_norm) * b0


class TestInPlaceConstruction:
    """generate() forms its blocks in place with the bits of the full-array form."""

    @pytest.mark.parametrize("m", [1, 5, 255, 256, 257, 513])
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(coupling_ratio=0.0),
            dict(coupling_ratio=0.5),
            dict(coupling_ratio=0.99),
            dict(coupling_ratio=2.0, mode="indefinite"),
            dict(coupling_ratio=0.3, alpha=0.25),
        ],
        ids=["tda", "half", "near_one", "indefinite", "alpha"],
    )
    def test_bit_identical_to_the_full_array_form(self, m, kwargs):
        spec = GeneratorSpec(m=m, seed=m + 1, **kwargs)
        ham = generate(spec)
        a, b = _full_array_blocks(spec)
        assert ham.a.tobytes(order="F") == a.tobytes(order="F")
        assert ham.b.tobytes(order="F") == b.tobytes(order="F")
        assert ham.a.flags.f_contiguous and ham.b.flags.f_contiguous

    def test_peak_allocation(self):
        m = 256
        tracemalloc.start()
        try:
            generate(GeneratorSpec(m=m, seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the full-array form peaks at 9.5 blocks of 16 m^2 bytes
        assert peak <= 4 * 16 * m * m


class TestFieldOfValues:
    def test_scalar_case(self, ham2):
        assert field_of_values_bounds(ham2) == (2.0, 0.5)

    def test_tda_is_purely_real(self):
        ham = generate(GeneratorSpec(m=4, seed=1, coupling_ratio=0.0))
        re_bound, im_bound = field_of_values_bounds(ham)
        assert im_bound == 0.0
        assert re_bound == pytest.approx(np.abs(sla.eigvalsh(ham.a)).max())

    def test_indefinite_spectrum_inside_box(self):
        ham = generate(GeneratorSpec(m=8, seed=13, coupling_ratio=3.0, mode="indefinite"))
        re_bound, im_bound = field_of_values_bounds(ham)
        lams, _ = dense_general_eig(materialize(ham))
        assert np.abs(lams.real).max() <= re_bound * (1 + 1e-12)
        assert np.abs(lams.imag).max() <= im_bound * (1 + 1e-12) + 1e-12

    def test_definite_magnitudes_bounded_by_rho_a(self):
        ham = generate(GeneratorSpec(m=12, seed=21, coupling_ratio=0.6))
        lams = direct_solve_definite(ham).lambdas
        re_bound, _ = field_of_values_bounds(ham)
        assert np.abs(lams).max() <= re_bound + 1e-10 * rho_sh(ham)


class TestQuadruplets:
    def test_2x2_mirror_partner(self, ham2):
        v = np.array([1.0, -2.0 * (2.0 - LAM2)])
        v /= np.linalg.norm(v)
        u = apply_s(v)
        partners = quadruplet_partners(ham2, LAM2, u, v, tol_in=1e-10)
        lam_mirror, v_mirror = partners[2]
        assert lam_mirror == pytest.approx(-LAM2)
        res = np.linalg.norm(apply_h(ham2, v_mirror) - lam_mirror * v_mirror)
        assert res <= 1e-10

    def test_real_eigenvalue_s_partner_is_the_same_pair(self, ham_mid):
        eig = direct_solve_definite(ham_mid)
        v, u, lam = eig.v[:, 0], eig.u[:, 0], eig.lambdas[0]
        (lam_s, v_s), _, _ = quadruplet_partners(ham_mid, lam, u, v, tol_in=1e-8)
        assert lam_s == pytest.approx(lam)
        # S u = S (S v) = v up to normalization
        phase = v_s[np.abs(v_s).argmax()] / v[np.abs(v_s).argmax()]
        np.testing.assert_allclose(v_s, phase * v, atol=1e-10)

    def test_tda_partner_lands_on_mirror_block(self):
        ham = generate(GeneratorSpec(m=4, seed=6, coupling_ratio=0.0))
        w, x = np.linalg.eigh(ham.a)
        v = np.concatenate([x[:, -1], np.zeros(4)])
        u = apply_s(v)
        partners = quadruplet_partners(ham, w[-1], u, v, tol_in=1e-10)
        lam_k, v_k = partners[2]
        assert lam_k == pytest.approx(-w[-1])
        assert np.abs(v_k[:4]).max() <= 1e-14
        np.testing.assert_allclose(np.abs(v_k[4:]), np.abs(x[:, -1]), atol=1e-12)

    def test_all_partners_keep_residual_bound(self, ham_mid):
        eig = direct_solve_definite(ham_mid)
        scale = rho_sh(ham_mid)
        for i in (0, 7, 20):
            tol_in = max(
                np.linalg.norm(
                    apply_h(ham_mid, eig.v[:, i]) - eig.lambdas[i] * eig.v[:, i]
                ),
                1e-12 * scale,
            )
            for lam_p, v_p in quadruplet_partners(
                ham_mid, eig.lambdas[i], eig.u[:, i], eig.v[:, i], tol_in
            ):
                res = np.linalg.norm(apply_h(ham_mid, v_p) - lam_p * v_p)
                assert res <= 10 * tol_in

    def test_non_eigenpair_rejected(self, ham_mid):
        v = np.ones(32) / np.sqrt(32)
        with pytest.raises(ValidationError):
            quadruplet_partners(ham_mid, 1.0, apply_s(v), v, tol_in=1e-10)

    def test_j_partner_equals_k_partner_up_to_sign_for_definite(self, ham_mid):
        # for real spectrum, J conj(u) = J S conj(v) = -K conj(v)
        eig = direct_solve_definite(ham_mid)
        v, u, lam = eig.v[:, 3], eig.u[:, 3], eig.lambdas[3]
        _, (lam_j, v_j), (lam_k, v_k) = quadruplet_partners(ham_mid, lam, u, v, 1e-8)
        assert lam_j == pytest.approx(lam_k)
        assert min(
            np.abs(v_j - v_k).max(), np.abs(v_j + v_k).max()
        ) <= 1e-10
