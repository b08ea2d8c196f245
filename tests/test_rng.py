import numpy as np
import pytest

from bsesolve import rng


def test_words_match_published_splitmix64_vector():
    # splitmix64 outputs for seed 0 are a published reference sequence
    assert rng.word(0, 0) == 0xE220A8397B1DCDAF
    assert rng.word(0, 1) == 0x6E789E6AA1B965F4
    assert rng.word(0, 2) == 0x06C45D188009454F


def test_words_frozen_for_nonzero_seed():
    assert rng.word(0xDEADBEEF, 0) == 0x4ADFB90F68C9EB9B
    assert rng.word(0xDEADBEEF, 1) == 0xDE586A3141A10922
    assert rng.word(0xDEADBEEF, 7) == 0xB30A4CCF430B1B5A
    assert rng.substream(42, 3) == 0x581CE1FF0E4AE394


def test_vectorized_words_agree_with_scalar_reference():
    seeds = [0, 1, 2**63, 0xFFFFFFFFFFFFFFFF, 1234567]
    for seed in seeds:
        vec = rng._words(seed, 5, 64)
        ref = [rng.word(seed, c) for c in range(5, 69)]
        assert [int(v) for v in vec] == ref


def test_uniforms_in_half_open_unit_interval():
    u = rng.uniforms(99, 0, 10000)
    assert u.min() > 0.0
    assert u.max() <= 1.0


def test_complex_normals_frozen_values():
    z = rng.complex_normals(12345, 2)
    assert z[0] == complex(0.56254351858756901, 1.9279936267801181)
    assert z[1] == complex(0.92280219752980885, 1.8429870753916227)


def test_complex_normals_moments():
    z = rng.complex_normals(7, 200000)
    assert abs(z.real.mean()) < 0.02
    assert abs(z.real.var() - 1.0) < 0.02
    assert abs(z.imag.var() - 1.0) < 0.02
    assert abs((z.real * z.imag).mean()) < 0.02


def test_matrix_fill_is_column_major():
    m = rng.complex_normal_matrix(7, 5, 3)
    flat = rng.complex_normals(7, 15)
    assert m.flags["F_CONTIGUOUS"]
    np.testing.assert_array_equal(m.reshape(-1, order="F"), flat)
    assert m[2, 1] == flat[1 * 5 + 2]


@pytest.mark.parametrize("seed", [5, 2**63 + 5], ids=["int64", "uint64"])
def test_numpy_integer_seeds_draw_the_same_stream(seed):
    # np.int64 and np.uint64 seeds overflowed in `seed & 2**64 - 1`
    numpy_seed = np.uint64(seed) if seed >= 2**63 else np.int64(seed)
    assert rng.substream(numpy_seed, 3) == rng.substream(seed, 3)
    assert rng.complex_normals(numpy_seed, 4).tobytes() == rng.complex_normals(seed, 4).tobytes()


def test_streams_with_different_tags_differ():
    a = rng.complex_normals(rng.substream(3, 0), 8)
    b = rng.complex_normals(rng.substream(3, 1), 8)
    assert np.abs(a - b).min() > 0


@pytest.mark.parametrize("rows, cols", [(0, 3), (1, 1), (7, 5), (130, 129)])
def test_chunked_matrix_fill_equals_one_draw(rows, cols, monkeypatch):
    monkeypatch.setattr(rng, "_CHUNK", 64)  # many chunks, the last one short
    x = rng.complex_normal_matrix(11, rows, cols)
    flat = rng.complex_normals(11, rows * cols)
    assert x.flags.f_contiguous and x.shape == (rows, cols)
    assert x.tobytes(order="F") == flat.tobytes()
