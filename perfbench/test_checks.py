"""Each check of perfbench/checks.py rejects a corrupted result, and the
traced run refuses a layer span that saw no calls.

    python3 -m pytest perfbench -q

The instance and its exact eigenpairs are built here with numpy and scipy,
so these tests need no bsesolve.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg as sla

import checks
import tracing

M, NEV, TOL = 24, 5, 1e-8


@pytest.fixture(scope="module")
def inst() -> checks.Instance:
    gen = np.random.default_rng(7)
    c = gen.standard_normal((M, M)) + 1j * gen.standard_normal((M, M))
    a = c @ c.conj().T + np.eye(M)
    a = (a + a.conj().T) / 2
    d = gen.standard_normal((M, M)) + 1j * gen.standard_normal((M, M))
    b = (d + d.T) / 2
    b *= 0.5 * np.linalg.eigvalsh(a)[0] / np.linalg.norm(b, 2)
    return checks.Instance.from_blocks(a, b)


@pytest.fixture(scope="module")
def exact(inst):
    """All m negative eigenpairs, ascending, unit vectors."""
    s = np.diag(checks.s_diag(M)).astype(np.complex128)
    mu, vecs = sla.eigh(s, checks.sh_dense(inst.a, inst.b))
    neg = mu < 0
    lam, v = 1.0 / mu[neg], vecs[:, neg]
    order = np.argsort(lam)
    v = v[:, order]
    return lam[order], v / np.linalg.norm(v, axis=0)


def test_exact_pairs_pass(inst, exact):
    lam, v = exact
    ref = inst.pencil_lambdas(NEV)
    assert checks.check_pairs(inst, lam[:NEV], v[:, :NEV], NEV, TOL, ref) == []


@pytest.mark.parametrize("sigma_index", [0, 3, NEV, M - 1])
def test_inertia_counts_eigenvalues_below_shift(inst, exact, sigma_index):
    lam, _ = exact
    upper = lam[sigma_index + 1] if sigma_index + 1 < M else 0.0
    sigma = (lam[sigma_index] + upper) / 2
    assert checks.count_below(inst.a, inst.b, sigma) == sigma_index + 1


def test_perturbed_eigenvalue_is_rejected(inst, exact):
    lam, v = exact
    bad = lam[:NEV].copy()
    bad[2] += 1e-7 * abs(bad[2])
    problems = checks.check_pairs(inst, bad, v[:, :NEV], NEV, TOL, inst.pencil_lambdas(NEV))
    assert any("residual" in p for p in problems)
    assert any("eigh of the pencil" in p for p in problems)


def test_dropped_smallest_pair_is_rejected(inst, exact):
    lam, v = exact
    problems = checks.check_pairs(inst, lam[1:NEV + 1], v[:, 1:NEV + 1], NEV, TOL)
    assert any("inertia" in p for p in problems)


def test_repeated_pair_is_rejected(inst, exact):
    lam, v = exact
    idx = [0, 0, 2, 3, 4]
    problems = checks.check_pairs(inst, lam[idx], v[:, idx], NEV, TOL)
    assert any("distinct" in p for p in problems)


def test_inflated_residual_is_rejected(inst, exact):
    lam, v = exact
    bad = v[:, :NEV].copy()
    bad[:, 1] += 1e-6 * np.random.default_rng(1).standard_normal(2 * M)
    bad[:, 1] /= np.linalg.norm(bad[:, 1])
    problems = checks.check_pairs(inst, lam[:NEV], bad, NEV, TOL)
    assert any("residual" in p for p in problems)


def write_run(tmp_path, inst, lam, v):
    """A `bsesolve solve` output directory, written per docs/FORMATS.md."""
    inputs = []
    for name, block in (("A.mtx", inst.a), ("B.mtx", inst.b)):
        path = tmp_path / name
        with open(path, "w") as fh:
            fh.write(f"%%MatrixMarket matrix array complex general\n% block\n{M} {M}\n")
            for z in block.reshape(-1, order="F"):
                fh.write(f"{z.real:.17e} {z.imag:.17e}\n")
        inputs.append(path)
    out = tmp_path / "out"
    out.mkdir()
    digest = "+".join(checks.digest64(p) for p in inputs)
    with open(out / "eigenvalues.csv", "w") as fh:
        fh.write("# bsesolve eigenvalues v1\n# manifest: manifest.json\n")
        fh.write(f"# input_digest: {digest}\n# converged: true\nindex,eigenvalue,residual\n")
        for i, x in enumerate(lam):
            fh.write(f"{i},{x:.17g},0\n")
    with open(out / "eigenvectors.bin", "wb") as fh:
        fh.write(b"PCHV" + np.array([1], "<u4").tobytes() + np.array(v.shape, "<u8").tobytes())
        fh.write(np.asarray(v, "<c16").tobytes(order="F"))
    return out, inputs


def test_cli_outputs_pass_and_mtx_round_trips(tmp_path, inst, exact):
    lam, v = exact
    out, inputs = write_run(tmp_path, inst, lam[:NEV], v[:, :NEV])
    assert checks.check_cli_outputs(out, 0, inputs, inst, NEV, TOL) == []
    assert checks.same_bits(checks.read_mtx(inputs[0]), inst.a)
    flipped = inst.a.copy()
    flipped[3, 4] = np.nextafter(flipped[3, 4].real, np.inf) + 1j * flipped[3, 4].imag
    assert not checks.same_bits(checks.read_mtx(inputs[0]), flipped)


@pytest.mark.parametrize("name", ["eigenvectors.bin", "eigenvalues.csv"])
def test_truncated_output_file_is_rejected(tmp_path, inst, exact, name):
    lam, v = exact
    out, inputs = write_run(tmp_path, inst, lam[:NEV], v[:, :NEV])
    path = out / name
    data = path.read_bytes()
    if name.endswith(".csv"):  # drop the last row
        data = data[: data.rstrip(b"\n").rfind(b"\n") + 1]
    else:  # drop the last entry
        data = data[:-16]
    path.write_bytes(data)
    assert checks.check_cli_outputs(out, 0, inputs, inst, NEV, TOL) != []


def test_failed_exit_and_unconverged_are_rejected(tmp_path, inst, exact):
    lam, v = exact
    out, inputs = write_run(tmp_path, inst, lam[:NEV], v[:, :NEV])
    assert checks.check_cli_outputs(out, 4, inputs, inst, NEV, TOL) == ["exit code 4"]
    csv = out / "eigenvalues.csv"
    csv.write_text(csv.read_text().replace("converged: true", "converged: false"))
    assert any("converged" in p for p in checks.check_cli_outputs(out, 0, inputs, inst, NEV, TOL))


def test_layer_span_without_calls_fails():
    spans = [{"name": name} for name in tracing.REQUIRED + tracing.PROJECT[:1]]
    tracing.check_required(spans, cli=False)
    with pytest.raises(tracing.MissingSpanError, match="chebyshev.filter"):
        tracing.check_required([s for s in spans if s["name"] != "chebyshev.filter"], cli=False)
    with pytest.raises(tracing.MissingSpanError, match="fileio.read_matrix_market"):
        tracing.check_required(spans, cli=True)
