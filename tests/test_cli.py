import ast
import json
import multiprocessing
import os
import struct
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import bsesolve
from bsesolve import BseHamiltonian, GeneratorSpec, SolverConfig, generate, solve
from bsesolve import fileio, rng, verify
from bsesolve.cli import cli
from bsesolve.rayleigh_ritz import RitzSet

from conftest import LAM2


@pytest.fixture
def runner():
    return CliRunner()


def _generate_inputs(runner, path, m=8, seed=3, ratio=0.5, mode="definite"):
    result = runner.invoke(
        cli,
        [
            "generate", "--m", str(m), "--seed", str(seed),
            "--coupling-ratio", str(ratio), "--mode", mode, "--out", str(path),
        ],
    )
    assert result.exit_code == 0, result.output
    return path / "A.mtx", path / "B.mtx"


class TestGenerateCommand:
    def test_writes_deterministic_files(self, runner, tmp_path):
        a1, b1 = _generate_inputs(runner, tmp_path / "one", m=4, seed=7)
        a2, b2 = _generate_inputs(runner, tmp_path / "two", m=4, seed=7)
        assert a1.read_bytes() == a2.read_bytes()
        assert b1.read_bytes() == b2.read_bytes()
        assert (tmp_path / "one" / "manifest.json").exists()

    def test_reload_passes_cholesky(self, runner, tmp_path):
        a, b = _generate_inputs(runner, tmp_path, m=6, seed=9, ratio=0.5)
        from bsesolve import BseHamiltonian, Definiteness, is_definite

        ham = BseHamiltonian(fileio.read_matrix_market(a), fileio.read_matrix_market(b))
        assert is_definite(ham) is Definiteness.DEFINITE

    def test_invalid_ratio_is_validation_error(self, runner, tmp_path):
        result = runner.invoke(
            cli,
            ["generate", "--m", "4", "--coupling-ratio", "1.5",
             "--mode", "definite", "--out", str(tmp_path)],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "option, value, mode",
        [
            ("--alpha", "nan", "definite"),
            ("--alpha", "inf", "definite"),
            ("--coupling-ratio", "nan", "definite"),
            ("--coupling-ratio", "inf", "indefinite"),
        ],
    )
    def test_non_finite_parameter_is_validation_error(self, runner, tmp_path, option, value, mode):
        result = runner.invoke(
            cli,
            ["generate", "--m", "4", option, value, "--mode", mode, "--out", str(tmp_path)],
        )
        assert result.exit_code == 2, result.output
        assert f"error: {option[2:].replace('-', '_')} must be" in result.output

    def test_pchb_format(self, runner, tmp_path):
        result = runner.invoke(
            cli, ["generate", "--m", "4", "--seed", "1", "--format", "pchb",
                  "--out", str(tmp_path)],
        )
        assert result.exit_code == 0
        ham = fileio.read_pchb(tmp_path / "ham.pchb")
        assert ham.m == 4


class TestSolveCommand:
    def test_end_to_end(self, runner, tmp_path):
        a, b = _generate_inputs(runner, tmp_path / "in", m=32, seed=5)
        out = tmp_path / "out"
        result = runner.invoke(
            cli,
            ["solve", "--a", str(a), "--b", str(b), "--nev", "4",
             "--seed", "5", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert "converged" in result.output
        for name in ("eigenvalues.csv", "eigenvectors.bin", "trace.csv", "manifest.json"):
            assert (out / name).exists()
        rows = [
            line.split(",")
            for line in (out / "eigenvalues.csv").read_text().splitlines()
            if line and not line.startswith(("#", "index"))
        ]
        lams = np.array([float(r[1]) for r in rows])
        ham = generate(GeneratorSpec(m=32, seed=5))
        from bsesolve import direct_solve_definite

        np.testing.assert_allclose(
            lams, direct_solve_definite(ham).lambdas[:4], atol=1e-5
        )
        vecs = fileio.read_pchv(out / "eigenvectors.bin")
        assert vecs.shape == (64, 4)

    def test_manifest_records_the_block_width_the_solve_ran(self, runner, tmp_path):
        # a default solve wrote "nex": null, which a replay under another
        # default would run on another block; replaying the recorded nex
        # gives the same bytes
        a, b = _generate_inputs(runner, tmp_path / "in", m=32, seed=5)
        recorded = {}
        for name, extra in (("default", []), ("five", ["--nex", "5"]),
                            ("replay", ["--nex", "8"])):
            out = tmp_path / name
            result = runner.invoke(
                cli, ["solve", "--a", str(a), "--b", str(b), "--nev", "16",
                      *extra, "--out", str(out)],
            )
            assert result.exit_code == 0, result.output
            recorded[name] = json.loads((out / "manifest.json").read_text())["config"]["nex"]
        assert recorded == {"default": 8, "five": 5, "replay": 8}
        for name in ("eigenvalues.csv", "eigenvectors.bin"):
            assert (tmp_path / "replay" / name).read_bytes() == (
                tmp_path / "default" / name
            ).read_bytes()

    def test_odd_degree_runs_as_given(self, runner, tmp_path):
        a, b = _generate_inputs(runner, tmp_path / "in", m=8, seed=2)
        result = runner.invoke(
            cli,
            ["solve", "--a", str(a), "--b", str(b), "--nev", "2",
             "--deg", "13", "--out", str(tmp_path / "out")],
        )
        assert result.exit_code == 0, result.output
        assert "warning" not in result.output
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config"]["deg"] == 13

    def test_nev_too_large_is_validation_error(self, runner, tmp_path):
        a, b = _generate_inputs(runner, tmp_path / "in", m=8, seed=2)
        result = runner.invoke(
            cli, ["solve", "--a", str(a), "--b", str(b), "--nev", "9",
                  "--out", str(tmp_path / "out")],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("extra, message", [
        # nev alone over n/2: nex plays no part
        (["--nev", "9"], "error: nev = 9 exceeds n/2 = 8\n"),
        (["--nev", "9", "--nex", "0"], "error: nev = 9 exceeds n/2 = 8\n"),
        # the default nex (min(nev, 8) = 7) pushes the block over
        (["--nev", "7"], "error: nev + nex = 14 exceeds n/2 = 8 with the default "
                         "nex = 7; set nex (--nex) to at most 1\n"),
        (["--nev", "8"], "error: nev + nex = 16 exceeds n/2 = 8 with the default "
                         "nex = 8; set nex (--nex) to at most 0\n"),
        # an explicit nex is the user's own
        (["--nev", "4", "--nex", "5"], "error: nev + nex = 9 exceeds n/2 = 8\n"),
    ])
    def test_oversized_block_names_its_cause(self, runner, tmp_path, extra, message):
        a, b = _generate_inputs(runner, tmp_path / "in", m=8, seed=2)
        result = runner.invoke(
            cli, ["solve", "--a", str(a), "--b", str(b), *extra, "--out", str(tmp_path / "out")],
        )
        assert result.exit_code == 2
        assert result.output == message

    def test_largest_nex_named_by_the_error_fits(self, runner, tmp_path):
        a, b = _generate_inputs(runner, tmp_path / "in", m=8, seed=2)
        result = runner.invoke(
            cli, ["solve", "--a", str(a), "--b", str(b), "--nev", "7", "--nex", "1",
                  "--out", str(tmp_path / "out")],
        )
        assert result.exit_code == 0, result.output

    def test_infinite_tol_is_validation_error(self, runner, tmp_path):
        a, b = _generate_inputs(runner, tmp_path / "in", m=8, seed=2)
        result = runner.invoke(
            cli, ["solve", "--a", str(a), "--b", str(b), "--nev", "2", "--tol", "inf",
                  "--out", str(tmp_path / "out")],
        )
        assert result.exit_code == 2, result.output
        assert "error: tol must be" in result.output

    def test_indefinite_input_is_numerical_error(self, runner, tmp_path):
        a, b = _generate_inputs(
            runner, tmp_path / "in", m=8, seed=2, ratio=3.0, mode="indefinite"
        )
        result = runner.invoke(
            cli, ["solve", "--a", str(a), "--b", str(b), "--nev", "2",
                  "--out", str(tmp_path / "out")],
        )
        assert result.exit_code == 4

    def test_missing_inputs_is_validation_error(self, runner, tmp_path):
        result = runner.invoke(cli, ["solve", "--nev", "2", "--out", str(tmp_path)])
        assert result.exit_code == 2

    def test_largest_mode_mirrors_spectrum(self, runner, tmp_path):
        a, b = _generate_inputs(runner, tmp_path / "in", m=16, seed=11)
        out_small = tmp_path / "small"
        out_large = tmp_path / "large"
        for flag, out in ((None, out_small), ("--largest", out_large)):
            args = ["solve", "--a", str(a), "--b", str(b), "--nev", "3",
                    "--seed", "4", "--out", str(out)]
            if flag:
                args.insert(1, flag)
            assert runner.invoke(cli, args).exit_code == 0
        small = [float(l.split(",")[1]) for l in (out_small / "eigenvalues.csv").read_text().splitlines() if l and not l.startswith(("#", "index"))]
        large = [float(l.split(",")[1]) for l in (out_large / "eigenvalues.csv").read_text().splitlines() if l and not l.startswith(("#", "index"))]
        np.testing.assert_allclose(sorted(large), sorted([-x for x in small]), atol=1e-12)

    def test_nonconvergence_still_exits_zero(self, runner, tmp_path):
        a, b = _generate_inputs(runner, tmp_path / "in", m=16, seed=6)
        result = runner.invoke(
            cli, ["solve", "--a", str(a), "--b", str(b), "--nev", "4",
                  "--maxiter", "1", "--deg", "2", "--out", str(tmp_path / "out")],
        )
        assert result.exit_code == 0
        text = (tmp_path / "out" / "eigenvalues.csv").read_text()
        assert "# converged: false" in text


class TestPchbInput:
    def test_solve_from_pchb(self, runner, tmp_path):
        gen = runner.invoke(
            cli, ["generate", "--m", "16", "--seed", "3", "--format", "pchb",
                  "--out", str(tmp_path / "in")],
        )
        assert gen.exit_code == 0
        result = runner.invoke(
            cli, ["solve", "--pchb", str(tmp_path / "in" / "ham.pchb"),
                  "--nev", "2", "--out", str(tmp_path / "out")],
        )
        assert result.exit_code == 0, result.output
        assert "converged" in result.output

    def test_pchb_excludes_block_inputs(self, runner, tmp_path):
        a, b = _generate_inputs(runner, tmp_path / "in", m=4, seed=1)
        result = runner.invoke(
            cli, ["solve", "--pchb", "x.pchb", "--a", str(a), "--nev", "1",
                  "--out", str(tmp_path / "out")],
        )
        assert result.exit_code == 2

    def test_truncated_pchb_is_validation_error(self, runner, tmp_path):
        p = tmp_path / "ham.pchb"
        fileio.write_pchb(p, generate(GeneratorSpec(m=4, seed=1)))
        p.write_bytes(p.read_bytes()[:-8])
        result = runner.invoke(
            cli, ["solve", "--pchb", str(p), "--nev", "1", "--out", str(tmp_path / "out")],
        )
        assert result.exit_code == 2, result.output
        assert "truncated" in result.output

    def test_trailing_bytes_in_pchb_are_validation_error(self, runner, tmp_path):
        p = tmp_path / "ham.pchb"
        fileio.write_pchb(p, generate(GeneratorSpec(m=4, seed=1)))
        p.write_bytes(p.read_bytes() + b"\0" * 7)
        result = runner.invoke(cli, ["oracle", "--pchb", str(p), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2, result.output
        assert "trailing data" in result.output


class TestEmptyBlocks:
    """m = 0 is a validation error on every load path of the CLI."""

    def _inputs(self, tmp_path, fmt):
        if fmt == "pchb":
            p = tmp_path / "ham.pchb"
            p.write_bytes(b"PCHB" + struct.pack("<IQ", 1, 0))
            return ["--pchb", str(p)]
        for name in ("A.mtx", "B.mtx"):
            (tmp_path / name).write_text("%%MatrixMarket matrix array complex general\n0 0\n")
        return ["--a", str(tmp_path / "A.mtx"), "--b", str(tmp_path / "B.mtx")]

    @pytest.mark.parametrize("command, fmt", [
        ("oracle", "mm"), ("oracle", "pchb"), ("verify", "mm"), ("solve", "pchb"),
    ])
    def test_empty_blocks_are_validation_error(self, runner, tmp_path, command, fmt):
        args = [command, *self._inputs(tmp_path, fmt)]
        if command != "verify":
            args += ["--out", str(tmp_path / "out")]
        if command == "solve":
            args += ["--nev", "1"]
        result = runner.invoke(cli, args)
        assert result.exit_code == 2, result.output
        assert "error: the blocks are empty (m = 0)" in result.output


class TestMatrixMarketInput:
    def test_size_line_larger_than_the_body_is_validation_error(self, runner, tmp_path):
        a, b = _generate_inputs(runner, tmp_path / "in", m=4, seed=1)
        a.write_text("%%MatrixMarket matrix array complex general\n1000000 1000000\n1.0 2.0\n")
        result = runner.invoke(
            cli, ["solve", "--a", str(a), "--b", str(b), "--nev", "1",
                  "--out", str(tmp_path / "out")],
        )
        assert result.exit_code == 2, result.output
        assert "cannot fit" in result.output

    def test_data_after_the_declared_entries_is_validation_error(self, runner, tmp_path):
        a, b = _generate_inputs(runner, tmp_path / "in", m=4, seed=1)
        b.write_text(b.read_text() + "1.0 2.0\n")
        result = runner.invoke(
            cli, ["oracle", "--a", str(a), "--b", str(b), "--out", str(tmp_path / "out")],
        )
        assert result.exit_code == 2, result.output
        assert "after the 4 x 4 entries" in result.output


def _solve(runner, a, b, out):
    return runner.invoke(
        cli, ["solve", "--a", str(a), "--b", str(b), "--nev", "1", "--out", str(out)],
    )


def _eigenvalue_rows(out):
    text = (out / "eigenvalues.csv").read_text()
    return [line for line in text.splitlines() if not line.startswith("#")]


class TestMatrixMarketPair:
    """The pair is read and written in two processes: B in a forked worker."""

    def test_non_utf8_comment_is_free_text(self, runner, tmp_path):
        a, b = _generate_inputs(runner, tmp_path / "in", m=4, seed=0)
        clean = _solve(runner, a, b, tmp_path / "clean")
        assert clean.exit_code == 0, clean.output
        header, rest = b.read_bytes().split(b"\n", 1)
        b.write_bytes(header + b"\n%caf\xe9\n" + rest)
        result = _solve(runner, a, b, tmp_path / "out")
        assert result.exit_code == 0, result.output
        assert _eigenvalue_rows(tmp_path / "out") == _eigenvalue_rows(tmp_path / "clean")

    @pytest.mark.parametrize("name", ["A.mtx", "B.mtx"])
    def test_non_utf8_byte_in_a_number_is_validation_error(self, runner, tmp_path, name):
        _generate_inputs(runner, tmp_path / "in", m=4, seed=0)
        p = tmp_path / "in" / name
        lines = p.read_bytes().split(b"\n")
        lines[3] = lines[3][:3] + b"\xff" + lines[3][3:]  # inside the first entry's real part
        p.write_bytes(b"\n".join(lines))
        result = _solve(runner, tmp_path / "in" / "A.mtx", tmp_path / "in" / "B.mtx",
                        tmp_path / "out")
        assert result.exit_code == 2, result.output
        assert "error: malformed entry" in result.output
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("name", ["A.mtx", "B.mtx"])
    def test_truncated_file_is_validation_error(self, runner, tmp_path, name):
        _generate_inputs(runner, tmp_path / "in", m=4, seed=0)
        p = tmp_path / "in" / name
        p.write_bytes(p.read_bytes().rsplit(b"\n", 2)[0] + b"\n")  # drop the last entry
        result = _solve(runner, tmp_path / "in" / "A.mtx", tmp_path / "in" / "B.mtx",
                        tmp_path / "out")
        assert result.exit_code == 2, result.output
        assert "error: truncated: 15 of the next 16 entry lines\n" in result.output
        assert multiprocessing.active_children() == []

    def test_missing_b_is_io_error(self, runner, tmp_path):
        a, b = _generate_inputs(runner, tmp_path / "in", m=4, seed=0)
        b.unlink()
        result = _solve(runner, a, b, tmp_path / "out")
        assert result.exit_code == 3, result.output
        assert f"i/o error: [Errno 2] No such file or directory: '{b}'" in result.output
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("fork", [True, False], ids=["fork", "no_fork"])
    def test_bytes_equal_one_process_doing_both(self, runner, tmp_path, monkeypatch, fork):
        if not fork:
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        a, b = _generate_inputs(runner, tmp_path / "in", m=8, seed=3)
        assert multiprocessing.active_children() == []
        ham = generate(GeneratorSpec(m=8, seed=3))
        ref = tmp_path / "ref"
        ref.mkdir()
        fileio.write_matrix_market(ref / "A.mtx", ham.a, " resonant block, seed=3")
        fileio.write_matrix_market(ref / "B.mtx", ham.b, " coupling block, seed=3")
        assert a.read_bytes() == (ref / "A.mtx").read_bytes()
        assert b.read_bytes() == (ref / "B.mtx").read_bytes()

        out = tmp_path / "out"
        result = runner.invoke(
            cli, ["solve", "--a", str(a), "--b", str(b), "--nev", "3", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert multiprocessing.active_children() == []
        loaded = BseHamiltonian(fileio.read_matrix_market(a), fileio.read_matrix_market(b))
        solved = solve(loaded, SolverConfig(nev=3))
        digest = "+".join(fileio.digest64(p) for p in sorted((a, b), key=str))
        fileio.write_eigenvalues_csv(
            ref / "eigenvalues.csv", solved.lambdas, solved.residual_norms, digest,
            converged=solved.converged,
        )
        fileio.write_pchv(ref / "eigenvectors.bin", solved.v)
        for name in ("eigenvalues.csv", "eigenvectors.bin"):
            assert (out / name).read_bytes() == (ref / name).read_bytes()


def _write_pair(path, a, b):
    path.mkdir(parents=True, exist_ok=True)
    fileio.write_matrix_market(path / "A.mtx", a)
    fileio.write_matrix_market(path / "B.mtx", b)
    return path / "A.mtx", path / "B.mtx"


class TestTwoPointSpectrumPair:
    """A = I_4, B = 0: H has only the eigenvalues +-1, so the Lanczos pass
    breaks down after two steps; solve and bench exited 4."""

    def test_solve_converges(self, runner, tmp_path):
        a, b = _write_pair(tmp_path / "in", np.eye(4), np.zeros((4, 4)))
        result = _solve(runner, a, b, tmp_path / "out")
        assert result.exit_code == 0, result.output
        text = (tmp_path / "out" / "eigenvalues.csv").read_text()
        assert "# converged: true\n" in text
        rows = _eigenvalue_rows(tmp_path / "out")
        assert rows[0] == "index,eigenvalue,residual" and len(rows) == 2
        assert float(rows[1].split(",")[1]) == pytest.approx(-1.0, rel=1e-12)

    def test_bench_runs(self, runner, tmp_path):
        a, b = _write_pair(tmp_path / "in", np.eye(4), np.zeros((4, 4)))
        result = runner.invoke(
            cli, ["bench", "--a", str(a), "--b", str(b), "--nev", "1", "--reps", "1",
                  "--out", str(tmp_path / "out")],
        )
        assert result.exit_code == 0, result.output
        assert (tmp_path / "out" / "bench.csv").exists()


class TestOracleCommand:
    def test_2x2_closed_form(self, runner, tmp_path):
        fileio.write_matrix_market(tmp_path / "A.mtx", np.array([[2.0]]))
        fileio.write_matrix_market(tmp_path / "B.mtx", np.array([[0.5]]))
        out = tmp_path / "out"
        result = runner.invoke(
            cli, ["oracle", "--a", str(tmp_path / "A.mtx"), "--b",
                  str(tmp_path / "B.mtx"), "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        lams = [float(l.split(",")[1]) for l in (out / "eigenvalues.csv").read_text().splitlines() if l and not l.startswith(("#", "index"))]
        np.testing.assert_allclose(lams, [-LAM2, LAM2], atol=1e-10)

    def test_tda_diagonal(self, runner, tmp_path):
        fileio.write_matrix_market(tmp_path / "A.mtx", np.diag([1.0, 2.0, 3.0]))
        fileio.write_matrix_market(tmp_path / "B.mtx", np.zeros((3, 3)))
        out = tmp_path / "out"
        assert runner.invoke(
            cli, ["oracle", "--a", str(tmp_path / "A.mtx"), "--b",
                  str(tmp_path / "B.mtx"), "--out", str(out)],
        ).exit_code == 0
        lams = [float(l.split(",")[1]) for l in (out / "eigenvalues.csv").read_text().splitlines() if l and not l.startswith(("#", "index"))]
        np.testing.assert_allclose(lams, [-3, -2, -1, 1, 2, 3], atol=1e-12)

    def test_cap_is_enforced(self, runner, tmp_path):
        a, b = _generate_inputs(runner, tmp_path / "in", m=8, seed=2)
        result = runner.invoke(
            cli, ["oracle", "--a", str(a), "--b", str(b), "--cap", "8",
                  "--out", str(tmp_path / "out")],
        )
        assert result.exit_code == 2

    def test_indefinite_is_numerical_error(self, runner, tmp_path):
        a, b = _generate_inputs(
            runner, tmp_path / "in", m=6, seed=2, ratio=4.0, mode="indefinite"
        )
        result = runner.invoke(
            cli, ["oracle", "--a", str(a), "--b", str(b), "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == 4

    def test_byte_identical_reruns(self, runner, tmp_path):
        a, b = _generate_inputs(runner, tmp_path / "in", m=6, seed=8)
        for sub in ("o1", "o2"):
            assert runner.invoke(
                cli, ["oracle", "--a", str(a), "--b", str(b),
                      "--out", str(tmp_path / sub)],
            ).exit_code == 0
        assert (tmp_path / "o1" / "eigenvalues.csv").read_bytes() == (
            tmp_path / "o2" / "eigenvalues.csv"
        ).read_bytes()


class TestVerifyCommand:
    def test_fresh_seed_all_pass(self, runner):
        result = runner.invoke(cli, ["verify", "--m", "8", "--seed", "3"])
        assert result.exit_code == 0, result.output
        assert "FAIL" not in result.output
        assert "checks passed" in result.output

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_alpha_is_validation_error(self, runner, value):
        result = runner.invoke(cli, ["verify", "--m", "4", "--alpha", value])
        assert result.exit_code == 2, result.output
        assert "error: alpha must be" in result.output

    def test_corrupted_coupling_block_fails_structure_check(self, runner, tmp_path):
        import numpy as np

        ham = generate(GeneratorSpec(m=4, seed=5))
        b_bad = ham.b.copy()
        b_bad[0, 1] += 1e-3  # breaks B = B^T
        fileio.write_matrix_market(tmp_path / "A.mtx", ham.a)
        fileio.write_matrix_market(tmp_path / "B.mtx", b_bad)
        result = runner.invoke(
            cli, ["verify", "--a", str(tmp_path / "A.mtx"), "--b", str(tmp_path / "B.mtx")],
        )
        assert result.exit_code == 0, result.output
        assert "FAIL  pseudo_hermitian_structure" in result.output

    def test_loaded_clean_instance_passes(self, runner, tmp_path):
        ham = generate(GeneratorSpec(m=6, seed=9))
        fileio.write_matrix_market(tmp_path / "A.mtx", ham.a)
        fileio.write_matrix_market(tmp_path / "B.mtx", ham.b)
        result = runner.invoke(
            cli, ["verify", "--a", str(tmp_path / "A.mtx"), "--b", str(tmp_path / "B.mtx")],
        )
        assert result.exit_code == 0, result.output
        assert "FAIL" not in result.output

    @pytest.mark.parametrize("bad", ["A", "B"])
    def test_loaded_structure_defect_matches_the_dense_check(self, runner, tmp_path, bad):
        from bsesolve import validate_pseudo_hermitian

        ham = generate(GeneratorSpec(m=70, seed=2))
        a, b = ham.a.copy(), ham.b.copy()
        (a if bad == "A" else b)[66, 3] += 2.5e-6 - 1e-6j
        fileio.write_matrix_market(tmp_path / "A.mtx", a)
        fileio.write_matrix_market(tmp_path / "B.mtx", b)
        ok, defect = validate_pseudo_hermitian(
            np.block([[a, b], [-np.conj(b), -np.conj(a)]])
        )
        result = runner.invoke(
            cli, ["verify", "--a", str(tmp_path / "A.mtx"), "--b", str(tmp_path / "B.mtx")],
        )
        assert result.exit_code == 0, result.output
        assert not ok
        assert f"FAIL  pseudo_hermitian_structure: max defect {defect:.3e}\n" in result.output

    def test_blocks_rejected_on_their_own_scale_are_a_failed_check(self, runner, tmp_path):
        # the structure check measures B's defect against max(|A|, |B|), the
        # Hamiltonian against |B|: a 1e-11 defect on B ~ 1e-2 passes the
        # first and fails the second, which is report content, not exit 2
        g = np.random.default_rng(0)
        c = g.standard_normal((8, 8)) + 1j * g.standard_normal((8, 8))
        a = 1e3 * (c @ c.conj().T / 8 + np.eye(8))
        d = g.standard_normal((8, 8)) + 1j * g.standard_normal((8, 8))
        b = 1e-2 * (d + d.T) / 2
        b[0, 1] += 1e-11
        fileio.write_matrix_market(tmp_path / "A.mtx", a)
        fileio.write_matrix_market(tmp_path / "B.mtx", b)
        result = runner.invoke(
            cli, ["verify", "--a", str(tmp_path / "A.mtx"), "--b", str(tmp_path / "B.mtx")],
        )
        assert result.exit_code == 0, result.output
        assert "PASS  pseudo_hermitian_structure" in result.output
        assert "FAIL  block_symmetry: B violates symmetry beyond tolerance" in result.output
        assert "1/2 checks passed" in result.output

    @pytest.mark.parametrize("a, b", [
        (np.eye(2), np.eye(3)),
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), np.eye(2)),
    ], ids=["shapes_differ", "non_finite"])
    def test_malformed_loaded_blocks_are_validation_errors(self, runner, tmp_path, a, b):
        for name, block in (("A.mtx", a), ("B.mtx", b)):
            body = "".join(f"{z.real:.17e} {z.imag:.17e}\n" for z in np.ravel(block, order="F"))
            (tmp_path / name).write_text(
                "%%MatrixMarket matrix array complex general\n"
                f"{block.shape[0]} {block.shape[1]}\n" + body
            )
        result = runner.invoke(
            cli, ["verify", "--a", str(tmp_path / "A.mtx"), "--b", str(tmp_path / "B.mtx")],
        )
        assert result.exit_code == 2, result.output

    @pytest.mark.parametrize("m", [1, 2])
    def test_smallest_instances_all_pass(self, runner, m):
        # at m = 1 the QSQ law compared 2 eigenvalues with 1 singular value;
        # at m <= 2 the quadratic sweep's 4 columns span all of C^n
        result = runner.invoke(cli, ["verify", "--m", str(m)])
        assert result.exit_code == 0, result.output
        assert "FAIL" not in result.output
        assert "12/12 checks passed" in result.output

    def test_smallest_indefinite_instance_passes(self, runner):
        result = runner.invoke(
            cli, ["verify", "--m", "1", "--mode", "indefinite", "--coupling-ratio", "2"],
        )
        assert result.exit_code == 0, result.output
        assert "5/5 checks passed" in result.output

    @pytest.mark.parametrize("a, b", [
        (np.eye(4), np.zeros((4, 4))),
        (np.diag([1.0, 1, 1, 1, 2, 2, 2, 2]), 0.3 * np.eye(8)),
    ], ids=["identity", "two_clusters"])
    def test_repeated_target_eigenvalue_passes(self, runner, tmp_path, a, b):
        # the quadratic sweep took its complement from eigenvectors that
        # share the target eigenvalue, so its Ritz value was exact for every
        # eps: "FAIL quadratic_ritz_convergence: hermitian slope 142.324"
        a_path, b_path = _write_pair(tmp_path, a, b)
        result = runner.invoke(cli, ["verify", "--a", str(a_path), "--b", str(b_path)])
        assert result.exit_code == 0, result.output
        assert "PASS  quadratic_ritz_convergence: hermitian slope 2.000" in result.output
        assert "12/12 checks passed" in result.output

    def test_singular_direction_detection_reported(self, runner):
        result = runner.invoke(cli, ["verify", "--m", "6", "--seed", "1"])
        assert result.exit_code == 0
        assert "PASS  singular_direction_detection" in result.output

    def test_petrov_galerkin_rounding_is_not_a_failure(self, runner):
        # |lambda_min(Q*SQ)| = 3.8e-5 here, so ||Q_L||_2 = 2.6e4: the fixed
        # bound 1e-8 rho(SH) read rounding, 1.706e-05 against 9.500e-06
        result = runner.invoke(cli, ["verify", "--m", "128", "--seed", "3"])
        assert result.exit_code == 0, result.output
        assert "PASS  petrov_galerkin_orthogonality" in result.output
        assert "12/12 checks passed" in result.output

    @pytest.mark.parametrize("variant", ["hermitian", "backup"])
    def test_petrov_galerkin_perturbed_ritz_vectors_fail(self, monkeypatch, variant):
        ham = generate(GeneratorSpec(m=128, seed=3))

        def perturb(x):
            noise = rng.complex_normal_matrix(7, *x.shape)
            return x + 1e-6 * np.linalg.norm(x, axis=0) * noise / np.linalg.norm(noise, axis=0)

        if variant == "hermitian":
            honest = verify.build_hermitian_rq

            def patched(ham, q):
                ritz, reduced = honest(ham, q)
                return RitzSet(values=ritz.values, vectors=perturb(ritz.vectors)), reduced

            monkeypatch.setattr(verify, "build_hermitian_rq", patched)
        else:
            honest = verify.dense_general_eig

            def patched(g):
                values, y = honest(g)
                return values, perturb(y)

            monkeypatch.setattr(verify, "dense_general_eig", patched)
        check = verify.check_petrov_galerkin(ham, bsesolve.rho_sh(ham), 8, rng.substream(3, 104))
        assert not check.passed, check.detail

    def test_indefinite_subset(self, runner):
        result = runner.invoke(
            cli, ["verify", "--m", "6", "--seed", "4", "--coupling-ratio", "1.9",
                  "--mode", "indefinite"],
        )
        assert result.exit_code == 0, result.output
        assert "field_of_values" in result.output

    def test_m_excludes_loaded_blocks(self, runner, tmp_path, monkeypatch):
        # --m with --a/--b is refused before either file is opened
        opened = []
        monkeypatch.setattr(fileio, "run_pair", lambda *args: opened.append(args))
        missing = str(tmp_path / "missing.mtx")
        result = runner.invoke(cli, ["verify", "--m", "64", "--a", missing, "--b", missing])
        assert result.exit_code == 2, result.output
        assert "--m excludes --a/--b" in result.output
        assert opened == []

    @pytest.mark.parametrize("source", ["generated", "loaded"])
    def test_structure_is_checked_once(self, runner, tmp_path, monkeypatch, source):
        # one structure check per run, on the blocks the CLI holds, printed first
        calls = []
        honest = verify.validate_blocks
        monkeypatch.setattr(
            verify, "validate_blocks", lambda a, b: calls.append(a.shape) or honest(a, b)
        )
        if source == "generated":
            args = ["--m", "8", "--seed", "2"]
        else:
            a_path, b_path = _generate_inputs(runner, tmp_path, m=8, seed=2)
            args = ["--a", str(a_path), "--b", str(b_path)]
        result = runner.invoke(cli, ["verify", *args])
        assert result.exit_code == 0, result.output
        assert calls == [(8, 8)]
        lines = result.output.splitlines()
        assert lines[0].startswith("PASS  pseudo_hermitian_structure")
        assert lines[-1] == "12/12 checks passed"


class TestRunSuite:
    """One run_suite call forms each dense reference of its instance once."""

    def _count(self, monkeypatch, ham):
        calls = dict.fromkeys(["direct_solve_definite", "rho_sh", "cond_of_h", "materialize"], 0)
        for name in calls:
            honest = getattr(verify, name)

            def counted(*args, _name=name, _honest=honest):
                calls[_name] += 1
                return _honest(*args)

            monkeypatch.setattr(verify, name, counted)
        dense_svds = []  # SVDs of n x n arrays, and their 2-norms (one SVD each)
        for name in ("svd", "norm"):
            honest = getattr(np.linalg, name)

            def counted(x, *args, _name=name, _honest=honest, **kwargs):
                spectral = _name == "svd" or (args[:1] or (kwargs.get("ord"),)) == (2,)
                if spectral and np.shape(x) == (ham.n, ham.n):
                    dense_svds.append(_name)
                return _honest(x, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        checks = verify.run_suite(ham)
        return calls, len(dense_svds), checks

    def test_definite_instance_forms_each_reference_once(self, monkeypatch):
        ham = generate(GeneratorSpec(m=16, seed=0))
        calls, dense_svds, checks = self._count(monkeypatch, ham)
        assert calls == {
            "direct_solve_definite": 1, "rho_sh": 1, "cond_of_h": 1, "materialize": 1,
        }
        # cond(H) from the singular values and kappa at each of the sweep's 3 epsilons
        assert dense_svds <= 4
        assert len(checks) == 11 and all(c.passed for c in checks)

    def test_indefinite_instance_forms_no_definite_reference(self, monkeypatch):
        ham = generate(GeneratorSpec(m=16, seed=0, coupling_ratio=5.0, mode="indefinite"))
        assert ham.definiteness is bsesolve.Definiteness.INDEFINITE
        calls, dense_svds, checks = self._count(monkeypatch, ham)
        assert calls == {
            "direct_solve_definite": 0, "rho_sh": 0, "cond_of_h": 0, "materialize": 1,
        }
        assert dense_svds == 0
        assert len(checks) == 4


class TestBenchCommand:
    def test_reps_and_summary(self, runner, tmp_path):
        a, b = _generate_inputs(runner, tmp_path / "in", m=16, seed=3)
        out = tmp_path / "out"
        result = runner.invoke(
            cli, ["bench", "--a", str(a), "--b", str(b), "--nev", "2",
                  "--reps", "3", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        text = (out / "bench.csv").read_text()
        rows = [l for l in text.splitlines() if not l.startswith(("#", "rep"))]
        per_rep = [r for r in rows if not r.startswith("summary")]
        assert len(per_rep) == 3 * len({r.split(",")[1] for r in per_rep})
        assert any(r.startswith("summary,filter") for r in rows)
        assert "total" in result.output

    def test_reps_checked_before_any_input_is_read(self, runner, tmp_path, monkeypatch):
        # the inputs were read first: missing files exited 3, not 2
        opened = []
        monkeypatch.setattr(fileio, "run_pair", lambda *args: opened.append(args))
        missing = str(tmp_path / "missing.mtx")
        result = runner.invoke(
            cli, ["bench", "--a", missing, "--b", missing, "--nev", "2", "--reps", "0"],
        )
        assert result.exit_code == 2, result.output
        assert "reps must be >= 1" in result.output
        assert opened == []

    def test_manifest_echoes_every_solver_field(self, runner, tmp_path):
        a, b = _generate_inputs(runner, tmp_path / "in", m=16, seed=3)
        out = tmp_path / "out"
        result = runner.invoke(
            cli, ["bench", "--a", str(a), "--b", str(b), "--nev", "2", "--reps", "1",
                  "--lanczos-steps", "12", "--rel-res", "--rr", "backup",
                  "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert set(config) == {f.name for f in fields(SolverConfig)} | {"reps"}
        assert config["lanczos_steps"] == 12
        assert config["rel_res"] is True and config["rr_variant"] == "backup"
        assert config["nex"] == 2  # resolved from the default, never null

    @pytest.mark.parametrize("command", ["solve", "bench"])
    def test_every_solver_field_is_a_parameter(self, command):
        # both commands build SolverConfig(**options): a field without a
        # parameter of the same name would silently keep its default
        # and each default is SolverConfig's, so the two cannot drift apart
        params = {p.name: p for p in cli.commands[command].params}
        assert {f.name for f in fields(SolverConfig)} <= set(params)
        for f in fields(SolverConfig):
            if f.name != "nev":  # required, no default
                assert params[f.name].default == f.default, f.name

    def test_filter_dominates_modeled_flops(self, runner, tmp_path):
        a, b = _generate_inputs(runner, tmp_path / "in", m=64, seed=1)
        out = tmp_path / "out"
        result = runner.invoke(
            cli, ["bench", "--a", str(a), "--b", str(b), "--nev", "2",
                  "--reps", "1", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        flops = {}
        for line in (out / "bench.csv").read_text().splitlines():
            parts = line.split(",")
            if parts[0] == "0":
                flops[parts[1]] = float(parts[3])
        assert flops["filter"] >= 0.6 * flops["total"]


_ONE_BLAS_SCRIPT = """
import json, sys
from pathlib import Path

import bsesolve, bsesolve.cli
from bsesolve import GeneratorSpec, SolverConfig, generate, solve
from bsesolve.cli import cli

work = Path(sys.argv[1])
mm, pchb = str(work / "mm"), str(work / "pchb")
a, b = str(work / "mm" / "A.mtx"), str(work / "mm" / "B.mtx")
for args in (
    ["generate", "--m", "8", "--seed", "3", "--format", "mm", "--out", mm],
    ["generate", "--m", "8", "--seed", "3", "--format", "pchb", "--out", pchb],
    ["solve", "--a", a, "--b", b, "--nev", "2", "--out", str(work / "solve")],
    ["bench", "--pchb", str(work / "pchb" / "ham.pchb"), "--nev", "2", "--reps", "1",
     "--out", str(work / "bench")],
    ["oracle", "--a", a, "--b", b, "--out", str(work / "oracle")],
    ["verify", "--m", "8", "--seed", "3"],
    ["verify", "--a", a, "--b", b],
):
    cli(args, standalone_mode=False)
converged = solve(generate(GeneratorSpec(m=8, seed=3)), SolverConfig(nev=2)).converged
scipy = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
print(json.dumps({"converged": bool(converged), "scipy": scipy}))
"""


class TestProcessLoadsOneBlas:
    """bsesolve calls numpy.linalg only: no module imports scipy, which
    bundles a second OpenBLAS, and no command loads it."""

    def test_no_module_imports_scipy(self):
        # anywhere in a module: at its top, inside a function or a branch
        found = []
        for path in sorted(Path(bsesolve.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module or ""]
                else:
                    continue
                found += [
                    f"{path.name}:{node.lineno} {name}"
                    for name in names if name.split(".")[0] == "scipy"
                ]
        assert found == []

    def test_no_command_loads_scipy(self, tmp_path):
        # in a fresh interpreter, because the test process has scipy loaded
        env = dict(os.environ)
        src = str(Path(bsesolve.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.run(
            [sys.executable, "-c", _ONE_BLAS_SCRIPT, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        assert report["converged"]
        assert report["scipy"] == []
        rows = [
            line.split(",")
            for line in (tmp_path / "oracle" / "eigenvalues.csv").read_text().splitlines()
            if line and not line.startswith(("#", "index"))
        ]
        lams = np.array([float(r[1]) for r in rows])
        res = np.array([float(r[2]) for r in rows])
        assert len(rows) == 16
        assert res.max() <= 1e-10 * np.abs(lams).max()
