import multiprocessing
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest

from bsesolve import GeneratorSpec, ValidationError, generate
from bsesolve import fileio


def _ham(seed=0, m=5):
    return generate(GeneratorSpec(m=m, seed=seed))


class TestMatrixMarket:
    def test_round_trip_is_byte_identical(self, tmp_path):
        ham = _ham(3)
        p1, p2 = tmp_path / "a1.mtx", tmp_path / "a2.mtx"
        fileio.write_matrix_market(p1, ham.a)
        back = fileio.read_matrix_market(p1)
        np.testing.assert_array_equal(back, ham.a)
        fileio.write_matrix_market(p2, back)
        assert p1.read_bytes() == p2.read_bytes()

    def test_comments_are_skipped(self, tmp_path):
        p = tmp_path / "c.mtx"
        fileio.write_matrix_market(p, np.array([[1 + 2j]]), comment="hello\nworld")
        np.testing.assert_array_equal(fileio.read_matrix_market(p), [[1 + 2j]])

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bad.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n1 1\n1.0\n")
        with pytest.raises(ValidationError):
            fileio.read_matrix_market(p)

    def test_malformed_entry_rejected(self, tmp_path):
        p = tmp_path / "bad2.mtx"
        p.write_text("%%MatrixMarket matrix array complex general\n1 1\n1.0\n")
        with pytest.raises(ValidationError):
            fileio.read_matrix_market(p)

    def test_writer_bytes_equal_per_entry_formatting(self, tmp_path):
        values = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                  1.0 / 3.0, -2.5e-310, 0.0, 1e22]
        z = np.array(values[:4]) + 1j * np.array(values[4:])
        a = np.stack([z, z[::-1], -z]).T  # 4 x 3, mixed signs
        p = tmp_path / "edge.mtx"
        fileio.write_matrix_market(p, a, comment="edge")
        body = "".join(
            f"{a[i, j].real:.17e} {a[i, j].imag:.17e}\n"
            for j in range(a.shape[1])
            for i in range(a.shape[0])
        )
        expected = "%%MatrixMarket matrix array complex general\n%edge\n4 3\n" + body
        assert p.read_bytes() == expected.encode()
        back = fileio.read_matrix_market(p)
        assert back.tobytes() == np.asfortranarray(a).tobytes()

    @pytest.mark.parametrize(
        "body",
        [
            "2 1\n1.0 2.0\n1.0 2.0 3.0\n",  # three tokens on one line
            "2 1\n1.0 2.0 3.0\n1.0 2.0 3.0\n",  # three tokens on every line
            "2 1\n1.0\n1.0\n",  # one token on every line
            "2 1\n1.0 2.0\n\n1.0 2.0\n",  # a blank line in the entries
        ],
        ids=["three_tokens", "three_tokens_everywhere", "one_token", "blank_line"],
    )
    def test_entry_lines_of_other_than_two_tokens_rejected(self, tmp_path, body):
        p = tmp_path / "tokens.mtx"
        p.write_text("%%MatrixMarket matrix array complex general\n" + body)
        with pytest.raises(ValidationError):
            fileio.read_matrix_market(p)

    def test_round_trip_across_parse_chunks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fileio, "_MM_CHUNK", 4)
        a = _ham(6, m=5).a  # 25 entries: six full chunks and one short one
        p = tmp_path / "chunks.mtx"
        fileio.write_matrix_market(p, a)
        np.testing.assert_array_equal(fileio.read_matrix_market(p), a)
        lines = p.read_text().splitlines(keepends=True)
        (tmp_path / "short.mtx").write_text("".join(lines[:-1]))
        with pytest.raises(ValidationError):
            fileio.read_matrix_market(tmp_path / "short.mtx")

    def test_non_numeric_token_rejected(self, tmp_path):
        p = tmp_path / "nan.mtx"
        p.write_text("%%MatrixMarket matrix array complex general\n2 1\n1.0 abc\n1.0 2.0\n")
        with pytest.raises(ValidationError):
            fileio.read_matrix_market(p)

    @pytest.mark.parametrize("entries", [0, 3])
    def test_truncated_file_rejected(self, tmp_path, entries):
        p = tmp_path / "short.mtx"
        p.write_text(
            "%%MatrixMarket matrix array complex general\n2 2\n" + "1.0 2.0\n" * entries
        )
        with pytest.raises(ValidationError):
            fileio.read_matrix_market(p)

    def test_negative_size_rejected(self, tmp_path):
        p = tmp_path / "neg.mtx"
        p.write_text("%%MatrixMarket matrix array complex general\n-1 2\n")
        with pytest.raises(ValidationError):
            fileio.read_matrix_market(p)


    def test_size_line_larger_than_the_body_rejected_before_allocating(self, tmp_path):
        p = tmp_path / "huge.mtx"
        p.write_text("%%MatrixMarket matrix array complex general\n1000000 1000000\n1.0 2.0\n")
        with pytest.raises(ValidationError, match="cannot fit"):
            fileio.read_matrix_market(p)

    def test_data_after_the_declared_entries_rejected(self, tmp_path):
        # a fifth entry line under a 2 x 2 size line was read as the first four
        header = "%%MatrixMarket matrix array complex general\n2 2\n"
        p = tmp_path / "long.mtx"
        p.write_text(header + "1.0 2.0\n" * 5)
        with pytest.raises(ValidationError, match="after the 2 x 2 entries"):
            fileio.read_matrix_market(p)
        p.write_text(header + "1.0 2.0\n" * 4 + "\n  \n")  # blank lines may follow
        np.testing.assert_array_equal(fileio.read_matrix_market(p), np.full((2, 2), 1 + 2j))

    def test_shortest_entry_lines_fit(self, tmp_path):
        p = tmp_path / "short_lines.mtx"
        p.write_text("%%MatrixMarket matrix array complex general\n2 1\n1 2\n3 4")
        np.testing.assert_array_equal(fileio.read_matrix_market(p), [[1 + 2j], [3 + 4j]])

    def test_non_utf8_comment_is_free_text(self, tmp_path):
        p = tmp_path / "latin.mtx"
        p.write_bytes(b"%%MatrixMarket matrix array complex general\n%caf\xe9 \xff\n1 1\n1 2\n")
        np.testing.assert_array_equal(fileio.read_matrix_market(p), [[1 + 2j]])

    @pytest.mark.parametrize("entry", [b"1.\xff0 2.0", b"1.0 2.0\xff", b"1.\xa00 2.0"],
                             ids=["ff_in_a_number", "ff_after_a_number", "a0_in_a_number"])
    def test_non_utf8_byte_in_an_entry_rejected(self, tmp_path, entry):
        p = tmp_path / "latin.mtx"
        p.write_bytes(b"%%MatrixMarket matrix array complex general\n1 1\n" + entry + b"\n")
        with pytest.raises(ValidationError):
            fileio.read_matrix_market(p)

    def test_a0_between_numbers_separates_them(self, tmp_path):
        # latin-1 decodes 0xA0 to U+00A0, which loadtxt splits on as whitespace
        p = tmp_path / "nbsp.mtx"
        p.write_bytes(b"%%MatrixMarket matrix array complex general\n1 1\n1.0\xa02.0\n")
        np.testing.assert_array_equal(fileio.read_matrix_market(p), [[1 + 2j]])


class TestRunPair:
    def test_results_come_back_in_argument_order(self):
        assert fileio.run_pair(divmod, (7, 2), (9, 4)) == ((3, 1), (2, 1))
        here, worker = fileio.run_pair(os.getpid, (), ())
        assert here == os.getpid() != worker
        assert multiprocessing.active_children() == []

    def test_exceptions_keep_type_and_message_from_either_side(self, tmp_path):
        good, bad = tmp_path / "good.mtx", tmp_path / "bad.mtx"
        fileio.write_matrix_market(good, np.eye(2))
        bad.write_text("%%MatrixMarket matrix array complex general\n2 1\n1.0 2.0\n")
        missing = tmp_path / "missing.mtx"
        read = fileio.read_matrix_market
        for args in ((bad,), (good,)), ((good,), (bad,)):
            with pytest.raises(ValidationError, match="^truncated: 1 of the next 2 entry lines$"):
                fileio.run_pair(read, *args)
        with pytest.raises(FileNotFoundError, match=re.escape(str(missing))):
            fileio.run_pair(read, (good,), (missing,))
        with pytest.raises(FileNotFoundError):  # both fail: the first call's error
            fileio.run_pair(read, (missing,), (bad,))
        assert multiprocessing.active_children() == []

    def test_without_fork_both_calls_run_here(self, tmp_path, monkeypatch):
        paths = tmp_path / "a.mtx", tmp_path / "b.mtx"
        ham = _ham(4, m=6)
        fileio.run_pair(fileio.write_matrix_market, (paths[0], ham.a), (paths[1], ham.b))
        forked = fileio.run_pair(fileio.read_matrix_market_digest, (paths[0],), (paths[1],))
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert fileio.run_pair(os.getpid, (), ()) == (os.getpid(), os.getpid())
        here = fileio.run_pair(fileio.read_matrix_market_digest, (paths[0],), (paths[1],))
        for (block, digest), (block_here, digest_here), ref, path in zip(
            forked, here, (ham.a, ham.b), paths
        ):
            assert block.tobytes() == block_here.tobytes() == np.asfortranarray(ref).tobytes()
            assert digest == digest_here == fileio.digest64(path)


def _truncations(path, header_bytes):
    """Copies of path cut inside the header, at its end and inside the data."""
    data = path.read_bytes()
    for cut in (header_bytes - 3, header_bytes, len(data) - 1):
        short = path.with_name(f"cut{cut}_{path.name}")
        short.write_bytes(data[:cut])
        yield short


class TestPchb:
    def test_truncated_file_rejected(self, tmp_path):
        p = tmp_path / "h.pchb"
        fileio.write_pchb(p, _ham(4))
        for short in _truncations(p, 16):
            with pytest.raises(ValidationError, match="truncated"):
                fileio.read_pchb(short)

    def test_trailing_bytes_rejected(self, tmp_path):
        p = tmp_path / "h.pchb"
        fileio.write_pchb(p, _ham(4))
        p.write_bytes(p.read_bytes() + b"\0" * 7)
        with pytest.raises(ValidationError, match="trailing data"):
            fileio.read_pchb(p)

    def test_round_trip_bit_identical(self, tmp_path):
        ham = _ham(4)
        p = tmp_path / "h.pchb"
        fileio.write_pchb(p, ham)
        back = fileio.read_pchb(p)
        np.testing.assert_array_equal(back.a, ham.a)
        np.testing.assert_array_equal(back.b, ham.b)
        p2 = tmp_path / "h2.pchb"
        fileio.write_pchb(p2, back)
        assert p.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("m", [1, 5, 130])
    def test_bytes_are_the_little_endian_column_major_blocks(self, tmp_path, m):
        ham = _ham(2, m)
        p = tmp_path / "h.pchb"
        fileio.write_pchb(p, ham)
        expected = b"".join([
            b"PCHB", struct.pack("<IQ", 1, m),
            ham.a.astype("<c16").tobytes(order="F"),
            ham.b.astype("<c16").tobytes(order="F"),
        ])
        assert p.read_bytes() == expected

    def test_writing_copies_no_block(self, tmp_path):
        ham = _ham(1, 256)
        tracemalloc.start()
        try:
            fileio.write_pchb(tmp_path / "h.pchb", ham)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # astype plus tobytes allocated two copies of each block
        assert peak < ham.a.nbytes / 4

    def test_magic_checked(self, tmp_path):
        p = tmp_path / "x.pchb"
        p.write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(ValidationError):
            fileio.read_pchb(p)

    def test_digest_is_deterministic(self, tmp_path):
        ham = _ham(5)
        p1, p2 = tmp_path / "d1.pchb", tmp_path / "d2.pchb"
        fileio.write_pchb(p1, ham)
        fileio.write_pchb(p2, ham)
        assert fileio.digest64(p1) == fileio.digest64(p2)
        assert len(fileio.digest64(p1)) == 16


class TestPchv:
    def test_round_trip(self, tmp_path):
        v = np.arange(12, dtype=complex).reshape(4, 3) * (1 - 0.5j)
        p = tmp_path / "v.bin"
        fileio.write_pchv(p, v)
        np.testing.assert_array_equal(fileio.read_pchv(p), v)

    def test_truncated_file_rejected(self, tmp_path):
        p = tmp_path / "v.bin"
        fileio.write_pchv(p, np.ones((4, 3), dtype=complex))
        for short in _truncations(p, 24):
            with pytest.raises(ValidationError, match="truncated"):
                fileio.read_pchv(short)

    def test_trailing_bytes_rejected(self, tmp_path):
        p = tmp_path / "v.bin"
        fileio.write_pchv(p, np.ones((4, 3), dtype=complex))
        p.write_bytes(p.read_bytes() + b"\0" * 7)
        with pytest.raises(ValidationError, match="trailing data"):
            fileio.read_pchv(p)


class TestCsv:
    def test_eigenvalues_survive_17_digit_round_trip(self, tmp_path):
        lams = np.array([-1.9364916731037085, 1e-300, 0.1 + 2.0 / 3.0])
        res = np.array([1e-12, 0.0, 3.5e-9])
        p = tmp_path / "e.csv"
        fileio.write_eigenvalues_csv(p, lams, res, "ab" * 8)
        rows = [
            line.split(",")
            for line in p.read_text().splitlines()
            if line and not line.startswith(("#", "index"))
        ]
        back = np.array([float(r[1]) for r in rows])
        np.testing.assert_array_equal(back, lams)
        assert "# input_digest: " + "ab" * 8 in p.read_text()

    def test_trace_csv_columns(self, tmp_path):
        ham = _ham(6, m=16)
        from bsesolve import SolverConfig, solve

        result = solve(ham, SolverConfig(nev=2, seed=6))
        p = tmp_path / "t.csv"
        fileio.write_trace_csv(p, result, "00" * 8)
        lines = [l for l in p.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == (
            "iter,locked,k,max_res,min_res_unlocked,mu_nevex,variant,"
            "lambda_min_M,flops,precision,filter_s,ortho_s,rr_s,residuals_s"
        )
        assert len(lines) == 1 + len(result.trace)

    def test_manifest_fields(self, tmp_path):
        import json

        p = tmp_path / "manifest.json"
        fileio.write_manifest(p, "solve", {"nev": 2}, {"a": "00" * 8}, ["x.csv"], 7)
        doc = json.loads(p.read_text())
        assert doc["command"] == "solve"
        assert doc["seed"] == 7
        assert doc["inputs"] == {"a": "00" * 8}
        assert "written_utc" in doc
