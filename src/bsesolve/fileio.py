"""File formats: Matrix Market blocks, PCHB/PCHV binaries, CSV reports.

All text formats round-trip bit-exactly: floats are written with 17
significant digits, which reparse to the identical double, so
write -> read -> write is byte identical.  Binary layouts are little
endian and column major.  docs/FORMATS.md holds the byte-level contract.

Formatting or parsing a Matrix Market file is Python and numpy text work
on one core.  The CLI reads and writes the A/B pair in two processes with
`run_pair`: the first file in the calling process, the second in one forked
worker.  The worker only parses, formats and hashes, and never calls BLAS.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import struct
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ValidationError
from .hamiltonian import BseHamiltonian, as_complex_matrix
from .solver import SolveResult

_MM_HEADER = "%%MatrixMarket matrix array complex general"
_PCHB_MAGIC = b"PCHB"
_PCHV_MAGIC = b"PCHV"
_FORMAT_VERSION = 1
#: Matrix Market entry lines parsed per np.loadtxt call; bounds the memory
#: the line strings take while a block is read.
_MM_CHUNK = 1024


def digest64(path: str | Path) -> str:
    """64-bit content digest (blake2b-8) as 16 hex characters."""
    h = hashlib.blake2b(digest_size=8)
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def run_pair(fn, first: tuple, second: tuple) -> tuple:
    """(fn(*first), fn(*second)), the second call in a forked worker process.

    fn, its arguments and its result must pickle.  An exception from either
    call is raised here with its type and message, the first call's first.
    The worker is forked, not spawned, so that it inherits the imports: a
    spawned one would import numpy again, about 0.25 s.  The forked child
    holds only the forking thread, none of OpenBLAS's, so fn must not call
    BLAS; Python >= 3.12 warns (DeprecationWarning) about forking a process
    that has threads.  Where fork does not exist, both calls run here, one
    after the other.
    """
    # imported here: about 12 ms that only the Matrix Market pair pays
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if "fork" not in multiprocessing.get_all_start_methods():
        return fn(*first), fn(*second)
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        later = pool.submit(fn, *second)
        return fn(*first), later.result()


# ---------------------------------------------------------------- matrix market

def write_matrix_market(path: str | Path, matrix, comment: str | None = None) -> None:
    """Write one complex matrix as a Matrix Market array file (column major)."""
    a = as_complex_matrix(matrix, "matrix")
    with open(path, "w", newline="\n") as fh:
        fh.write(_MM_HEADER + "\n")
        if comment:
            for line in comment.splitlines():
                fh.write(f"%{line}\n")
        fh.write(f"{a.shape[0]} {a.shape[1]}\n")
        # one column per write: interleaved (re, im) pairs, one line each
        entry = "%.17e %.17e\n" * a.shape[0]
        for j in range(a.shape[1]):
            fh.write(entry % tuple(a[:, j].view(np.float64).tolist()))


def _parse_entries(fh, count: int) -> np.ndarray:
    """The next count entry lines of fh as a (count, 2) float64 array."""
    lines = list(itertools.islice(fh, count))
    if len(lines) < count:
        raise ValidationError(f"truncated: {len(lines)} of the next {count} entry lines")
    try:
        pairs = np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)
    except ValueError as exc:
        raise ValidationError(f"malformed entry: {exc}") from exc
    if pairs.shape != (count, 2):
        # a blank line yields no row; a uniform token count other than 2 parses
        raise ValidationError(
            f"expected {count} entries of 2 tokens, got shape {pairs.shape}"
        )
    return pairs


def read_matrix_market(path: str | Path) -> np.ndarray:
    """Read a complex array Matrix Market file written by this package."""
    # latin-1 decodes every byte, so a comment line is free text and consumed
    # counts bytes (less the \r of a \r\n, which universal newlines drop)
    with open(path, encoding="latin-1") as fh:
        header = fh.readline()
        consumed = len(header)
        header = header.strip()
        tokens = header.lower().split()
        if len(tokens) != 5 or tokens[0] != "%%matrixmarket" or tokens[1:] != [
            "matrix", "array", "complex", "general",
        ]:
            raise ValidationError(f"unsupported Matrix Market header: {header!r}")
        line = fh.readline()
        consumed += len(line)
        while line.startswith("%"):
            line = fh.readline()
            consumed += len(line)
        try:
            rows, cols = (int(t) for t in line.split())
        except ValueError as exc:
            raise ValidationError(f"malformed size line: {line!r}") from exc
        if rows < 0 or cols < 0:
            raise ValidationError(f"malformed size line: {line!r}")
        count = rows * cols
        # an entry line takes at least 4 bytes ("x y" and its newline, which
        # the last line may lack): reject what cannot fit before allocating
        remaining = os.fstat(fh.fileno()).st_size - consumed
        if count and 4 * count - 1 > remaining:
            raise ValidationError(
                f"truncated: {rows} x {cols} entries cannot fit in the {remaining} bytes "
                "after the size line"
            )
        pairs = np.empty((count, 2), dtype=np.float64)
        for start in range(0, count, _MM_CHUNK):
            stop = min(start + _MM_CHUNK, count)
            pairs[start:stop] = _parse_entries(fh, stop - start)
        if any(line.strip() for line in fh):
            raise ValidationError(f"data after the {rows} x {cols} entries")
    data = pairs.view(np.complex128).reshape(count)
    return np.asfortranarray(data.reshape((rows, cols), order="F"))


def read_matrix_market_digest(path: str | Path) -> tuple[np.ndarray, str]:
    """read_matrix_market(path) and digest64(path), the CLI's job per input file."""
    return read_matrix_market(path), digest64(path)


# ------------------------------------------------------------------ pchb binary

def _read_exact(fh, size: int, what: str) -> bytes:
    data = fh.read(size)
    if len(data) != size:
        raise ValidationError(f"truncated: {what} needs {size} bytes, the file has {len(data)}")
    return data


def _check_length(fh, size: int, what: str) -> None:
    """Reject a file of another size than its header declares, before reading it."""
    actual = os.fstat(fh.fileno()).st_size
    if actual != size:
        kind = "truncated" if actual < size else "trailing data"
        raise ValidationError(f"{kind}: a {what} takes {size} bytes, the file has {actual}")


def write_pchb(path: str | Path, ham: BseHamiltonian) -> None:
    """Compact binary: magic, version, m, then A and B column major LE."""
    with open(path, "wb") as fh:
        fh.write(_PCHB_MAGIC)
        fh.write(struct.pack("<IQ", _FORMAT_VERSION, ham.m))
        for block in (ham.a, ham.b):
            # a view of the F-order complex128 block on a little-endian host:
            # its buffer is written as it lies, with no copy
            fh.write(np.asfortranarray(block, dtype="<c16").T.data)


def read_pchb(path: str | Path) -> BseHamiltonian:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _PCHB_MAGIC:
            raise ValidationError(f"not a PCHB file (magic {magic!r})")
        version, m = struct.unpack("<IQ", _read_exact(fh, 12, "PCHB header"))
        if version != _FORMAT_VERSION:
            raise ValidationError(f"unsupported PCHB version {version}")
        count = m * m
        _check_length(fh, 16 + 32 * count, f"PCHB with m = {m}")
        a = np.frombuffer(fh.read(16 * count), dtype="<c16", count=count)
        b = np.frombuffer(fh.read(16 * count), dtype="<c16", count=count)
    a = np.asfortranarray(a.reshape((m, m), order="F"))
    b = np.asfortranarray(b.reshape((m, m), order="F"))
    return BseHamiltonian(a, b)


def write_pchv(path: str | Path, vectors: np.ndarray) -> None:
    """Eigenvector dump: magic, version, n, k, data column major LE."""
    v = as_complex_matrix(vectors, "vectors")
    with open(path, "wb") as fh:
        fh.write(_PCHV_MAGIC)
        fh.write(struct.pack("<IQQ", _FORMAT_VERSION, v.shape[0], v.shape[1]))
        fh.write(v.astype("<c16").tobytes(order="F"))


def read_pchv(path: str | Path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _PCHV_MAGIC:
            raise ValidationError(f"not a PCHV file (magic {magic!r})")
        version, n, k = struct.unpack("<IQQ", _read_exact(fh, 20, "PCHV header"))
        if version != _FORMAT_VERSION:
            raise ValidationError(f"unsupported PCHV version {version}")
        _check_length(fh, 24 + 16 * n * k, f"PCHV with n = {n}, k = {k}")
        data = np.frombuffer(fh.read(16 * n * k), dtype="<c16", count=n * k)
    return np.asfortranarray(data.reshape((n, k), order="F"))


# -------------------------------------------------------------------- csv & co.

def write_eigenvalues_csv(
    path: str | Path,
    lambdas,
    residual_norms,
    input_digest: str,
    converged: bool = True,
) -> None:
    """Eigenvalues with 17 significant digits, one row per pair."""
    lambdas = np.asarray(lambdas)
    residual_norms = np.asarray(residual_norms)
    with open(path, "w", newline="\n") as fh:
        fh.write("# bsesolve eigenvalues v1\n")
        fh.write("# manifest: manifest.json\n")
        fh.write(f"# input_digest: {input_digest}\n")
        fh.write(f"# converged: {str(converged).lower()}\n")
        fh.write("index,eigenvalue,residual\n")
        for i, (lam, res) in enumerate(zip(lambdas, residual_norms)):
            fh.write(f"{i},{lam:.17g},{res:.17g}\n")


def write_trace_csv(path: str | Path, result: SolveResult, input_digest: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("# bsesolve trace v1\n")
        fh.write("# manifest: manifest.json\n")
        fh.write(f"# input_digest: {input_digest}\n")
        fh.write(
            f"# mu_1: {result.bounds.mu_1:.17g}\n"
            f"# mu_n: {result.bounds.mu_n:.17g}\n"
            f"# converged: {str(result.converged).lower()}\n"
        )
        fh.write(
            "iter,locked,k,max_res,min_res_unlocked,mu_nevex,variant,lambda_min_M,flops,"
            "precision,filter_s,ortho_s,rr_s,residuals_s\n"
        )
        for row in result.trace:
            fh.write(
                f"{row.it},{row.locked},{row.k},{row.max_res:.17g},"
                f"{row.min_res_unlocked:.17g},{row.mu_nevex:.17g},{row.variant},"
                f"{row.lambda_min_m:.17g},{row.flops:.0f},{row.precision},"
                f"{row.filter_s:.6f},{row.ortho_s:.6f},{row.rr_s:.6f},{row.residuals_s:.6f}\n"
            )


def write_manifest(
    path: str | Path,
    command: str,
    config: dict,
    inputs: dict[str, str],
    outputs: list[str],
    seed: int | None,
) -> None:
    """Replay record referenced by every output file of a run."""
    manifest = {
        "tool": "bsesolve",
        "version": __version__,
        "command": command,
        "config": config,
        "inputs": inputs,
        "outputs": outputs,
        "seed": seed,
        "written_utc": datetime.now(timezone.utc).isoformat(),
    }
    with open(path, "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
