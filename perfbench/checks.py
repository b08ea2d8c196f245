"""Checks of solve results made apart from bsesolve (numpy and scipy only).

H = [[A, B], [-conj(B), -conj(A)]] with S H = [[A, B], [conj(B), conj(A)]]
hermitian positive definite.  A result of nev pairs (lambda_i, v_i) passes
when

* it has nev finite, ascending, negative values and unit vectors;
* every residual ||H v_i - lambda_i v_i||_2, recomputed here with a plain
  block product, is <= tol;
* the pairs are distinct: |v_i* S v_j| <= DISTINCT_COS sqrt(|v_i* S v_i|
  |v_j* S v_j|) for i != j (eigenvectors of distinct eigenvalues are
  S-orthogonal, a repeated pair has cosine 1);
* a Sylvester inertia count of the hermitian S H - sigma S, from scipy's
  LDL^T, finds exactly nev eigenvalues of H below the shift sigma just above
  the largest returned value, so that no wanted eigenvalue was skipped;
* optionally, each value lies within `pencil_bound` of the eigenvalue of the
  same rank from scipy.linalg.eigh of the pencil (S, S H).

The readers follow docs/FORMATS.md byte for byte and raise FormatError on
any deviation, including a truncated file.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg as sla

EPS = np.finfo(np.float64).eps

#: Largest S-cosine accepted between two returned eigenvectors.
DISTINCT_COS = 1e-3

#: Unit-norm tolerance of the returned eigenvectors.
NORM_TOL = 1e-10


class FormatError(ValueError):
    """An output or input file deviates from docs/FORMATS.md."""


# ------------------------------------------------------------ linear algebra

def h_times(a: np.ndarray, b: np.ndarray, v: np.ndarray) -> np.ndarray:
    """H v by the block product [A v1 + B v2; -conj(B) v1 - conj(A) v2]."""
    m = a.shape[0]
    v1, v2 = v[:m], v[m:]
    return np.concatenate([a @ v1 + b @ v2, -(b.conj() @ v1) - (a.conj() @ v2)])


def sh_dense(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.block([[a, b], [b.conj(), a.conj()]])


def s_diag(m: int) -> np.ndarray:
    return np.concatenate([np.ones(m), -np.ones(m)])


def count_below(a: np.ndarray, b: np.ndarray, sigma: float) -> int:
    """Number of eigenvalues of H below sigma < 0, by Sylvester's law.

    With V* (S H) V = I and V* S V = diag(1/lambda), the congruence
    V* (S H - sigma S) V = diag(1 - sigma/lambda) has a negative entry
    exactly for the eigenvalues in (sigma, 0).  The spectrum is symmetric
    with m negative eigenvalues, so m minus that count lie below sigma.
    """
    if not sigma < 0:
        raise ValueError(f"shift must be negative, got {sigma}")
    m = a.shape[0]
    mat = sh_dense(a, b) - np.diag(sigma * s_diag(m))
    _, d, _ = sla.ldl(mat, lower=True, hermitian=True)
    # D is hermitian block diagonal with 1x1 and 2x2 blocks, so tridiagonal;
    # |off-diagonal| gives a unitarily similar real tridiagonal
    eig = sla.eigvalsh_tridiagonal(np.real(np.diag(d)), np.abs(np.diag(d, -1)))
    return m - int(np.count_nonzero(eig < 0))


@dataclass(frozen=True)
class Instance:
    """The blocks of one input and the spectral data the checks need."""

    a: np.ndarray
    b: np.ndarray
    sh_min: float  # smallest eigenvalue of S H
    sh_max: float

    @classmethod
    def from_blocks(cls, a: np.ndarray, b: np.ndarray) -> "Instance":
        eig = sla.eigvalsh(sh_dense(a, b))
        if not eig[0] > 0:
            raise ValueError(f"S H is not positive definite (lambda_min {eig[0]:.3e})")
        return cls(a=a, b=b, sh_min=float(eig[0]), sh_max=float(eig[-1]))

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def kappa(self) -> float:
        return self.sh_max / self.sh_min

    def shift_margin(self, tol: float) -> float:
        """How far above the largest returned value the inertia shift sits:
        ten times the error bound sqrt(kappa) * tol of a value whose residual
        is tol (H is self-adjoint in the S H inner product)."""
        return 10.0 * np.sqrt(self.kappa) * tol

    def pencil_lambdas(self, nev: int) -> np.ndarray:
        """The nev smallest eigenvalues of H from eigh of the pencil (S, S H),
        whose eigenvalues are 1/lambda."""
        s = np.diag(s_diag(self.m)).astype(np.complex128)
        mu = sla.eigh(s, sh_dense(self.a, self.b), eigvals_only=True)
        return np.sort(1.0 / mu[mu < 0])[:nev]

    def pencil_bound(self, lambdas: np.ndarray, tol: float) -> np.ndarray:
        """|computed - reference| allowed per value: sqrt(kappa) tol, the
        error bound of a value whose residual is at most tol, plus
        n eps lambda^2 / lambda_min(S H), the eigh error bound
        p(n) eps ||S|| ||(S H)^-1|| on mu = 1/lambda carried over to lambda,
        with p(n) = n."""
        n = 2 * self.m
        return np.sqrt(self.kappa) * tol + n * EPS * lambdas**2 / self.sh_min


def check_pairs(
    inst: Instance,
    lambdas: np.ndarray,
    v: np.ndarray,
    nev: int,
    tol: float,
    reference: np.ndarray | None = None,
    inertia_cache: dict | None = None,
) -> list[str]:
    """Problems found in one result; an empty list means it passed."""
    lambdas = np.asarray(lambdas, dtype=np.float64)
    v = np.asarray(v, dtype=np.complex128)
    n = 2 * inst.m
    if lambdas.shape != (nev,) or v.shape != (n, nev):
        return [f"shape: {lambdas.shape} values, {v.shape} vectors, expected {nev} x n={n}"]
    if not (np.all(np.isfinite(lambdas)) and np.all(np.isfinite(v))):
        return ["non-finite values or vectors"]
    problems = []
    if np.any(np.diff(lambdas) < 0):
        problems.append("values are not ascending")
    norms = np.linalg.norm(v, axis=0)
    if np.abs(norms - 1.0).max() > NORM_TOL:
        problems.append(f"vectors not unit norm (max |norm-1| {np.abs(norms - 1).max():.2e})")
    res = np.linalg.norm(h_times(inst.a, inst.b, v) - v * lambdas, axis=0)
    if res.max() > tol:
        problems.append(f"recomputed residual {res.max():.3e} > tol {tol:.1e}")
    gram = v.conj().T @ (v * s_diag(inst.m)[:, None])
    scale = np.sqrt(np.abs(np.diag(gram)))
    cos = np.abs(gram) / np.outer(scale, scale)
    np.fill_diagonal(cos, 0.0)
    if cos.max() > DISTINCT_COS:
        problems.append(f"pairs not distinct (S-cosine {cos.max():.3e})")
    sigma = float(lambdas[-1] + inst.shift_margin(tol))
    if not sigma < 0:
        problems.append(f"largest value {lambdas[-1]:.6g} is not among the negative half")
    else:
        cache = {} if inertia_cache is None else inertia_cache
        if sigma not in cache:
            cache[sigma] = count_below(inst.a, inst.b, sigma)
        if cache[sigma] != nev:
            problems.append(
                f"inertia: {cache[sigma]} eigenvalues below {sigma:.10g}, expected {nev}"
            )
    if reference is not None:
        err = np.abs(lambdas - reference)
        bound = inst.pencil_bound(reference, tol)
        if np.any(err > bound):
            i = int(np.argmax(err - bound))
            problems.append(
                f"value {i} differs from eigh of the pencil by {err[i]:.3e} > {bound[i]:.3e}"
            )
    return problems


# --------------------------------------------------------------- file readers

def read_mtx(path: Path) -> np.ndarray:
    """Complex array Matrix Market file, column major."""
    with open(path) as fh:
        header = fh.readline().split()
        if [t.lower() for t in header] != [
            "%%matrixmarket", "matrix", "array", "complex", "general",
        ]:
            raise FormatError(f"{path}: bad header {header}")
        line = fh.readline()
        while line.startswith("%"):
            line = fh.readline()
        size = line.split()
        if len(size) != 2:
            raise FormatError(f"{path}: bad size line {line!r}")
        rows, cols = int(size[0]), int(size[1])
        tokens = fh.read().split()
    if len(tokens) != 2 * rows * cols:
        raise FormatError(f"{path}: {len(tokens)} numbers, expected {2 * rows * cols}")
    vals = np.array([float(t) for t in tokens]).view(np.complex128)
    return vals.reshape((rows, cols), order="F")


def read_pchv(path: Path) -> np.ndarray:
    data = Path(path).read_bytes()
    if len(data) < 24 or data[:4] != b"PCHV":
        raise FormatError(f"{path}: not a PCHV file")
    version, n, k = struct.unpack("<IQQ", data[4:24])
    if version != 1:
        raise FormatError(f"{path}: version {version}")
    if len(data) != 24 + 16 * n * k:
        raise FormatError(f"{path}: {len(data)} bytes, expected {24 + 16 * n * k}")
    return np.frombuffer(data[24:], dtype="<c16").reshape((n, k), order="F")


@dataclass(frozen=True)
class EigenvaluesCsv:
    input_digest: str
    converged: bool
    lambdas: np.ndarray
    residuals: np.ndarray


def read_eigenvalues_csv(path: Path) -> EigenvaluesCsv:
    lines = Path(path).read_text().split("\n")
    if lines[-1] != "":
        raise FormatError(f"{path}: no final newline")
    lines = lines[:-1]
    fixed = ["# bsesolve eigenvalues v1", "# manifest: manifest.json"]
    if len(lines) < 5 or lines[:2] != fixed or lines[4] != "index,eigenvalue,residual":
        raise FormatError(f"{path}: bad header")
    if not lines[2].startswith("# input_digest: ") or lines[3] not in (
        "# converged: true", "# converged: false",
    ):
        raise FormatError(f"{path}: bad digest or converged line")
    rows = [line.split(",") for line in lines[5:]]
    if any(len(r) != 3 for r in rows) or [r[0] for r in rows] != [
        str(i) for i in range(len(rows))
    ]:
        raise FormatError(f"{path}: bad rows")
    return EigenvaluesCsv(
        input_digest=lines[2][len("# input_digest: "):],
        converged=lines[3] == "# converged: true",
        lambdas=np.array([float(r[1]) for r in rows]),
        residuals=np.array([float(r[2]) for r in rows]),
    )


def digest64(path: Path) -> str:
    """blake2b with an 8-byte digest of the file bytes, as 16 hex digits."""
    return hashlib.blake2b(Path(path).read_bytes(), digest_size=8).hexdigest()


def same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    x = np.ascontiguousarray(x, dtype=np.complex128)
    y = np.ascontiguousarray(y, dtype=np.complex128)
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


def check_cli_outputs(
    out_dir: Path,
    exit_code: int,
    input_paths: list[Path],
    inst: Instance,
    nev: int,
    tol: float,
    inertia_cache: dict | None = None,
) -> list[str]:
    """Problems in one `bsesolve solve` run directory."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        csv = read_eigenvalues_csv(out_dir / "eigenvalues.csv")
        v = read_pchv(out_dir / "eigenvectors.bin")
    except (OSError, FormatError) as exc:
        return [f"unreadable output: {exc}"]
    problems = []
    if not csv.converged:
        problems.append("eigenvalues.csv says converged: false")
    expected = "+".join(digest64(p) for p in sorted(input_paths, key=str))
    if csv.input_digest != expected:
        problems.append(f"input digest {csv.input_digest} != {expected}")
    return problems + check_pairs(inst, csv.lambdas, v, nev, tol, None, inertia_cache)
