"""Block storage for BSE-type Hamiltonians and the implicit S/K/J operators.

A Hamiltonian H = [[A, B], [-conj(B), -conj(A)]] with A hermitian and B
symmetric is stored as its two m x m blocks (half the memory of the dense
2m x 2m matrix), plus, once an H-product has run, the real symmetric
n x n form R = Q* (S H) Q with Q = [[I, iI], [I, -iI]] / sqrt(2) (the same
memory again).  It satisfies S H = H* S for the signature operator
S = diag(I, -I), which is never formed: S, K = [[0, I], [I, 0]] and
J = [[0, I], [-I, 0]] act by sign flips and half swaps.

Products run on R: H x = S Q R Q* x, where Q and Q* are sums and sign
flips on the halves of x and R Q* x is one real GEMM, 4*n^2*k real FLOPs
for k columns (the four complex m x m block products it replaces cost
8*n^2*k).  R = R^T holds exactly because construction makes A exactly
hermitian and B exactly symmetric; the product kernel relies on it.
Since Q* S Q = i J, Q* H Q = i J R: the Chebyshev filter stays in the real
block coordinates of `to_real_block` for a whole polynomial and converts
back only at its end (see `chebyshev`).  R is the one n x n array a
Hamiltonian keeps; a solve casts its own float32 copy for the filter and
drops it on return.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .metrics import PhaseLedger

logger = logging.getLogger(__name__)

#: Relative max-norm defect accepted (and silently repaired) on the block
#: symmetries; anything larger is rejected as malformed input.
SYMMETRY_RTOL = 1e-12


class Definiteness(enum.Enum):
    UNKNOWN = "unknown"
    DEFINITE = "definite"
    INDEFINITE = "indefinite"


def as_complex_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite complex128 column-major 2-D array."""
    arr = np.asfortranarray(a, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def _symmetrize(block: np.ndarray, pair: np.ndarray, name: str, kind: str) -> np.ndarray:
    """Accept small symmetry defects, repair them, reject large ones."""
    scale = np.abs(block).max() if block.size else 0.0
    defect = np.abs(block - pair).max() if block.size else 0.0
    if defect == 0.0:
        return block
    if scale > 0.0 and defect > SYMMETRY_RTOL * scale:
        raise ValidationError(
            f"{name} violates {kind} beyond tolerance: defect={defect:.3e}, "
            f"allowed={SYMMETRY_RTOL * scale:.3e}"
        )
    logger.warning(
        "%s had a %s defect of %.3e (scale %.3e); symmetrized on load",
        name, kind, defect, scale,
    )
    return (block + pair) / 2.0


@dataclass(eq=False)
class BseHamiltonian:
    """H = [[A, B], [-conj(B), -conj(A)]] stored as blocks A and B.

    A must be hermitian and B symmetric; defects up to SYMMETRY_RTOL times
    the block scale are repaired on construction.  The full matrix is only
    materialized on explicit request.  The real symmetric form R that the
    H-products run on is built on first use and kept (read-only) until the
    Hamiltonian is dropped.
    """

    a: np.ndarray
    b: np.ndarray
    definiteness: Definiteness = field(default=Definiteness.UNKNOWN)
    _r: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        a = as_complex_matrix(self.a, "A")
        b = as_complex_matrix(self.b, "B")
        if a.shape[0] != a.shape[1] or b.shape[0] != b.shape[1]:
            raise ValidationError(f"blocks must be square, got {a.shape} and {b.shape}")
        if a.shape != b.shape:
            raise ValidationError(f"A and B must agree in size, got {a.shape} != {b.shape}")
        a = _symmetrize(a, a.conj().T, "A", "hermiticity")
        b = _symmetrize(b, b.T, "B", "symmetry")
        a.flags.writeable = False
        b.flags.writeable = False
        self.a = a
        self.b = b

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def n(self) -> int:
        return 2 * self.a.shape[0]


def _check_rows(x: np.ndarray, n: int) -> None:
    if x.shape[0] != n:
        raise ValidationError(f"operand has {x.shape[0]} rows, expected {n}")


def apply_s(x) -> np.ndarray:
    """S x: upper half unchanged, lower half negated (involution)."""
    x = np.asarray(x, dtype=np.complex128)
    if x.shape[0] % 2:
        raise ValidationError(f"S needs an even row count, got {x.shape[0]}")
    out = x.copy()
    out[x.shape[0] // 2:] *= -1.0
    return out


def apply_k(x) -> np.ndarray:
    """K x: swap the upper and lower halves (K*K = I)."""
    x = np.asarray(x, dtype=np.complex128)
    if x.shape[0] % 2:
        raise ValidationError(f"K needs an even row count, got {x.shape[0]}")
    m = x.shape[0] // 2
    return np.concatenate([x[m:], x[:m]], axis=0)


def apply_j(x) -> np.ndarray:
    """J x = (x_lower, -x_upper) (J*J = -I)."""
    x = np.asarray(x, dtype=np.complex128)
    if x.shape[0] % 2:
        raise ValidationError(f"J needs an even row count, got {x.shape[0]}")
    m = x.shape[0] // 2
    return np.concatenate([x[m:], -x[:m]], axis=0)


def to_real_block(x: np.ndarray, dtype=np.float64) -> np.ndarray:
    """Y = [Re(y) | Im(y)] with y = Q* x / sqrt(2), an F-order n x 2k block.

    Q* x / sqrt(2) = [x1 + x2; i (x2 - x1)] / 2 is written by sums and sign
    flips and one exact scaling by 1/2.  x is a 2-D complex array with an
    even row count.
    """
    m, k = x.shape[0] // 2, x.shape[1]
    x1r, x1i = x[:m].real, x[:m].imag
    x2r, x2i = x[m:].real, x[m:].imag
    y = np.empty((2 * m, 2 * k), dtype=dtype, order="F")
    np.add(x1r, x2r, out=y[:m, :k])
    np.add(x1i, x2i, out=y[:m, k:])
    np.subtract(x1i, x2i, out=y[m:, :k])
    np.subtract(x2r, x1r, out=y[m:, k:])
    y *= 0.5
    return y


def from_real_block(y: np.ndarray) -> np.ndarray:
    """sqrt(2) Q y = [y1 + i y2; y1 - i y2] as complex128 from Y = [Re(y) | Im(y)].

    The inverse of to_real_block: from_real_block(to_real_block(x)) is x.
    """
    m, k = y.shape[0] // 2, y.shape[1] // 2
    y1r, y1i = y[:m, :k], y[:m, k:]
    y2r, y2i = y[m:, :k], y[m:, k:]
    x = np.empty((2 * m, k), dtype=np.complex128, order="F")
    np.subtract(y1r, y2i, out=x[:m].real)
    np.add(y1i, y2r, out=x[:m].imag)
    np.add(y1r, y2i, out=x[m:].real)
    np.subtract(y1i, y2r, out=x[m:].imag)
    return x


def _apply_sh(ham: BseHamiltonian, x: np.ndarray) -> np.ndarray:
    """(S H) x = Q R Q* x with one real GEMM against the cached R.

    R Y for Y = to_real_block(x) is formed as (Y^T R)^T, the faster GEMM
    orientation on OpenBLAS, which is R Y because R = R^T exactly; the
    two 1/sqrt(2) factors of Q and Q* are the 1/2 of to_real_block.  x is
    a 2-D complex128 array with n rows.
    """
    y = to_real_block(x)
    return from_real_block((y.T @ cached_real_form(ham)).T)


def apply_h(
    ham: BseHamiltonian,
    x,
    ledger: PhaseLedger | None = None,
    phase: str = "filter",
) -> np.ndarray:
    """H x = S Q R Q* x: one real n x n GEMM, 4*n^2*k real FLOPs for k columns."""
    x = np.asarray(x, dtype=np.complex128)
    _check_rows(x, ham.n)
    cols = x if x.ndim == 2 else x[:, None]
    out = _apply_sh(ham, cols)
    out[ham.m:] *= -1.0  # H = S (S H)
    if ledger is not None:
        ledger.add_flops(phase, 4.0 * ham.n * ham.n * cols.shape[1])
    return out.reshape(x.shape)


def materialize(ham: BseHamiltonian) -> np.ndarray:
    """Dense n x n H, for oracles and structural checks only."""
    return np.asfortranarray(
        np.block([[ham.a, ham.b], [-np.conj(ham.b), -np.conj(ham.a)]])
    )


def materialize_sh(ham: BseHamiltonian) -> np.ndarray:
    """Dense n x n S H = [[A, B], [conj(B), conj(A)]] (hermitian)."""
    return np.asfortranarray(
        np.block([[ham.a, ham.b], [np.conj(ham.b), np.conj(ham.a)]])
    )


def validate_pseudo_hermitian(h_dense) -> tuple[bool, float]:
    """Check S H = H* S on a dense matrix; returns (ok, max defect)."""
    h = np.asarray(h_dense, dtype=np.complex128)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {h.shape}")
    if h.shape[0] % 2:
        raise ValidationError(f"pseudo-hermitian structure needs even dimension, got {h.shape[0]}")
    sh = apply_s(h)
    hs = h.conj().T.copy()
    hs[:, h.shape[0] // 2:] *= -1.0  # right-multiplying by S negates the right half columns
    defect = float(np.abs(sh - hs).max()) if h.size else 0.0
    scale = float(np.abs(h).max()) if h.size else 0.0
    return defect <= SYMMETRY_RTOL * scale, defect


def real_symmetric_form(ham: BseHamiltonian) -> np.ndarray:
    """The real symmetric n x n matrix R unitarily similar to S H.

    R = [[Re(A+B), Im(B-A)], [Im(A+B), Re(A-B)]] equals Q* (S H) Q for the
    unitary Q = [[I, iI], [I, -iI]] / sqrt(2) (Shao, da Jornada, Yang,
    Deslippe & Lin, LAA 488, 2016), so it has the spectrum of S H at half
    the storage of the complex form.  Filled block by block into one
    Fortran-order float64 array.
    """
    m = ham.m
    ar, ai = ham.a.real, ham.a.imag
    br, bi = ham.b.real, ham.b.imag
    r = np.empty((ham.n, ham.n), dtype=np.float64, order="F")
    np.add(ar, br, out=r[:m, :m])
    np.subtract(bi, ai, out=r[:m, m:])
    np.add(ai, bi, out=r[m:, :m])
    np.subtract(ar, br, out=r[m:, m:])
    return r


def cached_real_form(ham: BseHamiltonian) -> np.ndarray:
    """R of ham, built on the first call and kept read-only on ham."""
    if ham._r is None:
        r = real_symmetric_form(ham)
        r.flags.writeable = False
        ham._r = r
    return ham._r


def is_definite(ham: BseHamiltonian) -> Definiteness:
    """Classify S H by a Cholesky factorization of its real form (cached).

    Factors the R kept on ham if an H-product has built it, else a
    temporary R that is not kept: a Hamiltonian that was only classified
    (as `generate` returns it) holds its blocks alone.
    """
    if ham.definiteness is not Definiteness.UNKNOWN:
        return ham.definiteness
    r = ham._r if ham._r is not None else real_symmetric_form(ham)
    try:
        np.linalg.cholesky(r)
    except np.linalg.LinAlgError:
        ham.definiteness = Definiteness.INDEFINITE
    else:
        ham.definiteness = Definiteness.DEFINITE
    return ham.definiteness
