"""Block storage for BSE-type Hamiltonians and the implicit S/K/J operators.

A Hamiltonian H = [[A, B], [-conj(B), -conj(A)]] with A hermitian and B
symmetric is stored as its two m x m blocks only (half the memory of the
dense 2m x 2m matrix).  It satisfies S H = H* S for the signature operator
S = diag(I, -I), which is never formed: S, K = [[0, I], [I, 0]] and
J = [[0, I], [-I, 0]] act by sign flips and half swaps.
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
    materialized on explicit request.
    """

    a: np.ndarray
    b: np.ndarray
    definiteness: Definiteness = field(default=Definiteness.UNKNOWN)

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


def apply_h(
    ham: BseHamiltonian,
    x,
    ledger: PhaseLedger | None = None,
    phase: str = "filter",
) -> np.ndarray:
    """H x through the blocks: [A x1 + B x2; -conj(A conj(x2) + B conj(x1))].

    Never forms conj(A) or conj(B); costs 8*n^2*k real FLOPs for k columns.
    """
    x = np.asarray(x, dtype=np.complex128)
    _check_rows(x, ham.n)
    m = ham.m
    x1, x2 = x[:m], x[m:]
    up = ham.a @ x1 + ham.b @ x2
    low = -np.conj(ham.a @ np.conj(x2) + ham.b @ np.conj(x1))
    if ledger is not None:
        k = 1 if x.ndim == 1 else x.shape[1]
        ledger.add_flops(phase, 8.0 * ham.n * ham.n * k)
    return np.concatenate([up, low], axis=0)


def apply_h_via_adjoint(
    ham: BseHamiltonian,
    x,
    ledger: PhaseLedger | None = None,
    phase: str = "filter",
) -> np.ndarray:
    """H x computed as S (H* (S x)), the communication-avoiding kernel form.

    Agrees with apply_h to roundoff; exercised on alternate filter steps so
    both product kernels stay covered.
    """
    x = np.asarray(x, dtype=np.complex128)
    _check_rows(x, ham.n)
    m = ham.m
    y1, y2 = x[:m], -x[m:]  # first sign flip: y = S x
    up = ham.a @ y1 - ham.b @ y2
    low = np.conj(ham.b @ np.conj(y1) - ham.a @ np.conj(y2))
    if ledger is not None:
        k = 1 if x.ndim == 1 else x.shape[1]
        ledger.add_flops(phase, 8.0 * ham.n * ham.n * k)
    # second flip recovers W from S W; the third flip of the distributed
    # formulation (restoring the input) is not needed since x is untouched
    return np.concatenate([up, -low], axis=0)


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


def is_definite(ham: BseHamiltonian) -> Definiteness:
    """Classify S H by a Cholesky factorization of its real form (cached)."""
    if ham.definiteness is not Definiteness.UNKNOWN:
        return ham.definiteness
    try:
        np.linalg.cholesky(real_symmetric_form(ham))
    except np.linalg.LinAlgError:
        ham.definiteness = Definiteness.INDEFINITE
    else:
        ham.definiteness = Definiteness.DEFINITE
    return ham.definiteness
