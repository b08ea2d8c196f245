"""Projection against the locked vectors and orthonormalization of the
filtered search space.

Converged (locked) eigenvectors Y are bi-orthogonal to the remaining
eigenvectors through S, not orthogonal.  `deflate_locked` is the one
projection against them: x - Y (Y* S Y)^{-1} (S Y)* x, the oblique
projection along span(Y) onto the S-complement of Y.  When Y holds
eigenvectors it removes exactly their eigen-components and leaves every
other component alone.  The solver calls it on the residual block before
each corrected filter call, and `s_orthonormalize` on the filtered block
before its QR; the locked vectors themselves stay frozen as they converged.
Both calls of an iteration read one `LockedSet`, which holds (S Y)* and
the Gram Y* S Y; the solver forms it once each time Y grows.

Column orthonormalization runs CholeskyQR twice and falls back to
Householder QR when the Gram factorization fails or the orthogonality
check exceeds the fallback threshold.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import RankDeficiencyError
from .hamiltonian import apply_s, inverse_cholesky
from .metrics import PhaseLedger

#: CholQR2 acceptance threshold on max|Q*Q - I|.
FALLBACK_TOL = 1e-8

#: Householder-path rank test: min |diag R| / max |diag R|.
RANK_TOL = 1e-10


def _householder(x: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(x)
    diag = np.abs(np.diag(r))
    if diag.max() == 0.0 or diag.min() <= RANK_TOL * diag.max():
        raise RankDeficiencyError(
            f"columns are numerically rank deficient "
            f"(diag ratio {diag.min():.3e} / {diag.max():.3e})"
        )
    return q


def cholqr_with_fallback(
    x, ledger: PhaseLedger | None = None
) -> tuple[np.ndarray, str]:
    """Orthonormalize the columns of x; returns (Q, method used).

    method is "cholqr" when two Cholesky-QR passes meet FALLBACK_TOL and
    "householder" otherwise.  Raises RankDeficiencyError when even the
    Householder path cannot produce a full-rank factor.
    """
    x = np.asarray(x, dtype=np.complex128)
    n, k = x.shape
    if k > n:
        raise RankDeficiencyError(f"cannot orthonormalize {k} columns in dimension {n}")
    if ledger is not None:
        ledger.add_flops("ortho", 2 * (8.0 * n * k * k + 4.0 * n * k * k))

    q = x
    method = "cholqr"
    for _ in range(2):  # CholQR2
        gram = q.conj().T @ q
        gram = (gram + gram.conj().T) / 2.0
        try:
            # gram = R* R with R = L*, and Q R^{-1} = Q (L^{-1})*
            q = q @ inverse_cholesky(gram).conj().T
        except np.linalg.LinAlgError:
            method = "householder"
            break
    if method == "cholqr":
        defect = np.abs(q.conj().T @ q - np.eye(k)).max()
        if not defect <= FALLBACK_TOL:  # also catches NaN
            method = "householder"
    if method == "householder":
        q = _householder(x)
    return q, method


class LockedSet(NamedTuple):
    """The locked vectors Y with (S Y)* and the Gram Y* S Y."""

    y: np.ndarray
    sy_h: np.ndarray
    gram: np.ndarray


def locked_set(locked_y: np.ndarray, ledger: PhaseLedger | None = None) -> LockedSet:
    """Form (S Y)* and Y* S Y once, for every deflation until Y changes.

    Charged to "ortho", 8 n l^2 FLOPs for l locked vectors.
    """
    sy_h = apply_s(locked_y).conj().T
    if ledger is not None:
        n, l = locked_y.shape
        ledger.add_flops("ortho", 8.0 * n * l * l)
    return LockedSet(locked_y, sy_h, sy_h @ locked_y)


def deflate_locked(
    block: np.ndarray,
    locked: LockedSet,
    ledger: PhaseLedger | None = None,
    phase: str = "filter",
) -> np.ndarray:
    """block - Y (Y* S Y)^{-1} (S Y)* block, with Y the locked vectors.

    The result is orthogonal to S Y.  locked carries Y with the (S Y)* and
    Y* S Y that `locked_set` formed.  Charged to `phase`, 16 n l k FLOPs for
    l locked and k block columns.
    """
    coeff = np.linalg.solve(locked.gram, locked.sy_h @ block)
    if ledger is not None:
        n, l = locked.y.shape
        ledger.add_flops(phase, 16.0 * n * l * block.shape[1])
    return block - locked.y @ coeff


def s_orthonormalize(
    vhat,
    locked: LockedSet | None = None,
    ledger: PhaseLedger | None = None,
) -> tuple[np.ndarray, str]:
    """Deflate the locked vectors Y from vhat, then orthonormalize its columns.

    locked is the `LockedSet` of Y, or None when nothing is locked.  Returns
    the orthonormal active block, orthogonal to S Y, and the QR method that
    ran.
    """
    v = np.asarray(vhat, dtype=np.complex128)
    if locked is not None:
        v = deflate_locked(v, locked, ledger, "ortho")
    return cholqr_with_fallback(v, ledger)
