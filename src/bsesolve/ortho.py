"""Orthonormalization of the filtered search space.

Converged (locked) eigenvectors are bi-orthogonal to the remaining
eigenvectors through S, not orthogonal: the active space is therefore
projected against the sign-flipped locked vectors before its QR, and the
locked columns themselves are kept frozen exactly as they converged.

Column orthonormalization runs CholeskyQR twice and falls back to
Householder QR when the Gram factorization fails or the orthogonality
check exceeds the fallback threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankDeficiencyError
from .hamiltonian import apply_s
from .metrics import PhaseLedger

#: CholQR2 acceptance threshold on max|Q*Q - I|.
FALLBACK_TOL = 1e-8

#: Householder-path rank test: min |diag R| / max |diag R|.
RANK_TOL = 1e-10


@dataclass
class SearchSpace:
    """Locked followed by active columns; only the active block is orthonormal
    as a set (locked vectors are frozen converged Ritz vectors)."""

    q: np.ndarray
    locked: int

    @property
    def n(self) -> int:
        return self.q.shape[0]

    @property
    def m(self) -> int:
        return self.q.shape[0] // 2

    @property
    def nevex(self) -> int:
        return self.q.shape[1]

    @property
    def active(self) -> np.ndarray:
        return self.q[:, self.locked:]

    @property
    def locked_cols(self) -> np.ndarray:
        return self.q[:, : self.locked]


def fix_column_phases(q: np.ndarray) -> np.ndarray:
    """Scale each column so its first significant entry is real positive."""
    mags = np.abs(q)
    top = mags.max(axis=0)
    lead = np.argmax(mags >= 1e-8 * top, axis=0)
    pivot = q[lead, np.arange(q.shape[1])]
    nonzero = top > 0.0  # zero columns stay as they are
    pivot[~nonzero] = 1.0  # and skip the 0 / 0
    out = q.copy()
    np.multiply(q, np.conj(pivot) / np.abs(pivot), out=out, where=nonzero)
    return out


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
            ell = np.linalg.cholesky(gram)  # gram = R* R with R = L*
            q = q @ np.linalg.inv(ell).conj().T  # Q R^{-1}
        except np.linalg.LinAlgError:
            method = "householder"
            break
    if method == "cholqr":
        defect = np.abs(q.conj().T @ q - np.eye(k)).max()
        if not defect <= FALLBACK_TOL:  # also catches NaN
            method = "householder"
    if method == "householder":
        q = _householder(x)
    return fix_column_phases(q), method


def s_orthonormalize(
    vhat,
    locked_y=None,
    ledger: PhaseLedger | None = None,
) -> tuple[SearchSpace, str]:
    """Orthonormalize vhat against S times the locked vectors, then itself.

    The projection against span(S Y) happens once per call; the locked
    block of the returned SearchSpace is Y itself, unflipped.  Returns the
    space and the QR method that ran.
    """
    v = np.asarray(vhat, dtype=np.complex128)
    if locked_y is None:
        locked_y = np.zeros((v.shape[0], 0), dtype=np.complex128)
    locked_y = np.asarray(locked_y, dtype=np.complex128)

    if locked_y.shape[1]:
        flipped = apply_s(locked_y)
        basis, _ = np.linalg.qr(flipped)
        v = v - basis @ (basis.conj().T @ v)
        if ledger is not None:
            ledger.add_flops(
                "ortho", 16.0 * v.shape[0] * basis.shape[1] * v.shape[1]
            )
    q_active, method = cholqr_with_fallback(v, ledger)
    q = np.concatenate([locked_y, q_active], axis=1)
    return SearchSpace(q=q, locked=locked_y.shape[1]), method
