"""Direct dense reference solvers.

The full eigendecomposition of a definite problem goes through the
Cholesky reduction: with S H = L L*, the hermitian matrix L* S L has the
same (real) spectrum as H, and right eigenvectors are recovered as
v = L^{-*} y.  Left eigenvectors cost nothing: u = S v.  The reduced
k x k hermitian/general eigensolvers used inside the Rayleigh-Ritz step
live here as well, so every consumer shares one contract.

Like the rest of bsesolve, the oracles and the reduced eigensolvers call
numpy.linalg only.  The oracles do not use the solve path's kernels
(`hamiltonian.inverse_cholesky`), so that tests can compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndefiniteError, NumericalError, ValidationError
from .hamiltonian import BseHamiltonian, apply_s, materialize_sh

HERMITICITY_RTOL = 1e-10


@dataclass
class FullEigendecomposition:
    """All n eigenpairs of a definite pseudo-hermitian matrix.

    lambdas ascend; v holds unit right eigenvectors, u = S v the left ones,
    and d the diagonal of V* S V (the bi-orthogonality weights, which carry
    the sign of the matching eigenvalue).
    """

    lambdas: np.ndarray
    v: np.ndarray
    u: np.ndarray
    d: np.ndarray

    @property
    def n(self) -> int:
        return self.lambdas.shape[0]


def direct_solve_definite(ham: BseHamiltonian) -> FullEigendecomposition:
    """Full spectrum via the Cholesky reduction (O(n^3), oracle use only)."""
    sh = materialize_sh(ham)
    try:
        ell = np.linalg.cholesky(sh)
    except np.linalg.LinAlgError as exc:
        raise IndefiniteError(
            "direct solve needs S*H positive definite; Cholesky failed"
        ) from exc
    reduced = ell.conj().T @ apply_s(ell)
    reduced = (reduced + reduced.conj().T) / 2.0
    lambdas, y = np.linalg.eigh(reduced)
    v = np.linalg.solve(ell.conj().T, y)
    v /= np.linalg.norm(v, axis=0)
    sv = apply_s(v)
    d = np.einsum("ij,ij->j", v.conj(), sv)
    return FullEigendecomposition(lambdas=lambdas, v=v, u=sv, d=d)


def cond_of_h(ham: BseHamiltonian) -> float:
    """lambda_max(SH) / lambda_min(SH); equals sigma_max(H) / sigma_min(H)."""
    w = np.linalg.eigvalsh(materialize_sh(ham))
    if w[0] <= 0:
        raise IndefiniteError(
            f"condition number defined for definite problems only "
            f"(lambda_min(SH) = {w[0]:.3e})"
        )
    return float(w[-1] / w[0])


def rho_sh(ham: BseHamiltonian) -> float:
    """Spectral radius of S H (= ||H||_2 in the definite case)."""
    return float(np.abs(np.linalg.eigvalsh(materialize_sh(ham))).max())


def dense_hermitian_eig(g) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a hermitian matrix, values ascending.

    Rejects inputs whose hermiticity defect exceeds HERMITICITY_RTOL times
    the matrix scale rather than silently symmetrizing them.
    """
    g = np.asarray(g, dtype=np.complex128)
    scale = np.abs(g).max() if g.size else 0.0
    defect = np.abs(g - g.conj().T).max() if g.size else 0.0
    if scale > 0 and defect > HERMITICITY_RTOL * scale:
        raise ValidationError(
            f"matrix is not hermitian: defect {defect:.3e} > {HERMITICITY_RTOL * scale:.3e}"
        )
    return np.linalg.eigh((g + g.conj().T) / 2.0)


def dense_general_eig(g) -> tuple[np.ndarray, np.ndarray]:
    """General dense eigendecomposition, sorted ascending by real part.

    Ties are broken by the original column index (stable sort); failures of
    the underlying QZ/QR iteration surface as NumericalError, never silently.
    """
    g = np.asarray(g, dtype=np.complex128)
    try:
        w, y = np.linalg.eig(g)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NumericalError(f"general eigensolver failed: {exc}") from exc
    if not np.all(np.isfinite(w)):
        raise NumericalError("general eigensolver returned non-finite eigenvalues")
    order = np.argsort(w.real, kind="stable")
    return w[order], y[:, order]
