"""Oblique Rayleigh-Ritz extraction, residuals, locking and diagnostics.

Both variants project with a dual basis of the form
Q_L = [S Q - Q (Q*SQ - M)] M^{-1}, which satisfies Q_L* Q = I for any
nonsingular M:

* hermitian-equivalent variant: M = Q*SQ, so Q_L = SQ (Q*SQ)^{-1} and the
  reduced operator (Q*SQ)^{-1} Q*SHQ is diagonalized through the Cholesky
  factor of Q*SHQ as a hermitian problem.  Neither Q_L nor the inverse is
  ever formed.
* backup variant: M = diag(Q*SQ) (zero entries replaced by 1), giving a
  genuinely non-hermitian reduced operator handled by a general dense
  eigensolver; only the real parts of its eigenvalues are kept.  Used when
  the hermitian-equivalent route fails.

Each variant makes one float64 H-product, H Q, and hands H V with its Ritz
vectors V = Q C (columns scaled to unit norm): H V = (H Q) C, an n x k by
k x k product in place of a second H-product.  Q has orthonormal columns,
so each column of C has the norm of its Ritz vector, 1, and H V is
accurate to about eps ||H||, as a direct product is.  `residuals` writes
R = H V - V Lambda over it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .direct import dense_general_eig, dense_hermitian_eig
from .errors import HermitianRqError, ValidationError
from .hamiltonian import BseHamiltonian, apply_h, apply_s, inverse_cholesky
from .metrics import PhaseLedger

#: |lambda_min(Q*SQ)| below this (its spectrum lives in [-1, 1]) is treated
#: as singular and routes to the backup variant.
M_SINGULARITY_TOL = 1e-8

#: Entries of diag(Q*SQ) at or below this magnitude are replaced by 1 in the
#: backup variant, which keeps the projection property intact.
DIAG_ZERO_TOL = 1e-12


@dataclass
class ReducedProblem:
    """Reduced k x k data of one projection: W = Q*SHQ (hermitian variant)
    or Q*HQ (backup), M = Q*SQ, the matrix G whose eigenpairs give the Ritz
    pairs, and the backup's diagonal scaling d (None when hermitian)."""

    w: np.ndarray
    m: np.ndarray
    g: np.ndarray
    d: np.ndarray | None
    lambda_min_m: float


@dataclass
class RitzSet:
    """Ritz values (ascending, real), unit Ritz vectors V, the projection's
    H V until `residuals` writes over it, and the residuals (the norms and
    the block H V - V Lambda the next filter reads)."""

    values: np.ndarray
    vectors: np.ndarray
    h_vectors: np.ndarray | None = None
    residual_norms: np.ndarray | None = None
    residual_vectors: np.ndarray | None = None

    @property
    def k(self) -> int:
        return self.values.shape[0]


@dataclass
class ConvergenceDiagnostics:
    """Bounds from the projection analysis; all finite iff Q*SQ is nonsingular."""

    lambda_min_m: float
    delta_tilde_bound: float
    ritz_interval: float
    spurious: np.ndarray
    singular: bool


def _ritz_set(values: np.ndarray, q: np.ndarray, hq: np.ndarray, coef: np.ndarray) -> RitzSet:
    """Ritz pairs (values, Q C scaled to unit columns) in ascending order,
    with H V = (H Q) C scaled alike."""
    order = np.argsort(values, kind="stable")
    coef = coef[:, order]
    vectors = q @ coef
    norms = np.linalg.norm(vectors, axis=0)
    vectors /= norms
    return RitzSet(values=values[order], vectors=vectors, h_vectors=hq @ (coef / norms))


def _lambda_min_m(mqsq: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvalsh(mqsq)).min())


def _form_m(q: np.ndarray) -> np.ndarray:
    """Q*SQ computed as I - 2 Q2*Q2 (hermitian by construction)."""
    k = q.shape[1]
    q2 = q[q.shape[0] // 2:]
    m = np.eye(k) - 2.0 * (q2.conj().T @ q2)
    return (m + m.conj().T) / 2.0


def build_hermitian_rq(
    ham: BseHamiltonian,
    q_active: np.ndarray,
    ledger: PhaseLedger | None = None,
) -> tuple[RitzSet, ReducedProblem]:
    """Hermitian-equivalent projection onto the active columns.

    Solves L^{-1} (Q*SQ) L^{-*} y = theta y with L the Cholesky factor of
    W = Q*SHQ, then back-transforms: Ritz values 1/theta and Ritz vectors
    Q L^{-*} y, normalized.  Raises HermitianRqError when W is not positive
    definite on the subspace or |lambda_min(Q*SQ)| < M_SINGULARITY_TOL.
    """
    q = np.asarray(q_active, dtype=np.complex128)
    n, k = q.shape
    hq = apply_h(ham, q, ledger, "rr")
    w = q.conj().T @ apply_s(hq)
    w = (w + w.conj().T) / 2.0
    mqsq = _form_m(q)
    lam_min_m = _lambda_min_m(mqsq)
    if lam_min_m < M_SINGULARITY_TOL:
        raise HermitianRqError(
            f"|lambda_min(Q*SQ)| = {lam_min_m:.3e} below {M_SINGULARITY_TOL:.0e}"
        )
    try:
        ell_inv = inverse_cholesky(w.copy())
    except np.linalg.LinAlgError as exc:
        raise HermitianRqError(
            "Cholesky of Q*SHQ failed; S*H is not definite on the subspace"
        ) from exc
    g = ell_inv @ mqsq @ ell_inv.conj().T
    g = (g + g.conj().T) / 2.0
    theta, y = dense_hermitian_eig(g)
    if np.abs(theta).min() < np.finfo(float).eps:
        raise HermitianRqError("reduced spectrum touches zero; cannot invert")
    ritz = _ritz_set(1.0 / theta, q, hq, ell_inv.conj().T @ y)
    if ledger is not None:
        # the H-product is charged by apply_h; H V = (H Q) C adds 8 n k^2
        ledger.add_flops("rr", 20.0 * n * k * k + 16.0 * k**3)
    reduced = ReducedProblem(w=w, m=mqsq, g=g, d=None, lambda_min_m=lam_min_m)
    return ritz, reduced


def build_backup_rq(
    ham: BseHamiltonian,
    q_active: np.ndarray,
    ledger: PhaseLedger | None = None,
) -> tuple[RitzSet, ReducedProblem]:
    """Non-hermitian backup projection with M = diag(Q*SQ).

    G = Diag(d) [Q*SHQ - (Q*SQ - diag(Q*SQ)) Q*HQ] with d the entrywise
    inverse of diag(Q*SQ) after zero entries are replaced by 1.  The
    general eigensolver may return complex values; only their real parts
    are kept.  Exact on invariant subspaces of H.
    """
    q = np.asarray(q_active, dtype=np.complex128)
    n, k = q.shape
    t = apply_h(ham, q, ledger, "rr")
    w = q.conj().T @ t
    mqsq = _form_m(q)
    lam_min_m = _lambda_min_m(mqsq)
    dvec = np.real(np.diag(mqsq)).copy()
    dvec[np.abs(dvec) <= DIAG_ZERO_TOL] = 1.0
    off = mqsq - np.diag(np.diag(mqsq))
    g0 = q.conj().T @ apply_s(t)
    g = (g0 - off @ w) / dvec[:, None]
    values, y = dense_general_eig(g)
    ritz = _ritz_set(values.real.copy(), q, t, y)
    if ledger is not None:
        # the H-product is charged by apply_h; H V = (H Q) Y adds 8 n k^2
        ledger.add_flops("rr", 28.0 * n * k * k + 30.0 * k**3)
    reduced = ReducedProblem(w=w, m=mqsq, g=g, d=dvec, lambda_min_m=lam_min_m)
    return ritz, reduced


def residuals(
    ham: BseHamiltonian,
    ritz: RitzSet,
    ledger: PhaseLedger | None = None,
) -> np.ndarray:
    """Absolute residual 2-norms ||H v - lam v||_2, stored on the RitzSet with
    R = H V - V Lambda, written over its H V (then cleared) or one H-product."""
    r = ritz.h_vectors
    if r is None:
        r = apply_h(ham, ritz.vectors, ledger, "residuals")
    r -= ritz.vectors * ritz.values
    ritz.h_vectors = None
    ritz.residual_vectors = r
    ritz.residual_norms = np.linalg.norm(r, axis=0)
    return ritz.residual_norms


def lock_converged(
    ritz: RitzSet,
    tol: float,
    nev: int,
    normalizer: float = 1.0,
) -> int:
    """Count the newly locked pairs, a prefix of the (ascending) Ritz set.

    A pair locks only when every smaller Ritz value converges with it: the
    locked set is the longest converged prefix, capped at nev entries (the
    window of candidates for the requested smallest eigenvalues).  Interior
    converged pairs above a non-converged one stay active.
    """
    if ritz.residual_norms is None:
        raise ValidationError("residuals must be computed before locking")
    converged = ritz.residual_norms <= tol * normalizer
    count = 0
    while count < ritz.k and count < nev and converged[count]:
        count += 1
    return count


def diagnostics(
    q_active: np.ndarray, ritz: RitzSet, rho: float, cond: float
) -> ConvergenceDiagnostics:
    """Projection-quality bounds for one iterate, from the caller's
    rho = rho(SH) and cond = cond(H).

    Every non-spurious Ritz value lies in +- rho/|lambda_min(Q*SQ)|.  The
    quadratic Ritz-value error of lam is governed by kappa =
    delta_tilde_bound ||H - lam I||_2, delta_tilde_bound =
    sqrt(cond)/|lambda_min(Q*SQ)|; the dense norm is the caller's to form.
    Singular Q*SQ yields infinite bounds and the singular flag.
    """
    lam_min_m = _lambda_min_m(_form_m(np.asarray(q_active, dtype=np.complex128)))
    singular = lam_min_m < M_SINGULARITY_TOL
    if singular:
        interval = delta_bound = np.inf
    else:
        interval = rho / lam_min_m
        delta_bound = np.sqrt(cond) / lam_min_m
    return ConvergenceDiagnostics(
        lambda_min_m=lam_min_m,
        delta_tilde_bound=delta_bound,
        ritz_interval=interval,
        spurious=np.abs(ritz.values) > interval * (1.0 + 1e-12),
        singular=singular,
    )


def dual_basis_explicit(q_active: np.ndarray, m_choice: str = "full") -> np.ndarray:
    """Explicit dual basis [SQ - Q (Q*SQ - M)] M^{-1} (test/verification only).

    m_choice "full" uses M = Q*SQ (must be nonsingular); "diagonal" uses
    M = diag(Q*SQ) with zero entries replaced by 1.  In both cases
    Q_L* Q = I; for the full choice ||Q_L||_2 = 1/|lambda_min(Q*SQ)|.
    """
    q = np.asarray(q_active, dtype=np.complex128)
    sq = apply_s(q)
    mqsq = _form_m(q)
    if m_choice == "full":
        lam_min_m = _lambda_min_m(mqsq)
        if lam_min_m <= DIAG_ZERO_TOL:
            raise ValidationError(f"Q*SQ is singular (|lambda|_min = {lam_min_m:.3e})")
        return np.linalg.solve(mqsq.T, sq.T).T
    if m_choice == "diagonal":
        dvec = np.real(np.diag(mqsq)).copy()
        dvec[np.abs(dvec) <= DIAG_ZERO_TOL] = 1.0
        m_used = np.diag(dvec.astype(np.complex128))
        return (sq - q @ (mqsq - m_used)) / dvec[None, :]
    raise ValidationError(f"m_choice must be 'full' or 'diagonal', got {m_choice!r}")
