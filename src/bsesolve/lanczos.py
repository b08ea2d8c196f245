"""Spectral-bound estimation with the sign-flip Lanczos recurrence.

H is self-adjoint in the inner product <x, y> = x* (S H) y, which is
positive definite for the problems we solve.  Every inner product in the
recurrence is therefore an ordinary dot product against a sign-flipped
matrix-vector product, e.g. <q, H q> = (S H q)* (H q); one multiplication
by H per step suffices.  The resulting tridiagonal is real symmetric and
its Ritz values approximate the (real) spectrum of H from a random start.

A breakdown (beta = 0) ends the one pass early with exact Ritz values,
since the Krylov space is invariant.  A random start reaches as many steps
as H has distinct eigenvalues, so no other start could go further.

The spectrum is symmetric about zero, so the step count is kept even, the
upper bound is the reflection mu_n = -mu_1, and the density cutoff
mu_nevex integrates the Ritz-weight distribution over the negative axis
only.

The Gauss weights of the tridiagonal describe the spectral measure of the
start vector in the S H inner product, not a count of eigenvalues.  With
q = sum_j c_j v_j and v_j* S v_j = sign(lam_j), eigenvalue lam_j carries
the weight |c_j|^2 lam_j v_j* S v_j / ||q||^2_SH = |c_j|^2 |lam_j| /
||q||^2_SH: a random start weights each eigenvalue by |lam|, so a cutoff
read from these weights lands among the deep, large-|lam| targets (24 %
too deep at the median over 100 m = 64 instances).  `_density_cutoff`
divides each weight by |theta_i| and renormalizes, which estimates the
counting measure (Lin, Saad & Yang, SIAM Review 58(1), 2016).
`SpectralBounds.ritz_weights` keeps the raw Gauss weights, which sum to 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .errors import IndefiniteError, ValidationError
from .hamiltonian import BseHamiltonian, apply_h, apply_s
from .metrics import PhaseLedger

#: Extreme bound inflation: widens the filter interval by 1% of |mu_1| so
#: the damped region safely covers the unwanted spectrum.
SAFETY_INFLATION = 0.01


@dataclass(frozen=True)
class SpectralBounds:
    """Filter interval data: mu_1 <= mu_nevex <= mu_n with mu_n = -mu_1."""

    mu_1: float
    mu_nevex: float
    mu_n: float
    steps: int
    ritz_values: np.ndarray
    ritz_weights: np.ndarray


def _tridiagonal_pass(
    ham: BseHamiltonian, start: np.ndarray, steps: int, ledger: PhaseLedger | None
) -> tuple[np.ndarray, np.ndarray]:
    """One Lanczos sweep of at most `steps` steps; returns (alphas, betas)."""
    n = ham.n
    hr = apply_h(ham, start, ledger, "lanczos")
    norm2 = np.real(np.vdot(apply_s(hr), start))
    if norm2 <= 0:
        raise IndefiniteError(
            "start vector has non-positive S*H norm; matrix is not definite"
        )
    scale = np.sqrt(norm2)
    q = start / scale
    z = hr / scale
    q_prev = np.zeros(n, dtype=np.complex128)
    beta_prev = 0.0
    alphas: list[float] = []
    betas: list[float] = []
    for j in range(steps):
        alphas.append(float(np.real(np.vdot(apply_s(z), z))))
        if j == steps - 1:
            break
        w = z - alphas[-1] * q - beta_prev * q_prev
        g = apply_h(ham, w, ledger, "lanczos")
        beta2 = float(np.real(np.vdot(apply_s(g), w)))
        running = max(max(abs(a) for a in alphas), beta_prev)  # scale of H
        if beta2 <= (1e-14 * running) ** 2:
            # invariant subspace found (or numerical loss); stop this sweep
            break
        beta = np.sqrt(beta2)
        betas.append(beta)
        q_prev, q = q, w / beta
        z = g / beta
        beta_prev = beta
    return np.array(alphas), np.array(betas)


def estimate_bounds(
    ham: BseHamiltonian,
    nevex: int,
    steps: int = 24,
    seed: int = 0,
    ledger: PhaseLedger | None = None,
) -> SpectralBounds:
    """Estimate mu_1, mu_nevex and mu_n from a few Lanczos steps.

    mu_1 is the smallest Ritz value inflated by SAFETY_INFLATION, mu_n its
    reflection, and mu_nevex the density cutoff where the cumulative
    counting weight over the negative nodes reaches nevex/n (see
    `_density_cutoff`).  One pass from substream(seed, 0) runs at most
    min(steps, n) steps; a breakdown ends it early with exact nodes, and
    the bounds use the steps it completed, cut to an even count.
    """
    if steps < 2 or steps % 2:
        raise ValidationError(f"steps must be even and >= 2, got {steps}")
    if nevex < 0 or nevex > ham.n // 2:
        raise ValidationError(f"nevex must lie in [0, n/2], got {nevex}")

    # an n-dimensional space holds at most n Lanczos vectors: past n the
    # recurrence adds ghost copies of converged Ritz values, and a crossing
    # node whose upper neighbor is its own copy puts the midpoint cutoff
    # on an eigenvalue (n = 2m is even, so the cap keeps the even steps)
    steps = min(steps, ham.n)
    start = rng.complex_normals(rng.substream(seed, 0), ham.n)
    alphas, betas = _tridiagonal_pass(ham, start, steps, ledger)
    if len(alphas) % 2:  # keep the even-step convention after truncation
        alphas = alphas[:-1]
        betas = betas[: len(alphas) - 1]

    tridiagonal = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
    theta, y = np.linalg.eigh(tridiagonal)
    weights = y[0, :] ** 2

    theta_min = float(theta[0])
    mu_1 = theta_min - SAFETY_INFLATION * abs(theta_min)
    mu_n = -mu_1
    mu_nevex = _density_cutoff(theta, weights, nevex, ham.n)
    mu_nevex = float(min(max(mu_nevex, mu_1), mu_n))
    return SpectralBounds(
        mu_1=mu_1,
        mu_nevex=mu_nevex,
        mu_n=mu_n,
        steps=len(alphas),
        ritz_values=theta,
        ritz_weights=weights,
    )


def _density_cutoff(theta: np.ndarray, weights: np.ndarray, nevex: int, n: int) -> float:
    """Cutoff where the cumulative counting weight reaches nevex/n.

    weights are the Gauss weights of the S H measure, which weight each
    eigenvalue by |lam| (see the module docstring); dividing each by
    |theta_i| and renormalizing gives counting weights.  A node at exactly
    0 gets no weight (its S H weight carries no count to recover), and
    with no nonzero node the cutoff is 0.  The crossing is located on the
    negative nodes; the cutoff is then the midpoint between the crossing
    node and its upper neighbor, so that the boundary falls between Ritz
    clusters rather than on top of one (a node sits at the deep end of the
    cluster it represents, and a cutoff on the node itself would leave the
    boundary eigenvectors with no filter contrast).
    """
    negative = theta < 0
    scale = np.abs(theta)
    counting = np.divide(weights, scale, out=np.zeros_like(weights), where=scale > 0)
    total = counting.sum()
    if not negative.any() or not total > 0:
        return 0.0
    target = nevex / n
    cumulative = np.cumsum(counting[negative] / total)
    crossed = np.nonzero(cumulative >= target)[0]
    j = int(crossed[0]) if crossed.size else int(negative.sum()) - 1
    if j + 1 < theta.shape[0]:
        return float((theta[j] + theta[j + 1]) / 2.0)
    return float(theta[j])


def update_cutoff(
    bounds: SpectralBounds,
    ritz_values,
    residual_norms,
    floor: float,
    targets: int = 0,
) -> SpectralBounds:
    """Move mu_nevex to the largest Ritz value that still needs the filter.

    The cutoff rule of a solve from its third filter call on (the first
    uses the density cutoff, the second 0; see `solver`).  Values below
    mu_1 are dropped first (they are spurious, from a near-singular Q*SQ),
    then the targets smallest of the rest (the pairs still to lock: a
    cutoff on a target leaves the filter no contrast there), then those
    whose residual is at or below floor (the locking threshold).  The
    largest value left is clamped to 0: the targets all lie on the
    negative axis (nev + nex <= n/2 with a symmetric spectrum), and a
    cutoff at 0 keeps the whole target half axis in the passband, as the
    second call's positive-half purge does.  With no value left the cutoff
    is 0.  mu_1 and mu_n stay fixed for the whole solve.
    """
    values = np.asarray(ritz_values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    order = order[values[order] >= bounds.mu_1][targets:]
    keep = order[np.asarray(residual_norms)[order] > floor]
    cutoff = min(float(values[keep].max()), 0.0) if keep.size else 0.0
    return replace(bounds, mu_nevex=cutoff)
