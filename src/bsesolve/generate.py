"""Synthetic pseudo-hermitian Hamiltonians with controllable definiteness,
plus the structural spectrum utilities (quadruplets, field-of-values box).

The definite construction is certified: A = C C* + alpha I has smallest
eigenvalue >= alpha, and B is rescaled so that ||B||_2 equals
coupling_ratio * lambda_min(A).  For coupling_ratio < 1 the block estimate
x* (S H) x >= (lambda_min(A) - ||B||_2) ||x||^2 makes S H positive definite
by construction; is_definite re-verifies before the matrix is returned.
The certificate is one Schur-complement step on the m x m blocks of the
real form R (see `hamiltonian.is_definite`): generate() builds no n x n
array, and the Hamiltonian it returns holds its two blocks alone.  The
blocks are formed in place in Fortran order, so BseHamiltonian takes them
without a copy.  generate() allocates at most 3.25 blocks of 16 m^2 bytes
at once (tracemalloc): the certificate's m x m pieces beside A and B, after
3 blocks for the product C C* (C, conj(C) and A).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import ValidationError, require_integers
from .hamiltonian import (
    BseHamiltonian,
    Definiteness,
    apply_h,
    apply_j,
    apply_k,
    apply_s,
    is_definite,
    symmetric_part,
)

#: Substream tags (see rng module docs): block C feeding A, block D feeding B.
TAG_RESONANT = 0
TAG_COUPLING = 1


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters of one synthetic instance; identical spec => identical matrix."""

    m: int
    seed: int
    alpha: float = 1.0
    coupling_ratio: float = 0.5
    mode: str = "definite"

    def __post_init__(self) -> None:
        require_integers(self, "m", "seed")
        if self.m < 1:
            raise ValidationError(f"m must be >= 1, got {self.m}")
        if not 0 < self.alpha < np.inf:  # also rejects NaN
            raise ValidationError(f"alpha must be positive and finite, got {self.alpha}")
        if not 0 <= self.coupling_ratio < np.inf:
            raise ValidationError(
                f"coupling_ratio must be finite and >= 0, got {self.coupling_ratio}"
            )
        if self.mode not in ("definite", "indefinite"):
            raise ValidationError(f"mode must be definite or indefinite, got {self.mode!r}")
        if self.mode == "definite" and self.coupling_ratio >= 1:
            raise ValidationError(
                f"definite mode requires coupling_ratio < 1, got {self.coupling_ratio}"
            )


def generate(spec: GeneratorSpec) -> BseHamiltonian:
    """Build the Hamiltonian described by spec (deterministic per seed).

    A = C C* + alpha I, made exactly hermitian as (A + A*) / 2, and
    B = s B0 with B0 = (D + D^T) / 2 and s = coupling_ratio * lambda_min(A)
    / ||B0||_2, for complex normal C and D.  Every step runs in place on
    Fortran-order arrays, and C is dropped once A is formed.
    """
    m = spec.m
    c = rng.complex_normal_matrix(rng.substream(spec.seed, TAG_RESONANT), m, m)
    a = np.empty((m, m), dtype=np.complex128, order="F")
    np.matmul(c, c.conj().T, out=a)
    del c
    a.reshape(-1, order="F")[:: m + 1] += spec.alpha  # A = C C* + alpha I
    symmetric_part(a, hermitian=True)

    if spec.coupling_ratio == 0.0:
        b = np.zeros((m, m), dtype=np.complex128, order="F")
    else:
        b = rng.complex_normal_matrix(rng.substream(spec.seed, TAG_COUPLING), m, m)
        symmetric_part(b, hermitian=False)  # B0 = (D + D^T) / 2
        b_norm = np.linalg.svd(b, compute_uv=False)[0]
        lam_min = float(np.linalg.eigvalsh(a)[0])
        b *= spec.coupling_ratio * lam_min / b_norm

    ham = BseHamiltonian(a, b)
    outcome = is_definite(ham)
    if spec.mode == "definite" and outcome is not Definiteness.DEFINITE:
        raise AssertionError(
            "internal error: certified definite construction failed the "
            f"definiteness certificate (m={m}, seed={spec.seed})"
        )
    return ham


def field_of_values_bounds(ham: BseHamiltonian) -> tuple[float, float]:
    """Box enclosing the spectrum: (rho(A), largest singular value of B).

    Every eigenvalue satisfies |Re| <= rho(A) and |Im| <= sigma_max(B);
    for B = 0 the spectrum is purely real.
    """
    re_bound = float(np.abs(np.linalg.eigvalsh(ham.a)).max()) if ham.m else 0.0
    if not np.any(ham.b):
        im_bound = 0.0
    else:
        im_bound = float(np.linalg.svd(ham.b, compute_uv=False)[0])
    return re_bound, im_bound


def quadruplet_partners(
    ham: BseHamiltonian,
    value: complex,
    left: np.ndarray,
    right: np.ndarray,
    tol_in: float,
) -> list[tuple[complex, np.ndarray]]:
    """Partner eigenpairs of (value, right) generated by S, J and K.

    Given a right eigenpair (lambda, v) with residual <= tol_in and the
    matching left eigenvector u, returns the three right eigenpairs
    (conj(lambda), S u), (-lambda, J conj(u)), (-conj(lambda), K conj(v)),
    each with a unit-normalized vector whose residual is <= 10 * tol_in.
    """
    v = np.asarray(right, dtype=np.complex128).reshape(-1)
    u = np.asarray(left, dtype=np.complex128).reshape(-1)
    lam = complex(value)
    res = float(np.linalg.norm(apply_h(ham, v) - lam * v))
    if res > tol_in:
        raise ValidationError(
            f"input pair is not an eigenpair to tol={tol_in:.3e} (residual {res:.3e})"
        )

    def unit(x: np.ndarray) -> np.ndarray:
        return x / np.linalg.norm(x)

    return [
        (np.conj(lam), unit(apply_s(u))),
        (-lam, unit(apply_j(np.conj(u)))),
        (-np.conj(lam), unit(apply_k(np.conj(v)))),
    ]
