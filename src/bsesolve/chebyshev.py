"""Scaled Chebyshev polynomial filter over [mu_nevex, mu_n], run on real blocks.

The three-term recurrence with running sigma scaling keeps iterates
bounded for large degrees; the resulting polynomial equals
C_d((t - c)/e) / C_d((s - c)/e), so the gain at the anchor s = mu_1 is 1
and everything inside the damped interval [mu_nevex, mu_n] is flattened
toward zero.  Any degree >= 1 is allowed.

The recurrence runs in Q* coordinates.  With the unitary
Q = [[I, iI], [I, -iI]] / sqrt(2), Q* H Q = i J R, where R = Q* (S H) Q is
the real symmetric form the Hamiltonian caches and J = [[0, I], [-I, 0]]
(Shao, da Jornada, Yang, Deslippe & Lin, LAA 488, 2016).  The filter
coefficients are real, so the whole recurrence runs on the n x 2k real
block Y = [Re(y) | Im(y)] with y = Q* x / sqrt(2): the filter converts
into it once at entry and back once at exit.  One product is one GEMM
Z = R Y, formed as (Y^T R)^T, and i J Z is a fixed remap of Z's quadrants
with two signs (new real part [-Z_im[m:]; Z_im[:m]], new imaginary part
[Z_re[m:]; -Z_re[:m]]), which the elementwise update of the recurrence
reads in place.

`FilterConfig.precision` picks the dtype of Y and of R.  In "float32" the
filter casts R for the length of the call (n^2 * 4 bytes, dropped on
return) and the GEMMs run as sgemm; the output is accurate to a small
multiple of float32's unit roundoff, enough to separate the wanted
subspace but not to resolve it to a float64 tolerance, so the solver runs
float32 only until the residuals near the float32 floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .hamiltonian import BseHamiltonian, cached_real_form, from_real_block, to_real_block
from .lanczos import SpectralBounds
from .metrics import PhaseLedger

#: Working dtype of the recurrence per FilterConfig.precision.
PRECISIONS = {"float32": np.float32, "float64": np.float64}


@dataclass(frozen=True)
class FilterConfig:
    """Filter interval data: center c, half width e, scale anchor s."""

    degree: int
    center: float
    half_width: float
    scale_ref: float
    precision: str = "float64"

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValidationError(f"filter degree must be >= 1, got {self.degree}")
        if not self.half_width > 0:
            raise ValidationError(f"filter half width must be positive, got {self.half_width}")
        if self.precision not in PRECISIONS:
            raise ValidationError(
                f"filter precision must be float32 or float64, got {self.precision!r}"
            )

    @classmethod
    def from_bounds(
        cls, bounds: SpectralBounds, degree: int, precision: str = "float64"
    ) -> "FilterConfig":
        return cls(
            degree=degree,
            center=(bounds.mu_n + bounds.mu_nevex) / 2.0,
            half_width=(bounds.mu_n - bounds.mu_nevex) / 2.0,
            scale_ref=bounds.mu_1,
            precision=precision,
        )


def chebyshev_filter(
    ham: BseHamiltonian,
    vhat,
    cfg: FilterConfig,
    ledger: PhaseLedger | None = None,
):
    """Apply p(H) to the columns of vhat: degree real GEMMs on R, 4*n^2*k FLOPs each."""
    x = np.asarray(vhat, dtype=np.complex128)
    if x.shape[0] != ham.n:
        raise ValidationError(f"operand has {x.shape[0]} rows, expected {ham.n}")
    cols = x if x.ndim == 2 else x[:, None]
    dtype = PRECISIONS[cfg.precision]
    r = cached_real_form(ham)
    if r.dtype != dtype:
        r = r.astype(dtype)  # this call's copy, freed on return
    m, k = ham.m, cols.shape[1]
    c, e = cfg.center, cfg.half_width
    sigma1 = e / (cfg.scale_ref - c)
    sigma = sigma1

    zt = np.empty((2 * k, ham.n), dtype=dtype)  # Z^T, the GEMM output
    scratch = np.empty((ham.n, 2 * k), dtype=dtype, order="F")

    def step(y, y_prev, alpha, beta):
        """y_prev <- alpha * (i J R y - c y) - beta * y_prev, in place."""
        np.matmul(y.T, r, out=zt)
        z = zt.T
        z *= alpha
        y_prev *= -beta
        np.multiply(y, alpha * c, out=scratch)
        y_prev -= scratch
        y_prev[:m, :k] -= z[m:, k:]
        y_prev[m:, :k] += z[:m, k:]
        y_prev[:m, k:] += z[m:, :k]
        y_prev[m:, k:] -= z[:m, :k]
        return y_prev

    y_prev = to_real_block(cols, dtype)
    y = step(y_prev, np.zeros_like(y_prev), sigma1 / e, 0.0)
    for _ in range(2, cfg.degree + 1):
        sigma_new = 1.0 / (2.0 / sigma1 - sigma)
        y_prev, y = y, step(y, y_prev, 2.0 * sigma_new / e, sigma * sigma_new)
        sigma = sigma_new
    if ledger is not None:
        ledger.add_flops("filter", cfg.degree * 4.0 * ham.n * ham.n * k)
    return from_real_block(y).reshape(x.shape)


def scalar_filter_value(lam: float, cfg: FilterConfig) -> float:
    """The same recurrence on a scalar: gain of the filter at eigenvalue lam.

    In closed form the gain is C_d((lam - c)/e) / C_d((s - c)/e), with
    center c, half width e, anchor s and degree d.  On the damped interval
    [c - e, c + e] it equioscillates: |gain| <= 1/|C_d((s - c)/e)|, with
    equality at both edges and (for even d) at the center.
    """
    c, e = cfg.center, cfg.half_width
    sigma1 = e / (cfg.scale_ref - c)
    sigma = sigma1
    y_prev = 1.0
    y = (lam - c) * (sigma1 / e)
    for _ in range(2, cfg.degree + 1):
        sigma_new = 1.0 / (2.0 / sigma1 - sigma)
        y_next = (2.0 * sigma_new / e) * (lam - c) * y - (sigma * sigma_new) * y_prev
        y_prev, y, sigma = y, y_next, sigma_new
    return y
