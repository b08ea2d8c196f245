"""Scaled Chebyshev polynomial filter over [mu_nevex, mu_n], run on real blocks.

The three-term recurrence with running sigma scaling keeps iterates
bounded for large degrees; the resulting polynomial equals
C_d((t - c)/e) / C_d((s - c)/e), so the gain at the anchor s = mu_1 is 1
and everything inside the damped interval [mu_nevex, mu_n] is flattened
toward zero.  Any degree >= 1 is allowed.

The recurrence runs in Q* coordinates.  With the unitary
Q = [[I, iI], [I, -iI]] / sqrt(2), Q* H Q = i J R, where R = Q* (S H) Q is
the real symmetric form (`hamiltonian.real_symmetric_form`) and
J = [[0, I], [-I, 0]] (Shao, da Jornada, Yang, Deslippe & Lin, LAA 488,
2016).  The filter
coefficients are real, so the whole recurrence runs on the n x 2k real
block Y = [Re(y) | Im(y)] with y = Q* x / sqrt(2): the filter converts
into it once at entry and back once at exit.  One product is one GEMM
Z = R Y, formed as Z^T = Y^T R^T into a C-order buffer, and i J Z is a
fixed remap of Z's quadrants with two signs (new real part
[-Z_im[m:]; Z_im[:m]], new imaginary part [Z_re[m:]; -Z_re[:m]]), which
the elementwise update of the recurrence reads in place.  R is exactly
symmetric, so R^T is R; for an F-order R, R^T is a C-order view, and
numpy issues the NN sgemm, which OpenBLAS 0.3.31 runs 8-25 % faster than
the NT one that Y^T R issues (one thread, n = 512 to 2048, k = 32 to
64).  The two orientations round differently at small shapes, which the
corrected filter must not depend on (see below).

The recurrence runs in the dtype of the R it is handed: the solver passes
the float32 R it builds once per solve from the blocks, so the GEMMs run
as sgemm; without one the filter builds a float64 R for that call alone
and drops it on return.  The plain filter's float32 output is accurate to
a small multiple of float32's unit roundoff relative to ||x||.

The corrected filter removes that floor on Ritz pairs (mixed-precision
defect correction; Higham & Mary, Acta Numerica 31, 2022).  For a Ritz
pair (v, lam) with residual r = H v - lam v and a shift lam', p(H) v =
p(lam') v + q(H) r' exactly, with r' = r + (lam - lam') v and
q(t) = (p(t) - p(lam')) / (t - lam').  q obeys the filter's recurrence
with one extra per-column term,
q_{j+1} = alpha_j [(H - c) q_j + p_j(lam') r'] - beta_j q_{j-1}, from
q_0 = 0 and q_1 = sigma1/e (a scaling, no product), so it runs on the
real block of r' in the working dtype while p(lam') v is added in
float64: the rounding then scales with ||r'||, not with ||v||.  The
rounding also scales with the largest components of q_j(H) r', and q is
large where p is near 1: at the locked eigenvalues, which r' picks up
through the locked vectors' own residuals.  The solver therefore deflates
the locked components from the residual block before each corrected call
(`ortho.deflate_locked`); without that, the last target of an nex = 1
solve could stall at about 2e-8, depending on which GEMM kernel ran.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .hamiltonian import (
    BseHamiltonian,
    from_real_block,
    real_symmetric_form,
    to_real_block,
)
from .lanczos import SpectralBounds
from .metrics import PhaseLedger

@dataclass(frozen=True)
class FilterConfig:
    """Filter interval data: center c, half width e, scale anchor s."""

    degree: int
    center: float
    half_width: float
    scale_ref: float

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValidationError(f"filter degree must be >= 1, got {self.degree}")
        if not self.half_width > 0:
            raise ValidationError(f"filter half width must be positive, got {self.half_width}")

    @classmethod
    def from_bounds(cls, bounds: SpectralBounds, degree: int) -> "FilterConfig":
        return cls(
            degree=degree,
            center=(bounds.mu_n + bounds.mu_nevex) / 2.0,
            half_width=(bounds.mu_n - bounds.mu_nevex) / 2.0,
            scale_ref=bounds.mu_1,
        )


def residual_shifts(ritz_values, cfg: FilterConfig) -> np.ndarray:
    """The shift lam' of each Ritz value in the corrected filter.

    lam' = lam on [mu_1 - e/4, mu_n], else the centre c, where p is nearly
    0.  Far below mu_1 (a spurious value) p(lam) is huge and p(lam') v
    would cancel against q(H) r'.  The margin e/4 keeps lam' = lam for a
    target just below mu_1 (clipping lam' to mu_1 stalled m = 256,
    generator seed 13, whose lam_1 lies below mu_1); a wider margin let
    spurious values through (clipping to mu_1 - e/4 left lambda_min(Q*SQ)
    = 0.59 after row 2 of a backup solve at m = 256, generator seed 1).
    """
    values = np.asarray(ritz_values, dtype=np.float64)
    c, e = cfg.center, cfg.half_width
    inside = (values >= cfg.scale_ref - e / 4.0) & (values <= c + e)
    return np.where(inside, values, c)


def chebyshev_filter(
    ham: BseHamiltonian,
    vhat,
    cfg: FilterConfig,
    ledger: PhaseLedger | None = None,
    ritz_values=None,
    residual=None,
    real_form: np.ndarray | None = None,
):
    """Apply p(H) to the columns of vhat.

    Plain (no ritz_values): degree real GEMMs on R, 4*n^2*k FLOPs each.
    Corrected, when the columns of vhat are Ritz vectors v with Ritz values
    ritz_values and residuals residual = H v - lam v: the recurrence runs on
    r' = residual + (lam - lam') v and the output is p(lam') v + q(H) r',
    degree - 1 GEMMs.  The recurrence runs in real_form.dtype, real_form
    being R in some dtype; without one it runs in float64 on an R built for
    this call.
    """
    x = np.asarray(vhat, dtype=np.complex128)
    if x.shape[0] != ham.n:
        raise ValidationError(f"operand has {x.shape[0]} rows, expected {ham.n}")
    cols = x if x.ndim == 2 else x[:, None]
    r = real_symmetric_form(ham) if real_form is None else real_form
    dtype = r.dtype
    m, k = ham.m, cols.shape[1]
    c, e = cfg.center, cfg.half_width
    sigma1 = e / (cfg.scale_ref - c)
    sigma = sigma1

    zt = np.empty((2 * k, ham.n), dtype=dtype)  # Z^T, the GEMM output
    scratch = np.empty((ham.n, 2 * k), dtype=dtype, order="F")

    def step(y, y_prev, alpha, beta):
        """y_prev <- alpha * (i J R y - c y) - beta * y_prev, in place."""
        np.matmul(y.T, r.T, out=zt)
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

    if ritz_values is None:
        y_prev = to_real_block(cols, dtype)
        y = step(y_prev, np.zeros_like(y_prev), sigma1 / e, 0.0)
        products = cfg.degree
    else:
        # q_0 = 0 and q_1 = sigma1/e; gain holds p_j(lam') per column
        shift = residual_shifts(ritz_values, cfg)
        lam = np.asarray(ritz_values, dtype=np.float64)
        source = np.asarray(residual, dtype=np.complex128).reshape(cols.shape)
        source = to_real_block(source + cols * (lam - shift), dtype)
        y_prev, y = np.zeros_like(source), source * (sigma1 / e)
        gain_prev, gain = np.ones(k), (shift - c) * (sigma1 / e)
        products = cfg.degree - 1
    for _ in range(2, cfg.degree + 1):
        sigma_new = 1.0 / (2.0 / sigma1 - sigma)
        alpha, beta = 2.0 * sigma_new / e, sigma * sigma_new
        y_prev, y = y, step(y, y_prev, alpha, beta)
        if ritz_values is not None:
            coef = (alpha * gain).astype(dtype)
            np.multiply(source[:, :k], coef, out=scratch[:, :k])
            np.multiply(source[:, k:], coef, out=scratch[:, k:])
            y += scratch
            gain_prev, gain = gain, alpha * (shift - c) * gain - beta * gain_prev
        sigma = sigma_new
    if ledger is not None:
        ledger.add_flops("filter", products * 4.0 * ham.n * ham.n * k)
    out = from_real_block(y)
    if ritz_values is not None:
        out += cols * gain
    return out.reshape(x.shape)


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
