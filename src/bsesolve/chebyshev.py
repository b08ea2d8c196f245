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
2016).  The filter coefficients are real, so the whole recurrence runs on
a real n x 2k block holding y = Q* x / sqrt(2), in the dtype of the R it
is handed: the filter converts into it once at entry and back once at
exit, and each product is a real GEMM Z = R Y.

The solver passes the float32 R it builds once per solve from the blocks,
so every filter call of a solve runs in float32; without a real_form the
filter builds a float64 R for that call alone and drops it on return.
Either dtype runs on one row-major block: y is a C-order n x k array
(`to_complex_rows`) in R's complex dtype, complex64 for a float32 R and
complex128 for a float64 one, whose real view is the n x 2k block with
each column's real and imaginary parts side by side.  R is exactly
symmetric, so for the F-order R the C-order view R^T is R, and Z = R^T Y
is a GEMM on C-order operands, which OpenBLAS 0.3.31 runs with the narrow
block as M (M = 2k, K = n).  Against a column-major [Re(y) | Im(y)]
block, whose GEMM takes n as M, a float32 product at n = 2048 took
0.71-0.79 times as long for 2k = 2 to 80 (1.81 -> 1.41 ms at 2k = 2,
2.52 -> 1.89 ms at 2k = 16, 4.84 -> 3.81 ms at 2k = 80; two threads), and
whole filter calls 0.55-0.95 times as long (n = 512 and 2048, k = 4 to
320); a float64 product ran 1.2-1.5 times slower at n = 2048.  The GEMM
rounds a column differently depending on the block's width, so a single
vector need not get the bits of its column in a block.

Read as complex, i J Z = [i Z2; -i Z1]: each half of Z updates one
contiguous half of the block, so Z is formed one half of its rows at a
time (N = n/2) into a work buffer of half a block.  The corrected filter
holds one block more than the plain one, its source term, and the
half-height buffer keeps its peak within 1.25 times the plain call's in
float64 (a full-height Z makes it 1.33).  Two half GEMMs took 0.91-1.02
times as long as one full GEMM at n = 1024 and 2048 for 2k = 32 to 128,
but 1.06-1.09 times at n = 512, 2k = 64 and 1.06-1.17 times at n = 2048,
2k = 640 (two threads).  The plain filter's float32 output is accurate to
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
from .hamiltonian import BseHamiltonian, real_symmetric_form
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


#: Columns per pass of the conversions between an F-order x and the C-order
#: block: at n = 2048, k = 320 one pass over all columns took 16 ms in and
#: 10 ms out, passes of 16 columns 5 and 6 ms (two threads).
_PASS_COLUMNS = 16


def _column_passes(k: int) -> list[slice]:
    return [slice(j, j + _PASS_COLUMNS) for j in range(0, k, _PASS_COLUMNS)]


def to_complex_rows(x: np.ndarray, dtype) -> np.ndarray:
    """y = Q* x / sqrt(2) = [x1 + x2; i (x2 - x1)] / 2 as a C-order array of dtype.

    The filter's block: its real view is the row-major n x 2k real block,
    each column's real and imaginary parts side by side.  Each sum is
    formed in float64 and rounded once to dtype, then scaled exactly by
    1/2.  x is a 2-D complex array with an even row count.
    """
    return _complex_rows(x.shape, lambda c: x[:, c], dtype)


def _complex_rows(shape: tuple[int, int], columns, dtype) -> np.ndarray:
    """`to_complex_rows` of the n x k array whose columns c are columns(c).

    columns is called once per pass of columns, so an x formed from other
    arrays never exists in full.
    """
    m = shape[0] // 2
    y = np.empty(shape, dtype=dtype)
    for c in _column_passes(shape[1]):
        xc = columns(c)
        np.add(xc[:m], xc[m:], out=y[:m, c])
        np.subtract(xc[m:], xc[:m], out=y[m:, c])
    y[m:] *= 1j
    y.view(y.real.dtype)[...] *= 0.5
    return y


def from_complex_rows(y: np.ndarray) -> np.ndarray:
    """sqrt(2) Q y = [y1 + i y2; y1 - i y2] as an F-order complex128 array.

    The inverse of to_complex_rows, rounded in y's dtype.  It overwrites
    y's lower half with i y2.
    """
    m = y.shape[0] // 2
    x = np.empty(y.shape, dtype=np.complex128, order="F")
    y[m:] *= 1j
    for c in _column_passes(y.shape[1]):
        np.add(y[:m, c], y[m:, c], out=x[:m, c])
        np.subtract(y[:m, c], y[m:, c], out=x[m:, c])
    return x


class _RowBlock:
    """The recurrence block: the real view of `to_complex_rows` in R's dtype.

    One product Z = R Y is one GEMM per half of Z's rows on C-order
    operands (R^T is R), which OpenBLAS runs with the narrow block as M.
    In complex terms i J Z = [i Z2; -i Z1], so each half of Z updates one
    contiguous half of the block, and one work buffer of half a block holds
    each half of Z and the scaled terms in turn.
    """

    def __init__(self, r: np.ndarray, m: int, k: int):
        self.rt = r.T
        self.complex = np.result_type(r.dtype, np.complex64)
        self.work = np.empty((m, 2 * k), dtype=r.dtype)
        self.halves = (slice(None, m), slice(m, None))

    def load(self, x):
        return to_complex_rows(x, self.complex).view(self.rt.dtype)

    def load_shifted(self, r, v, d):
        """The block of r + v diag(d), formed one pass of columns at a time."""
        rows = _complex_rows(r.shape, lambda c: r[:, c] + v[:, c] * d[c], self.complex)
        return rows.view(self.rt.dtype)

    def unload(self, y):
        """The complex128 output; the work buffer goes first."""
        del self.work
        return from_complex_rows(y.view(self.complex))

    def add_scaled(self, out, y, coef):
        """out += y * coef, in place."""
        for h in self.halves:
            out[h] += np.multiply(y[h], coef, out=self.work)

    def add_product(self, y, out, alpha):
        """out += alpha i J R y, in place: out1 += i alpha Z2, out2 -= i alpha Z1."""
        upper, lower = self.halves
        z, zc = self.work, self.work.view(self.complex)
        np.matmul(self.rt[lower], y, out=z)
        zc *= 1j * alpha
        out[upper] += z
        np.matmul(self.rt[upper], y, out=z)
        zc *= 1j * alpha
        out[lower] -= z


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

    Plain (no ritz_values): degree real products with R, 4*n^2*k FLOPs each.
    Corrected, when the columns of vhat are Ritz vectors v with Ritz values
    ritz_values and residuals residual = H v - lam v: the recurrence runs on
    r' = residual + (lam - lam') v and the output is p(lam') v + q(H) r',
    degree - 1 products.  The recurrence runs in real_form.dtype, real_form
    being R in float32 or float64; without one it runs in float64 on an R
    built for this call.
    """
    x = np.asarray(vhat, dtype=np.complex128)
    if x.ndim not in (1, 2) or x.shape[0] != ham.n:
        raise ValidationError(f"operand must have {ham.n} rows and 1 or 2 axes, got {x.shape}")
    if real_form is not None and (
        real_form.dtype not in (np.float32, np.float64) or real_form.shape != (ham.n, ham.n)
    ):
        raise ValidationError(
            f"real_form must be a float32 or float64 {ham.n} x {ham.n} array,"
            f" got {real_form.dtype} {real_form.shape}"
        )
    cols = x if x.ndim == 2 else x[:, None]
    r = real_symmetric_form(ham) if real_form is None else real_form
    k = cols.shape[1]
    block = _RowBlock(r, ham.m, k)
    c, e = cfg.center, cfg.half_width
    sigma1 = e / (cfg.scale_ref - c)
    sigma = sigma1

    def step(y, y_prev, alpha, beta):
        """y_prev <- alpha * (i J R y - c y) - beta * y_prev, in place."""
        y_prev *= -beta
        block.add_scaled(y_prev, y, -alpha * c)
        block.add_product(y, y_prev, alpha)
        return y_prev

    if ritz_values is None:
        y_prev = block.load(cols)
        y = step(y_prev, np.zeros_like(y_prev), sigma1 / e, 0.0)
        products = cfg.degree
    else:
        # q_0 = 0 and q_1 = sigma1/e; gain holds p_j(lam') per column
        shift = residual_shifts(ritz_values, cfg)
        lam = np.asarray(ritz_values, dtype=np.float64)
        residual = np.asarray(residual, dtype=np.complex128).reshape(cols.shape)
        source = block.load_shifted(residual, cols, lam - shift)
        y_prev, y = np.zeros_like(source), source * (sigma1 / e)
        gain_prev, gain = np.ones(k), (shift - c) * (sigma1 / e)
        products = cfg.degree - 1
    for _ in range(2, cfg.degree + 1):
        sigma_new = 1.0 / (2.0 / sigma1 - sigma)
        alpha, beta = 2.0 * sigma_new / e, sigma * sigma_new
        y_prev, y = y, step(y, y_prev, alpha, beta)
        if ritz_values is not None:
            coef = np.repeat((alpha * gain).astype(r.dtype), 2)
            block.add_scaled(y, source, coef)
            gain_prev, gain = gain, alpha * (shift - c) * gain - beta * gain_prev
        sigma = sigma_new
    if ledger is not None:
        ledger.add_flops("filter", products * 4.0 * ham.n * ham.n * k)
    source = None  # dropped before the complex128 output is allocated
    out = block.unload(y)
    if ritz_values is not None:
        for part in _column_passes(k):
            out[:, part] += cols[:, part] * gain[part]
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
