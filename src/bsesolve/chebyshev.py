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
exit, and each product is one real GEMM Z = R Y.

The solver passes the float32 R it builds once per solve from the blocks,
so every filter call of a solve runs in float32, on a row-major block: y
is a C-order complex64 n x k array (`to_complex_rows`), whose float32 view
is the n x 2k block with each column's real and imaginary parts side by
side.  R is exactly symmetric, so for the F-order R the C-order view R^T is
R, and Z = R^T Y is one sgemm on C-order operands, which OpenBLAS 0.3.31
runs with the narrow block as M (M = 2k, N = K = n).  Read as complex,
i J Z = [i Z2; -i Z1]: two contiguous half-block updates of the
recurrence.  Against the column-major [Re(y) | Im(y)] block the float32
path used before, whose sgemm took n as M, a product at n = 2048 took
0.71-0.79 times as long for 2k = 2 to 80 (1.81 -> 1.41 ms at 2k = 2,
2.52 -> 1.89 ms at 2k = 16, 4.84 -> 3.81 ms at 2k = 80; two threads), and
whole filter calls 0.55-0.95 times as long (n = 512 and 2048, k = 4 to
320).  Each element of Z is the same dot product, and the output equals
the column-major block's bit for bit on every call tried except narrow
blocks at small n (k <= 4 at n <= 256, k = 1 at n = 512), where OpenBLAS's
small-matrix sgemm rounds the two orientations apart by about eps32.

Without a real_form the filter builds a float64 R for that call alone,
drops it on return, and keeps the column-major block
Y = [Re(y) | Im(y)] (`hamiltonian.to_real_block`): Z^T = Y^T R^T into a
C-order buffer (the NN dgemm), and i J Z a fixed remap of Z's quadrants
with two signs, which the elementwise update reads in place.  Row-major
dgemm ran 1.2-1.5 times slower at n = 2048, and rounds a column
differently depending on the block's width, where a float64 call must
give a single vector the bits of its column in a block.  The plain
filter's float32 output is accurate to a small multiple of float32's unit
roundoff relative to ||x||.

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


#: Columns per pass of the conversions between an F-order x and the C-order
#: block: at n = 2048, k = 320 one pass over all columns took 16 ms in and
#: 10 ms out, passes of 16 columns 5 and 6 ms (two threads).
_PASS_COLUMNS = 16


def _column_passes(k: int) -> list[slice]:
    return [slice(j, j + _PASS_COLUMNS) for j in range(0, k, _PASS_COLUMNS)]


def to_complex_rows(x: np.ndarray) -> np.ndarray:
    """y = Q* x / sqrt(2) = [x1 + x2; i (x2 - x1)] / 2 as a C-order complex64 array.

    The float32 filter's block: its float32 view is the row-major n x 2k
    real block, each column's real and imaginary parts side by side.  Each
    sum is formed in float64 and rounded once, then scaled exactly by 1/2,
    as in `to_real_block`.  x is a 2-D complex array with an even row count.
    """
    return _complex_rows(x.shape, lambda c: x[:, c])


def _complex_rows(shape: tuple[int, int], columns) -> np.ndarray:
    """`to_complex_rows` of the n x k array whose columns c are columns(c).

    columns is called once per pass of columns, so an x formed from other
    arrays never exists in full.
    """
    m = shape[0] // 2
    y = np.empty(shape, dtype=np.complex64)
    for c in _column_passes(shape[1]):
        xc = columns(c)
        np.add(xc[:m], xc[m:], out=y[:m, c])
        np.subtract(xc[m:], xc[:m], out=y[m:, c])
    y[m:] *= 1j
    y.view(np.float32)[...] *= 0.5
    return y


def from_complex_rows(y: np.ndarray) -> np.ndarray:
    """sqrt(2) Q y = [y1 + i y2; y1 - i y2] as an F-order complex128 array.

    The inverse of to_complex_rows, rounded in complex64 like
    `from_real_block` rounds in float32.  It overwrites y's lower half
    with i y2.
    """
    m = y.shape[0] // 2
    x = np.empty(y.shape, dtype=np.complex128, order="F")
    y[m:] *= 1j
    for c in _column_passes(y.shape[1]):
        np.add(y[:m, c], y[m:, c], out=x[:m, c])
        np.subtract(y[:m, c], y[m:, c], out=x[m:, c])
    return x


class _RowBlock:
    """The float32 recurrence block: the float32 view of `to_complex_rows`.

    One product Z = R Y is one sgemm on C-order operands (R^T is R), which
    OpenBLAS runs with the narrow block as M.  In complex terms
    i J Z = [i Z2; -i Z1], two contiguous half-block updates.
    """

    def __init__(self, r: np.ndarray, m: int, k: int):
        self.rt, self.m = r.T, m
        self.z = np.empty((2 * m, 2 * k), dtype=r.dtype)  # Z, the GEMM output
        self.scratch = self.z  # free between the products

    def load(self, x):
        return to_complex_rows(x).view(np.float32)

    def load_shifted(self, r, v, d):
        """The block of r + v diag(d), formed one pass of columns at a time."""
        return _complex_rows(r.shape, lambda c: r[:, c] + v[:, c] * d[c]).view(np.float32)

    def unload(self, y):
        """The complex128 output; the work buffers go first."""
        del self.z, self.scratch
        return from_complex_rows(y.view(np.complex64))

    def spread(self, coef):
        """Per-column coefficients laid along the block's real columns."""
        return np.repeat(coef, 2)

    def add_product(self, y, out, alpha):
        """out += alpha i J R y, in place."""
        m = self.m
        np.matmul(self.rt, y, out=self.z)
        z = self.z.view(np.complex64)
        z *= 1j * alpha
        out[:m] += self.z[m:]
        out[m:] -= self.z[:m]


class _ColumnBlock:
    """The float64 recurrence block: Y = [Re(y) | Im(y)] in F order (`to_real_block`).

    One product is Z^T = Y^T R^T into a C-order buffer, and i J Z is a
    fixed remap of Z's quadrants with two signs.
    """

    def __init__(self, r: np.ndarray, m: int, k: int):
        self.r, self.m, self.k = r, m, k
        self.zt = np.empty((2 * k, 2 * m), dtype=r.dtype)  # Z^T, the GEMM output
        self.scratch = self.zt.T  # free between the products, in Y's layout

    def load(self, x):
        return to_real_block(x, self.r.dtype)

    def load_shifted(self, r, v, d):
        """The block of r + v diag(d)."""
        return to_real_block(r + v * d, self.r.dtype)

    def unload(self, y):
        """The complex128 output; the work buffers go first."""
        del self.zt, self.scratch
        return from_real_block(y)

    def spread(self, coef):
        """Per-column coefficients laid along the block's real columns."""
        return np.tile(coef, 2)

    def add_product(self, y, out, alpha):
        """out += alpha i J R y, in place."""
        m, k = self.m, self.k
        np.matmul(y.T, self.r.T, out=self.zt)
        z = self.zt.T
        z *= alpha
        out[:m, :k] -= z[m:, k:]
        out[m:, :k] += z[:m, k:]
        out[:m, k:] += z[m:, :k]
        out[m:, k:] -= z[:m, :k]


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
    k = cols.shape[1]
    block = (_RowBlock if r.dtype == np.float32 else _ColumnBlock)(r, ham.m, k)
    c, e = cfg.center, cfg.half_width
    sigma1 = e / (cfg.scale_ref - c)
    sigma = sigma1

    def step(y, y_prev, alpha, beta):
        """y_prev <- alpha * (i J R y - c y) - beta * y_prev, in place."""
        y_prev *= -beta
        np.multiply(y, alpha * c, out=block.scratch)
        y_prev -= block.scratch
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
            coef = block.spread((alpha * gain).astype(r.dtype))
            y += np.multiply(source, coef, out=block.scratch)
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
