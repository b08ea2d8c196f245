"""Scaled Chebyshev polynomial filter over [mu_nevex, mu_n].

The three-term recurrence with running sigma scaling keeps iterates
bounded for large degrees; the resulting polynomial equals
C_d((t - c)/e) / C_d((s - c)/e), so the gain at the anchor s = mu_1 is 1
and everything inside the damped interval [mu_nevex, mu_n] is flattened
toward zero.  The degree must be even: the adjoint-trick product kernel
is used on odd steps and the plain kernel on even steps, so an even
degree pairs the two kernels up exactly.  Both names are now the one
real-form product (`apply_h_via_adjoint` is `apply_h`), so the
alternation, `plain_kernel_only` and the even-degree rule choose between
identical computations; they are kept only until they are removed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .hamiltonian import BseHamiltonian, apply_h, apply_h_via_adjoint
from .lanczos import SpectralBounds
from .metrics import PhaseLedger


@dataclass(frozen=True)
class FilterConfig:
    """Filter interval data: center c, half width e, scale anchor s."""

    degree: int
    center: float
    half_width: float
    scale_ref: float
    plain_kernel_only: bool = False

    def __post_init__(self) -> None:
        if self.degree < 2 or self.degree % 2:
            raise ValidationError(f"filter degree must be even and >= 2, got {self.degree}")
        if not self.half_width > 0:
            raise ValidationError(f"filter half width must be positive, got {self.half_width}")

    @classmethod
    def from_bounds(
        cls, bounds: SpectralBounds, degree: int, plain_kernel_only: bool = False
    ) -> "FilterConfig":
        return cls(
            degree=degree,
            center=(bounds.mu_n + bounds.mu_nevex) / 2.0,
            half_width=(bounds.mu_n - bounds.mu_nevex) / 2.0,
            scale_ref=bounds.mu_1,
            plain_kernel_only=plain_kernel_only,
        )


def chebyshev_filter(
    ham: BseHamiltonian,
    vhat,
    cfg: FilterConfig,
    ledger: PhaseLedger | None = None,
):
    """Apply p(H) to the columns of vhat (degree matrix products)."""
    c, e = cfg.center, cfg.half_width
    sigma1 = e / (cfg.scale_ref - c)
    sigma = sigma1

    def product(x, step):
        if cfg.plain_kernel_only or step % 2 == 0:
            return apply_h(ham, x, ledger, "filter")
        return apply_h_via_adjoint(ham, x, ledger, "filter")

    y_prev = vhat
    y = (product(vhat, 1) - c * vhat) * (sigma1 / e)
    for step in range(2, cfg.degree + 1):
        sigma_new = 1.0 / (2.0 / sigma1 - sigma)
        y_next = (2.0 * sigma_new / e) * (product(y, step) - c * y) - (
            sigma * sigma_new
        ) * y_prev
        y_prev, y, sigma = y, y_next, sigma_new
    return y


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
