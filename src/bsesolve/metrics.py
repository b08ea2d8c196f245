"""Per-phase FLOP model and wall-time accounting for solver runs."""

from __future__ import annotations

import time
from contextlib import contextmanager


class PhaseLedger:
    """Accumulates modeled real FLOPs and wall seconds per solver phase.

    The model charges 8 real FLOPs per complex multiply-add, so a complex
    GEMM of shape (p x q) * (q x r) costs 8*p*q*r, and 2 per real one: a
    float64 H-product on k columns is two complex m x m times m x 2k GEMMs
    on the blocks, 8*n^2*k; a filter step is one real n x n times n x 2k
    GEMM on the real form R, 4*n^2*k; and the definiteness certificate,
    one Schur-complement step on the m x m blocks of R (see
    `hamiltonian.is_definite`), costs n^3/3, as a Cholesky of R would,
    without forming an n x n array.
    """

    def __init__(self) -> None:
        self.flops: dict[str, float] = {}
        self.seconds: dict[str, float] = {}

    def add_flops(self, phase: str, count: float) -> None:
        self.flops[phase] = self.flops.get(phase, 0.0) + float(count)

    @contextmanager
    def timing(self, phase: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[phase] = self.seconds.get(phase, 0.0) + (
                time.perf_counter() - t0
            )

    def total_flops(self) -> float:
        return sum(self.flops.values())

    def total_seconds(self) -> float:
        return sum(self.seconds.values())
