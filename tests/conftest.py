import numpy as np
import pytest

from bsesolve import BseHamiltonian, GeneratorSpec, generate

#: eigenvalue of the 2x2 reference case A=[2], B=[0.5]: lambda^2 = A^2 - B^2
LAM2 = np.sqrt(3.75)


def dense_filter(h, x, cfg):
    """The Chebyshev recurrence of `chebyshev_filter` on a dense complex H (reference)."""
    c, e = cfg.center, cfg.half_width
    sigma1 = e / (cfg.scale_ref - c)
    sigma = sigma1
    y_prev, y = x, (h @ x - c * x) * (sigma1 / e)
    for _ in range(2, cfg.degree + 1):
        sigma_new = 1.0 / (2.0 / sigma1 - sigma)
        y_prev, y = y, (2.0 * sigma_new / e) * (h @ y - c * y) - (sigma * sigma_new) * y_prev
        sigma = sigma_new
    return y


@pytest.fixture
def ham2() -> BseHamiltonian:
    """m=1 case with closed-form spectrum +-sqrt(3.75)."""
    return BseHamiltonian(np.array([[2.0]]), np.array([[0.5]]))


@pytest.fixture
def ham_small() -> BseHamiltonian:
    return generate(GeneratorSpec(m=8, seed=11))


@pytest.fixture
def ham_mid() -> BseHamiltonian:
    return generate(GeneratorSpec(m=16, seed=5))
