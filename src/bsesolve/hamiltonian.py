"""Block storage for BSE-type Hamiltonians and the implicit S/K/J operators.

A Hamiltonian H = [[A, B], [-conj(B), -conj(A)]] with A hermitian and B
symmetric is stored as its two m x m blocks, half the memory of the dense
2m x 2m matrix, and nothing else: no n x n array lives on a Hamiltonian.
It satisfies S H = H* S for the signature operator S = diag(I, -I), which
is never formed: S, K = [[0, I], [I, 0]] and J = [[0, I], [-I, 0]] act by
sign flips and half swaps.

Products run on the blocks: H x = [s1; -conj(s2)] with
[s1 | s2] = A [x1 | conj(x2)] + B [x2 | conj(x1)], two complex m x m by
m x 2k GEMMs, 8*n^2*k real FLOPs for k columns.  The real symmetric n x n
form R = Q* (S H) Q with Q = [[I, iI], [I, -iI]] / sqrt(2)
(`real_symmetric_form`) is what the Chebyshev filter runs on.  Since
Q* S Q = i J, Q* H Q = i J R: the filter stays in Q* coordinates for a
whole polynomial and converts back only at its end (see `chebyshev`).
R = R^T holds exactly because construction makes A exactly hermitian and
B exactly symmetric; the filter's GEMM relies on it.  R is built in the
dtype its user asks for: a solve builds one float32 R, once its
certificate passes, and drops it on return.  The definiteness certificate
(`is_definite`) forms no n x n array: it is a blocked Cholesky of R on
its m x m blocks, formed directly from A and B.  Every Cholesky
factorization on the solve path, the certificate's, CholQR2's and the
hermitian projection's, runs in one kernel, `inverse_cholesky`, a
recursion on numpy GEMMs whose leaves call numpy's Cholesky and inverse
on at most 128 rows.

Construction takes Fortran-order complex128 blocks without a copy and
checks their symmetries by walking pairs of small tiles (`symmetry_defect`),
so on exact blocks it allocates tiles, not blocks.  The same walk forms a
hermitian or symmetric part in place (`symmetric_part`): generate() builds
its blocks with it, and a repair on load runs it on one copy of the block.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .metrics import PhaseLedger

logger = logging.getLogger(__name__)

#: Relative max-norm defect accepted (and silently repaired) on the block
#: symmetries; anything larger is rejected as malformed input.
SYMMETRY_RTOL = 1e-12


class Definiteness(enum.Enum):
    UNKNOWN = "unknown"
    DEFINITE = "definite"
    INDEFINITE = "indefinite"


def as_complex_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite complex128 column-major 2-D array."""
    arr = np.asfortranarray(a, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


#: Rows and columns of the square tiles that `_tile_pairs` walks.
_TILE = 64


def _tile_pairs(m: int):
    """Index pairs (I, J) of the tiles of an m x m array on and below its diagonal.

    Tile (I, J) and its mirror (J, I) together cover every entry once, the
    diagonal tiles alone; the tiles are _TILE x _TILE, fewer at the edges.
    """
    for i0 in range(0, m, _TILE):
        rows = slice(i0, min(i0 + _TILE, m))
        for j0 in range(0, i0 + 1, _TILE):
            yield rows, slice(j0, min(j0 + _TILE, m))


def _mirror(x: np.ndarray, i: slice, j: slice, hermitian: bool) -> np.ndarray:
    """conj(x[j, i]).T if hermitian else x[j, i].T."""
    return x[j, i].conj().T if hermitian else x[j, i].T


def symmetry_defect(x: np.ndarray, hermitian: bool) -> float:
    """max |x_ij - conj(x_ji)| (hermitian) or max |x_ij - x_ji| of a square x.

    Walks tile pairs, so it allocates tiles only.  |x_ji - conj(x_ij)| is
    |x_ij - conj(x_ji)| exactly (only signs differ), so the tiles on and below
    the diagonal give the bits of the full-array maximum.
    """
    defect = 0.0
    for i, j in _tile_pairs(x.shape[0]):
        defect = max(defect, np.abs(x[i, j] - _mirror(x, i, j, hermitian)).max())
    return float(defect)


def max_abs(x: np.ndarray) -> float:
    """max |x_ij| (0.0 for an empty x), one panel of _TILE columns at a time."""
    panels = range(0, x.shape[1], _TILE)
    return max((float(np.abs(x[:, j:j + _TILE]).max()) for j in panels), default=0.0)


def symmetric_part(x: np.ndarray, hermitian: bool) -> np.ndarray:
    """Overwrite a square x with (x + x^H) / 2 (hermitian) or (x + x^T) / 2.

    Each entry is written as (x_ij + conj(x_ji)) / 2 (or (x_ij + x_ji) / 2)
    from the values before the call, one tile pair at a time, so x ends bit
    for bit as the out-of-place expression would.  Returns x.
    """
    for i, j in _tile_pairs(x.shape[0]):
        lower = (x[i, j] + _mirror(x, i, j, hermitian)) / 2.0
        if i != j:
            x[j, i] = (x[j, i] + _mirror(x, j, i, hermitian)) / 2.0
        x[i, j] = lower
    return x


def _symmetrize(block: np.ndarray, name: str, hermitian: bool) -> np.ndarray:
    """Accept small symmetry defects, repair them on a copy, reject large ones."""
    kind = "hermiticity" if hermitian else "symmetry"
    defect = symmetry_defect(block, hermitian)
    if defect == 0.0:
        return block
    scale = max_abs(block)
    if scale > 0.0 and defect > SYMMETRY_RTOL * scale:
        raise ValidationError(
            f"{name} violates {kind} beyond tolerance: defect={defect:.3e}, "
            f"allowed={SYMMETRY_RTOL * scale:.3e}"
        )
    logger.warning(
        "%s had a %s defect of %.3e (scale %.3e); symmetrized on load",
        name, kind, defect, scale,
    )
    return symmetric_part(block.copy(order="F"), hermitian)


@dataclass(eq=False)
class BseHamiltonian:
    """H = [[A, B], [-conj(B), -conj(A)]] stored as blocks A and B.

    A must be hermitian and B symmetric; defects up to SYMMETRY_RTOL times
    the block scale are repaired on construction.  The full matrix is only
    materialized on explicit request, and no n x n array is kept.
    definiteness is read-only: only the certificate of `is_definite` sets
    it.
    """

    a: np.ndarray
    b: np.ndarray
    _definiteness: Definiteness = field(
        default=Definiteness.UNKNOWN, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        a = as_complex_matrix(self.a, "A")
        b = as_complex_matrix(self.b, "B")
        if a.shape[0] != a.shape[1] or b.shape[0] != b.shape[1]:
            raise ValidationError(f"blocks must be square, got {a.shape} and {b.shape}")
        if a.shape != b.shape:
            raise ValidationError(f"A and B must agree in size, got {a.shape} != {b.shape}")
        a = _symmetrize(a, "A", hermitian=True)
        b = _symmetrize(b, "B", hermitian=False)
        a.flags.writeable = False
        b.flags.writeable = False
        self.a = a
        self.b = b

    @property
    def definiteness(self) -> Definiteness:
        return self._definiteness

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def n(self) -> int:
        return 2 * self.a.shape[0]


def _check_rows(x: np.ndarray, n: int) -> None:
    if x.shape[0] != n:
        raise ValidationError(f"operand has {x.shape[0]} rows, expected {n}")


def apply_s(x) -> np.ndarray:
    """S x: upper half unchanged, lower half negated (involution)."""
    x = np.asarray(x, dtype=np.complex128)
    if x.shape[0] % 2:
        raise ValidationError(f"S needs an even row count, got {x.shape[0]}")
    out = x.copy()
    out[x.shape[0] // 2:] *= -1.0
    return out


def apply_k(x) -> np.ndarray:
    """K x: swap the upper and lower halves (K*K = I)."""
    x = np.asarray(x, dtype=np.complex128)
    if x.shape[0] % 2:
        raise ValidationError(f"K needs an even row count, got {x.shape[0]}")
    m = x.shape[0] // 2
    return np.concatenate([x[m:], x[:m]], axis=0)


def apply_j(x) -> np.ndarray:
    """J x = (x_lower, -x_upper) (J*J = -I)."""
    x = np.asarray(x, dtype=np.complex128)
    if x.shape[0] % 2:
        raise ValidationError(f"J needs an even row count, got {x.shape[0]}")
    m = x.shape[0] // 2
    return np.concatenate([x[m:], -x[:m]], axis=0)


def apply_h(
    ham: BseHamiltonian,
    x,
    ledger: PhaseLedger | None = None,
    phase: str = "filter",
) -> np.ndarray:
    """H x from the blocks: two complex m x m GEMMs, 8*n^2*k real FLOPs for k columns.

    With [s1 | s2] = A [x1 | conj(x2)] + B [x2 | conj(x1)], H x is
    [s1; -conj(s2)]: the lower half -conj(B) x1 - conj(A) x2 is
    -conj(A conj(x2) + B conj(x1)).  The GEMMs form the transpose,
    [x1 | conj(x2)]^T A^T + [x2 | conj(x1)]^T B^T: for F-order blocks that
    is the NN orientation, which ran 13-20 % faster than A [x1 | conj(x2)]
    at m = 1024, k = 1 to 64 (OpenBLAS 0.3.31, two threads).
    """
    x = np.asarray(x, dtype=np.complex128)
    _check_rows(x, ham.n)
    cols = x if x.ndim == 2 else x[:, None]
    m, k = ham.m, cols.shape[1]
    x1, x2 = cols[:m].T, cols[m:].T
    st = np.concatenate([x1, x2.conj()]) @ ham.a.T
    st += np.concatenate([x2, x1.conj()]) @ ham.b.T
    out = np.empty((ham.n, k), dtype=np.complex128, order="F")
    out[:m] = st[:k].T
    np.conjugate(st[k:].T, out=out[m:])
    out[m:] *= -1.0
    if ledger is not None:
        ledger.add_flops(phase, 8.0 * ham.n * ham.n * k)
    return out.reshape(x.shape)


def materialize(ham: BseHamiltonian) -> np.ndarray:
    """Dense n x n H, for oracles and structural checks only."""
    return np.asfortranarray(
        np.block([[ham.a, ham.b], [-np.conj(ham.b), -np.conj(ham.a)]])
    )


def materialize_sh(ham: BseHamiltonian) -> np.ndarray:
    """Dense n x n S H = [[A, B], [conj(B), conj(A)]] (hermitian)."""
    return np.asfortranarray(
        np.block([[ham.a, ham.b], [np.conj(ham.b), np.conj(ham.a)]])
    )


def validate_pseudo_hermitian(h_dense) -> tuple[bool, float]:
    """Check S H = H* S on a dense matrix; returns (ok, max defect)."""
    h = np.asarray(h_dense, dtype=np.complex128)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {h.shape}")
    if h.shape[0] % 2:
        raise ValidationError(f"pseudo-hermitian structure needs even dimension, got {h.shape[0]}")
    sh = apply_s(h)
    hs = h.conj().T.copy()
    hs[:, h.shape[0] // 2:] *= -1.0  # right-multiplying by S negates the right half columns
    defect = float(np.abs(sh - hs).max()) if h.size else 0.0
    scale = float(np.abs(h).max()) if h.size else 0.0
    return defect <= SYMMETRY_RTOL * scale, defect


def validate_blocks(a, b) -> tuple[bool, float]:
    """`validate_pseudo_hermitian` of [[A, B], [-conj(B), -conj(A)]] from its blocks.

    S H - H* S = [[A - A*, B - B^T], [conj(B) - B*, conj(A) - A^T]], whose
    entries have the moduli of A's hermiticity and B's symmetry defects, and
    max |H| = max(|A|, |B|): both results are the dense function's, bit for
    bit, with no n x n array formed.
    """
    a = as_complex_matrix(a, "A")
    b = as_complex_matrix(b, "B")
    if a.shape[0] != a.shape[1] or a.shape != b.shape:
        raise ValidationError(f"blocks must be square and agree, got {a.shape} and {b.shape}")
    defect = max(symmetry_defect(a, hermitian=True), symmetry_defect(b, hermitian=False))
    scale = max(max_abs(a), max_abs(b))
    return defect <= SYMMETRY_RTOL * scale, defect


def real_symmetric_form(ham: BseHamiltonian, dtype=np.float64) -> np.ndarray:
    """The real symmetric n x n matrix R unitarily similar to S H, in dtype.

    R = [[Re(A+B), Im(B-A)], [Im(A+B), Re(A-B)]] equals Q* (S H) Q for the
    unitary Q = [[I, iI], [I, -iI]] / sqrt(2) (Shao, da Jornada, Yang,
    Deslippe & Lin, LAA 488, 2016), so it has the spectrum of S H at half
    the storage of the complex form.  Each block is summed in float64 and
    written straight into one Fortran-order array of the requested dtype,
    so a float32 R is the float64 one rounded, with no float64 copy made.
    """
    m = ham.m
    ar, ai = ham.a.real, ham.a.imag
    br, bi = ham.b.real, ham.b.imag
    r = np.empty((ham.n, ham.n), dtype=dtype, order="F")
    np.add(ar, br, out=r[:m, :m])
    np.subtract(bi, ai, out=r[:m, m:])
    np.add(ai, bi, out=r[m:, :m])
    np.subtract(ar, br, out=r[m:, m:])
    return r


#: Columns at or below which `inverse_cholesky` runs numpy's Cholesky and
#: inverse: a leaf, and every call of at most this size.
_INVERSE_LEAF = 128


def _subtract_gram(x: np.ndarray, w: np.ndarray) -> None:
    """x -= w w* on and below the diagonal of a square x; above it x goes stale.

    Recursive 2 x 2 blocks: the block below the diagonal is one GEMM and the
    two diagonal blocks recurse, so the update costs about half the FLOPs of
    the full square.  Leaves of at most _INVERSE_LEAF rows update their whole
    square.
    """
    k = x.shape[0]
    if k <= _INVERSE_LEAF:
        x -= w @ w.conj().T
        return
    h = k // 2
    _subtract_gram(x[:h, :h], w[:h])
    x[h:, :h] -= w[h:] @ w[:h].conj().T
    _subtract_gram(x[h:, h:], w[h:])


def _halves(start: int, stop: int) -> tuple[slice, slice]:
    """Rows start:stop as two slices, so that a product over them needs half
    the temporary."""
    mid = (start + stop) // 2
    return slice(start, mid), slice(mid, stop)


def inverse_cholesky(x: np.ndarray) -> np.ndarray:
    """Overwrite x = [X; Y] with [L^{-1}; Y L^{-*}], where X = L L*; returns x.

    X is the leading k x k block of the k + r by k array x (r >= 0), and
    must be symmetric or hermitian positive definite; only its lower
    triangle is read.  Raises numpy.linalg.LinAlgError when it is not
    positive definite.  The r rows Y below it come back as Y L^{-*}, the
    rows below L in the Cholesky factor of [[X, Y*], [Y, .]].  numpy has
    GEMMs but no fast Cholesky or triangular solve, so every Cholesky
    factorization on the solve path runs here.

    Recursive 2 x 2 blocks on the columns, with h = k // 2: M11 = L11^{-1}
    and W = X21 M11* = L21 come from the recursion on the leading h columns
    (`_schur_step`), which also turns the rows below into Y1 M11* and
    updates X22 -= W W* and Y2 -= Y1 M11* W*; M22 = L22^{-1} comes from the
    recursion on the trailing columns, and M21 = -M22 W M11.  Nearly all
    FLOPs run in GEMMs.  A leaf of at most _INVERSE_LEAF columns is
    numpy.linalg.inv of numpy.linalg.cholesky, so a square x of that size
    gets numpy's bits.
    """
    k = x.shape[1]
    if k <= _INVERSE_LEAF:
        x[:k] = np.linalg.inv(np.linalg.cholesky(x[:k]))
        m_h = x[:k].conj().T
        for rows in _halves(k, x.shape[0]):
            x[rows] = x[rows] @ m_h
        return x
    h = _schur_step(x, inverse_cholesky)
    inverse_cholesky(x[h:, h:])
    w = x[h:k, :h]
    np.matmul(x[h:k, h:] @ w, x[:h, :h], out=w)
    w *= -1.0
    x[:h, h:] = 0.0
    return x


def _schur_step(x: np.ndarray, factor) -> int:
    """The leading step of the recursion on x's first h = k // 2 columns.

    factor (`inverse_cholesky` or `_factor_rows`) turns X21 into W = L21
    and the rows Y below X into Y1 M11* on the leading columns; then the
    step's update is subtracted from the trailing columns: X22 -= W W*
    (lower triangle) and Y2 -= Y1 M11* W* (in two halves of rows).
    Returns h.
    """
    k = x.shape[1]
    h = k // 2
    factor(x[:, :h])
    _subtract_gram(x[h:k, h:], x[h:k, :h])
    w_h = x[h:k, :h].conj().T
    for rows in _halves(k, x.shape[0]):
        x[rows, h:] -= x[rows, :h] @ w_h
    return h


def _factor_rows(x: np.ndarray) -> None:
    """Y L^{-*} over the rows Y below X, and the verdict on X; X is left scrambled.

    `inverse_cholesky` without its assembly steps M21 = -M22 W M11, which
    only L^{-1} itself needs, and with a last leaf that needs no inverse
    when no rows lie below it.  Raises numpy.linalg.LinAlgError when X is
    not positive definite.
    """
    k = x.shape[1]
    if k > _INVERSE_LEAF:
        h = _schur_step(x, _factor_rows)
        _factor_rows(x[h:, h:])
    elif x.shape[0] > k:
        inverse_cholesky(x)
    else:
        np.linalg.cholesky(x)


def is_definite(ham: BseHamiltonian) -> Definiteness:
    """Classify S H by a blocked Cholesky factorization of its real form (cached).

    R = [[P, C^T], [C, Q]] with P = Re(A+B), Q = Re(A-B) (a block here, not
    the unitary Q) and C = Im(A+B) is positive definite iff P is and so is
    the Schur complement S = Q - W W^T, W = C L_P^{-T} with P = L_P L_P^T:
    [[L_P, 0], [W, L_S]] is R's Cholesky factor.  P and C are stacked in
    one C-order n x m array, and the recursion of `inverse_cholesky` turns
    C into W (`_factor_rows`, which skips the assembly of L_P^{-1}).  Q then
    overwrites P, S = Q - W W^T is formed on its lower triangle, and S gets
    its verdict from the same recursion.  At m = 1024 that is about
    2.9 m^3 FLOPs (1.5 m^3 for W, m^3 for W W^T, 0.4 m^3 for S), nearly
    all in GEMMs, and numpy's Cholesky and inverse see blocks of at most
    _INVERSE_LEAF rows; the ledger keeps the n^3/3 = 2.7 m^3 of a Cholesky
    of R, the work the certificate stands for.  Every elementwise pass
    reads and writes one memory order.  The certificate never forms R or
    another n x n array: it peaks at 2.25 real m x m arrays at m >= 1024
    ([P; C] and one quarter-block GEMM result).
    """
    if ham.definiteness is not Definiteness.UNKNOWN:
        return ham.definiteness
    m = ham.m
    ar, ai = ham.a.real, ham.a.imag
    br, bi = ham.b.real, ham.b.imag
    x = np.empty((ham.n, m))  # [P; C], then [S; W]
    np.add(ar, br, out=x[:m].T)  # P is symmetric: written through its transpose
    np.subtract(bi, ai, out=x[m:].T)  # C^T = Im(B - A), as A is hermitian
    try:
        _factor_rows(x)  # W over C
        s = x[:m]
        np.subtract(ar, br, out=s.T)
        _subtract_gram(s, x[m:])
        _factor_rows(s)
    except np.linalg.LinAlgError:
        ham._definiteness = Definiteness.INDEFINITE
    else:
        ham._definiteness = Definiteness.DEFINITE
    return ham.definiteness
