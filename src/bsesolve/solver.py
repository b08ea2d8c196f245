"""Outer subspace iteration: filter, orthonormalize, project, lock.

One solve owns all of its mutable state and is deterministic per seed.
Each iteration filters only the non-locked columns, deflates the locked
vectors from them and orthonormalizes them (`ortho`), extracts Ritz pairs
with the hermitian-equivalent projection (falling back to the
non-hermitian one on its rare failures), locks the converged smallest
pairs and moves the filter cutoff.  Row 1 filters with the Lanczos
density cutoff (`lanczos.estimate_bounds`).  Row 2 filters with cutoff 0,
the positive-half purge: the passband is the whole negative half axis, so
whatever components of the positive half the random start block still
carries are damped before any Ritz value can settle among them.  Without
it a spurious Ritz value left over from row 1 can sit at the bottom of the
active block and hold up locking (generator and solver seed 24, m = 256,
nev = nex = 16 ran to 25 iterations).  From row 3 on the cutoff is
`lanczos.update_cutoff`'s: drop the active Ritz values below mu_1
(spurious values) and then the smallest ones still to lock, and take the
largest of the rest whose residual is above the locking threshold,
clamped to 0, or 0 when no value is left.

The search block holds nev + nex columns, nex = min(nev, max(8,
ceil(nev / 4))) by default (`_default_nex`).  The filter is most of a
solve and already runs at the sgemm rate, so its cost goes with the block
width.  Against nex = nev the rule takes up to two more iterations and
saves 15 % or more of the modeled FLOPs at nev >= 16, 19 % or more at
nev >= 32 (n = 512 to 2048, nev up to 256), and it stays within 12 % of
the cheapest nex of a sweep from nev/8 to nev on each of those instances.
Below 8 columns of extension the iterations climb faster than the
products shrink (n = 2048, nev = 8: nex = 3 took 9 iterations against 7
and ran slower; every product reads all of R, so at n = 2048 one on
2k = 20 real columns took 82 % of the time of one on 32, `BENCH_24.json`),
and nex <= 2 can stall at large n; min(nev, .) keeps every config that
nex = nev validated.

A solve holds A, B and one n x n array, the float32 real form R.  The
Chebyshev filter, most of a solve's time, runs on it in float32 on every
iteration: sgemm runs up to about 1.7 times as fast as dgemm.  R is built
from the blocks once per solve, after the definiteness certificate passes
(`hamiltonian.real_symmetric_form`), and dropped on return; the float64
H-products (Lanczos, one per projection and the returned residuals) run
on the blocks.  Iteration 1 filters the random start block directly.
Every later iteration filters the previous iteration's
Ritz vectors v through their residuals r = H v - lam v (mixed-precision
defect correction; Higham & Mary, Acta Numerica 31, 2022): the recurrence
runs in float32 on r' = r + (lam - lam') v and p(lam') v is added in
float64 (see `chebyshev`), so the float32 rounding scales with ||r'||, not
with ||v||.  Before each corrected call the locked eigen-components leave
the residual block: r <- r - Y (Y* S Y)^{-1} (S Y)* r with Y the locked
vectors (`ortho.deflate_locked`; (S Y)* and Y* S Y are formed once each
time Y grows, `ortho.locked_set`, and read by both of an iteration's
deflations).  With exact locked eigenvectors r has
none; the locked pairs' own residuals put some in, at about tol.  q is
about 1 / (t - lam') at a locked eigenvalue t, where p is near 1, but only
about p(lam') / (t - lam') on the damped interval, so those components set
the float32 rounding scale of the whole block: the last target of an
nex = 1 solve stalled near 2e-8, or not, depending on which sgemm kernel
rounded.  The deflation changes the filter's output by q(H) Y c =
Y q(Lambda) c, a span(Y) term of the size of the locked residuals, which
the same projection removes from the filtered block in `s_orthonormalize`.
The sgemm runs on a row-major complex64 block, with the narrow block as
its M (see `chebyshev`).
Orthonormalization, both Rayleigh-Ritz variants, the residuals, locking
and Lanczos always run in float64.  Each iteration makes one float64
H-product, H Q in the projection: the residuals R are written over
H V = (H Q) C (see `rayleigh_ritz`), and the next filter reads the active
columns of V and R as slices.  The residual norms a solve returns are
recomputed with one H-product on the returned vectors.

bsesolve calls numpy.linalg only: the solve path, the definiteness check,
the oracles and the `verify` checks alike.  So every BLAS call of a
bsesolve process runs on numpy's OpenBLAS and its one thread pool.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng
from .chebyshev import FilterConfig, chebyshev_filter
from .errors import IndefiniteError, NumericalError, ValidationError, require_integers
from .hamiltonian import (
    BseHamiltonian,
    Definiteness,
    apply_k,
    apply_s,
    is_definite,
    real_symmetric_form,
)
from .lanczos import SpectralBounds, estimate_bounds, update_cutoff
from .metrics import PhaseLedger
from .ortho import LockedSet, deflate_locked, locked_set, s_orthonormalize
from .rayleigh_ritz import (
    HermitianRqError,
    RitzSet,
    build_backup_rq,
    build_hermitian_rq,
    lock_converged,
    residuals,
)

logger = logging.getLogger(__name__)

#: rng substream tags of one solve (the generator owns tags 0 and 1).
TAG_LANCZOS = 2
TAG_SUBSPACE = 3


def _default_nex(nev: int) -> int:
    """The default block extension: min(nev, max(8, ceil(nev / 4)))."""
    return min(nev, max(8, -(-nev // 4)))


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters; nex defaults to min(nev, max(8, ceil(nev / 4))).

    The default trades filter FLOPs against iterations (see the module
    docstring for the measurements); an explicit nex runs as given.
    """

    nev: int
    nex: int | None = None
    deg: int = 20
    tol: float = 1e-8
    maxiter: int = 25
    rr_variant: str = "auto"
    seed: int = 0
    lanczos_steps: int = 24
    rel_res: bool = False

    @property
    def nevex(self) -> int:
        return self.nev + (_default_nex(self.nev) if self.nex is None else self.nex)

    def validate(self, n: int) -> None:
        require_integers(self, "nev", "nex", "deg", "maxiter", "seed", "lanczos_steps")
        if self.nev < 1:
            raise ValidationError(f"nev must be >= 1, got {self.nev}")
        if self.nex is not None and self.nex < 0:
            raise ValidationError(f"nex must be >= 0, got {self.nex}")
        half = n // 2
        if self.nev > half:
            raise ValidationError(f"nev = {self.nev} exceeds n/2 = {half}")
        if self.nevex > half and self.nex is None:
            raise ValidationError(
                f"nev + nex = {self.nevex} exceeds n/2 = {half} with the default "
                f"nex = {_default_nex(self.nev)}; set nex (--nex) to at most "
                f"{half - self.nev}"
            )
        if self.nevex > half:
            raise ValidationError(f"nev + nex = {self.nevex} exceeds n/2 = {half}")
        if self.deg < 1:
            raise ValidationError(f"deg must be >= 1, got {self.deg}")
        if not 0 < self.tol < np.inf:  # also rejects NaN
            raise ValidationError(f"tol must be positive and finite, got {self.tol}")
        if self.maxiter < 1:
            raise ValidationError(f"maxiter must be >= 1, got {self.maxiter}")
        if self.rr_variant not in ("auto", "hermitian", "backup"):
            raise ValidationError(
                f"rr_variant must be auto, hermitian or backup, got {self.rr_variant!r}"
            )
        if self.lanczos_steps < 2 or self.lanczos_steps % 2:
            raise ValidationError(
                f"lanczos_steps must be even and >= 2, got {self.lanczos_steps}"
            )


@dataclass
class TraceRecord:
    """One row of the per-iteration trace (CSV columns in this order)."""

    it: int
    locked: int
    k: int
    max_res: float
    min_res_unlocked: float
    mu_nevex: float
    variant: str
    lambda_min_m: float
    flops: float
    precision: str
    filter_s: float
    ortho_s: float
    rr_s: float
    residuals_s: float


@dataclass
class SolveResult:
    """The nev smallest eigenpairs plus full run provenance."""

    lambdas: np.ndarray
    v: np.ndarray
    residual_norms: np.ndarray
    iterations_used: int
    converged: bool
    trace: list[TraceRecord]
    bounds: SpectralBounds
    ledger: PhaseLedger = field(default_factory=PhaseLedger)
    backup_events: int = 0

    @property
    def nev(self) -> int:
        return self.lambdas.shape[0]


def solve(ham: BseHamiltonian, cfg: SolverConfig) -> SolveResult:
    """Compute the cfg.nev smallest eigenpairs of a definite Hamiltonian."""
    cfg.validate(ham.n)
    n, nevex, tol = ham.n, cfg.nevex, cfg.tol
    ledger = PhaseLedger()
    with ledger.timing("definite"):
        # the certificate runs on the m x m blocks; the float32 R that every
        # filter call of the solve runs on is built once, after it certifies
        factored = ham.definiteness is Definiteness.UNKNOWN
        if is_definite(ham) is not Definiteness.DEFINITE:
            raise IndefiniteError("solver requires S*H positive definite")
        if factored:
            ledger.add_flops("definite", n**3 / 3.0)
        r32 = real_symmetric_form(ham, np.float32)
    with ledger.timing("lanczos"):
        bounds = estimate_bounds(
            ham, nevex, cfg.lanczos_steps, rng.substream(cfg.seed, TAG_LANCZOS), ledger
        )
    normalizer = abs(bounds.mu_1) if cfg.rel_res else 1.0

    vhat = rng.complex_normal_matrix(
        rng.substream(cfg.seed, TAG_SUBSPACE), n, nevex
    )
    locked_vals: list[float] = []
    locked_y = np.zeros((n, 0), dtype=np.complex128)
    locked: LockedSet | None = None  # locked_y with its Gram, once any lock
    trace: list[TraceRecord] = []
    backup_events = 0
    iterations = 0
    current = bounds
    # Ritz values and residual block of the columns of vhat (none in row 1)
    vhat_values = vhat_residual = None

    for it in range(1, cfg.maxiter + 1):
        iterations = it
        flops_before = ledger.total_flops()
        seconds_before = dict(ledger.seconds)
        k = nevex - len(locked_vals)

        fcfg = FilterConfig.from_bounds(current, cfg.deg)
        with ledger.timing("filter"):
            if vhat_residual is not None and locked is not None:
                vhat_residual = deflate_locked(vhat_residual, locked, ledger, "filter")
            vhat = chebyshev_filter(
                ham, vhat, fcfg, ledger, vhat_values, vhat_residual, real_form=r32
            )
        with ledger.timing("ortho"):
            q, _ = s_orthonormalize(vhat, locked, ledger)

        variant = "backup" if cfg.rr_variant == "backup" else "hermitian"
        with ledger.timing("rr"):
            if variant == "hermitian":
                try:
                    ritz, reduced = build_hermitian_rq(ham, q, ledger)
                except HermitianRqError as exc:
                    if cfg.rr_variant == "hermitian":
                        raise NumericalError(
                            f"hermitian projection failed at iteration {it} "
                            f"with fallback disabled: {exc}"
                        ) from exc
                    logger.warning(
                        "iteration %d: switching to backup projection (%s)", it, exc
                    )
                    variant = "backup"
                    backup_events += 1
            if variant == "backup":
                ritz, reduced = build_backup_rq(ham, q, ledger)

        with ledger.timing("residuals"):
            res = residuals(ham, ritz, ledger)
        count = lock_converged(ritz, tol, cfg.nev - len(locked_vals), normalizer)
        if count:
            locked_y = np.concatenate([locked_y, ritz.vectors[:, :count]], axis=1)
            locked_vals.extend(ritz.values[:count])
        converged = len(locked_vals) >= cfg.nev
        if converged or it == cfg.maxiter:
            with ledger.timing("residuals"):
                returned = _returned_pairs(
                    ham, ritz, count, locked_vals, locked_y, cfg.nev, ledger
                )
        elif count:
            with ledger.timing("ortho"):
                locked = locked_set(locked_y, ledger)

        unlocked_res = res[count:]
        min_res = float(unlocked_res.min()) if unlocked_res.size else 0.0
        spent = {
            phase: ledger.seconds.get(phase, 0.0) - seconds_before.get(phase, 0.0)
            for phase in ("filter", "ortho", "rr", "residuals")
        }
        trace.append(
            TraceRecord(
                it=it,
                locked=len(locked_vals),
                k=k,
                max_res=float(res.max()),
                min_res_unlocked=min_res,
                mu_nevex=current.mu_nevex,
                variant=variant,
                lambda_min_m=reduced.lambda_min_m,
                flops=ledger.total_flops() - flops_before,
                precision="float32" if vhat_values is None else "float32-corrected",
                filter_s=spent["filter"],
                ortho_s=spent["ortho"],
                rr_s=spent["rr"],
                residuals_s=spent["residuals"],
            )
        )

        if converged:
            break

        vhat = ritz.vectors[:, count:]
        vhat_values = ritz.values[count:]
        vhat_residual = ritz.residual_vectors[:, count:]
        if it == 1:
            current = replace(bounds, mu_nevex=0.0)  # the positive-half purge
        else:
            current = update_cutoff(
                current, vhat_values, unlocked_res, tol * normalizer, cfg.nev - len(locked_vals)
            )

    return SolveResult(
        lambdas=returned.values,
        v=returned.vectors,
        residual_norms=returned.residual_norms,
        iterations_used=iterations,
        converged=converged,
        trace=trace,
        bounds=bounds,
        ledger=ledger,
        backup_events=backup_events,
    )


def _returned_pairs(
    ham: BseHamiltonian,
    ritz: RitzSet,
    count: int,
    locked_vals: list[float],
    locked_y: np.ndarray,
    nev: int,
    ledger: PhaseLedger,
) -> RitzSet:
    """The pairs a solve returns, ascending, with their residuals recomputed.

    Best effort: the locked pairs are topped up with the best active ones,
    the Ritz set's from count on (none are missing when the solve converged).
    The residuals come from one H-product on the returned vectors.
    """
    top = count + nev - len(locked_vals)
    vals = np.concatenate([locked_vals, ritz.values[count:top]])
    vecs = np.concatenate([locked_y, ritz.vectors[:, count:top]], axis=1)
    order = np.argsort(vals, kind="stable")
    returned = RitzSet(values=vals[order], vectors=vecs[:, order])
    residuals(ham, returned, ledger)
    return returned


@dataclass
class CompletedSpectrum:
    """Symmetric eigenpair set with left eigenvectors, values ascending."""

    values: np.ndarray
    right: np.ndarray
    left: np.ndarray


def _left_of(v: np.ndarray) -> np.ndarray:
    """Left eigenvectors S v, sign-fixed so that u* v > 0 columnwise."""
    sv = apply_s(v)
    overlap = np.real(np.einsum("ij,ij->j", sv.conj(), v))
    return sv * np.sign(overlap)


def complete_spectrum(result: SolveResult) -> CompletedSpectrum:
    """Mirror the computed pairs across zero via the quadruplet map.

    Each (lam, v) contributes its left partner u = S v (sign-normalized so
    u* v > 0) and the reflected right pair (-lam, K conj(v)) with its own
    left vector; partner residuals equal the original ones.
    """
    v = result.v
    mirrored = apply_k(np.conj(v))
    values = np.concatenate([result.lambdas, -result.lambdas])
    right = np.concatenate([v, mirrored], axis=1)
    left = np.concatenate([_left_of(v), _left_of(mirrored)], axis=1)
    order = np.argsort(values, kind="stable")
    return CompletedSpectrum(
        values=values[order], right=right[:, order], left=left[:, order]
    )


def mirror_largest(result: SolveResult) -> SolveResult:
    """The nev largest eigenpairs, derived from the smallest via (-lam, K conj(v)).

    Residual norms carry over exactly; trace, bounds and ledger still
    describe the underlying smallest-eigenpair run.
    """
    order = np.argsort(-result.lambdas, kind="stable")
    return replace(
        result,
        lambdas=-result.lambdas[order],
        v=apply_k(np.conj(result.v[:, order])),
        residual_norms=result.residual_norms[order],
    )
