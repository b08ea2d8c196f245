"""Outer subspace iteration: filter, orthonormalize, project, lock.

One solve owns all of its mutable state and is deterministic per seed.
Each iteration filters only the non-locked columns, deflates the locked
vectors from them and orthonormalizes them (`ortho`), extracts Ritz pairs
with the hermitian-equivalent projection (falling back to the
non-hermitian one on its rare failures), locks the converged smallest
pairs and moves the filter cutoff with `lanczos.update_cutoff`, the one
cutoff rule: drop the active Ritz values below mu_1 (spurious values) and
then the smallest ones still to lock, and take the largest of the rest
whose residual is above the locking threshold, clamped to 0, or 0 when no
value is left.

The Chebyshev filter, most of a solve's time, runs in float32 on every
iteration, on a float32 copy of R cast once per solve: sgemm runs up to
about 1.7 times as fast as dgemm.  Iteration 1 filters the random start
block directly.  Every later iteration filters the previous iteration's
Ritz vectors v through their residuals r = H v - lam v (mixed-precision
defect correction; Higham & Mary, Acta Numerica 31, 2022): the recurrence
runs in float32 on r' = r + (lam - lam') v and p(lam') v is added in
float64 (see `chebyshev`), so the float32 rounding scales with ||r'||, not
with ||v||.  Before each corrected call the locked eigen-components leave
the residual block: r <- r - Y (Y* S Y)^{-1} (S Y)* r with Y the locked
vectors (`ortho.deflate_locked`).  With exact locked eigenvectors r has
none; the locked pairs' own residuals put some in, at about tol.  q is
about 1 / (t - lam') at a locked eigenvalue t, where p is near 1, but only
about p(lam') / (t - lam') on the damped interval, so those components set
the float32 rounding scale of the whole block: the last target of an
nex = 1 solve stalled near 2e-8, or not, depending on which sgemm kernel
rounded.  The deflation changes the filter's output by q(H) Y c =
Y q(Lambda) c, a span(Y) term of the size of the locked residuals, which
the same projection removes from the filtered block in `s_orthonormalize`.
The sgemm runs in its faster NN orientation (see `chebyshev`).
Orthonormalization, both Rayleigh-Ritz variants, the residuals, locking
and Lanczos always run in float64.

Every dense linear-algebra call on the solve path, the definiteness check
included, goes through numpy.linalg.  numpy and scipy each bundle their
own OpenBLAS, each with its own spinning thread pool, and a solve that
crossed between the two pools on every iteration ran about 2.5 times
slower on two threads than on one at n = 512.  No bsesolve module imports
scipy at module level: only the oracles in `direct`, the `verify` checks
and `generate.field_of_values_bounds` import scipy.linalg, inside the
function that calls it, so `import bsesolve`, `solve()`, `generate()` and
the `generate`, `solve` and `bench` commands never load scipy's OpenBLAS.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng
from .chebyshev import FilterConfig, chebyshev_filter
from .errors import IndefiniteError, NumericalError, ValidationError
from .hamiltonian import (
    BseHamiltonian,
    Definiteness,
    apply_k,
    apply_s,
    cached_real_form,
    is_definite,
)
from .lanczos import SpectralBounds, estimate_bounds, update_cutoff
from .metrics import PhaseLedger
from .ortho import deflate_locked, s_orthonormalize
from .rayleigh_ritz import (
    HermitianRqError,
    build_backup_rq,
    build_hermitian_rq,
    lock_converged,
    residuals,
)

logger = logging.getLogger(__name__)

#: rng substream tags of one solve (the generator owns tags 0 and 1).
TAG_LANCZOS = 2
TAG_SUBSPACE = 3


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters; nex defaults to nev."""

    nev: int
    nex: int | None = None
    deg: int = 20
    tol: float = 1e-8
    maxiter: int = 25
    rr_variant: str = "auto"
    seed: int = 0
    lanczos_steps: int = 24
    rel_res: bool = False
    reproducible: bool = True

    @property
    def nevex(self) -> int:
        return self.nev + (self.nev if self.nex is None else self.nex)

    def validate(self, n: int) -> None:
        if self.nev < 1:
            raise ValidationError(f"nev must be >= 1, got {self.nev}")
        if self.nex is not None and self.nex < 0:
            raise ValidationError(f"nex must be >= 0, got {self.nex}")
        if self.nevex > n // 2:
            raise ValidationError(
                f"nev + nex = {self.nevex} exceeds n/2 = {n // 2}"
            )
        if self.deg < 1:
            raise ValidationError(f"deg must be >= 1, got {self.deg}")
        if not self.tol > 0:
            raise ValidationError(f"tol must be positive, got {self.tol}")
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
        # R is built once here: the certificate factors it and every
        # H-product of the solve runs on it; a rejected Hamiltonian keeps none
        factored = ham.definiteness is Definiteness.UNKNOWN
        if ham.definiteness is not Definiteness.INDEFINITE:
            cached_real_form(ham)
        if is_definite(ham) is not Definiteness.DEFINITE:
            ham._r = None
            raise IndefiniteError("solver requires S*H positive definite")
        if factored:
            ledger.add_flops("definite", n**3 / 3.0)
    with ledger.timing("lanczos"):
        bounds = estimate_bounds(
            ham, nevex, cfg.lanczos_steps, rng.substream(cfg.seed, TAG_LANCZOS), ledger
        )
    normalizer = abs(bounds.mu_1) if cfg.rel_res else 1.0

    vhat = rng.complex_normal_matrix(
        rng.substream(cfg.seed, TAG_SUBSPACE), n, nevex
    )
    locked_vals: list[float] = []
    locked_res: list[float] = []
    locked_y = np.zeros((n, 0), dtype=np.complex128)
    trace: list[TraceRecord] = []
    backup_events = 0
    converged = False
    iterations = 0
    current = bounds
    r32 = None  # float32 copy of R, cast at the first filter call
    # Ritz values and residual block of the columns of vhat (none in row 1)
    vhat_values = vhat_residual = None

    for it in range(1, cfg.maxiter + 1):
        iterations = it
        flops_before = ledger.total_flops()
        seconds_before = dict(ledger.seconds)
        k = nevex - len(locked_vals)

        fcfg = FilterConfig.from_bounds(current, cfg.deg, "float32")
        with ledger.timing("filter"):
            if r32 is None:
                r32 = cached_real_form(ham).astype(np.float32)
            if vhat_residual is not None and locked_y.shape[1]:
                vhat_residual = deflate_locked(vhat_residual, locked_y, ledger, "filter")
            vhat = chebyshev_filter(
                ham, vhat, fcfg, ledger, vhat_values, vhat_residual, real_form=r32
            )
        with ledger.timing("ortho"):
            q, _ = s_orthonormalize(vhat, locked_y, ledger)

        variant = "hermitian"
        with ledger.timing("rr"):
            if cfg.rr_variant == "backup":
                variant = "backup"
                ritz, reduced = build_backup_rq(ham, q, ledger)
            else:
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
                    ritz, reduced = build_backup_rq(ham, q, ledger)

        with ledger.timing("residuals"):
            res = residuals(ham, ritz, ledger)
        new_locked, active_idx = lock_converged(
            ritz, tol, cfg.nev - len(locked_vals), normalizer
        )
        if new_locked.size:
            locked_y = np.concatenate(
                [locked_y, ritz.vectors[:, new_locked]], axis=1
            )
            locked_vals.extend(ritz.values[new_locked])
            locked_res.extend(res[new_locked])

        unlocked_res = res[active_idx]
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

        if len(locked_vals) >= cfg.nev:
            converged = True
            break

        vhat = ritz.vectors[:, active_idx]
        vhat_values = ritz.values[active_idx]
        vhat_residual = ritz.residual_vectors[:, active_idx]
        current = update_cutoff(
            current, vhat_values, res[active_idx], tol * normalizer, cfg.nev - len(locked_vals)
        )

    if converged:
        vals = np.array(locked_vals)
        vecs = locked_y
        resid = np.array(locked_res)
    else:
        # best effort: top up the locked pairs with the best active ones
        missing = cfg.nev - len(locked_vals)
        vals = np.concatenate([locked_vals, ritz.values[active_idx][:missing]])
        vecs = np.concatenate(
            [locked_y, ritz.vectors[:, active_idx[:missing]]], axis=1
        )
        resid = np.concatenate([locked_res, res[active_idx][:missing]])

    order = np.argsort(vals, kind="stable")[: cfg.nev]
    return SolveResult(
        lambdas=vals[order],
        v=vecs[:, order],
        residual_norms=resid[order],
        iterations_used=iterations,
        converged=converged,
        trace=trace,
        bounds=bounds,
        ledger=ledger,
        backup_events=backup_events,
    )


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
