"""Structural property checks aggregated by the `verify` CLI command.

Every check measures against an independent dense computation (full
eigendecompositions, SVDs) rather than the iterative solver path, prints
its measured value, and never raises on failure: a failed property is
report content.

An instance's dense references (its full eigendecomposition, its dense
H, rho(SH) and cond(H)) are formed once, in `run_suite`, and each check
reads the ones it is given as arguments.

Like the rest of bsesolve, the checks call numpy.linalg only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .direct import (
    FullEigendecomposition, cond_of_h, dense_general_eig, direct_solve_definite, rho_sh
)
from .errors import HermitianRqError
from .generate import field_of_values_bounds, quadruplet_partners
from .hamiltonian import (
    BseHamiltonian,
    Definiteness,
    apply_h,
    apply_s,
    is_definite,
    materialize,
    validate_blocks,
)
from .rayleigh_ritz import (
    build_backup_rq,
    build_hermitian_rq,
    diagnostics,
    dual_basis_explicit,
)

#: Matrices this size or smaller get the exact ||H - lam I||_2 in kappa.
_EXACT_NORM_LIMIT = 1024


@dataclass
class PropertyCheck:
    name: str
    passed: bool
    detail: str


def _random_orthonormal(n: int, k: int, seed: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.complex_normal_matrix(seed, n, k))
    return q


def check_structure(a, b) -> PropertyCheck:
    """S H = H* S, checked on the blocks: the dense check's bits, no n x n array.

    Takes the blocks as given, so the CLI checks what it loaded before
    BseHamiltonian's symmetrization can repair a defect.
    """
    ok, defect = validate_blocks(a, b)
    return PropertyCheck("pseudo_hermitian_structure", ok, f"max defect {defect:.3e}")


def check_quadruplets(
    ham: BseHamiltonian, eig: FullEigendecomposition, rho: float, count: int = 4
) -> PropertyCheck:
    """Partner pairs generated by S, J, K keep the eigen-residual."""
    tol_in = 1e-10 * rho
    worst = 0.0
    idx = np.linspace(0, ham.n - 1, num=min(count, ham.n), dtype=int)
    for i in idx:
        v = eig.v[:, i]
        u = eig.u[:, i]
        partners = quadruplet_partners(ham, eig.lambdas[i], u, v, tol_in)
        for lam_p, v_p in partners:
            res = np.linalg.norm(apply_h(ham, v_p) - lam_p * v_p)
            worst = max(worst, res / (10.0 * tol_in))
    return PropertyCheck(
        "quadruplet_partners", worst <= 1.0, f"worst residual ratio {worst:.3e} (<= 1)"
    )


def check_field_of_values(ham: BseHamiltonian, lams: np.ndarray) -> PropertyCheck:
    """The spectrum lams inside [-rho(A), rho(A)] x [-sigma_max(B), sigma_max(B)]."""
    re_bound, im_bound = field_of_values_bounds(ham)
    slack = 1e-10 * max(re_bound, 1.0)
    ok = bool(
        (np.abs(lams.real) <= re_bound + slack).all()
        and (np.abs(lams.imag) <= im_bound + slack).all()
    )
    worst_re = float(np.abs(lams.real).max() - re_bound)
    worst_im = float(np.abs(lams.imag).max() - im_bound)
    return PropertyCheck(
        "field_of_values", ok, f"re excess {worst_re:.3e}, im excess {worst_im:.3e}"
    )


def check_cond_identity(dense: np.ndarray, cond: float) -> PropertyCheck:
    """cond = cond(SH) agrees with sigma_max(H)/sigma_min(H) to 1e-10 relative."""
    sv = np.linalg.svd(dense, compute_uv=False)
    rel = abs(cond - sv[0] / sv[-1]) / cond
    return PropertyCheck("cond_identity", rel <= 1e-10, f"relative gap {rel:.3e}")


def check_left_pairs_and_symmetry(
    eig: FullEigendecomposition, dense: np.ndarray, rho: float
) -> PropertyCheck:
    """u = S v is a left eigenpair and the spectrum is antisymmetric."""
    # left residual ||u* H - lam u*|| == ||H* u - lam u|| (lam real)
    left_res = np.linalg.norm(
        dense.conj().T @ eig.u - eig.u * eig.lambdas, axis=0
    ).max()
    anti = np.abs(eig.lambdas + eig.lambdas[::-1]).max()
    ok = left_res <= 1e-10 * rho and anti <= 1e-10 * rho
    return PropertyCheck(
        "left_pairs_and_antisymmetry",
        bool(ok),
        f"left residual {left_res:.3e}, antisymmetry {anti:.3e} (scale {rho:.3e})",
    )


def check_biorthogonality(eig: FullEigendecomposition) -> PropertyCheck:
    """V* S V is diagonal with nonzero diagonal."""
    gram = eig.v.conj().T @ apply_s(eig.v)
    off = np.abs(gram - np.diag(np.diag(gram))).max()
    dmin = np.abs(np.diag(gram)).min()
    ok = off <= 1e-10 and dmin > 0
    return PropertyCheck(
        "biorthogonality", bool(ok), f"max off-diagonal {off:.3e}, min |d| {dmin:.3e}"
    )


def check_qsq_spectrum_law(n: int, k: int, seed: int) -> PropertyCheck:
    """eig(Q*SQ) = 2 sigma_i(Q1)^2 - 1 and sigma_i(Q2)^2 = 1 - sigma_i(Q1)^2."""
    q = _random_orthonormal(n, k, seed)
    m = n // 2
    eig_m = np.sort(np.linalg.eigvalsh(_hermitize(q.conj().T @ apply_s(q))))
    s1 = np.sort(np.linalg.svd(q[:m], compute_uv=False))
    s2 = np.sort(np.linalg.svd(q[m:], compute_uv=False))[::-1]
    law = np.abs(eig_m - (2.0 * s1**2 - 1.0)).max()
    compl = np.abs(s2**2 - (1.0 - s1**2)).max()
    ok = law <= 1e-10 and compl <= 1e-10
    return PropertyCheck(
        "qsq_spectrum_law", bool(ok), f"eig law {law:.3e}, complement law {compl:.3e}"
    )


def _hermitize(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().T) / 2.0


def check_dual_basis(n: int, k: int, seed: int) -> PropertyCheck:
    """Biorthogonality of both explicit dual bases plus the norm identity."""
    q = _random_orthonormal(n, k, seed)
    worst_bi = 0.0
    for choice in ("full", "diagonal"):
        ql = dual_basis_explicit(q, choice)
        worst_bi = max(worst_bi, np.abs(ql.conj().T @ q - np.eye(k)).max())
    ql_full = dual_basis_explicit(q, "full")
    lam_min = np.abs(np.linalg.eigvalsh(_hermitize(q.conj().T @ apply_s(q)))).min()
    norm_gap = abs(np.linalg.svd(ql_full, compute_uv=False)[0] - 1.0 / lam_min) * lam_min
    ok = worst_bi <= 1e-10 and norm_gap <= 1e-8
    return PropertyCheck(
        "dual_basis", bool(ok), f"biorthogonality {worst_bi:.3e}, norm identity {norm_gap:.3e}"
    )


def check_ritz_interval(
    ham: BseHamiltonian, rho: float, cond: float, k: int, seed: int
) -> PropertyCheck:
    """Hermitian-variant Ritz values stay inside +- rho(SH)/|lambda_min(Q*SQ)|.

    The interval theorem covers the hermitian-equivalent projection; the
    backup operator is not a quotient of the two hermitian forms and its
    values carry no such guarantee.
    """
    q = _random_orthonormal(ham.n, k, seed)
    try:
        ritz, _ = build_hermitian_rq(ham, q)
    except HermitianRqError:
        return PropertyCheck("ritz_interval", True, "singular Q*SQ, vacuous")
    worst = np.abs(ritz.values).max() / diagnostics(q, ritz, rho, cond).ritz_interval
    return PropertyCheck(
        "ritz_interval", worst <= 1.0 + 1e-12, f"max |ritz| / interval {worst:.3e}"
    )


def check_singular_direction_detection(m: int) -> PropertyCheck:
    """The equal-halves column (sigma(Q1) = 1/sqrt(2)) must be flagged.

    Such a direction makes Q*SQ exactly singular; diagnostics must report
    lambda_min(M) = 0 with infinite bounds, and the hermitian-equivalent
    builder must refuse it.
    """
    q = np.zeros((2 * m, 1), dtype=complex)
    q[0, 0] = q[m, 0] = 1 / np.sqrt(2)
    from .rayleigh_ritz import RitzSet

    ham = BseHamiltonian(np.eye(m), np.zeros((m, m)))  # H = diag(I, -I): rho = cond = 1
    diag = diagnostics(q, RitzSet(values=np.zeros(1), vectors=q.copy()), 1.0, 1.0)
    refused = False
    try:
        build_hermitian_rq(ham, q)
    except HermitianRqError:
        refused = True
    ok = diag.singular and diag.lambda_min_m <= 1e-12 and refused
    return PropertyCheck(
        "singular_direction_detection",
        ok,
        f"lambda_min(M) {diag.lambda_min_m:.3e}, flagged {diag.singular}, "
        f"hermitian build refused {refused}",
    )


def check_petrov_galerkin(ham: BseHamiltonian, rho: float, k: int, seed: int) -> PropertyCheck:
    """Residuals of both variants are orthogonal to the matching dual basis.

    For the backup variant the property holds with the complex reduced
    eigenvalues (the real-part truncation is applied only after
    convergence drives the imaginary parts to zero).  In float64 each
    entry of r = H v - lam v errs by about eps max(rho, |lam|), and Q_L*
    multiplies that by up to ||Q_L||_2, which is 1/|lambda_min(Q*SQ)| for
    the full dual basis.  So each variant, with its own Q_L, is held to
    1e-8 rho(SH) + 100 eps ||Q_L||_2 max(rho, max |lam_i|).  On generated
    instances the measured value stayed below 4.4 eps ||Q_L||_2
    max(rho, max |lam_i|) at m = 2..512 and 20 at m = 1; Ritz vectors
    perturbed by 1e-6 (relative) read above 2e7 of it.
    """
    q = _random_orthonormal(ham.n, k, seed)
    variants = []
    try:
        ritz, _ = build_hermitian_rq(ham, q)
        variants.append(("hermitian", ritz.values, ritz.vectors, "full"))
    except HermitianRqError:
        pass
    _, reduced = build_backup_rq(ham, q)
    values, y = dense_general_eig(reduced.g)
    vectors = q @ y
    vectors /= np.linalg.norm(vectors, axis=0)
    variants.append(("backup", values, vectors, "diagonal"))
    passed, details = True, []
    for name, values, vectors, choice in variants:
        ql = dual_basis_explicit(q, choice)
        defect = np.abs(ql.conj().T @ (apply_h(ham, vectors) - vectors * values)).max()
        rounding = np.linalg.svd(ql, compute_uv=False)[0] * max(rho, np.abs(values).max())
        bound = 1e-8 * rho + 100.0 * np.finfo(float).eps * rounding
        passed = passed and bool(defect <= bound)
        details.append(f"{name} {defect:.3e} vs {bound:.3e}")
    return PropertyCheck(
        "petrov_galerkin_orthogonality", passed, "max |Q_L* r| " + ", ".join(details)
    )


def quadratic_sweep(
    ham: BseHamiltonian,
    eig: FullEigendecomposition,
    dense: np.ndarray,
    rho: float,
    cond: float,
    target_index: int = 1,
    epsilons=(1e-2, 1e-3, 1e-4),
    k: int = 4,
    seed: int = 0,
):
    """Ritz-value error of both variants along a perturbation sweep.

    The search space is the orthonormalization of [v + eps*e, C] with the
    target eigenvector v, a fixed unit direction e orthogonal to v, and the
    fixed complement C built from k-1 exact eigenvectors of neighboring
    eigenvalues (so the perturbation eps isolates the target direction).
    C skips the eigenvalues within 1e-8 rho(SH) of the target: with one of
    the target's own eigenvectors in C the nearest Ritz value is exact for
    every eps.  Returns per-eps errors of both variants and the kappa bound
    sqrt(cond) ||H - lam I||_2 / |lambda_min(Q*SQ)| of the hermitian-equivalent
    Ritz value lam nearest the target (||H - lam I||_2 <= rho + |lam| above
    n = _EXACT_NORM_LIMIT).
    """
    lam_t = eig.lambdas[target_index]
    v = eig.v[:, target_index]
    n = ham.n
    apart = np.abs(eig.lambdas - lam_t) > 1e-8 * rho
    others = np.nonzero(apart)[0][: k - 1]
    raw = rng.complex_normal_matrix(seed, n, 1)
    qfull, _ = np.linalg.qr(np.concatenate([v[:, None], raw], axis=1))
    e = qfull[:, 1]
    comp = eig.v[:, others]
    errs_h, errs_b, kappas = [], [], []
    for eps in epsilons:
        lead = v + eps * e
        q, _ = np.linalg.qr(np.concatenate([lead[:, None], comp], axis=1))
        ritz_h, reduced = build_hermitian_rq(ham, q)
        dist = np.abs(ritz_h.values - lam_t)
        errs_h.append(float(dist.min()))
        lam = ritz_h.values[dist.argmin()]
        exact = n <= _EXACT_NORM_LIMIT
        shift = np.linalg.norm(dense - lam * np.eye(n), 2) if exact else rho + np.abs(lam)
        kappas.append(float(np.sqrt(cond) * shift / reduced.lambda_min_m))
        ritz_b, _ = build_backup_rq(ham, q)
        errs_b.append(float(np.abs(ritz_b.values - lam_t).min()))
    return {
        "epsilons": np.asarray(epsilons, dtype=float),
        "hermitian_errors": np.asarray(errs_h),
        "backup_errors": np.asarray(errs_b),
        "kappas": np.asarray(kappas),
    }


def fit_slope(epsilons, errors) -> float:
    """Least-squares slope of log(error) against log(eps)."""
    x = np.log(np.asarray(epsilons, dtype=float))
    y = np.log(np.maximum(np.asarray(errors, dtype=float), 1e-300))
    return float(np.polyfit(x, y, 1)[0])


def check_quadratic_convergence(
    ham: BseHamiltonian, eig: FullEigendecomposition, dense: np.ndarray, rho: float, cond: float,
    seed: int = 0,
) -> PropertyCheck:
    if ham.n <= 4:  # the sweep's 4 columns span C^n: its errors are rounding
        return PropertyCheck("quadratic_ritz_convergence", True, "space spans C^n, vacuous")
    sweep = quadratic_sweep(ham, eig, dense, rho, cond, seed=seed)
    slope_h = fit_slope(sweep["epsilons"], sweep["hermitian_errors"])
    slope_b = fit_slope(sweep["epsilons"], sweep["backup_errors"])
    bound_ok = bool(
        (sweep["hermitian_errors"] <= 10.0 * sweep["kappas"] * sweep["epsilons"] ** 2).all()
    )
    ok = abs(slope_h - 2.0) <= 0.2 and slope_b >= 1.0 and bound_ok
    return PropertyCheck(
        "quadratic_ritz_convergence",
        ok,
        f"hermitian slope {slope_h:.3f} (2.0 +- 0.2), backup slope {slope_b:.3f} "
        f"(>= 1.0), kappa bound {'ok' if bound_ok else 'violated'}",
    )


def run_suite(ham: BseHamiltonian, seed: int = 0) -> list[PropertyCheck]:
    """The instance checks on one instance (definite or indefinite), each
    dense reference formed once; the structure check of the blocks is the
    caller's to run."""
    definite = is_definite(ham) is Definiteness.DEFINITE
    k = max(2, min(ham.n // 4, 8))
    eig = direct_solve_definite(ham) if definite else None  # before H: a lower peak
    dense = materialize(ham)
    lams = eig.lambdas if definite else dense_general_eig(dense)[0]
    checks = [
        check_field_of_values(ham, lams),
        # Q1 has min(k, m) singular values, one per eigenvalue only if k <= m
        check_qsq_spectrum_law(ham.n, min(k, ham.m), rng.substream(seed, 101)),
        check_dual_basis(ham.n, k, rng.substream(seed, 102)),
        check_singular_direction_detection(max(ham.m, 2)),
    ]
    if definite:
        rho, cond = rho_sh(ham), cond_of_h(ham)
        checks.extend(
            [
                check_quadruplets(ham, eig, rho),
                check_cond_identity(dense, cond),
                check_left_pairs_and_symmetry(eig, dense, rho),
                check_biorthogonality(eig),
                check_ritz_interval(ham, rho, cond, k, rng.substream(seed, 103)),
                check_petrov_galerkin(ham, rho, k, rng.substream(seed, 104)),
                check_quadratic_convergence(
                    ham, eig, dense, rho, cond, seed=rng.substream(seed, 105)
                ),
            ]
        )
    return checks
