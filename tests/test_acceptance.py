"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  The heavy convergence studies (criteria 1 and 2) share
one batch of one hundred n=512 solves through a module-scoped fixture.
"""

import time

import numpy as np
import pytest

import bsesolve as bs
from bsesolve import rng
from bsesolve.cli import cli
from bsesolve.verify import (
    check_biorthogonality,
    check_cond_identity,
    check_dual_basis,
    check_field_of_values,
    check_left_pairs_and_symmetry,
    check_qsq_spectrum_law,
    check_quadruplets,
    check_ritz_interval,
    fit_slope,
    quadratic_sweep,
)

from conftest import dense_filter

N_SEEDS = 100
M_BIG = 256  # n = 512


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")


def _instance(seed: int, m: int = M_BIG) -> bs.BseHamiltonian:
    return bs.generate(bs.GeneratorSpec(m=m, seed=seed))


def _references(ham: bs.BseHamiltonian):
    """The dense references `run_suite` forms: eigendecomposition, H, rho, cond."""
    return bs.direct_solve_definite(ham), bs.materialize(ham), bs.rho_sh(ham), bs.cond_of_h(ham)


@pytest.fixture(scope="module")
def hermitian_runs():
    """criterion 1 batch: forced-hermitian solves at tol=1e-8, 100 seeds."""
    runs = {}
    for seed in range(N_SEEDS):
        ham = _instance(seed)
        t0 = time.perf_counter()
        result = bs.solve(
            ham,
            bs.SolverConfig(nev=16, nex=16, tol=1e-8, seed=seed, rr_variant="hermitian"),
        )
        runs[seed] = (result, time.perf_counter() - t0)
    return runs


def test_criterion_1_convergence_parity(hermitian_runs):
    iters = np.array([r.iterations_used for r, _ in hermitian_runs.values()])
    walls = np.array([w for _, w in hermitian_runs.values()])
    converged = np.array([r.converged for r, _ in hermitian_runs.values()])
    within_15 = int(((iters <= 15) & converged).sum())
    within_25 = int(((iters <= 25) & converged).sum())
    ok = within_15 >= 90 and within_25 == N_SEEDS and walls.max() <= 60.0
    _report(
        "criterion 1 (n=512 convergence parity)",
        ok,
        f"<=15 iters in {within_15}/100, <=25 in {within_25}/100, "
        f"max wall {walls.max():.2f}s, median iters {np.median(iters):.0f}",
    )
    assert within_15 >= 90
    assert within_25 == N_SEEDS
    assert walls.max() <= 60.0


def test_criterion_2_tolerance_study(hermitian_runs):
    ge_tol, ge_backup = 0, 0
    for seed in range(N_SEEDS):
        ham = _instance(seed)
        base = hermitian_runs[seed][0].iterations_used
        tight = bs.solve(
            ham,
            bs.SolverConfig(nev=16, nex=16, tol=1e-9, seed=seed, rr_variant="hermitian"),
        ).iterations_used
        backup = bs.solve(
            ham,
            bs.SolverConfig(nev=16, nex=16, tol=1e-8, seed=seed, rr_variant="backup"),
        ).iterations_used
        ge_tol += tight >= base
        ge_backup += backup >= base
    ok = ge_tol >= 95 and ge_backup >= 90
    _report(
        "criterion 2 (tolerance study)",
        ok,
        f"tol=1e-9 needs >= iterations in {ge_tol}/100, "
        f"backup >= hermitian in {ge_backup}/100",
    )
    assert ge_tol >= 95
    assert ge_backup >= 90


@pytest.mark.parametrize("m", [16, 64, 256])
def test_criterion_3_oracle_agreement(m):
    tol = 1e-8
    ham = _instance(seed=777 + m, m=m)
    cfg = bs.SolverConfig(nev=max(2, m // 16), tol=tol, seed=m)
    result = bs.solve(ham, cfg)
    eig = bs.direct_solve_definite(ham)
    scale = bs.rho_sh(ham)
    dlam = np.abs(result.lambdas - eig.lambdas[: result.nev]).max()
    res = result.residual_norms.max()
    ok = result.converged and dlam <= 10 * tol * scale and res <= tol
    _report(
        f"criterion 3 (oracle agreement n={2 * m})",
        ok,
        f"max |dlam| {dlam:.2e} (cap {10 * tol * scale:.2e}), max residual {res:.2e}",
    )
    assert ok


def test_criterion_4_quadratic_rayleigh_ritz():
    ham = _instance(seed=4, m=8)
    sweep = quadratic_sweep(ham, *_references(ham), target_index=1, seed=44)
    slope_h = fit_slope(sweep["epsilons"], sweep["hermitian_errors"])
    slope_b = fit_slope(sweep["epsilons"], sweep["backup_errors"])
    bound_ok = bool(
        (
            sweep["hermitian_errors"]
            <= 10.0 * sweep["kappas"] * sweep["epsilons"] ** 2
        ).all()
    )
    ok = abs(slope_h - 2.0) <= 0.2 and slope_b >= 1.0 and bound_ok
    _report(
        "criterion 4 (quadratic Rayleigh-Ritz)",
        ok,
        f"hermitian slope {slope_h:.3f}, backup slope {slope_b:.3f}, "
        f"kappa bound {'holds' if bound_ok else 'violated'}",
    )
    assert abs(slope_h - 2.0) <= 0.2
    assert slope_b >= 1.0
    assert bound_ok


class TestCriterion5StructuralSuite:
    """100 random seeds per theorem-derived property."""

    def _sizes(self, cap: int):
        # seeds cycle through half-dimensions 2 .. cap
        ladder = [2, 3, 4, 6, 8, 12, 16, 24, 32, 64, 128, 256]
        return [m for m in ladder if m <= cap]

    def test_quadruplets(self):
        passed = 0
        for seed in range(N_SEEDS):
            m = self._sizes(64)[seed % len(self._sizes(64))]
            ham = _instance(3000 + seed, m)
            passed += check_quadruplets(ham, bs.direct_solve_definite(ham), bs.rho_sh(ham)).passed
        _report("criterion 5a (quadruplet partners)", passed == N_SEEDS, f"{passed}/100")
        assert passed == N_SEEDS

    def test_field_of_values_definite(self):
        passed = 0
        for seed in range(N_SEEDS):
            m = self._sizes(256)[seed % len(self._sizes(256))]
            ham = _instance(3100 + seed, m)
            passed += check_field_of_values(ham, bs.direct_solve_definite(ham).lambdas).passed
        _report(
            "criterion 5b (field of values, definite n<=512)",
            passed == N_SEEDS,
            f"{passed}/100",
        )
        assert passed == N_SEEDS

    def test_field_of_values_indefinite(self):
        passed = 0
        for seed in range(N_SEEDS):
            m = self._sizes(64)[seed % len(self._sizes(64))]
            ham = bs.generate(
                bs.GeneratorSpec(m=m, seed=3200 + seed, coupling_ratio=2.5, mode="indefinite")
            )
            lams, _ = bs.dense_general_eig(bs.materialize(ham))
            passed += check_field_of_values(ham, lams).passed
        _report(
            "criterion 5c (field of values, indefinite n<=128)",
            passed == N_SEEDS,
            f"{passed}/100",
        )
        assert passed == N_SEEDS

    def test_cond_identity(self):
        passed = 0
        for seed in range(N_SEEDS):
            m = self._sizes(64)[seed % len(self._sizes(64))]
            ham = _instance(3300 + seed, m)
            passed += check_cond_identity(bs.materialize(ham), bs.cond_of_h(ham)).passed
        _report("criterion 5d (cond(SH) = cond(H))", passed == N_SEEDS, f"{passed}/100")
        assert passed == N_SEEDS

    def test_qsq_spectrum_and_complement_laws(self):
        passed = 0
        for seed in range(N_SEEDS):
            n = 2 * self._sizes(128)[seed % len(self._sizes(128))]
            k = max(1, min(n // 4, 8))
            passed += check_qsq_spectrum_law(n, k, rng.substream(3400 + seed, 1)).passed
        _report(
            "criterion 5e (eig(Q*SQ) and sigma complement laws)",
            passed == N_SEEDS,
            f"{passed}/100",
        )
        assert passed == N_SEEDS

    def test_dual_basis_biorthogonality_and_norm(self):
        passed = 0
        for seed in range(N_SEEDS):
            n = 2 * self._sizes(128)[seed % len(self._sizes(128))]
            k = max(1, min(n // 4, 8))
            passed += check_dual_basis(n, k, rng.substream(3500 + seed, 1)).passed
        _report(
            "criterion 5f (dual basis identities)", passed == N_SEEDS, f"{passed}/100"
        )
        assert passed == N_SEEDS

    def test_ritz_interval(self):
        passed = 0
        for seed in range(N_SEEDS):
            m = self._sizes(64)[seed % len(self._sizes(64))]
            ham = _instance(3600 + seed, m)
            k = max(1, min(m // 2, 6))
            rho, cond = bs.rho_sh(ham), bs.cond_of_h(ham)
            passed += check_ritz_interval(ham, rho, cond, k, rng.substream(3600 + seed, 2)).passed
        _report("criterion 5g (Ritz interval)", passed == N_SEEDS, f"{passed}/100")
        assert passed == N_SEEDS


def test_criterion_6_kernel_identity():
    # kernel half: the real-form product against the dense complex H
    worst = 0.0
    for seed in range(N_SEEDS):
        m = 1 + seed % 32
        ham = _instance(4000 + seed, m)
        x = rng.complex_normal_matrix(rng.substream(seed, 9), 2 * m, 3)
        dense = bs.materialize(ham) @ x
        kernel = bs.apply_h(ham, x)
        scale = max(np.abs(dense).max(), bs.rho_sh(ham) * np.abs(x).max())
        worst = max(worst, np.abs(kernel - dense).max() / (1e-13 * scale))
    # filter half: the real-block recurrence against the same recurrence on dense H
    ham = _instance(4200, 32)
    bounds = bs.estimate_bounds(ham, nevex=8, steps=16, seed=1)
    x = rng.complex_normal_matrix(5, 64, 4)
    cfg = bs.FilterConfig.from_bounds(bounds, 16)
    filtered = bs.chebyshev_filter(ham, x, cfg)
    dense = dense_filter(bs.materialize(ham), x, cfg)
    filter_ratio = np.abs(filtered - dense).max() / (1e-12 * np.abs(dense).max())
    ok = worst <= 1.0 and filter_ratio <= 1.0
    _report(
        "criterion 6 (kernel identity)",
        ok,
        f"matvec worst ratio {worst:.3f}, filter ratio {filter_ratio:.3f} (<= 1)",
    )
    assert worst <= 1.0
    assert filter_ratio <= 1.0


def test_criterion_7_left_pairs_and_antisymmetry():
    passed = 0
    details = []
    for seed in range(20):
        m = [2, 4, 8, 16, 32][seed % 5]
        eig, dense, rho, _ = _references(_instance(4300 + seed, m))
        check = check_left_pairs_and_symmetry(eig, dense, rho)
        passed += check.passed
        details.append(check.passed)
    eigs = (bs.direct_solve_definite(_instance(4400 + s, [4, 8, 16][s % 3])) for s in range(20))
    bio = sum(check_biorthogonality(eig).passed for eig in eigs)
    ok = passed == 20 and bio == 20
    _report(
        "criterion 7 (u = Sv, antisymmetric spectrum)",
        ok,
        f"left-pair/antisymmetry {passed}/20, biorthogonality {bio}/20",
    )
    assert ok


def test_criterion_8_determinism(tmp_path):
    from click.testing import CliRunner

    runner = CliRunner()
    src = tmp_path / "in"
    gen = runner.invoke(
        cli, ["generate", "--m", "24", "--seed", "5", "--out", str(src)]
    )
    assert gen.exit_code == 0, gen.output
    outputs = []
    for sub in ("run1", "run2"):
        out = tmp_path / sub
        res = runner.invoke(
            cli,
            [
                "solve", "--a", str(src / "A.mtx"), "--b", str(src / "B.mtx"),
                "--nev", "4", "--seed", "11", "--out", str(out),
            ],
        )
        assert res.exit_code == 0, res.output
        outputs.append((out / "eigenvalues.csv").read_bytes())
    ok = outputs[0] == outputs[1]
    _report(
        "criterion 8 (determinism)",
        ok,
        f"eigenvalue CSVs byte-identical: {ok} ({len(outputs[0])} bytes)",
    )
    assert ok
