"""Command line front end: generate, solve, oracle, verify, bench.

Exit codes are a stable contract for pipelines: 0 success, 2 validation
failure, 3 I/O failure, 4 numerical abort.

The Matrix Market pair is read (solve, oracle, bench, verify --a/--b) and
written (generate --format mm) in two processes, through `fileio.run_pair`:
A in this process, B in one forked worker that parses, formats and hashes
but never calls BLAS.  Output bytes are those of one process doing both.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

import click

from . import __version__, fileio
from .direct import direct_solve_definite
from .errors import NumericalError, ValidationError
from .generate import GeneratorSpec, generate
from .hamiltonian import BseHamiltonian
from .rayleigh_ritz import RitzSet, residuals
from .solver import SolverConfig, mirror_largest, solve
from .verify import PropertyCheck, check_structure, run_suite

EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4


def handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ValidationError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_VALIDATION)
        except OSError as exc:
            click.echo(f"i/o error: {exc}", err=True)
            sys.exit(EXIT_IO)
        except NumericalError as exc:
            click.echo(f"numerical error: {exc}", err=True)
            sys.exit(EXIT_NUMERICAL)

    return wrapper


@click.group()
@click.version_option(version=__version__, prog_name="bsesolve")
def cli() -> None:
    """Eigensolver toolkit for definite pseudo-hermitian (BSE) Hamiltonians."""


def _generator_options(fn):
    fn = click.option("--seed", type=int, default=0, show_default=True)(fn)
    fn = click.option("--coupling-ratio", type=float, default=0.5, show_default=True)(fn)
    fn = click.option("--alpha", type=float, default=1.0, show_default=True)(fn)
    fn = click.option(
        "--mode", type=click.Choice(["definite", "indefinite"]), default="definite",
        show_default=True,
    )(fn)
    return fn


def _input_options(fn):
    fn = click.option("--a", "a_path", type=click.Path(), help="Matrix Market file of A.")(fn)
    fn = click.option("--b", "b_path", type=click.Path(), help="Matrix Market file of B.")(fn)
    fn = click.option("--pchb", "pchb_path", type=click.Path(), help="PCHB binary input.")(fn)
    return fn


def _reject_empty(m: int) -> None:
    """The library accepts m = 0; no command has anything to do with it."""
    if m == 0:
        raise ValidationError("the blocks are empty (m = 0)")


def _load_hamiltonian(a_path, b_path, pchb_path) -> tuple[BseHamiltonian, dict[str, str]]:
    if pchb_path:
        if a_path or b_path:
            raise ValidationError("--pchb excludes --a/--b")
        ham = fileio.read_pchb(pchb_path)
        _reject_empty(ham.m)
        return ham, {str(pchb_path): fileio.digest64(pchb_path)}
    if not (a_path and b_path):
        raise ValidationError("provide --a and --b, or --pchb")
    (a, a_digest), (b, b_digest) = fileio.run_pair(
        fileio.read_matrix_market_digest, (a_path,), (b_path,)
    )
    ham = BseHamiltonian(a, b)
    _reject_empty(ham.m)
    return ham, {str(a_path): a_digest, str(b_path): b_digest}


def _combined_digest(inputs: dict[str, str]) -> str:
    return "+".join(inputs[k] for k in sorted(inputs))


@cli.command()
@click.option("--m", "m", type=int, required=True, help="Half dimension (n = 2m).")
@_generator_options
@click.option(
    "--format", "fmt", type=click.Choice(["mm", "pchb"]), default="mm",
    show_default=True, help="Matrix Market pair or compact binary.",
)
@click.option("--out", type=click.Path(), default=".", show_default=True)
@handle_errors
def generate_cmd(m, seed, coupling_ratio, alpha, mode, fmt, out):
    """Write a synthetic Hamiltonian (A.mtx/B.mtx or ham.pchb) plus manifest."""
    spec = GeneratorSpec(m=m, seed=seed, alpha=alpha, coupling_ratio=coupling_ratio, mode=mode)
    ham = generate(spec)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if fmt == "mm":
        fileio.run_pair(
            fileio.write_matrix_market,
            (out_dir / "A.mtx", ham.a, f" resonant block, seed={seed}"),
            (out_dir / "B.mtx", ham.b, f" coupling block, seed={seed}"),
        )
        outputs = ["A.mtx", "B.mtx"]
    else:
        fileio.write_pchb(out_dir / "ham.pchb", ham)
        outputs = ["ham.pchb"]
    fileio.write_manifest(
        out_dir / "manifest.json",
        command="generate",
        config={
            "m": m, "seed": seed, "coupling_ratio": coupling_ratio,
            "alpha": alpha, "mode": mode, "format": fmt,
        },
        inputs={},
        outputs=outputs,
        seed=seed,
    )
    click.echo(
        f"wrote {', '.join(outputs)} (n={ham.n}, definiteness={ham.definiteness.value})"
    )


cli.add_command(generate_cmd, name="generate")


def _solver_options(fn):
    default = {f.name: f.default for f in fields(SolverConfig)}
    fn = click.option("--nev", type=int, required=True)(fn)
    fn = click.option(
        "--nex", type=int, default=default["nex"],
        help="Defaults to min(nev, max(8, ceil(nev/4))).",
    )(fn)
    fn = click.option("--deg", type=int, default=default["deg"], show_default=True)(fn)
    fn = click.option("--tol", type=float, default=default["tol"], show_default=True)(fn)
    fn = click.option(
        "--maxiter", type=int, default=default["maxiter"], show_default=True
    )(fn)
    fn = click.option(
        "--rr", "rr_variant", type=click.Choice(["auto", "hermitian", "backup"]),
        default=default["rr_variant"], show_default=True,
    )(fn)
    fn = click.option("--seed", type=int, default=default["seed"], show_default=True)(fn)
    fn = click.option(
        "--lanczos-steps", type=int, default=default["lanczos_steps"], show_default=True
    )(fn)
    fn = click.option(
        "--rel-res", is_flag=True, default=default["rel_res"],
        help="Residual test relative to |mu_1|.",
    )(fn)
    return fn


def _resolved_config(cfg: SolverConfig) -> dict:
    """The config a manifest records: nex as the solve ran it, never null,
    so that a replay runs the same block under any later default."""
    return {**asdict(cfg), "nex": cfg.nevex - cfg.nev}


@cli.command("solve")
@_input_options
@_solver_options
@click.option("--largest", is_flag=True, help="Report the nev largest eigenpairs instead.")
@click.option("--out", type=click.Path(), default=".", show_default=True)
@handle_errors
def solve_cmd(a_path, b_path, pchb_path, largest, out, **solver_options):
    """Iteratively compute the nev smallest eigenpairs."""
    ham, inputs = _load_hamiltonian(a_path, b_path, pchb_path)
    cfg = SolverConfig(**solver_options)
    result = solve(ham, cfg)
    report = mirror_largest(result) if largest else result
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = _combined_digest(inputs)
    fileio.write_eigenvalues_csv(
        out_dir / "eigenvalues.csv", report.lambdas, report.residual_norms,
        digest, converged=result.converged,
    )
    fileio.write_pchv(out_dir / "eigenvectors.bin", report.v)
    fileio.write_trace_csv(out_dir / "trace.csv", result, digest)
    fileio.write_manifest(
        out_dir / "manifest.json",
        command="solve",
        config={**_resolved_config(cfg), "largest": largest},
        inputs=inputs,
        outputs=["eigenvalues.csv", "eigenvectors.bin", "trace.csv"],
        seed=cfg.seed,
    )
    status = "converged" if result.converged else "NOT converged"
    click.echo(
        f"{status} in {result.iterations_used} iterations "
        f"(backup events: {result.backup_events})"
    )


@cli.command("oracle")
@_input_options
@click.option("--cap", type=int, default=4096, show_default=True,
              help="Refuse problems with n above this.")
@click.option("--vectors", is_flag=True, help="Also dump eigenvectors.bin.")
@click.option("--out", type=click.Path(), default=".", show_default=True)
@handle_errors
def oracle_cmd(a_path, b_path, pchb_path, cap, vectors, out):
    """Direct dense solve of the full spectrum (reference oracle)."""
    ham, inputs = _load_hamiltonian(a_path, b_path, pchb_path)
    if ham.n > cap:
        raise ValidationError(f"n = {ham.n} exceeds the oracle cap {cap}")
    eig = direct_solve_definite(ham)
    res = residuals(ham, RitzSet(values=eig.lambdas, vectors=eig.v))
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = _combined_digest(inputs)
    fileio.write_eigenvalues_csv(
        out_dir / "eigenvalues.csv", eig.lambdas, res, digest, converged=True
    )
    outputs = ["eigenvalues.csv"]
    if vectors:
        fileio.write_pchv(out_dir / "eigenvectors.bin", eig.v)
        outputs.append("eigenvectors.bin")
    fileio.write_manifest(
        out_dir / "manifest.json", command="oracle",
        config={"cap": cap, "vectors": vectors}, inputs=inputs, outputs=outputs,
        seed=None,
    )
    click.echo(f"wrote all {eig.n} eigenvalues (max residual {res.max():.3e})")


@cli.command("verify")
@click.option("--m", "m", type=int, default=None, help="Half dimension (n = 2m).")
@_generator_options
@click.option("--a", "a_path", type=click.Path(), help="Check loaded blocks instead.")
@click.option("--b", "b_path", type=click.Path())
@handle_errors
def verify_cmd(m, seed, coupling_ratio, alpha, mode, a_path, b_path):
    """Run the structural property suite on a generated or loaded instance.

    Check failures are report content: the exit code stays 0.
    """
    ham = None
    if a_path or b_path:
        if m is not None:
            raise ValidationError("--m excludes --a/--b")
        if not (a_path and b_path):
            raise ValidationError("--a and --b must be given together")
        # check the raw blocks before any symmetrization can repair them
        a_raw, b_raw = fileio.run_pair(fileio.read_matrix_market, (a_path,), (b_path,))
        checks = [check_structure(a_raw, b_raw)]
        if checks[0].passed:
            _reject_empty(a_raw.shape[0])
            try:  # each block's own scale may reject what |H|'s passed
                ham = BseHamiltonian(a_raw, b_raw)
            except ValidationError as exc:
                checks.append(PropertyCheck("block_symmetry", False, str(exc)))
    else:
        if m is None:
            raise ValidationError("provide --m or --a/--b")
        spec = GeneratorSpec(
            m=m, seed=seed, alpha=alpha, coupling_ratio=coupling_ratio, mode=mode
        )
        ham = generate(spec)
        checks = [check_structure(ham.a, ham.b)]
    if ham is not None:
        checks.extend(run_suite(ham, seed=seed))
    failed = 0
    for check in checks:
        mark = "PASS" if check.passed else "FAIL"
        failed += not check.passed
        click.echo(f"{mark}  {check.name}: {check.detail}")
    click.echo(f"{len(checks) - failed}/{len(checks)} checks passed")


@cli.command("bench")
@_input_options
@_solver_options
@click.option("--reps", type=int, default=5, show_default=True)
@click.option("--out", type=click.Path(), default=".", show_default=True)
@handle_errors
def bench_cmd(a_path, b_path, pchb_path, reps, out, **solver_options):
    """Repeat a solve and report per-phase times, modeled FLOPs and FLOP/s."""
    if reps < 1:
        raise ValidationError(f"reps must be >= 1, got {reps}")
    ham, inputs = _load_hamiltonian(a_path, b_path, pchb_path)
    cfg = SolverConfig(**solver_options)
    runs = []
    for _ in range(reps):
        t0 = time.perf_counter()
        result = solve(ham, cfg)
        wall = time.perf_counter() - t0
        runs.append((result, wall))
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    phases = sorted({p for result, _ in runs for p in result.ledger.flops})
    # per phase: the seconds of every rep and the modeled FLOPs of rep 0
    first = runs[0][0].ledger
    summary = [
        (phase, [r.ledger.seconds.get(phase, 0.0) for r, _ in runs],
         first.flops.get(phase, 0.0))
        for phase in phases
    ]
    summary.append(("total", [w for _, w in runs], first.total_flops()))
    with open(out_dir / "bench.csv", "w", newline="\n") as fh:
        fh.write("# bsesolve bench v1\n")
        fh.write("# manifest: manifest.json\n")
        fh.write(f"# input_digest: {_combined_digest(inputs)}\n")
        fh.write("rep,phase,seconds,flops,gflops\n")
        for rep, (result, wall) in enumerate(runs):
            led = result.ledger
            for phase in phases:
                sec = led.seconds.get(phase, 0.0)
                flops = led.flops.get(phase, 0.0)
                rate = flops / sec / 1e9 if sec > 0 else 0.0
                fh.write(f"{rep},{phase},{sec:.6f},{flops:.0f},{rate:.3f}\n")
            fh.write(f"{rep},total,{wall:.6f},{led.total_flops():.0f},"
                     f"{led.total_flops() / wall / 1e9:.3f}\n")
        for phase, secs, flops in summary:
            fh.write(
                f"summary,{phase},{min(secs):.6f}/{sum(secs) / len(secs):.6f}/"
                f"{max(secs):.6f},{flops:.0f},\n"
            )
    fileio.write_manifest(
        out_dir / "manifest.json",
        command="bench",
        config={**_resolved_config(cfg), "reps": reps},
        inputs=inputs,
        outputs=["bench.csv"],
        seed=cfg.seed,
    )
    for phase, secs, flops in summary:
        click.echo(
            f"{phase:10s} min/avg/max {min(secs):.4f}/{sum(secs) / len(secs):.4f}/"
            f"{max(secs):.4f} s, modeled {flops / 1e9:.3f} GFLOP"
        )


def main() -> None:
    cli()


if __name__ == "__main__":
    main()
