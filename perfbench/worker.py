"""The process that runs a workload's set-up and its timed operations.

Run by run.py from the checkout root, with PYTHONPATH pointing at the
checkout's src/ and the BLAS thread variables set:

    python3 perfbench/worker.py --workload desk512 --seed 1 --seconds 20 \
        --trace 0 --tmp <scratch dir> --spans <trace file>

It writes <tmp>/summary.json and one result file per operation, which
run.py checks.  Closed loop: one solve at a time; on cli_mm one `bsesolve`
process at a time.  The loop runs whole rounds (one operation per instance)
until --seconds have passed.  A traced run times one round untraced first,
so that it can report its own tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from tracing import Tracer, check_required, clock, install_solver_spans, layer_metrics, solve_counts
from workloads import WORKLOADS, Workload

ZGEMM_SECONDS = 0.5


def zgemm_gflops(m: int, k: int) -> float:
    """Rate of one (m x m) @ (m x k) complex product, the filter's GEMM shape:
    the median of repeated timings, in this process and at its thread count."""
    gen = np.random.default_rng(0)
    a = np.asfortranarray(gen.standard_normal((m, m)) + 1j * gen.standard_normal((m, m)))
    x = np.asfortranarray(gen.standard_normal((m, k)) + 1j * gen.standard_normal((m, k)))
    a @ x
    times = []
    end = clock() + ZGEMM_SECONDS
    while clock() < end or len(times) < 5:
        t0 = clock()
        a @ x
        times.append(clock() - t0)
    return 8.0 * m * m * k / statistics.median(times) / 1e9


def spanned(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else nullcontext({})


def rounds(wl: Workload, seed: int, seconds: float, traced: bool):
    """Yield (op id, instance index, trace this op) in whole rounds; a traced
    run traces every round but the first."""
    order_rng = random.Random(seed)
    per_round = len(wl.instance_seeds)
    begin = clock()
    done = 0
    while True:
        order = list(range(per_round))
        order_rng.shuffle(order)
        for idx in order:
            yield f"op{done}", idx, traced and done >= per_round
            done += 1
        if clock() - begin >= seconds and (not traced or done >= 2 * per_round):
            return


def run_library(wl: Workload, args, tmp: Path, tracer: Tracer | None) -> dict:
    from bsesolve import BseHamiltonian, BseSolveError, GeneratorSpec, SolverConfig, generate, solve

    if tracer is not None:
        install_solver_spans(tracer)
    setup_s = []
    for rep in range(wl.setup_reps):
        blocks = None  # drop the previous set-up's instances first
        if tracer is not None:
            tracer.op = f"setup{rep}"
        t0 = clock()
        blocks = []
        for seed in wl.instance_seeds:
            with spanned(tracer, "generate.generate"):
                ham = generate(GeneratorSpec(m=wl.m, seed=seed))
            blocks.append((ham.a, ham.b))
        setup_s.append(clock() - t0)
    for idx, (a, b) in enumerate(blocks):
        np.save(tmp / f"inst{idx}_a.npy", a)
        np.save(tmp / f"inst{idx}_b.npy", b)

    cfg = SolverConfig(nev=wl.nev, tol=wl.tol)

    def operation(a, b, traced: bool):
        """BseHamiltonian from the stored blocks, then solve: (seconds, result)."""
        if not traced:
            t0 = clock()
            result = solve(BseHamiltonian(a, b), cfg)
            return clock() - t0, result
        with tracer.span("op") as op_span:
            with tracer.span("hamiltonian.construct"):
                ham = BseHamiltonian(a, b)
            with tracer.span("solver.solve") as span:
                cpu0 = time.process_time()
                result = solve(ham, cfg)
                solve_counts(span, result, time.process_time() - cpu0)
        return op_span["end"] - op_span["start"], result

    ops = []
    for op_id, idx, traced in rounds(wl, args.seed, args.seconds, tracer is not None):
        record = {"id": op_id, "instance": idx, "traced": traced}
        if traced:
            tracer.op = op_id
        try:
            record["seconds"], result = operation(*blocks[idx], traced)
        except BseSolveError as exc:
            record["error"] = f"{type(exc).__name__}: {exc}"
        else:
            np.savez(
                tmp / f"{op_id}.npz", lambdas=result.lambdas, v=result.v,
                converged=result.converged,
            )
        ops.append(record)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"setup_s": setup_s, "ops": ops, "peak_rss_mb": rss_kb * 1024 / 1e6}


def run_cli(wl: Workload, args, tmp: Path, tracer: Tracer | None) -> dict:
    root = Path.cwd()
    plain = [sys.executable, "-m", "bsesolve.cli"]
    probe = [sys.executable, str(root / "perfbench" / "cli_probe.py")]
    (seed,) = wl.instance_seeds

    def spawn(argv: list[str], op: str, traced: bool, log: Path):
        """Run one bsesolve command; returns (seconds, exit code, max RSS kB)."""
        with spanned(tracer if traced else None, "cli.process") as span:
            env = dict(os.environ)
            if traced:
                env.update(
                    PERFBENCH_SPANS=str(tmp / f"{op}.spans"), PERFBENCH_OP=op,
                    PERFBENCH_PARENT=span["id"], PERFBENCH_SPAWN=repr(clock()),
                )
            with open(log, "w") as err:
                t0 = clock()
                proc = subprocess.Popen(
                    (probe if traced else plain) + argv,
                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err, env=env,
                )
                _, status, usage = os.wait4(proc.pid, 0)
                seconds = clock() - t0
                proc.returncode = os.waitstatus_to_exitcode(status)
        return seconds, proc.returncode, usage.ru_maxrss

    setup_s = []
    for rep in range(wl.setup_reps):
        if rep:
            shutil.rmtree(tmp / f"input{rep - 1}")
        argv = ["generate", "--m", str(wl.m), "--seed", str(seed), "--format", "mm",
                "--out", str(tmp / f"input{rep}")]
        if tracer is not None:
            tracer.op = f"setup{rep}"
        seconds, code, _ = spawn(argv, f"setup{rep}", tracer is not None, tmp / f"setup{rep}.log")
        if code != 0:
            raise RuntimeError(f"bsesolve generate exited with {code}; see {tmp}/setup{rep}.log")
        setup_s.append(seconds)
    inputs = [tmp / f"input{wl.setup_reps - 1}" / name for name in ("A.mtx", "B.mtx")]

    ops = []
    peak_kb = 0
    for op_id, _, traced in rounds(wl, args.seed, args.seconds, tracer is not None):
        out = tmp / op_id
        argv = ["solve", "--a", str(inputs[0]), "--b", str(inputs[1]), "--nev", str(wl.nev),
                "--tol", repr(wl.tol), "--out", str(out)]
        if traced:
            tracer.op = op_id
        seconds, code, rss_kb = spawn(argv, op_id, traced, tmp / f"{op_id}.log")
        peak_kb = max(peak_kb, rss_kb)
        ops.append({"id": op_id, "instance": 0, "traced": traced, "seconds": seconds,
                    "exit_code": code, "out": str(out)})
    if tracer is not None:
        for spans_file in sorted(tmp.glob("*.spans")):
            with open(spans_file) as fh:
                tracer.spans.extend(json.loads(line) for line in fh)

    # the reference blocks for the bit-for-bit check of the .mtx files
    from bsesolve import GeneratorSpec, generate

    ham = generate(GeneratorSpec(m=wl.m, seed=seed))
    np.save(tmp / "inst0_a.npy", ham.a)
    np.save(tmp / "inst0_b.npy", ham.b)
    return {
        "setup_s": setup_s, "ops": ops, "peak_rss_mb": peak_kb * 1024 / 1e6,
        "inputs": [str(p) for p in inputs],
        "mm_bytes": sum(p.stat().st_size for p in inputs),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]
    tracer = Tracer(prefix="w") if args.trace else None

    import bsesolve

    src = (Path.cwd() / "src").resolve()
    if src not in Path(bsesolve.__file__).resolve().parents:
        raise RuntimeError(f"bsesolve imported from {bsesolve.__file__}, not from {src}")

    run = run_library if wl.kind == "library" else run_cli
    summary = run(wl, args, args.tmp, tracer)
    if tracer is not None:
        tracer.write(args.spans)
        check_required(tracer.spans, cli=wl.kind == "cli")
        plain = [op["seconds"] for op in summary["ops"] if not op["traced"] and "seconds" in op]
        traced = [op["seconds"] for op in summary["ops"] if op["traced"] and "seconds" in op]
        summary["layers"] = layer_metrics(
            tracer.spans,
            [op["id"] for op in summary["ops"] if op["traced"] and "seconds" in op],
            zgemm_gflops(wl.m, wl.nevex),
            statistics.median(traced) - statistics.median(plain),
            summary.get("mm_bytes", 0),
        )
    with open(args.tmp / "summary.json", "w") as fh:
        json.dump(summary, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
