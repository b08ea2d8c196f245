"""bsesolve benchmark: run one workload, check every result, print metrics.

    python3 perfbench/run.py --workload desk512 --seed 1 --seconds 20 --trace 0

from the root of a bsesolve checkout.  The solves run in a worker process
(perfbench/worker.py) that imports bsesolve from the checkout's src/; this
process then checks every result with numpy and scipy alone
(perfbench/checks.py), so the reference computations never touch the
solve process's memory or timings.  The last line of standard output is
one JSON object: correct, attempted, failed and metrics (the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1).  Traces go
to .perfbench-out/.  Exit code 0 on a complete run, 1 when the worker
fails, 2 when the checkout holds no src/bsesolve.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
from tracing import LAYER_UNITS
from workloads import OUT_DIR, TMP_DIR, WORKLOADS, blas_threads, solve_env

#: The worker must finish well inside the 180 s a run may take.
WORKER_TIMEOUT_S = 150


def run_worker(argv: list[str], env: dict[str, str]) -> int:
    """Run the worker in its own process group; on timeout kill the group
    (the worker and any bsesolve process it spawned) and wait for it."""
    proc = subprocess.Popen(argv, env=env, start_new_session=True, stdin=subprocess.DEVNULL)
    try:
        return proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"worker exceeded {WORKER_TIMEOUT_S} s; killed", file=sys.stderr)
        return -1
    finally:
        if proc.returncode != 0:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:  # until no member of the group is left
                try:
                    os.killpg(proc.pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.05)


def check_ops(wl, summary: dict, tmp: Path) -> tuple[int, int]:
    """(operations that raised or exited non-zero, operations whose result
    failed a check)."""
    inst = {}

    def instance(idx: int) -> checks.Instance:
        if idx not in inst:
            a = np.load(tmp / f"inst{idx}_a.npy")
            b = np.load(tmp / f"inst{idx}_b.npy")
            inst[idx] = checks.Instance.from_blocks(a, b)
        return inst[idx]

    errored = wrong = 0
    caches: dict[int, dict] = {}
    references: dict[int, np.ndarray] = {}
    mtx_problems = []
    if wl.kind == "cli":
        for path, ref in zip(summary["inputs"], (instance(0).a, instance(0).b)):
            if not checks.same_bits(checks.read_mtx(Path(path)), ref):
                mtx_problems.append(f"{path} differs from the generated block")
    for op in summary["ops"]:
        idx = op["instance"]
        cache = caches.setdefault(idx, {})
        if "error" in op:
            errored += 1
            problems = [op["error"]]
        elif wl.kind == "cli":
            problems = mtx_problems + checks.check_cli_outputs(
                Path(op["out"]), op["exit_code"], [Path(p) for p in summary["inputs"]],
                instance(idx), wl.nev, wl.tol, cache,
            )
            errored += op["exit_code"] != 0
            wrong += op["exit_code"] == 0 and bool(problems)
        else:
            if wl.name == "desk512" and idx not in references:
                references[idx] = instance(idx).pencil_lambdas(wl.nev)
            res = np.load(tmp / f"{op['id']}.npz")
            problems = [] if bool(res["converged"]) else ["not converged"]
            problems += checks.check_pairs(
                instance(idx), res["lambdas"], res["v"], wl.nev, wl.tol,
                references.get(idx), cache,
            )
            wrong += bool(problems)
        for problem in problems:
            print(f"{op['id']}: {problem}", file=sys.stderr)
    return errored, wrong


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "bsesolve" / "__init__.py").is_file():
        print(f"no src/bsesolve under {root}: run from a bsesolve checkout", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    threads = blas_threads()
    tmp = root / TMP_DIR / f"{wl.name}-{os.getpid()}"
    out = root / OUT_DIR
    shutil.rmtree(tmp, ignore_errors=True)  # left by a killed run with the same pid
    tmp.mkdir(parents=True)
    out.mkdir(exist_ok=True)
    spans = out / f"trace-{wl.name}-seed{args.seed}.jsonl"
    try:
        code = run_worker(
            [sys.executable, str(root / "perfbench" / "worker.py"),
             "--workload", wl.name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--tmp", str(tmp), "--spans", str(spans)],
            solve_env(root / "src", threads),
        )
        if code != 0:
            print(f"worker failed with exit code {code}", file=sys.stderr)
            return 1
        with open(tmp / "summary.json") as fh:
            summary = json.load(fh)
        errored, wrong = check_ops(wl, summary, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    ops = summary["ops"]
    timed = [op["seconds"] for op in ops if not op["traced"] and "seconds" in op]
    if args.trace:
        metrics = {name: {"value": summary["layers"][name], "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
        print(f"spans: {spans.relative_to(root)}")
    else:
        metrics = {
            "solve_s": {"value": statistics.median(timed), "unit": "s"},
            "setup_s": {"value": statistics.median(summary["setup_s"]), "unit": "s"},
            "peak_rss_mb": {"value": summary["peak_rss_mb"], "unit": "MB"},
        }
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"workload {wl.name}: n={wl.n} nev={wl.nev} tol={wl.tol:g}; blas "
          f"{blas.get('name')} {blas.get('version')}; BLAS threads {threads} of nproc "
          f"{os.cpu_count()}; {len(ops)} operations, {len(timed)} untraced "
          f"(min {min(timed):.4f} s, max {max(timed):.4f} s); "
          f"set-ups {[round(s, 4) for s in summary['setup_s']]}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": len(ops),
        "failed": errored + wrong,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
