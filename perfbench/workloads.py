"""The benchmark's workloads and the environment every solve runs under.

The inputs of each workload are fixed: the iteration count of a solve (4
or 5 at n = 512, for example) depends on the instance seed, so drawing
instances from the run seed would move the median solve time by about 20 %
between seeds.  The run seed only orders the rotation over the instances.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "library" (in-process solve) or "cli" (one process per solve)
    m: int  # half dimension, n = 2m
    nev: int
    instance_seeds: tuple[int, ...]
    setup_reps: int  # set-ups per run; setup_s is their median
    tol: float = 1e-8

    @property
    def n(self) -> int:
        return 2 * self.m

    @property
    def nevex(self) -> int:
        # nex defaults to nev in SolverConfig and in `bsesolve solve`
        return 2 * self.nev


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk512", "library", m=256, nev=16, instance_seeds=(0, 1, 2, 3), setup_reps=5),
        Workload("bulk2048", "library", m=1024, nev=32, instance_seeds=(0,), setup_reps=3),
        Workload("cli_mm", "cli", m=512, nev=16, instance_seeds=(0,), setup_reps=3),
    )
}

#: Directory (relative to the checkout root) of the traces and run logs kept
#: after a run, and of the per-run scratch files removed when a run ends.
OUT_DIR = Path(".perfbench-out")
TMP_DIR = Path(".perfbench-tmp")


def blas_threads() -> int:
    """BLAS threads for every solve: OPENBLAS_NUM_THREADS if set, else nproc,
    and never more than the CPUs this process may run on."""
    ncpu = len(os.sched_getaffinity(0))
    requested = os.environ.get("OPENBLAS_NUM_THREADS")
    threads = int(requested) if requested else ncpu
    return max(1, min(threads, ncpu))


def solve_env(src: Path, threads: int) -> dict[str, str]:
    """Environment of a process that imports bsesolve from the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env
