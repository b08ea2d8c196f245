"""In-memory spans around the public calls into each bsesolve module.

A span records its name, start, end, parent span, operation id and a few
counts taken at the same boundary.  Spans are kept in a list and written
out once, when the run ends.  The clock is time.monotonic (CLOCK_MONOTONIC
on Linux), which is shared by all processes of the machine, so spans from a
`bsesolve` child process line up with the spans of the process that spawned
it.

The spans sit in the benchmark's own code: `install_solver_spans` replaces
the names that bsesolve.solver looks up at call time with wrappers, and
`wrap` does the same for any other module attribute.  Nothing in src/ is
edited.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

clock = time.monotonic


class Tracer:
    """Span recorder; one per process.  `op` tags the spans that follow."""

    def __init__(self, prefix: str, root_parent: str | None = None) -> None:
        self.spans: list[dict] = []
        self.op: str | None = None
        self._prefix = prefix
        self._next = 0
        self._stack: list[str] = [] if root_parent is None else [root_parent]

    def _new_id(self) -> str:
        self._next += 1
        return f"{self._prefix}{self._next}"

    @contextmanager
    def span(self, name: str, start: float | None = None):
        """Record one span; the yielded dict takes extra counts."""
        record = {
            "id": self._new_id(),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "start": clock() if start is None else start,
        }
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = clock()
            self.spans.append(record)

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace owner.attr by a spanned call; count(record, args, out)
        adds counts to the span."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            with self.span(name) as record:
                out = fn(*args, **kwargs)
                if count is not None:
                    count(record, args, out)
            return out

        setattr(owner, attr, spanned)

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for record in sorted(self.spans, key=lambda r: r["start"]):
                fh.write(json.dumps(record) + "\n")


def _count_filter(record, args, out) -> None:
    # chebyshev_filter(ham, vhat, cfg, ledger): columns times degree
    record["cols"] = int(args[1].shape[1]) * int(args[2].degree)


def _count_ortho(record, args, out) -> None:
    record["cholqr"] = int(out[1] == "cholqr")


def install_solver_spans(tracer: Tracer) -> None:
    """Span every call solver.solve makes into the other modules."""
    from bsesolve import solver

    tracer.wrap(solver, "is_definite", "hamiltonian.is_definite")
    tracer.wrap(solver, "estimate_bounds", "lanczos.estimate_bounds")
    tracer.wrap(solver, "chebyshev_filter", "chebyshev.filter", _count_filter)
    tracer.wrap(solver, "s_orthonormalize", "ortho.s_orthonormalize", _count_ortho)
    tracer.wrap(solver, "build_hermitian_rq", "rayleigh_ritz.build_hermitian_rq")
    tracer.wrap(solver, "build_backup_rq", "rayleigh_ritz.build_backup_rq")
    tracer.wrap(solver, "residuals", "rayleigh_ritz.residuals")


def solve_counts(record: dict, result, cpu_s: float) -> None:
    """Counts of one solve, read from the public SolveResult."""
    ledger = result.ledger
    record.update(
        iterations=result.iterations_used,
        nev=result.nev,
        backup_events=result.backup_events,
        modeled_flops=ledger.total_flops(),
        filter_flops=ledger.flops.get("filter", 0.0),
        ledger_s=ledger.total_seconds(),
        cols_filtered=sum(row.k for row in result.trace),
        cpu_s=cpu_s,
    )


# ------------------------------------------------------------- aggregation

#: Spans that must record calls on every workload; REQUIRED_CLI adds cli_mm's.
REQUIRED = (
    "hamiltonian.construct",
    "solver.solve",
    "hamiltonian.is_definite",
    "lanczos.estimate_bounds",
    "chebyshev.filter",
    "ortho.s_orthonormalize",
    "rayleigh_ritz.residuals",
    "generate.generate",
)
WRITE_OUTPUTS = (
    "fileio.write_eigenvalues_csv",
    "fileio.write_pchv",
    "fileio.write_trace_csv",
    "fileio.write_manifest",
)
REQUIRED_CLI = (
    "cli.startup",
    "fileio.write_matrix_market",
    "fileio.read_matrix_market",
    "fileio.digest64",
) + WRITE_OUTPUTS
#: Either projection counts: the backup variant runs only when the other fails.
PROJECT = ("rayleigh_ritz.build_hermitian_rq", "rayleigh_ritz.build_backup_rq")

#: name -> unit of every per-layer metric, in report order.
LAYER_UNITS = {
    "hamiltonian.construct_s": "s",
    "hamiltonian.definite_s": "s",
    "lanczos.bounds_s": "s",
    "chebyshev.filter_s": "s",
    "chebyshev.filter_cols": "count",
    "chebyshev.filter_gflops": "GF/s",
    "chebyshev.zgemm_gflops": "GF/s",
    "chebyshev.filter_frac_of_zgemm": "ratio",
    "ortho.orthonormalize_s": "s",
    "ortho.cholqr_ratio": "ratio",
    "rayleigh_ritz.project_s": "s",
    "rayleigh_ritz.residuals_s": "s",
    "rayleigh_ritz.backup_events": "count",
    "solver.iterations": "count",
    "solver.modeled_gflop": "GFLOP",
    "solver.unledgered_s": "s",
    "solver.useful_col_ratio": "ratio",
    "solver.cpu_per_wall": "ratio",
    "generate.instance_s": "s",
    "fileio.write_mm_s": "s",
    "fileio.read_mm_s": "s",
    "fileio.read_mm_mb_per_s": "MB/s",
    "fileio.digest_s": "s",
    "fileio.write_outputs_s": "s",
    "cli.startup_s": "s",
    "trace.overhead_s": "s",
}


class MissingSpanError(RuntimeError):
    """A layer span that the workload runs recorded no calls."""


def check_required(spans: list[dict], cli: bool) -> None:
    seen = {s["name"] for s in spans}
    missing = [name for name in REQUIRED + (REQUIRED_CLI if cli else ()) if name not in seen]
    if not seen.intersection(PROJECT):
        missing.append("|".join(PROJECT))
    if missing:
        raise MissingSpanError(f"layer spans saw no calls: {', '.join(missing)}")


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(
    spans: list[dict],
    traced_ops: list[str],
    zgemm_gflops: float,
    overhead_s: float,
    mm_bytes: int = 0,
) -> dict[str, float]:
    """Per-solve medians over the traced operations (per-call for generate,
    per set-up for the Matrix Market writes).  A layer that the workload
    does not run reports 0."""
    by_op: dict[str, list[dict]] = {op: [] for op in traced_ops}
    for s in spans:
        if s["op"] in by_op:
            by_op[s["op"]].append(s)

    def per_op(fn) -> float:
        return statistics.median(fn(by_op[op]) for op in traced_ops)

    def secs(*names):
        return lambda ss: sum(_dur(s) for s in ss if s["name"] in names)

    def solve_span(ss):
        return next(s for s in ss if s["name"] == "solver.solve")

    def filter_rate(ss):
        t = secs("chebyshev.filter")(ss)
        return solve_span(ss)["filter_flops"] / t / 1e9

    ortho = [s for s in spans if s["name"] == "ortho.s_orthonormalize" and s["op"] in by_op]
    generates = [_dur(s) for s in spans if s["name"] == "generate.generate"]
    mm_writes: dict[str, float] = {}
    for s in spans:
        if s["name"] == "fileio.write_matrix_market":
            mm_writes[s["op"]] = mm_writes.get(s["op"], 0.0) + _dur(s)
    read_mm = per_op(secs("fileio.read_matrix_market"))
    filter_gflops = per_op(filter_rate)
    return {
        "hamiltonian.construct_s": per_op(secs("hamiltonian.construct")),
        "hamiltonian.definite_s": per_op(secs("hamiltonian.is_definite")),
        "lanczos.bounds_s": per_op(secs("lanczos.estimate_bounds")),
        "chebyshev.filter_s": per_op(secs("chebyshev.filter")),
        "chebyshev.filter_cols": per_op(
            lambda ss: sum(s["cols"] for s in ss if s["name"] == "chebyshev.filter")
        ),
        "chebyshev.filter_gflops": filter_gflops,
        "chebyshev.zgemm_gflops": zgemm_gflops,
        "chebyshev.filter_frac_of_zgemm": filter_gflops / zgemm_gflops,
        "ortho.orthonormalize_s": per_op(secs("ortho.s_orthonormalize")),
        "ortho.cholqr_ratio": sum(s["cholqr"] for s in ortho) / len(ortho),
        "rayleigh_ritz.project_s": per_op(secs(*PROJECT)),
        "rayleigh_ritz.residuals_s": per_op(secs("rayleigh_ritz.residuals")),
        "rayleigh_ritz.backup_events": per_op(lambda ss: solve_span(ss)["backup_events"]),
        "solver.iterations": per_op(lambda ss: solve_span(ss)["iterations"]),
        "solver.modeled_gflop": per_op(lambda ss: solve_span(ss)["modeled_flops"] / 1e9),
        "solver.unledgered_s": per_op(
            lambda ss: _dur(solve_span(ss)) - solve_span(ss)["ledger_s"]
        ),
        "solver.useful_col_ratio": per_op(
            lambda ss: solve_span(ss)["nev"] / solve_span(ss)["cols_filtered"]
        ),
        "solver.cpu_per_wall": per_op(
            lambda ss: solve_span(ss)["cpu_s"] / _dur(solve_span(ss))
        ),
        "generate.instance_s": statistics.median(generates),
        "fileio.write_mm_s": statistics.median(mm_writes.values()) if mm_writes else 0.0,
        "fileio.read_mm_s": read_mm,
        "fileio.read_mm_mb_per_s": mm_bytes / 1e6 / read_mm if read_mm else 0.0,
        "fileio.digest_s": per_op(secs("fileio.digest64")),
        "fileio.write_outputs_s": per_op(secs(*WRITE_OUTPUTS)),
        "cli.startup_s": per_op(secs("cli.startup")),
        "trace.overhead_s": overhead_s,
    }
