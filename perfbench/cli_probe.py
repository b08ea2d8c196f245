"""`bsesolve` command line with spans around its calls into the modules.

    PERFBENCH_SPANS=<file> PERFBENCH_OP=<op id> PERFBENCH_PARENT=<span id> \
    PERFBENCH_SPAWN=<monotonic time of spawn> \
        python3 perfbench/cli_probe.py solve --a A.mtx --b B.mtx --nev 16

behaves like `python3 -m bsesolve.cli solve ...` and, on exit, writes one
JSON span per line to PERFBENCH_SPANS.  `cli.startup` runs from the spawn
to the moment the command starts, so it holds interpreter start and
imports.
"""

from __future__ import annotations

import os
import sys
import time

from tracing import Tracer, install_solver_spans, solve_counts

import bsesolve.cli as cli  # noqa: E402  (imports are part of cli.startup)
from bsesolve import fileio  # noqa: E402


def main() -> None:
    op = os.environ["PERFBENCH_OP"]
    tracer = Tracer(prefix=f"{op}.", root_parent=os.environ["PERFBENCH_PARENT"])
    tracer.op = op
    with tracer.span("cli.startup", start=float(os.environ["PERFBENCH_SPAWN"])):
        pass

    install_solver_spans(tracer)
    for name in (
        "read_matrix_market", "digest64", "write_matrix_market",
        "write_eigenvalues_csv", "write_pchv", "write_trace_csv", "write_manifest",
    ):
        tracer.wrap(fileio, name, f"fileio.{name}")
    tracer.wrap(cli, "generate", "generate.generate")
    tracer.wrap(cli, "BseHamiltonian", "hamiltonian.construct")
    real_solve = cli.solve

    def solve(ham, cfg):
        with tracer.span("solver.solve") as span:
            cpu0 = time.process_time()
            result = real_solve(ham, cfg)
            solve_counts(span, result, time.process_time() - cpu0)
        return result

    cli.solve = solve
    try:
        cli.cli.main(args=sys.argv[1:], prog_name="bsesolve")
    finally:
        tracer.write(os.environ["PERFBENCH_SPANS"])


if __name__ == "__main__":
    main()
