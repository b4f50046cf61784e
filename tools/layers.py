"""CPU time of each layer of a sweep's bound columns, in one warm process.

    PYTHONPATH=TREE/src python tools/layers.py --workload nr_rates

imports ``qcap`` from the path given and calls the CLI experiment behind the
benchmark workload, ``run_fig3`` or ``run_fig1`` with its defaults on one
job, so every row is built and solved as ``qcap.cli`` does it.  The CLI's
``_program`` and ``solve_all`` are wrapped for the call, and each bound
column is timed by ``time.process_time`` in three layers:

- ``build``: every row's program; where ``qcap`` builds a program frame per
  builder and arguments, the phase grading among them (``conic.frame``),
  that is each grading's frame, built with its first row, plus every row's
  data added to a copy of it;
- ``assemble``: the column's assembly as ``solve_all`` does it, on one BLAS
  thread as in the solve: ``solver._assemble_all`` of the column's
  programs, which assembles the coefficients once per program structure;
- ``solve_all``: the column's solve, which assembles again.

Each experiment also gets ``call``, the whole runner call less the assembly
timed alone: what the CLI spends outside process start-up and CSV writing.
One unrecorded repetition warms the process, then REPS are recorded.  The
last line of stdout is one JSON object: per layer, the list of the
repetitions' seconds; and the thread count of each loaded OpenBLAS outside
a solve.  ``tools/pairs.py --layers`` runs this in two trees in turn.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from collections import defaultdict

REPS = 5

# each benchmark workload that runs conic programs: the CLI experiment it calls
WORKLOADS = {"nr_rates": "fig3_nr", "ad2_oneshot": "fig1_ad"}


def one_rep(experiment: str) -> dict[str, float]:
    """Seconds of CPU of each layer of each column of one ``experiment`` call."""
    import qcap.cli as cli
    import qcap.conic.solver as solver
    from qcap.conic._blas import one_blas_thread

    out: dict[str, float] = defaultdict(float)
    column = None  # the bound of the latest build, whose column is solved next
    program, solve_all = cli._program, cli.solve_all

    def timed_program(ch, name, *args):
        nonlocal column
        t0 = time.process_time()
        built = program(ch, name, *args)
        out[f"{name}.build"] += time.process_time() - t0
        column = name
        return built

    def timed_solve_all(progs, *args):
        t0 = time.process_time()
        with one_blas_thread():
            solver._assemble_all(progs)
        t1 = time.process_time()
        sols = solve_all(progs, *args)
        out[f"{column}.assemble"] += t1 - t0
        out[f"{column}.solve_all"] += time.process_time() - t1
        return sols

    cli._program, cli.solve_all = timed_program, timed_solve_all
    try:
        start = time.process_time()
        getattr(cli, cli._EXPERIMENTS[experiment][0])(jobs=1)
        call = time.process_time() - start
    finally:
        cli._program, cli.solve_all = program, solve_all
    # the assembly timed alone is not part of the CLI call
    out[f"{experiment}.call"] = call - sum(v for k, v in out.items() if k.endswith(".assemble"))
    return dict(out)


def main(argv=None) -> int:
    par = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    par.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    args = par.parse_args(argv)
    from qcap.conic._blas import blas_pools

    experiment = WORKLOADS[args.workload]
    one_rep(experiment)
    reps = [one_rep(experiment) for _ in range(REPS)]
    layers = {k: [rep[k] for rep in reps] for k in reps[0]}
    threads = [get() for get, _ in blas_pools()]
    print(json.dumps({"layers": layers, "default_blas_threads": threads}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
