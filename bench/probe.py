"""Set-up probe: one fresh interpreter imports what a workload uses and
answers one tiny warm-up query of its kind.

Run as `python probe.py <workload>` with the package's `src` directory
on PYTHONPATH.  Prints the seconds from before the first import to the
end of the warm-up query.
"""

import time

_start = time.perf_counter()

import sys  # noqa: E402


def _exact():
    import hypertail

    hypertail.lower_tail((50, 20), 10, 4)


def _closed_form():
    import hypertail

    hypertail.concentration_bound(1_000, 100, 0.05)


def _simulate():
    import hypertail
    import numpy  # noqa: F401  (the simulator's own dependency)

    hypertail.coverage_experiment(10, 7, 5, 0.05, 10, 1)


def _cli():
    import contextlib
    import io

    from hypertail.cli import run

    with contextlib.redirect_stdout(io.StringIO()):
        run(["pmf", "--population", "10", "--positives", "7", "--samples", "5",
             "--observed", "3", "--format", "json"])


WARM_UPS = {
    "exact-grid": _exact,
    "closed-form": _closed_form,
    "simulate": _simulate,
    "cli-oneshot": _cli,
}

if __name__ == "__main__":
    WARM_UPS[sys.argv[1]]()
    print(time.perf_counter() - _start)
