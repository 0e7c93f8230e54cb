"""Launcher for a traced `hypertail` process.

Runs what the console script runs, `hypertail.cli.run(argv)`, with the
layer wrappers of `tracing` installed after the package import.  Run it
under `python -X importtime` with the package's `src` directory on
PYTHONPATH; the last stderr line carries the layer totals as JSON.
"""

import json
import sys

import hypertail.cli

import tracing

if __name__ == "__main__":
    tracer = tracing.Tracer()
    tracing.install(tracer)
    code = hypertail.cli.run(sys.argv[1:])
    sys.stdout.flush()
    print(tracing.TRACE_PREFIX + json.dumps(tracer.summary()), file=sys.stderr)
    sys.exit(code)
