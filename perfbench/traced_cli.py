"""Run one plinv command with the benchmark's timing wrappers installed.

    python perfbench/traced_cli.py SPANS_JSON PLINV_ARG...

Behaves like `python -m plinv.cli PLINV_ARG...` (same stdout and exit
code) and writes the command's spans to SPANS_JSON when it ends; the
file holds one command, identified by its arguments.  The
parent's clock reading at spawn, `PERFBENCH_SPAWN_NS`, gives the time
from process start to `main()` entry.
"""

import os
import sys
import time

from tracer import Tracer, install


def run(spans_path, argv):
    tracer = Tracer()
    install(tracer)
    import plinv.cli

    entered = time.perf_counter_ns()
    try:
        return plinv.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path, command=argv,
                    startup_ns=entered - int(os.environ["PERFBENCH_SPAWN_NS"]))


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
