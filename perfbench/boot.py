"""Run the ``repro`` command line with the benchmark's tracer installed.

``python perfbench/boot.py <repro arguments>`` behaves like
``python -m repro <repro arguments>``, except that the imports of numpy
and of ``repro`` are timed as spans and the layer wrappers named by
``PERFBENCH_TRACE`` are installed before the command runs.
"""

from __future__ import annotations

import sys
import time


def main() -> int:
    start = time.perf_counter()
    import numpy  # noqa: F401  (timed on its own, before repro pulls it in)
    numpy_done = time.perf_counter()
    import repro.cli
    repro_done = time.perf_counter()

    import tracer

    active = tracer.install_from_env()
    if active is not None:
        active.record("cli.import_numpy", start, numpy_done)
        active.record("cli.import_repro", numpy_done, repro_done)
    return repro.cli.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
