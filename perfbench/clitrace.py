"""Traced stand-in for ``python -m elliptica`` used by the cli workload's
traced run: installs the layer tracer, runs ``elliptica.cli.main`` on the
given arguments, and appends its span summary to stderr after a marker line.
"""
import time

T_START_NS = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import sys  # noqa: E402

TRACE_MARK = "#perfbench-trace "


def main() -> int:
    t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    import elliptica.cli

    import_ms = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - t0) * 1e-6
    from layertrace import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.active = True
    status = 2
    try:
        status = elliptica.cli.main(sys.argv[1:])
    finally:
        tracer.active = False
        sys.stdout.flush()
        sys.stderr.write("\n" + TRACE_MARK + json.dumps({
            "t_start_ns": T_START_NS,
            "import_ms": import_ms,
            "task_layers": tracer.end_task(),
            "trace": tracer.export(),
        }) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
