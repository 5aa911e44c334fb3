"""One workload process, started by ``run.py`` with a clean environment.

Prints its result as one ``PERFBENCH_RESULT {json}`` line. ``--t-spawn``
is the driver's ``time.perf_counter()`` just before it started this
process (a system-wide monotonic clock on Linux), so the reported
set-up time covers interpreter start and imports.
"""

from __future__ import annotations

import argparse
import sys
import time

from common import WORKLOADS, emit_result, environment_record


def main(argv: list) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t-spawn", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if args.workload == "serve-mixed":
        import serving

        if args.setup_only:
            result = {"setup_s": serving.setup_only(args.size, args.seed, args.t_spawn)}
        else:
            result = serving.run(args.size, args.seed, args.seconds, bool(args.trace), args.t_spawn)
    else:
        import sim

        if args.setup_only:
            sim.Problem(args.workload, sim.SPECS[args.size], args.seed)
            result = {"setup_s": time.perf_counter() - args.t_spawn}
        else:
            result = sim.run(args.workload, args.size, args.seed, args.seconds,
                             bool(args.trace), args.t_spawn)
    result["env"] = environment_record(args.seed)
    emit_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
