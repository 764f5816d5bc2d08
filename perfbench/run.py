"""gramscope benchmark: one seeded workload, end-to-end or traced per layer.

    python3 perfbench/run.py --workload d2_single_solve --seed 2026 --seconds 20 --trace 0

Prints report lines, then one JSON object as the last line: with
``--trace 0`` the gated end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced pass. See perfbench/README.md.
"""

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import checkout  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    bench = workloads.load()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.workloads))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        checkout.prepare()
    except checkout.MissingSources as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import harness

    lines, result = harness.run_workload(
        bench, bench.workloads[args.workload], args.seed, args.seconds, bool(args.trace), SETUP_START
    )
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
