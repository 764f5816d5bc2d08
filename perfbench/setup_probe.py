"""Time one benchmark set-up in a fresh process.

    python3 perfbench/setup_probe.py '<trial config JSON>' <seed>

Imports gramscope from the checkout, builds the config and runs the
warm-up trial, then prints {"setup_s": ..., "reference_us": ...}: the
set-up time from the start of this script, before numpy is imported, and
the host speed sampled right after it (see harness.Reference).
"""

import time

SETUP_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import checkout  # noqa: E402

if __name__ == "__main__":
    checkout.prepare()
    import harness

    harness.setup(json.loads(sys.argv[1]), int(sys.argv[2]))
    setup_s = time.perf_counter() - SETUP_START
    reference_us = harness.Reference()(15, harness.SETUP_SAMPLE_S)
    print(json.dumps({"setup_s": setup_s, "reference_us": reference_us}))
