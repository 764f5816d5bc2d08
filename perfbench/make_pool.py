"""Write the baseline iteration counts of each workload's pool to pool.json.

    python3 perfbench/make_pool.py d2_single_solve=256 d2_shots_augment=128 d3_large_solve=24

Instance m of a pool is the single trial of a batch with master seed m.
Its entry is the number of ADMM iterations that trial takes, summed over
every solve. The gated ``trial_cost`` divides a trial's time by this
count, so it stays fixed while the code changes: rerun this only when a
workload's template changes, and say so, since it moves every later
``trial_cost`` figure.
"""

import json
import sys

import checkout
import workloads


def pool_iterations(template: dict, size: int) -> list:
    """ADMM iterations of instances 0 .. size-1 of ``template``."""
    import harness

    cfg = harness.trial_config_from_json(template)
    rec = harness.Recorder()
    return [harness.run_instance(cfg, m, rec).iterations for m in range(size)]


if __name__ == "__main__":
    checkout.prepare()
    path = workloads.HERE / "pool.json"
    pools = json.loads(path.read_text()) if path.exists() else {}
    for arg in sys.argv[1:]:
        name, size = arg.split("=")
        pools[name] = pool_iterations(workloads.TEMPLATES[name][0], int(size))
        print(name, sum(pools[name]), "iterations", flush=True)
    rows = ",\n".join(f"  {json.dumps(name)}: {json.dumps(counts)}" for name, counts in pools.items())
    path.write_text("{\n" + rows + "\n}\n")
