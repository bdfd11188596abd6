"""Record perfbench/reference.json: the package's own outputs that the
seed_sweep and oracle_replay checks compare against.

    python3 perfbench/record_reference.py

Record it once, from the commit that introduced the benchmark, and do not
re-record it to absorb a change in behaviour: a later change whose gamma
sequences or Prop-1 discrepancies differ must say so, not rewrite the
reference. It takes a few minutes on two workers.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses
import json
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from etmhe import cli, harness  # noqa: E402


def sweep_row(alpha: float, seed: int) -> tuple:
    base = cli.parse_config(workloads.CONFIG)
    trace = harness.run_closed_loop(dataclasses.replace(base, alpha=alpha, seed=seed))
    return f"{alpha:g}/{seed}", {"events": trace.n_events,
                                 "gamma": workloads.gamma_hex(trace.gamma)}


def prop1_row(seed: int) -> tuple:
    base = cli.parse_config(workloads.CONFIG)
    report = harness.verify_proposition1(dataclasses.replace(base, seed=seed))
    return str(seed), {"max_discrepancy": report.max_discrepancy,
                       "max_cost_rel_err": report.max_cost_rel_err}


def main() -> None:
    seeds = range(workloads.BATTERIES * workloads.SWEEP_SEEDS)
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
        sweep = [pool.submit(sweep_row, a, s) for a in workloads.SWEEP_ALPHAS
                 for s in seeds]
        prop1 = [pool.submit(prop1_row, s) for s in
                 range(workloads.BATTERIES * workloads.ORACLE_REALIZATIONS)]
        reference = {"sweep": dict(f.result() for f in sweep),
                     "prop1": dict(f.result() for f in prop1)}
    over = [s for s, r in reference["prop1"].items()
            if r["max_discrepancy"] > workloads.PROP1_DISC_GATE]
    print(f"Prop-1 discrepancy above {workloads.PROP1_DISC_GATE:g} on "
          f"{len(over)} of {len(reference['prop1'])} seeds: {' '.join(over)}")
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
