"""Regenerate kgbench/expected.json from the program in this checkout.

    python3 kgbench/record_expected.py

Stores the sweep's err_h1 for every cell and the H^1 norms of the
default-seed trajectories.  Run it only when a change is meant to alter
those numbers, and say so in the change.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_program()

import workloads  # noqa: E402


def main():
    sweep = workloads.Sweep(expected=False)
    traj = workloads.Trajectory(expected=False)
    traj_inputs = traj.build(workloads.DEFAULT_SEED)
    payload = {
        "sweep": sweep.record(sweep.run(sweep.build(0), run.no_op)),
        "trajectory_seed0": traj.record(traj_inputs, traj.run(traj_inputs, run.no_op)),
    }
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
