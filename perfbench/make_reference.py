"""Regenerate ``perfbench/reference.json``: the committed output digests.

Run from the repository root::

    python3 perfbench/make_reference.py [--seeds 64] [--jobs 2]

For every workload and every seed in ``range(--seeds)`` it runs the
reference arm once and records its digest with a few readable numbers.
Before writing anything it checks the calibration seed against the
committed artefacts: the trigger pair at seed 1 must render Figure 7
and Table 3 exactly as ``RESULTS.txt`` has them, and its coordinated
arm must be the arm whose digest is recorded for ``trigger-coord``.

Only regenerate when a change is meant to alter simulated results; a
change that only speeds the simulator up must leave every digest as is.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from repro.experiments import render_figure7, render_table3, run_trigger_pair  # noqa: E402

#: The seed RESULTS.txt was generated with; the benchmark is calibrated on it.
CALIBRATION_SEED = 1


def _entry(job: tuple[str, int]) -> tuple[str, int, dict]:
    name, seed = job
    os.environ.update(workloads.ENV[name])
    result = workloads.reference_arm(name, seed)
    entry = {"digest": workloads.output_digest(name, result)}
    entry.update(workloads.headline(name, result))
    return name, seed, entry


def check_results_txt() -> str:
    """Digest of the seed-1 trigger arm, after proving that its pair
    renders Figure 7 and Table 3 byte for byte as RESULTS.txt does."""
    os.environ.update(workloads.ENV["trigger-coord"])
    pair = run_trigger_pair(seed=CALIBRATION_SEED, parallel=False)
    committed = (ROOT / "RESULTS.txt").read_text()
    for render in (render_figure7, render_table3):
        if render(pair) not in committed:
            raise SystemExit(f"{render.__name__} at seed 1 differs from RESULTS.txt")
    return workloads.output_digest("trigger-coord", pair.coord)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=64)
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args()

    trigger_digest = check_results_txt()
    jobs = [(name, seed) for name in workloads.NAMES for seed in range(args.seeds)]
    table: dict[str, dict[str, dict]] = {name: {} for name in workloads.NAMES}
    with multiprocessing.get_context("spawn").Pool(args.jobs) as pool:
        for name, seed, entry in pool.imap_unordered(_entry, jobs):
            table[name][str(seed)] = entry
            print(f"{name} seed {seed}: {entry['digest']}", flush=True)
    if table["trigger-coord"][str(CALIBRATION_SEED)]["digest"] != trigger_digest:
        raise SystemExit("trigger-coord seed 1 is not the arm RESULTS.txt renders")
    out = {
        "calibration_seed": CALIBRATION_SEED,
        "workloads": {
            name: dict(sorted(entries.items(), key=lambda item: int(item[0])))
            for name, entries in table.items()
        },
    }
    (HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
