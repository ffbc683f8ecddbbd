"""Host cost of the coordination experiments, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload rubis-coord --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Each workload is one arm of a public experiment (``workloads.py``), run
whole and repeatedly for ``--seconds``. Every arm's simulated output is
checked, outside its timed interval, against the digest committed in
``reference.json`` for its seed; a seed with no committed digest is
checked for exact repeatability instead. The last stdout line is one
JSON object: ``--trace 0`` reports the end-to-end metrics from untraced
arms, ``--trace 1`` the per-layer split from one profiled arm next to
one untraced arm (``measure.py``). ``--workload all`` runs each
workload in its own process and prints one table. README.md records
why each workload and metric was chosen.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: As in workloads.py, which imports repro and so cannot be loaded before
#: the checkout is known to hold src/repro.
NAMES = ("rubis-coord", "trigger-coord", "fabric-shard2")


def run_all(seed: int, seconds: float) -> int:
    """Each workload in its own process (so peak RSS is its own), one table."""
    rows, ok = [], True
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600, check=False,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            rows.append(f"{name:<15} exited with {proc.returncode}")
            ok = False
            continue
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and out["correct"]
        m = out["metrics"]
        rows.append(
            f"{name:<15} {m['wall_s']['value']:>10.4f} {m['setup_s']['value']:>11.5f} "
            f"{m['peak_rss_mb']['value']:>12.1f} {out['failed'] / out['attempted']:>13.3f}"
        )
    print(f"{'workload':<15} {'wall_s (s)':>10} {'setup_s (s)':>11} "
          f"{'peak_rss_mb':>12} {'failed_share':>13}")
    print("\n".join(rows))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from measure import run_one  # noqa: PLC0415 - needs src/ on the path first

    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
