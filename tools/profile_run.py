"""Profile one experiment arm under cProfile and print the hottest functions.

Usage::

    PYTHONPATH=src python tools/profile_run.py [--arm {rubis,trigger}]
                                               [--duration SECONDS] [--top N]
                                               [--sort KEY] [--output FILE]

``--arm rubis`` (the default) is a short coordinated RUBiS run: guest
work items, the credit scheduler and generator processes. ``--arm
trigger`` is the buffer-trigger MPlayer arm of Figure 7 / Table 3 at its
fixed length: periodic tasks, timer-wheel cascades, IXP queues and the
polled driver.

This is the tool that motivated the kernel fast path: before it, the top
of this profile was dominated by ``Timeout.__init__`` / ``Event``
allocation and ``Tracer.emit`` kwargs marshalling. Run it whenever the
simulator feels slow — the cumulative column usually points straight at
the offending model.

Profiling forces the serial path (``REPRO_PARALLEL=0``) so the workload
runs in-process where cProfile can see it; worker processes would escape
the profiler entirely.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
os.environ.setdefault("REPRO_PARALLEL", "0")

from repro.experiments import run_rubis, run_trigger_arm  # noqa: E402  (path setup above)
from repro.sim import seconds  # noqa: E402


def run_arm(arm: str, duration: float) -> str:
    """Run one arm at seed 1; returns a one-line summary of its result."""
    if arm == "trigger":
        result = run_trigger_arm(buffer_trigger=True, seed=1)
        return (f"MPlayer buffer-trigger arm: Dom1 {result.dom1_fps:.1f} fps, "
                f"{result.triggers_sent} triggers sent")
    result = run_rubis(coordinated=True, duration=seconds(duration), seed=1)
    return (f"RUBiS coordinated, {duration:g} simulated seconds: "
            f"throughput {result.throughput:.1f} req/s, "
            f"mean response {result.overall.mean:.0f} ms")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--arm", default="rubis", choices=["rubis", "trigger"],
        help="experiment arm to profile (default: rubis)",
    )
    parser.add_argument(
        "--duration", type=float, default=None,
        help="simulated seconds of RUBiS to run (default: 10); the "
             "trigger arm always runs its fixed Figure 7 length",
    )
    parser.add_argument(
        "--top", type=int, default=25,
        help="number of functions to print (default: 25)",
    )
    parser.add_argument(
        "--sort", default="cumulative", choices=["cumulative", "tottime", "calls"],
        help="pstats sort key (default: cumulative)",
    )
    parser.add_argument(
        "--output", type=Path, default=None, metavar="FILE",
        help="write the report to FILE instead of stdout (for diffing "
             "profiles across kernel changes)",
    )
    args = parser.parse_args()
    if args.arm == "trigger" and args.duration is not None:
        parser.error("--duration applies to the rubis arm only")

    profiler = cProfile.Profile()
    profiler.enable()
    summary = run_arm(args.arm, 10.0 if args.duration is None else args.duration)
    profiler.disable()

    header = summary + "\n"
    if args.output is None:
        print(header)
        stats = pstats.Stats(profiler)
        stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    else:
        with args.output.open("w") as sink:
            sink.write(header + "\n")
            stats = pstats.Stats(profiler, stream=sink)
            stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
        print(header, end="")
        print(f"profile written to {args.output}")


if __name__ == "__main__":
    main()
