"""Pass seconds and host-speed sample windows of one benchmark run.

perfbench/run.py scales each timed pass by the mean of the host-speed
samples in its window, from the pass's first catch-up to the next pass's
(hostspeed.HostSpeed.scale).  When a pass and the next one's first
catch-up end within one sampling interval, the window is empty and
statistics.fmean raises.  This script runs the benchmark's Run in this
process for one workload, seed and length, with the run's HostSpeed.scale
wrapped to record how many samples each window holds; an empty window
falls back to the samples nearest its start, so the run completes and the
crash shows as a count of 0.

A window's samples come from the catch-ups from its pass's first one to
the next pass's first one, and each of them samples once for every
hostspeed.SAMPLE_EVERY_S of time spent outside sampling since the last.
So the samples in pass k's window are paid for by its span: the unsampled
seconds from the catch-up before pass k-1's last operation (for pass 0,
its own first catch-up) to the catch-up before pass k+1's first (after
the last pass, the closing one).  A window can be empty only when its
span is under SAMPLE_EVERY_S, so the shortest span, not the shortest
pass, is the margin to the crash.

It prints each pass's seconds, the sample count and span of each window,
the fewest samples in any window, the shortest pass and the shortest
span, and no metrics JSON.
The inputs go to a temporary directory; nothing under perfbench/ is
written.  The exit code is 1 when an output check of the run failed.

Usage: python3 scripts/ladder_windows.py [--workload ladder|corpus|build]
           [--seed N] [--seconds S] [--tiny]
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def record_windows(speed, windows: list) -> None:
    """Wrap speed.scale to append each window's sample count to windows
    and to read an empty window as the samples nearest its start."""
    scale = speed.scale

    def recording(start=0, stop=None):
        held = len(speed.samples[start:stop])
        windows.append(held)
        if not held:
            start, stop = max(start - 1, 0), start + 1
        return scale(start, stop)

    speed.scale = recording


def record_catch_ups(speed, stamps: list) -> None:
    """Wrap speed.catch_up to append the (entry, exit) times of each call."""
    catch_up = speed.catch_up

    def recording():
        entry = time.perf_counter()
        catch_up()
        stamps.append((entry, time.perf_counter()))

    speed.catch_up = recording


def window_spans(stamps, ops: int, passes: int) -> list[float]:
    """Each pass's span, from the catch-up stamps of a run of passes of ops
    operations each: one catch-up before every operation and a closing one."""
    if len(stamps) != ops * passes + 1:
        raise ValueError(f"{len(stamps)} catch-ups for {passes} passes of {ops} operations")
    # gaps[m]: the unsampled seconds between catch-ups m and m + 1
    gaps = [entry - exit for (_, exit), (entry, _) in zip(stamps, stamps[1:])]
    return [sum(gaps[max(k * ops - 1, 0):(k + 1) * ops]) for k in range(passes)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="ladder", choices=("ladder", "corpus", "build"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--tiny", action="store_true", help="the benchmark's smallest inputs")
    args = parser.parse_args(argv)
    sys.path[:0] = [PERFBENCH, os.path.join(ROOT, "src")]
    import run
    from hostspeed import SAMPLE_EVERY_S

    import leonardpairs

    bench = run.Run(run.parse_args([
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0",
    ] + (["--tiny"] if args.tiny else [])))
    bench.backend = leonardpairs.BACKEND
    windows: list[int] = []
    record_windows(bench.speed, windows)
    stamps: list[tuple[float, float]] = []
    temporary = tempfile.mkdtemp(prefix="ladder-windows-")
    bench.directory = os.path.join(temporary, "inputs")
    try:
        bench.set_up()
        record_catch_ups(bench.speed, stamps)
        bench.measure()
    finally:
        shutil.rmtree(temporary, ignore_errors=True)

    seconds = [sum(lat) for lat in bench.latencies]
    spans = window_spans(stamps, len(bench.ops), len(seconds))
    for line in bench.failures[:20]:
        print(f"FAILED {line}")
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
          f"{'  tiny' if args.tiny else ''}  passes {len(seconds)}")
    print("pass seconds " + " ".join(f"{s:.4f}" for s in seconds))
    print("window samples " + " ".join(str(n) for n in windows))
    print("window spans " + " ".join(f"{s:.4f}" for s in spans))
    print(f"fewest samples in a window {min(windows)} (0 is the HostSpeed.scale crash)")
    print(f"shortest pass {min(seconds):.4f} s")
    print(f"shortest span {min(spans):.4f} s (a window can be empty only under "
          f"{SAMPLE_EVERY_S:g} s)")
    return 1 if bench.failures else 0


if __name__ == "__main__":
    sys.exit(main())
