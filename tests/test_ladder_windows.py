"""scripts/ladder_windows.py runs the benchmark's passes and reports the
host-speed sample count and span of every scaling window, through the
empty windows that make perfbench/run.py's HostSpeed.scale raise."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _perfbench_files():
    return sorted(p.name for p in (ROOT / "perfbench").iterdir() if p.name != "__pycache__")


def test_ladder_windows_reports_every_pass_on_tiny_inputs():
    before = _perfbench_files()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ladder_windows.py"),
         "--workload", "ladder", "--seed", "1", "--seconds", "1", "--tiny"],
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert "{" not in out  # no metrics JSON
    passes = int(re.search(r"passes (\d+)", out).group(1))
    seconds = [float(s) for s in re.search(r"^pass seconds (.*)$", out, re.M).group(1).split()]
    windows = [int(n) for n in re.search(r"^window samples (.*)$", out, re.M).group(1).split()]
    assert len(seconds) == len(windows) == passes >= 1
    fewest = int(re.search(r"^fewest samples in a window (\d+) ", out, re.M).group(1))
    assert fewest == min(windows)
    shortest = float(re.search(r"^shortest pass ([\d.]+) s$", out, re.M).group(1))
    assert shortest == min(seconds)
    spans = [float(s) for s in re.search(r"^window spans (.*)$", out, re.M).group(1).split()]
    assert len(spans) == passes
    # a span holds its pass's operations, and a window is empty only under
    # one sampling interval of span (0.1 s, printed to four places)
    assert all(span >= s for span, s in zip(spans, seconds))
    assert all(n > 0 for n, span in zip(windows, spans) if span > 0.1001)
    shortest_span = float(re.search(r"^shortest span ([\d.]+) s ", out, re.M).group(1))
    assert shortest_span == min(spans)
    assert _perfbench_files() == before


def test_window_spans_run_from_the_previous_pass_last_catch_up():
    spec = importlib.util.spec_from_file_location(
        "ladder_windows", ROOT / "scripts" / "ladder_windows.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # two passes of three operations: catch-ups 0-5 and the closing 6,
    # each sampling for 1 s, with 2**m s of operation after catch-up m
    stamps, clock = [], 0.0
    for m in range(7):
        stamps.append((clock, clock + 1))
        clock += 1 + 2**m
    spans = module.window_spans(stamps, 3, 2)
    # pass 0: gaps 0-2 (1 + 2 + 4); pass 1: gaps 2-5, from pass 0's last op
    assert spans == [7.0, 4 + 8 + 16 + 32]
    with pytest.raises(ValueError):
        module.window_spans(stamps[:-1], 3, 2)
