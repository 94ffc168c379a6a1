"""scripts/ladder_windows.py runs the benchmark's passes and reports the
host-speed sample count of every scaling window, through the empty
windows that make perfbench/run.py's HostSpeed.scale raise."""

import re
import subprocess
import sys
from pathlib import Path

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
    assert _perfbench_files() == before
