"""Tests of the benchmark itself.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
They use the ``--tiny`` inputs, so each run takes a few seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd, check=False,
    )


def _in_process(workload, seed=1, seconds=0.0):
    """Run the benchmark in this process; (exit code, result, Run)."""
    args = run.parse_args([
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", "0", "--tiny",
    ])
    bench = run.Run(args)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = bench.main()
    return code, json.loads(out.getvalue().strip().splitlines()[-1]), bench


def test_benchmark_json_lists_the_metrics_the_run_prints():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["name"] for m in BENCHMARK["per_layer"]] == [n for n, _ in run.PER_LAYER]
    units = dict(run.END_TO_END + tuple(run.PER_LAYER))
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert metric["unit"] == units[metric["name"]]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    done = _bench("--workload", workload, "--seed", "1", "--seconds", "0.5",
                  "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)
    if not trace:
        assert any(line.startswith("failed_ratio 0.000000") for line in lines)


def test_a_second_seed_passes_every_check():
    for workload in run.WORKLOADS:
        code, result, _ = _in_process(workload, seed=2)
        assert code == 0 and result["correct"] is True, workload


def _patch_cli(monkeypatch, damage):
    """Let damage(argv, stdout) rewrite every captured command output."""
    from leonardpairs import cli

    real = cli.run

    def damaged(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = real(argv)
        sys.stdout.write(damage(argv, out.getvalue()))
        return code

    monkeypatch.setattr(cli, "run", damaged)


def test_a_flipped_verdict_fails_the_run(monkeypatch):
    _patch_cli(monkeypatch, lambda argv, out: out.replace(
        '"is_leonard_pair": false', '"is_leonard_pair": true'))
    code, result, _ = _in_process("ladder")
    assert code == 1 and result["correct"] is False and result["failed"] >= 1


def test_a_non_identical_roundtrip_fails_the_run(monkeypatch):
    _patch_cli(monkeypatch, lambda argv, out: out.replace(
        '"identical": true', '"identical": false'))
    code, result, _ = _in_process("build")
    assert code == 1 and result["correct"] is False


def _recorded(workload):
    import leonardpairs

    with open(run.EXPECTED_SHA256, encoding="utf-8") as handle:
        recorded = json.load(handle)
    return recorded.get(leonardpairs.BACKEND, {}).get(f"{workload}-tiny", {}).get("1")


def test_one_corrupted_output_byte_fails_the_run(monkeypatch):
    if _recorded("ladder") is None:
        pytest.skip("no recorded output digest for this backend")

    def flip_one_byte(argv, out):
        middle = len(out) // 2
        return out[:middle] + ("0" if out[middle] != "0" else "1") + out[middle + 1:]

    _patch_cli(monkeypatch, flip_one_byte)
    code, result, _ = _in_process("ladder")
    assert code == 1 and result["correct"] is False


def test_one_corrupted_report_file_byte_fails_the_run(monkeypatch):
    if _recorded("corpus") is None:
        pytest.skip("no recorded output digest for this backend")

    def corrupt_a_report(argv, out):
        if "--batch" in argv:
            directory = argv[argv.index("--batch") + 1]
            name = sorted(n for n in os.listdir(directory) if n.endswith(".report.json"))[0]
            path = os.path.join(directory, name)
            with open(path, "rb") as handle:
                data = bytearray(handle.read())
            data[len(data) // 2] ^= 0x01
            with open(path, "wb") as handle:
                handle.write(bytes(data))
        return out

    _patch_cli(monkeypatch, corrupt_a_report)
    code, result, _ = _in_process("corpus")
    assert code == 1 and result["correct"] is False


def test_the_unchanged_program_matches_its_recorded_digests():
    for workload in run.WORKLOADS:
        if _recorded(workload) is None:
            pytest.skip("no recorded output digest for this backend")
        code, result, bench = _in_process(workload)
        assert code == 0 and bench.digest == _recorded(workload)


def test_timed_metrics_are_the_measured_ones_scaled_to_the_nominal_host():
    code, result, bench = _in_process("ladder", seconds=2.0)
    assert code == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    nominal, samples = run.hostspeed.NOMINAL_S, bench.speed.samples
    # At least one kernel sample per SAMPLE_EVERY_S of timed invocations.
    assert len(samples) >= sum(map(sum, bench.latencies)) / run.hostspeed.SAMPLE_EVERY_S - 1
    assert len(bench.pass_scales) == len(bench.latencies) >= 2
    for scale in bench.pass_scales:
        assert nominal / max(samples) <= scale <= nominal / min(samples)
    scaled = [[t * s for t in lat] for lat, s in zip(bench.latencies, bench.pass_scales)]
    per_pass = sum(op.verifications for op in bench.ops)
    assert metrics["ops_per_s"] == pytest.approx(per_pass * len(scaled) / sum(map(sum, scaled)))
    typical = sorted(statistics.median(column) for column in zip(*scaled))
    assert metrics["op_p50_s"] == pytest.approx(statistics.median(typical))
    assert metrics["op_tail_s"] == pytest.approx(typical[-1])
    assert metrics["setup_s"] == pytest.approx(
        statistics.median(bench.setup_samples) * nominal * len(samples) / sum(samples))


def test_no_operation_drifts_within_one_process():
    code, result, bench = _in_process("build", seconds=8.0)
    assert code == 0 and result["correct"] is True
    # At the nominal host speed, so that a slow spell of a shared host
    # does not read as drift.
    passes = [[t * s for t in lat] for lat, s in zip(bench.latencies, bench.pass_scales)]
    assert len(passes) >= 6
    third = len(passes) // 3
    # The fastest of each third, because a slow spell of a shared host can
    # cover several passes; growth shows in the fastest time as well.
    for i in range(len(passes[0])):
        early = min(p[i] for p in passes[:third])
        late = min(p[i] for p in passes[-third:])
        assert late <= 1.5 * early + 0.002, bench.ops[i].argv


def test_without_the_package_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    done = _bench("--workload", "ladder", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
