"""The benchmark's output gate, replayed in the package's own tests.

perfbench/run.py fails a run whose output bytes differ from the digest
recorded in perfbench/expected_sha256.json for its backend, workload and
seed.  Each record is replayed here: the workload is built as run.py
builds it (perfbench/workloads.py, loaded by path), every operation's argv
goes through ``cli.run`` in this process with standard output and error
captured, each output must pass the operation's own check, and the SHA-256
over each operation's standard output plus the bytes it wrote to files
must equal the record.  One pass per record, untimed.
"""

import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import os
from pathlib import Path

import pytest

import leonardpairs
from leonardpairs import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@functools.cache
def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def _records() -> list:
    """(workload key, seed, digest) of every record for this backend."""
    recorded = json.loads((PERFBENCH / "expected_sha256.json").read_text(encoding="utf-8"))
    return [
        pytest.param(key, int(seed), digest, id=f"{key}-{seed}")
        for key, seeds in sorted(recorded.get(leonardpairs.BACKEND, {}).items())
        for seed, digest in sorted(seeds.items(), key=lambda item: int(item[0]))
    ]


@pytest.mark.parametrize("key,seed,digest", _records())
def test_workload_output_matches_recorded_digest(key, seed, digest, tmp_path):
    name = key.removesuffix("-tiny")
    jobs = min(4, len(os.sched_getaffinity(0)))  # as run.py picks it
    ops = _workloads().build_workload(name, seed, str(tmp_path), jobs, tiny=key != name)
    sha = hashlib.sha256()
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(op.argv)
        assert op.check(rc, out.getvalue()) == [], (op.argv, err.getvalue())
        sha.update(out.getvalue().encode() + op.extra_output())
    assert sha.hexdigest() == digest
