"""The fractions fallback must agree with the compiled core byte for byte.

The backend is chosen at import time from LEONARDPAIRS_BACKEND, so the
pure-Python path runs in a subprocess.  The probe exercises the layers
that actually stress rational arithmetic: recognition, extraction,
validation, the Askey-Wilson fit, and a lattice decomposition.  The
fractions output is also pinned byte for byte to a golden file, so it
stays checked where gmpy2 is not installed.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN_PROBE = Path(__file__).parent / "data" / "fractions_probe.json"

PROBE = r"""
import json
from leonardpairs._backend import BACKEND
from leonardpairs.field import Rationals
from leonardpairs.generators import (
    build_lattice, example2, lattice_pair, sl2_pair, uq_pair,
)
from leonardpairs.leonard import verification_report

Q = Rationals()
out = {"backend": BACKEND}

a, s, _ = example2(Q)
rep = verification_report(a, s)
rep.pop("backend")
out["example2"] = rep

a, s = sl2_pair(Q, 6)
rep = verification_report(a, s)
rep.pop("backend")
out["sl2_d6"] = rep

a, s, allowed = uq_pair(Q, 4, Q.coerce(2))
rep = verification_report(a, s)
rep.pop("backend")
out["uq_d4"] = {"allowed": allowed, "report": rep}

lat = build_lattice(3, 2)
big_a, big_s, dec = lattice_pair(lat)
out["lattice_3_2"] = {
    "counts": list(dec.counts),
    "multiplicities": {str(k): v for k, v in sorted(dec.multiplicities().items())},
    "top_theta": [
        lat.field.serialize(v) for v in dec.components[0].a.column(0)
    ][:1],
}

print(json.dumps(out, indent=2, sort_keys=True))
"""


def _probe(backend: str) -> tuple[str, str]:
    env = dict(os.environ, LEONARDPAIRS_BACKEND=backend)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, proc.stderr


@pytest.mark.skipif(
    importlib.util.find_spec("gmpy2") is None,
    reason="gmpy2 is not installed, so the gmp backend cannot be loaded",
)
def test_fractions_backend_matches_gmp():
    gmp_out, _ = _probe("gmp")
    frac_out, _ = _probe("fractions")
    gmp = json.loads(gmp_out)
    frac = json.loads(frac_out)
    assert gmp.pop("backend") == "gmp"
    assert frac.pop("backend") == "fractions"
    assert gmp == frac


def test_fractions_probe_matches_golden():
    out, _ = _probe("fractions")
    assert out == GOLDEN_PROBE.read_text(encoding="utf-8")


def test_unknown_backend_is_an_import_error():
    env = dict(os.environ, LEONARDPAIRS_BACKEND="decimal")
    proc = subprocess.run(
        [sys.executable, "-c", "import leonardpairs"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode != 0
    assert "LEONARDPAIRS_BACKEND" in proc.stderr


def test_cli_reports_forced_backend(tmp_path):
    pair = tmp_path / "pair.json"
    gen = subprocess.run(
        [sys.executable, "-m", "leonardpairs", "gen", "--source", "sl2", "--d", "2"],
        capture_output=True,
        text=True,
    )
    assert gen.returncode == 0, gen.stderr
    pair.write_text(gen.stdout)
    env = dict(os.environ, LEONARDPAIRS_BACKEND="fractions")
    proc = subprocess.run(
        [
            sys.executable, "-m", "leonardpairs",
            "verify", "--pair", str(pair),
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["backend"] == "fractions"
    assert report["is_leonard_pair"] is True
