"""Rational arithmetic over Q is pinned byte for byte.

Every payload over Q and Q(sqrt m) is a ``fractions.Fraction``.  The probe
runs in a fresh interpreter and exercises the layers that stress rational
arithmetic: recognition, extraction, validation, the Askey-Wilson fit, and
a lattice decomposition.  Its output is compared with a golden file.
"""

import json
import subprocess
import sys
from pathlib import Path

GOLDEN_PROBE = Path(__file__).parent / "data" / "fractions_probe.json"

PROBE = r"""
import json
from leonardpairs import BACKEND
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


def _probe() -> str:
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_fractions_probe_matches_golden():
    assert _probe() == GOLDEN_PROBE.read_text(encoding="utf-8")


def test_cli_reports_fractions_backend(tmp_path):
    pair = tmp_path / "pair.json"
    gen = subprocess.run(
        [sys.executable, "-m", "leonardpairs", "gen", "--source", "sl2", "--d", "2"],
        capture_output=True,
        text=True,
    )
    assert gen.returncode == 0, gen.stderr
    pair.write_text(gen.stdout)
    proc = subprocess.run(
        [
            sys.executable, "-m", "leonardpairs",
            "verify", "--pair", str(pair),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["backend"] == "fractions"
    assert report["is_leonard_pair"] is True
