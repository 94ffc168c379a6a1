"""The command-line surface: exit codes, schemas, determinism, batch mode.

Each invocation writes exactly one JSON document to standard output, and
byte identity across repeated runs is part of the contract, so several
tests compare raw output strings rather than parsed values.  Exit codes:
0 success, 1 domain-level negative under --strict, 2 malformed input.
"""

import contextlib
import hashlib
import io
import json
import math
import random
import subprocess
import sys
import threading
from fractions import Fraction

import pytest

from leonardpairs import cli
from leonardpairs import generators as generators_module
from leonardpairs.errors import LeonardPairsError
from leonardpairs.field import PrimeField, QuadraticExtension, Rationals, field_to_dict
from leonardpairs.generators import (
    MAX_LATTICE_SUBSPACES,
    NONEXAMPLE_KINDS,
    _complete_array,
    _recurrence,
    example2,
    gaussian_binomial,
    random_nonexample,
)
from leonardpairs.matrix import (
    ExactMatrix,
    _hessenberg,
    matrix_from_dict,
    matrix_to_dict,
)
from leonardpairs.parray import (
    find_g_matrix,
    parameter_array_from_dict,
    parameter_array_to_dict,
)

from corpusgen import dense_reduced_pair


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_json(*argv):
    code, out, err = run_cli(*argv)
    assert out, f"no output; stderr: {err!r}"
    return code, json.loads(out)


def gen_file(tmp_path, name, *argv):
    code, out, err = run_cli("gen", *argv)
    assert code == 0, err
    path = tmp_path / name
    path.write_text(out)
    return str(path)


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def valid_array_file(tmp_path, d=3, seed=7, field=None):
    argv = ["--source", "random-array", "--d", str(d), "--seed", str(seed)]
    if field is not None:
        argv += ["--field", field]
    code, payload = run_json("gen", *argv)
    assert code == 0
    return write_json(tmp_path, f"pa{d}s{seed}.json", payload["parameter_array"])


def test_help_exits_zero():
    code, out, _ = run_cli("--help")
    assert code == 0
    assert "usage" in out


def test_unknown_command_exits_two():
    code, _, _ = run_cli("nosuchcmd")
    assert code == 2


def test_verify_example2_pair(tmp_path):
    pair = gen_file(tmp_path, "ex2.json", "--source", "example2")
    code, report = run_json("verify", "--pair", pair)
    assert code == 0
    assert report["is_leonard_pair"] is True
    assert report["diameter"] == 3
    assert report["orderings_found"] == 4
    assert report["failure_reason"] is None
    code, _, _ = run_cli("verify", "--pair", pair, "--strict")
    assert code == 0


def test_verify_negative_under_strict(tmp_path):
    pair = gen_file(
        tmp_path, "bad.json",
        "--source", "random-nonexample", "--size", "4", "--kind", "defective",
        "--seed", "5",
    )
    code, report = run_json("verify", "--pair", pair)
    assert code == 0
    assert report["is_leonard_pair"] is False
    assert isinstance(report["failure_reason"], str) and report["failure_reason"]
    assert report["parameter_array"] is None
    assert report["fingerprint"] is None
    code, _, _ = run_cli("verify", "--pair", pair, "--strict")
    assert code == 1


MISMATCHED_PAIR = {
    "a": {"field": {"kind": "rationals"}, "rows": [["1", "1"], ["1", "0"]]},
    "astar": {"field": {"kind": "rationals"}, "rows": [["1"]]},
}


def test_size_mismatched_pair_is_an_input_error(tmp_path):
    path = write_json(tmp_path, "mismatch.json", MISMATCHED_PAIR)
    for command in ("verify", "extract", "awfit"):
        code, out, err = run_cli(command, "--pair", path)
        assert code == 2, command
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "mismatch.json" in err and "size mismatch" in err


def test_verify_rejects_pair_plus_matrices(tmp_path):
    pair = gen_file(tmp_path, "p.json", "--source", "example2")
    code, _, err = run_cli("verify", "--pair", pair, "--a", pair, "--astar", pair)
    assert code == 2
    assert "not both" in err


def test_verify_without_inputs_exits_two():
    code, _, err = run_cli("verify")
    assert code == 2
    assert "--a" in err or "--pair" in err


def test_malformed_json_diagnostic_names_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"a": [1,\n  oops')
    code, _, err = run_cli("verify", "--pair", str(path))
    assert code == 2
    assert "line 2" in err


def test_unreadable_json_exits_two(tmp_path):
    # valid JSON syntax that json.loads still cannot turn into a value
    texts = {"digits.json": "[" + "7" * 5000 + "]", "deep.json": "[" * 10**5 + "]" * 10**5}
    for name, text in texts.items():
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run_cli("verify", "--pair", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err


def test_missing_file_exits_two(tmp_path):
    code, _, err = run_cli("classify", "--in", str(tmp_path / "nope.json"))
    assert code == 2
    assert "nope.json" in err


def test_field_flag_forms():
    assert cli.parse_field_flag("Q").name == "Q"
    assert cli.parse_field_flag("GF(7)").name == "GF(7)"
    assert cli.parse_field_flag("Q(sqrt 2)").name == "Q(sqrt 2)"
    assert cli.parse_field_flag("Q(sqrt -1)").name == "Q(sqrt -1)"
    assert cli.parse_field_flag("Q(sqrt-1)").name == "Q(sqrt -1)"
    for bad in ("", "R", "GF(4)", "GF(6)", "Q(sqrt 0)", "Q(sqrt 4)", "Q(sqrt)", "gf(5)"):
        with pytest.raises(Exception):
            cli.parse_field_flag(bad)


@pytest.mark.parametrize("form", ["GF({})", "Q(sqrt {})"], ids=["prime", "quadratic"])
def test_field_flag_past_int_digit_limit_is_one_error_line(tmp_path, form):
    field = form.format("1" * 5000)
    pair = gen_file(tmp_path, "sl2.json", "--source", "sl2", "--d", "2")
    for argv in (
        ("gen", "--source", "sl2", "--d", "2", "--field", field),
        ("verify", "--pair", pair, "--field", field),
    ):
        code, out, err = run_cli(*argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def _is_one_error_line(code, out, err) -> bool:
    return code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_json_booleans_and_non_ascii_digits_are_input_errors(tmp_path):
    # Python's bool is an int, and the regex \d matches the digits of every
    # script: true read as 1, and so did the Arabic-Indic one U+0661
    pair_file = gen_file(tmp_path, "ex2.json", "--source", "example2")
    with open(pair_file) as handle:
        pair = json.load(handle)
    for value in (True, False, "\u0661", "1/\u0662"):
        bad = json.loads(json.dumps(pair))
        bad["a"]["rows"][0][1] = value
        path = write_json(tmp_path, "bad_pair.json", bad)
        assert _is_one_error_line(*run_cli("verify", "--pair", path)), value
        assert _is_one_error_line(*run_cli("verify", "--pair", path, "--field", "GF(101)"))
    with open(valid_array_file(tmp_path, d=2, seed=7)) as handle:
        array = json.load(handle)
    for value in (True, False, "\u0661", "-\u0663/2"):
        bad = dict(array, theta=[value] + array["theta"][1:])
        path = write_json(tmp_path, "bad_array.json", bad)
        assert _is_one_error_line(*run_cli("validate-array", "--in", path)), value
    quadratic = dict(array, field={"kind": "quadratic_extension", "discriminant": 5})
    quadratic["theta"] = ["\u0661*s"] + array["theta"][1:]
    path = write_json(tmp_path, "bad_quadratic.json", quadratic)
    assert _is_one_error_line(*run_cli("validate-array", "--in", path))
    for flag in ("GF(\u0661\u0660\u0661)", "Q(sqrt \u0662)", "Q(sqrt -\u0663)"):
        with pytest.raises(Exception):
            cli.parse_field_flag(flag)
        argv = ("gen", "--source", "sl2", "--d", "2", "--field", flag)
        assert _is_one_error_line(*run_cli(*argv)), flag
        assert _is_one_error_line(*run_cli("verify", "--pair", pair_file, "--field", flag))


def test_declared_diameter_must_be_an_integer(tmp_path):
    # True == 1 and 1.0 == 1, so both once passed for a diameter-1 array
    with open(valid_array_file(tmp_path, d=1, seed=7)) as handle:
        array = json.load(handle)
    assert array["d"] == 1
    assert run_cli("validate-array", "--in", write_json(tmp_path, "ok.json", array))[0] == 0
    for value in (True, 1.0, "1"):
        path = write_json(tmp_path, "bad_d.json", dict(array, d=value))
        assert _is_one_error_line(*run_cli("validate-array", "--in", path)), value


def test_schema_lists_must_be_json_lists(tmp_path):
    # a string is iterable, so "rows": ["03", "10"] once verified as
    # [[0, 3], [1, 0]] and "theta": "12" read as [1, 2]; null was a
    # TypeError about NoneType
    q = {"kind": "rationals"}
    good_a = {"field": q, "rows": [[0, 3], [1, 0]]}
    good_star = {"field": q, "rows": [[1, 0], [0, -1]]}
    assert run_cli("verify", "--pair", write_json(
        tmp_path, "ok.json", {"a": good_a, "astar": good_star}))[0] == 0
    for rows, key in (
        (["03", "10"], "'rows[0]'"),
        ([[0, 3], "10"], "'rows[1]'"),
        ([[0, 3], None], "'rows[1]'"),
        ("0310", "'rows'"),
        (None, "'rows'"),
        ({"0": [0, 3]}, "'rows'"),
    ):
        a = dict(good_a, rows=rows)
        path = write_json(tmp_path, "bad_pair.json", {"a": a, "astar": good_star})
        code, out, err = run_cli("verify", "--pair", path)
        assert _is_one_error_line(code, out, err), rows
        assert f"{key} must be a JSON list" in err, err
        a_path = write_json(tmp_path, "bad_a.json", a)
        star_path = write_json(tmp_path, "star.json", good_star)
        code, out, err = run_cli("extract", "--a", a_path, "--astar", star_path)
        assert _is_one_error_line(code, out, err) and key in err, rows
        with pytest.raises(LeonardPairsError, match="must be a JSON list"):
            matrix_from_dict(a)
    batch = tmp_path / "batch"
    batch.mkdir()
    write_json(batch, "bad.json", {"a": dict(good_a, rows="0310"), "astar": good_star})
    code, _, err = run_cli("verify", "--batch", str(batch))
    assert code == 2 and "'rows' must be a JSON list" in err
    with open(valid_array_file(tmp_path, d=1, seed=7)) as handle:
        array = json.load(handle)
    for key in ("theta", "theta_star", "varphi", "phi"):
        for value in ("".join(array[key]), None, 5, {"0": array[key][0]}):
            path = write_json(tmp_path, "bad_array.json", dict(array, **{key: value}))
            code, out, err = run_cli("validate-array", "--in", path)
            assert _is_one_error_line(code, out, err), (key, value)
            assert f"'{key}' must be a JSON list" in err, err
            with pytest.raises(LeonardPairsError, match=f"'{key}' must be a JSON list"):
                parameter_array_from_dict(dict(array, **{key: value}))


def test_parameter_array_missing_key_is_named(tmp_path):
    code, document = run_json("gen", "--source", "random-array", "--d", "2", "--seed", "3")
    assert code == 0
    no_phi = {k: v for k, v in document["parameter_array"].items() if k != "phi"}
    for obj, key in ((document, "field"), (no_phi, "phi")):
        path = write_json(tmp_path, "incomplete.json", obj)
        for command in ("validate-array", "construct"):
            code, out, err = run_cli(command, "--in", path)
            assert _is_one_error_line(code, out, err), (command, key, err)
            assert f"parameter array has no '{key}' key" in err, err


def test_a_and_astar_cannot_both_read_stdin(tmp_path, monkeypatch):
    with open(gen_file(tmp_path, "sl2.json", "--source", "sl2", "--d", "2")) as handle:
        pair = json.load(handle)
    for command in ("verify", "extract", "awfit"):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(pair["a"])))
        code, out, err = run_cli(command, "--a", "-", "--astar", "-")
        assert _is_one_error_line(code, out, err), (command, err)
        assert "--a and --astar cannot both read standard input" in err, err


def test_field_override_changes_verdict(tmp_path):
    pair = gen_file(tmp_path, "ex2.json", "--source", "example2")
    code, report = run_json("verify", "--pair", pair, "--field", "GF(3)")
    assert code == 0
    assert report["field"] == {"kind": "prime_field", "p": 3}
    assert report["is_leonard_pair"] is False
    assert "irreducible" in report["failure_reason"]


def test_extract_schema_roundtrips_into_construct(tmp_path):
    pair = gen_file(tmp_path, "sl2.json", "--source", "sl2", "--d", "4")
    code, pa = run_json("extract", "--pair", pair)
    assert code == 0
    assert sorted(pa) == ["d", "field", "phi", "theta", "theta_star", "varphi"]
    assert pa["d"] == 4
    # parse then print is the identity on the documented schema
    assert parameter_array_to_dict(parameter_array_from_dict(pa)) == pa
    back = write_json(tmp_path, "pa.json", pa)
    code, built = run_json("construct", "--in", back)
    assert code == 0
    assert sorted(built) == ["a", "astar"]


def test_extract_negative(tmp_path):
    pair = gen_file(
        tmp_path, "ne.json",
        "--source", "random-nonexample", "--size", "3", "--kind", "one-sided",
        "--seed", "2",
    )
    code, payload = run_json("extract", "--pair", pair)
    assert code == 0
    assert payload["is_leonard_pair"] is False
    code, _, _ = run_cli("extract", "--pair", pair, "--strict")
    assert code == 1


def test_construct_then_verify(tmp_path):
    pa = valid_array_file(tmp_path, d=3, seed=7)
    code, built = run_json("construct", "--in", pa)
    assert code == 0
    pair = write_json(tmp_path, "built.json", built)
    code, report = run_json("verify", "--pair", pair)
    assert code == 0 and report["is_leonard_pair"] is True


def test_construct_refuses_invalid_array(tmp_path):
    code, payload = run_json(
        "gen", "--source", "random-array", "--d", "3", "--seed", "1"
    )
    broken = dict(payload["parameter_array"])
    broken["varphi"] = ["0"] + broken["varphi"][1:]
    path = write_json(tmp_path, "broken.json", broken)
    code, out = run_json("construct", "--in", path)
    assert code == 0
    assert out["constructed"] is False
    assert out["validity"]["axioms"]["PA2"]["passed"] is False
    code, _, _ = run_cli("construct", "--in", path, "--strict")
    assert code == 1


def test_tdconstruct_unit_split(tmp_path):
    pa = valid_array_file(tmp_path, d=4, seed=3)
    code, built = run_json("tdconstruct", "--in", pa)
    assert code == 0
    rows = built["a"]["rows"]
    assert [rows[i + 1][i] for i in range(4)] == ["1", "1", "1", "1"]
    pair = write_json(tmp_path, "tri.json", built)
    code, report = run_json("verify", "--pair", pair)
    assert code == 0 and report["is_leonard_pair"] is True


def test_tdconstruct_symmetric_split_over_gf13(tmp_path):
    # seed 10 gives tridiagonal products that are squares mod 13
    pa = valid_array_file(tmp_path, d=3, seed=10, field="GF(13)")
    code, built = run_json("tdconstruct", "--in", pa, "--split", "symmetric")
    assert code == 0
    rows = built["a"]["rows"]
    assert [rows[i + 1][i] for i in range(3)] == [rows[i][i + 1] for i in range(3)]
    pair = write_json(tmp_path, "sym.json", built)
    code, report = run_json("verify", "--pair", pair)
    assert code == 0 and report["is_leonard_pair"] is True


def test_tdconstruct_symmetric_split_unavailable(tmp_path):
    pa = valid_array_file(tmp_path, d=3, seed=0)
    code, out = run_json("tdconstruct", "--in", pa, "--split", "symmetric")
    assert code == 0
    assert out["constructed"] is False
    assert "square" in out["reason"]
    code, _, _ = run_cli(
        "tdconstruct", "--in", pa, "--split", "symmetric", "--strict"
    )
    assert code == 1


def test_gmatrix_found(tmp_path):
    pa = valid_array_file(tmp_path, d=3, seed=7)
    code, out = run_json("gmatrix", "--in", pa)
    assert code == 0
    assert out["found"] is True
    assert out["pencil_exhausted"] is False
    assert len(out["g"]["rows"]) == 4


def test_gmatrix_invalid_array(tmp_path):
    code, payload = run_json(
        "gen", "--source", "random-array", "--d", "2", "--seed", "4"
    )
    broken = dict(payload["parameter_array"])
    broken["theta"] = [broken["theta"][0]] * len(broken["theta"])
    path = write_json(tmp_path, "dup.json", broken)
    code, out = run_json("gmatrix", "--in", path)
    assert code == 0
    assert out["found"] is False
    assert out["validity"]["axioms"]["PA1"]["passed"] is False


def test_polys_shapes(tmp_path):
    pa = valid_array_file(tmp_path, d=4, seed=9)
    code, out = run_json("polys", "--in", pa)
    assert code == 0
    assert out["poly_characterization"] is True
    assert len(out["u"]) == 5 and len(out["u_dual"]) == 5
    assert out["u"][0] == ["1"]
    for i, coeffs in enumerate(out["u"]):
        assert len(coeffs) == i + 1


def test_polys_need_distinct_eigenvalues(tmp_path):
    code, payload = run_json(
        "gen", "--source", "random-array", "--d", "2", "--seed", "4"
    )
    broken = dict(payload["parameter_array"])
    broken["theta_star"] = [broken["theta_star"][0]] * len(broken["theta_star"])
    path = write_json(tmp_path, "dup.json", broken)
    code, out = run_json("polys", "--in", path)
    assert code == 0
    assert out["computable"] is False
    code, _, _ = run_cli("polys", "--in", path, "--strict")
    assert code == 1


def test_awfit_unique_only_from_diameter_three(tmp_path):
    pa3 = valid_array_file(tmp_path, d=3, seed=7)
    code, built = run_json("construct", "--in", pa3)
    pair3 = write_json(tmp_path, "p3.json", built)
    code, fit = run_json("awfit", "--pair", pair3)
    assert code == 0
    assert fit["found"] is True and fit["unique"] is True

    pair2 = gen_file(tmp_path, "sl2d2.json", "--source", "sl2", "--d", "2")
    code, fit = run_json("awfit", "--pair", pair2)
    assert code == 0
    assert fit["found"] is True and fit["unique"] is False


def test_classify_classical_from_sl2(tmp_path):
    pair = gen_file(tmp_path, "sl2.json", "--source", "sl2", "--d", "5")
    code, pa = run_json("extract", "--pair", pair)
    path = write_json(tmp_path, "pa.json", pa)
    code, out = run_json("classify", "--in", path)
    assert code == 0
    assert out["valid"] is True
    assert out["fingerprint"]["family"] == "classical"
    assert out["fingerprint"]["beta"] == "2"


def test_classify_q_type_from_uq(tmp_path):
    pair = gen_file(tmp_path, "uq.json", "--source", "uq", "--d", "4", "--q", "2")
    code, pa = run_json("extract", "--pair", pair)
    path = write_json(tmp_path, "pa.json", pa)
    code, out = run_json("classify", "--in", path)
    assert code == 0
    assert out["fingerprint"]["family"] == "q-type"
    assert out["fingerprint"]["beta"] == "17/4"
    assert out["fingerprint"]["q"] == "4"


def test_classify_invalid_array(tmp_path):
    code, payload = run_json(
        "gen", "--source", "random-array", "--d", "3", "--seed", "2"
    )
    broken = dict(payload["parameter_array"])
    broken["phi"] = ["0"] + broken["phi"][1:]
    path = write_json(tmp_path, "broken.json", broken)
    code, out = run_json("classify", "--in", path)
    assert code == 0
    assert out["valid"] is False and out["fingerprint"] is None


def test_validate_array_reports_each_axiom(tmp_path):
    pa = valid_array_file(tmp_path, d=3, seed=7)
    code, out = run_json("validate-array", "--in", pa)
    assert code == 0
    assert out["valid"] is True
    assert sorted(out["axioms"]) == ["PA1", "PA2", "PA3", "PA4", "PA5"]
    assert all(ax["passed"] for ax in out["axioms"].values())


def test_validate_array_flags_duplicate_theta(tmp_path):
    code, payload = run_json(
        "gen", "--source", "random-array", "--d", "3", "--seed", "6"
    )
    broken = dict(payload["parameter_array"])
    broken["theta"] = [broken["theta"][0]] * len(broken["theta"])
    path = write_json(tmp_path, "dup.json", broken)
    code, out = run_json("validate-array", "--in", path)
    assert code == 0
    assert out["valid"] is False
    assert out["axioms"]["PA1"]["passed"] is False
    assert out["axioms"]["PA1"]["first_failure"] is not None
    code, _, _ = run_cli("validate-array", "--in", path, "--strict")
    assert code == 1


def test_roundtrip_identical(tmp_path):
    pa = valid_array_file(tmp_path, d=5, seed=3)
    code, out = run_json("roundtrip", "--in", pa)
    assert code == 0
    assert out["valid"] is True and out["identical"] is True


def test_roundtrip_invalid_array(tmp_path):
    code, payload = run_json(
        "gen", "--source", "random-array", "--d", "2", "--seed", "8"
    )
    broken = dict(payload["parameter_array"])
    broken["varphi"] = ["0"] + broken["varphi"][1:]
    path = write_json(tmp_path, "broken.json", broken)
    code, out = run_json("roundtrip", "--in", path)
    assert code == 0
    assert out["valid"] is False and out["identical"] is None
    code, _, _ = run_cli("roundtrip", "--in", path, "--strict")
    assert code == 1


def test_gen_uq_forbidden_is_flagged_not_fatal():
    # unit scalars sit on the forbidden boundary when d is odd
    code, payload = run_json("gen", "--source", "uq", "--d", "3", "--q", "2")
    assert code == 0
    assert payload["allowed"] is False
    code, _, _ = run_cli("gen", "--source", "uq", "--d", "3", "--q", "2", "--strict")
    assert code == 1


def test_gen_lattice_counts_and_default_beta():
    code, payload = run_json("gen", "--source", "lattice", "--n", "3", "--q", "2")
    assert code == 0
    assert payload["counts"] == [1, 7, 7, 1]
    assert payload["multiplicities"] == {"1": 6, "3": 1}
    assert payload["params"]["beta"] == "8"
    assert payload["params"]["field"] == {
        "kind": "quadratic_extension",
        "discriminant": 2,
    }


def test_gen_lattice_over_gf_343():
    code, payload = run_json("gen", "--source", "lattice", "--n", "2", "--q", "343")
    assert code == 0
    assert payload["counts"] == [1, 344, 1]
    assert payload["multiplicities"] == {"0": 343, "2": 1}


@pytest.mark.parametrize("n, q", [(3, 25), (3, 32), (5, 3)])
def test_gen_lattice_above_the_limit_is_refused_before_enumeration(monkeypatch, n, q):
    """The smallest refused lattice, (3,25) with 1304 subspaces, and two
    larger ones exit 2 with one error line; no subspace is enumerated."""

    def refuse(*args):
        raise AssertionError("enumerated a refused lattice")

    monkeypatch.setattr(generators_module, "_extensions", refuse)
    code, out, err = run_cli("gen", "--source", "lattice", "--n", str(n), "--q", str(q))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"above the limit of {MAX_LATTICE_SUBSPACES}" in err


def test_lattice_limit_admits_every_lattice_the_digests_and_benchmark_run():
    """(4,5) is the largest admitted lattice; the golden digests, the CLI
    tests and the build workload use none larger."""
    admitted = [(2, 3), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (2, 343), (4, 5)]
    for n, q in admitted:
        assert sum(gaussian_binomial(n, k, q) for k in range(n + 1)) <= MAX_LATTICE_SUBSPACES
    assert sum(gaussian_binomial(3, k, 25) for k in range(4)) > MAX_LATTICE_SUBSPACES


def _dumped(payload) -> str:
    """What json.dumps prints for payload with each matrix as matrix_to_dict."""
    plain = {
        k: matrix_to_dict(v) if isinstance(v, ExactMatrix) else v for k, v in payload.items()
    }
    return json.dumps(plain, indent=2, sort_keys=True) + "\n"


def _written(payload) -> str:
    out = io.StringIO()
    cli._write(payload, out.write)
    return out.getvalue()


def _sparse_matrix(field, n, rng) -> ExactMatrix:
    """Random entries, about half of them zero: field.zero itself, or a
    zero payload that is another object, which is_zero has to spot."""
    def entry():
        pick = rng.randrange(4)
        if pick == 0:
            return field.zero
        if pick == 1:
            return field.coerce(Fraction(0))
        return field.random_element(rng).payload

    return ExactMatrix._raw(field, [[entry() for _ in range(n)] for _ in range(n)])


@pytest.mark.parametrize("n", [1, 2, 7, 13])
@pytest.mark.parametrize(
    "field",
    [Rationals(), PrimeField(101), QuadraticExtension(5), QuadraticExtension(2)],
    ids=lambda f: f.name,
)
def test_row_writer_prints_the_bytes_of_json_dumps(field, n):
    rng = random.Random(n)
    payload = {
        "a": _sparse_matrix(field, n, rng),
        "astar": _sparse_matrix(field, n, rng),
        "params": {"field": field_to_dict(field), "n": n},
        "source": "lattice",
    }
    assert _written(payload) == _dumped(payload)


class _EscapingField(Rationals):
    """Q whose small integers serialize to strings that JSON must escape."""

    TEXTS = {
        0: "zero \u2205",
        1: 'a "quote"',
        2: "a back\\slash",
        3: "caf\u00e9, \u221a5 and \U0001d53d",
        4: "bell\x07, tab\t and new\nline",
    }

    def serialize(self, a):
        return self.TEXTS.get(a, super().serialize(a))


def test_row_writer_escapes_entries_as_json_dumps_does():
    field = _EscapingField()
    rows = [[field.from_int((i * 3 + j) % 6) for j in range(5)] for i in range(5)]
    rows[0][0] = field.zero
    payload = {
        "a": ExactMatrix._raw(field, rows),
        "note": {"text": 'q"\\ \u00e9\x01', "list": [1, None, True]},
        "seed": 3,
    }
    assert _written(payload) == _dumped(payload)
    assert "\\u00e9" in _written(payload)


def test_row_writer_agrees_on_gmatrix_and_example2_payloads(tmp_path):
    refused = {"found": False, "g": None, "pencil_exhausted": True, "solution_dimension": 0}
    assert _written(refused) == _dumped(refused)
    path = valid_array_file(tmp_path, d=4, seed=2, field="Q(sqrt 5)")
    res = find_g_matrix(parameter_array_from_dict(json.loads(open(path).read())))
    found = {
        "found": res.found,
        "g": res.g,
        "pencil_exhausted": res.pencil_exhausted,
        "solution_dimension": res.solution_dimension,
    }
    code, out, _ = run_cli("gmatrix", "--in", path)
    assert code == 0 and out == _dumped(found)
    for field in (Rationals(), PrimeField(101)):
        a, a_star, p = example2(field)
        want = {
            "a": a,
            "astar": a_star,
            "params": {"field": field_to_dict(field)},
            "source": "example2",
            "transition": p,
        }
        code, out, _ = run_cli("gen", "--source", "example2", "--field", field.name)
        assert code == 0 and out == _dumped(want)


LATTICE_4_5_SHA256 = "36a1d61491cfa8d7eab39e41c0d79faf001dc7aa4fd9a4a46cec0604dfd1ae4d"
LATTICE_4_5_BYTES = 32_690_019
LATTICE_4_5_PEAK_MB = 130  # half the 263 MB it took when the document was built whole

LATTICE_4_5_CHILD = """
import resource, sys
from leonardpairs import cli
code = cli.run(["gen", "--source", "lattice", "--n", "4", "--q", "5"])
sys.stdout.flush()
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)
"""


def test_largest_lattice_is_written_within_its_memory_bound(tmp_path):
    """gen of the largest admitted lattice, in a fresh process with stdout
    on a file: its own peak RSS (kB on Linux) stays under the bound, and the
    output keeps its bytes."""
    path = tmp_path / "lattice-4-5.json"
    with open(path, "wb") as out:
        proc = subprocess.run(
            [sys.executable, "-c", LATTICE_4_5_CHILD],
            stdout=out, stderr=subprocess.PIPE, text=True, timeout=300, check=False,
        )
    code, peak_kb = (int(v) for v in proc.stderr.split()[-2:])
    assert code == 0, proc.stderr
    assert peak_kb <= LATTICE_4_5_PEAK_MB * 1024, f"peak RSS {peak_kb / 1024:.1f} MB"
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    assert path.stat().st_size == LATTICE_4_5_BYTES
    assert digest.hexdigest() == LATTICE_4_5_SHA256


def test_gen_lattice_refuses_a_foreign_field():
    code, own, _ = run_cli("gen", "--source", "lattice", "--n", "2", "--q", "2")
    assert code == 0
    for field in ("GF(7)", "Q", "Q(sqrt 3)"):
        argv = ("gen", "--source", "lattice", "--n", "2", "--q", "2", "--field", field)
        code, out, err = run_cli(*argv)
        assert _is_one_error_line(code, out, err), (field, err)
        assert err == "error: --field: the lattice's field is Q(sqrt 2)\n", err
    # its own field is accepted, and changes nothing
    argv = ("gen", "--source", "lattice", "--n", "2", "--q", "2", "--field", "Q(sqrt 2)")
    assert run_cli(*argv) == (0, own, "")


def test_gen_lattice_forbidden_scalars_exit_two():
    code, _, err = run_cli(
        "gen", "--source", "lattice", "--n", "3", "--q", "2",
        "--alpha", "1", "--beta", "1",
    )
    assert code == 2
    assert "forbidden" in err


def test_gen_sl2_char2_exits_two():
    code, _, err = run_cli("gen", "--source", "sl2", "--d", "3", "--field", "GF(2)")
    assert code == 2
    assert "generate" in err


def test_gen_sizes_are_capped():
    cap = cli.MAX_GEN_SIZE
    capped = (("sl2", "--d"), ("random-array", "--d"), ("random-nonexample", "--size"))
    for source, flag in capped:
        code, out, err = run_cli("gen", "--source", source, flag, str(cap + 1))
        assert code == 2 and out == ""
        assert err == f"error: {flag} {cap + 1} exceeds the limit of {cap}\n"
    code, _, _ = run_cli("gen", "--source", "random-array", "--d", str(cap))
    assert code == 0


@pytest.mark.parametrize("d", ["-1", "-2"])
def test_gen_random_array_negative_diameter_exits_two(d):
    code, out, err = run_cli("gen", "--source", "random-array", "--d", d)
    assert (code, out, err) == (2, "", "error: diameter must be nonnegative\n")


def test_gen_sl2_at_the_cap():
    # d = 32 used to take seconds of root search; d = 50 was refused outright
    code, out, err = run_cli("gen", "--source", "sl2", "--d", str(cli.MAX_GEN_SIZE))
    assert code == 0, err
    assert len(json.loads(out)["a"]["rows"]) == cli.MAX_GEN_SIZE + 1


def _diagonal_pair(n):
    field = {"kind": "rationals"}
    rows = [[str(i + 1) if i == j else "0" for j in range(n)] for i in range(n)]
    return {"a": {"field": field, "rows": rows}, "astar": {"field": field, "rows": rows}}


def test_verify_sizes_are_capped(tmp_path):
    cap = cli.MAX_GEN_SIZE
    fits = write_json(tmp_path, "fits.json", _diagonal_pair(cap + 1))
    code, out, err = run_cli("verify", "--pair", fits)
    assert code == 0, err
    assert json.loads(out)["is_leonard_pair"] is False
    big = tmp_path / "big"
    big.mkdir()
    over = write_json(big, "over.json", _diagonal_pair(cap + 2))
    line = f"error: {over}#a: {cap + 2} rows exceed the limit of {cap + 1} (diameter {cap})\n"
    for command in ("verify", "extract", "awfit"):
        code, out, err = run_cli(command, "--pair", over)
        assert (code, out, err) == (2, "", line)
    write_json(big, "small.json", _diagonal_pair(3))
    code, out, err = run_cli("verify", "--batch", str(big))
    assert code == 2 and err == line
    summary = json.loads(out)
    assert summary["checked"] == 2 and summary["errors"] == 1
    assert list(summary["results"]) == ["small.json"]


ARRAY_COMMANDS = (
    "construct", "tdconstruct", "gmatrix", "polys", "classify", "validate-array", "roundtrip",
)


def test_array_sizes_are_capped(tmp_path):
    cap = cli.MAX_GEN_SIZE
    code, out, err = run_cli("gen", "--source", "random-array", "--d", str(cap), "--seed", "1")
    assert code == 0, err
    fits = write_json(tmp_path, "fits.json", json.loads(out)["parameter_array"])
    code, out, err = run_cli("validate-array", "--in", fits)
    assert code == 0 and err == ""
    assert json.loads(out)["valid"] is True
    # the refusal comes before any parsing or axiom check
    values = [str(i) for i in range(cap + 2)]
    over = write_json(tmp_path, "over.json", {
        "field": {"kind": "rationals"}, "d": cap + 1, "theta": values,
        "theta_star": values, "varphi": values[1:], "phi": values[1:],
    })
    line = f"error: {over}: diameter {cap + 1} exceeds the limit of {cap}\n"
    for command in ARRAY_COMMANDS:
        assert run_cli(command, "--in", over) == (2, "", line), command


def test_gen_seed_echo_and_byte_determinism():
    code, first, _ = run_cli("gen", "--source", "random-array", "--d", "4", "--seed", "9")
    code2, second, _ = run_cli("gen", "--source", "random-array", "--d", "4", "--seed", "9")
    assert code == code2 == 0
    assert first == second
    assert json.loads(first)["seed"] == 9
    _, other, _ = run_cli("gen", "--source", "random-array", "--d", "4", "--seed", "10")
    assert other != first


def test_gen_nonexample_kind_echoed():
    code, payload = run_json(
        "gen", "--source", "random-nonexample", "--size", "4",
        "--kind", "reducible", "--seed", "1",
    )
    assert code == 0
    assert payload["params"]["kind"] == "reducible"


def test_field_elements_serialize_as_strings():
    _, payload = run_json("gen", "--source", "uq", "--d", "3", "--q", "2")
    for grid in (payload["a"]["rows"], payload["astar"]["rows"]):
        for row in grid:
            assert all(isinstance(v, str) for v in row)
    _, payload = run_json("gen", "--source", "random-array", "--d", "3", "--seed", "0")
    pa = payload["parameter_array"]
    for key in ("theta", "theta_star", "varphi", "phi"):
        assert all(isinstance(v, str) for v in pa[key])


def test_batch_writes_reports_atomically(tmp_path):
    gen_file(tmp_path, "one.json", "--source", "sl2", "--d", "2")
    gen_file(
        tmp_path, "two.json",
        "--source", "random-nonexample", "--size", "3", "--seed", "4",
    )
    code, summary = run_json("verify", "--batch", str(tmp_path))
    assert code == 0
    assert summary["checked"] == 2 and summary["errors"] == 0
    assert summary["results"]["one.json"]["is_leonard_pair"] is True
    assert summary["results"]["two.json"]["is_leonard_pair"] is False
    report = tmp_path / "one.report.json"
    assert report.exists()
    first = report.read_text()
    assert json.loads(first)["is_leonard_pair"] is True
    # report files are skipped as inputs and rewritten byte-identically
    code, summary2 = run_json("verify", "--batch", str(tmp_path))
    assert summary2["checked"] == 2
    assert report.read_text() == first
    code, _, _ = run_cli("verify", "--batch", str(tmp_path), "--strict")
    assert code == 1


def test_batch_bad_file_exits_two_but_processes_rest(tmp_path):
    gen_file(tmp_path, "good.json", "--source", "sl2", "--d", "2")
    (tmp_path / "bad.json").write_text("{nope")
    code, out, err = run_cli("verify", "--batch", str(tmp_path))
    assert code == 2
    assert "bad.json" in err
    summary = json.loads(out)
    assert summary["errors"] == 1
    assert summary["results"]["good.json"]["is_leonard_pair"] is True
    assert (tmp_path / "good.report.json").exists()


def test_batch_size_mismatch_is_recorded_and_rest_reported(tmp_path):
    gen_file(tmp_path, "good.json", "--source", "sl2", "--d", "2")
    write_json(tmp_path, "mismatch.json", MISMATCHED_PAIR)
    code, out, err = run_cli("verify", "--batch", str(tmp_path))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "mismatch.json" in err and "size mismatch" in err
    summary = json.loads(out)
    assert summary["checked"] == 2 and summary["errors"] == 1
    assert list(summary["results"]) == ["good.json"]
    assert (tmp_path / "good.report.json").exists()
    assert not (tmp_path / "mismatch.report.json").exists()


CUBIC_SURD_PAIR = {
    "a": {
        "field": {"kind": "quadratic_extension", "discriminant": 5},
        "rows": [["1+s", "1", "0"], ["1", "s", "1"], ["0", "1", "2"]],
    },
    "astar": {
        "field": {"kind": "quadratic_extension", "discriminant": 5},
        "rows": [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "3"]],
    },
}


def test_batch_library_error_is_recorded_and_rest_reported(tmp_path, monkeypatch):
    gen_file(tmp_path, "sl2.json", "--source", "sl2", "--d", "2")
    write_json(tmp_path, "cubic.json", CUBIC_SURD_PAIR)
    # every pair now gets a verdict, so the library error is injected for
    # the pair over Q(sqrt 5) while the sl2 pair verifies as usual
    real_report = cli.verification_report

    def report(a, a_star):
        if a.field.name == "Q(sqrt 5)":
            raise LeonardPairsError(f"no verdict over {a.field.name}")
        return real_report(a, a_star)

    monkeypatch.setattr(cli, "verification_report", report)
    code, out, err = run_cli("verify", "--batch", str(tmp_path))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "cubic.json: " in err and "Q(sqrt 5)" in err
    summary = json.loads(out)
    assert summary["checked"] == 2 and summary["errors"] == 1
    assert list(summary["results"]) == ["sl2.json"]
    assert (tmp_path / "sl2.report.json").exists()
    assert not (tmp_path / "cubic.report.json").exists()


def test_irrational_cubic_over_a_quadratic_extension_gets_a_verdict(tmp_path):
    # the characteristic polynomial of A has trace 3 + 2s, so irrational
    # coefficients, and no root in Q(sqrt 5)
    path = write_json(tmp_path, "cubic.json", CUBIC_SURD_PAIR)
    code, report = run_json("verify", "--pair", path, "--strict")
    assert code == 1
    assert report["is_leonard_pair"] is False
    assert report["failure_reason"].startswith(
        "A is not multiplicity-free: characteristic polynomial does not split "
        "over Q(sqrt 5): only 0 of 3 eigenvalues lie in the field"
    )


def test_batch_jobs_must_be_positive(tmp_path):
    gen_file(tmp_path, "sl2.json", "--source", "sl2", "--d", "2")
    for jobs in ("0", "-1"):
        code, out, err = run_cli("verify", "--batch", str(tmp_path), "--jobs", jobs)
        assert code == 2 and out == ""
        assert err == f"error: --jobs must be at least 1, got {jobs}\n"
    assert not (tmp_path / "sl2.report.json").exists()


def test_batch_starts_no_thread(tmp_path, monkeypatch):
    gen_file(tmp_path, "sl2.json", "--source", "sl2", "--d", "2")
    gen_file(tmp_path, "ex2.json", "--source", "example2")

    def start(self):
        raise AssertionError("verify --batch started a thread")

    monkeypatch.setattr(threading.Thread, "start", start)
    code, summary = run_json("verify", "--batch", str(tmp_path), "--jobs", "2")
    assert code == 0 and summary["checked"] == 2 and summary["errors"] == 0


def test_batch_refuses_pair_flags_before_reading(tmp_path, monkeypatch):
    gen_file(tmp_path, "sl2.json", "--source", "sl2", "--d", "2")
    monkeypatch.setattr(cli, "_read_json", lambda path: pytest.fail(f"read {path}"))
    for flags in (
        ("--pair", "/nonexistent.json"),
        ("--a", "/nope"),
        ("--astar", "-"),
        ("--pair", "/nonexistent.json", "--a", "/nope"),
    ):
        code, out, err = run_cli("verify", "--batch", str(tmp_path), *flags)
        assert _is_one_error_line(code, out, err), (flags, err)
        assert "--batch takes no --pair, --a or --astar" in err, err
    assert not list(tmp_path.glob("*.report.json"))


def test_batch_unwritable_report_is_one_error_and_rest_reported(tmp_path):
    gen_file(tmp_path, "good.json", "--source", "sl2", "--d", "2")
    gen_file(tmp_path, "stuck.json", "--source", "example2")
    (tmp_path / "stuck.report.json").mkdir()
    code, out, err = run_cli("verify", "--batch", str(tmp_path))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "stuck.report.json: " in err, err
    summary = json.loads(out)
    assert summary["checked"] == 2 and summary["errors"] == 1
    assert list(summary["results"]) == ["good.json"]
    assert json.loads((tmp_path / "good.report.json").read_text())["is_leonard_pair"]
    assert (tmp_path / "stuck.report.json").is_dir()
    assert not list(tmp_path.glob("*.tmp"))


NOT_UTF8 = b"\xff\xfe{}"


def test_non_utf8_file_is_one_error_line(tmp_path):
    path = tmp_path / "latin.json"
    path.write_bytes(NOT_UTF8)
    for argv in (
        ("verify", "--pair", str(path)),
        ("extract", "--a", str(path), "--astar", str(path)),
        ("validate-array", "--in", str(path)),
        ("construct", "--in", str(path)),
    ):
        code, out, err = run_cli(*argv)
        assert _is_one_error_line(code, out, err), (argv, err)
        assert err.startswith(f"error: {path}: not UTF-8: "), err


def test_non_utf8_stdin_is_one_error_line(monkeypatch):
    for argv in (("verify", "--pair", "-"), ("validate-array", "--in", "-")):
        stdin = io.TextIOWrapper(io.BytesIO(NOT_UTF8), encoding="utf-8", errors="strict")
        monkeypatch.setattr(sys, "stdin", stdin)
        code, out, err = run_cli(*argv)
        assert _is_one_error_line(code, out, err), (argv, err)
        assert err.startswith("error: <stdin>: not UTF-8: "), err


def test_batch_non_utf8_file_is_its_own_error(tmp_path):
    gen_file(tmp_path, "good.json", "--source", "sl2", "--d", "2")
    (tmp_path / "latin.json").write_bytes(NOT_UTF8)
    code, out, err = run_cli("verify", "--batch", str(tmp_path))
    assert code == 2
    assert err.startswith(f"error: {tmp_path / 'latin.json'}: not UTF-8: "), err
    assert err.count("\n") == 1, err
    summary = json.loads(out)
    assert summary["checked"] == 2 and summary["errors"] == 1
    assert list(summary["results"]) == ["good.json"]
    assert (tmp_path / "good.report.json").exists()


def test_batch_output_does_not_depend_on_jobs(tmp_path):
    fields = (Rationals(), PrimeField(101), QuadraticExtension(5))
    for k, field in enumerate(fields):
        for d in (3, 4):
            a, a_star = dense_reduced_pair(field, d, seed=10 * k + d)
            h, _ = _hessenberg(a)
            assert field.is_zero(h.rows[1][0])
            pair = {"a": matrix_to_dict(a), "astar": matrix_to_dict(a_star)}
            write_json(tmp_path, f"dense-{k}-{d}.json", pair)
    for k, kind in enumerate(NONEXAMPLE_KINDS):
        field = fields[k % len(fields)]
        a, a_star, _ = random_nonexample(field, 4, random.Random(k), kind)
        pair = {"a": matrix_to_dict(a), "astar": matrix_to_dict(a_star)}
        write_json(tmp_path, f"non-{kind}.json", pair)

    def batch(jobs):
        code, out, err = run_cli("verify", "--batch", str(tmp_path), "--jobs", jobs)
        reports = {p.name: p.read_bytes() for p in sorted(tmp_path.glob("*.report.json"))}
        return code, out, err, reports

    sequential = batch("1")
    code, out, err, reports = sequential
    assert code == 0 and err == "" and len(reports) == 10
    verdicts = {
        name: row["is_leonard_pair"] for name, row in json.loads(out)["results"].items()
    }
    assert verdicts == {name: name.startswith("dense") for name in verdicts}
    assert batch("2") == sequential


REPEATED_ARGV = (
    ("nosuchcmd",),
    ("--help",),
    ("gen", "--source", "uq", "--d", "2"),
    ("gen", "--source", "lattice", "--n", "2"),
    ("gen", "--source", "random-array", "--d", "2", "--field", "GF(7)"),
    ("gen", "--source", "random-array", "--d", "2"),
)


def test_run_builds_its_parser_once(monkeypatch):
    built = []
    real = cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        for argv in REPEATED_ARGV[1:]:
            run_cli(*argv)
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


def test_repeated_runs_in_one_process_give_identical_output():
    first = [run_cli(*argv) for argv in REPEATED_ARGV]
    assert [code for code, _, _ in first] == [2, 0, 0, 0, 0, 0]
    assert first[0][2].startswith("usage: leonardpairs") and first[1][1].startswith(
        "usage: leonardpairs"
    )
    for _ in range(2):
        assert [run_cli(*argv) for argv in REPEATED_ARGV] == first
    # the gen beta default and the --field override do not leak between calls
    params = [json.loads(out)["params"] for _, out, _ in first[2:]]
    assert params[0]["beta"] == "1" and params[1]["beta"] == "4"
    assert params[2]["field"] == {"kind": "prime_field", "p": 7}
    assert params[3]["field"] == {"kind": "rationals"}


def test_build_parser_returns_a_parser_of_its_own():
    mine = cli.build_parser()
    assert mine is not cli.build_parser() and mine is not cli._parser()
    mine.prog = "edited"
    code, out, _ = run_cli("--help")
    assert code == 0 and out.startswith("usage: leonardpairs")


def test_pair_of_large_height_verifies_and_classifies(tmp_path):
    # theta_3 = 8000000000000000000040/1000000000000000000007: the numerator
    # times the denominator of beta^2 - 4 has 281 bits, so classification
    # must label Q(sqrt(beta^2 - 4)) without factoring it
    field = Rationals()
    r = field.coerce(Fraction(10**21 + 3, 10**21 + 7) + 1)
    theta = _recurrence(field, [field.coerce(v) for v in (0, 1, 5)], r, 3)
    theta_star = _recurrence(field, [field.coerce(v) for v in (0, 2, 7)], r, 3)
    pa = _complete_array(field, theta, theta_star, field.coerce(3))
    assert str(pa.theta[3]) == "8000000000000000000040/1000000000000000000007"
    pa_path = write_json(tmp_path, "pa.json", parameter_array_to_dict(pa))
    code, out, err = run_cli("construct", "--in", pa_path)
    assert code == 0, err
    pair_path = tmp_path / "pair.json"
    pair_path.write_text(out)
    code, report = run_json("verify", "--pair", str(pair_path))
    assert code == 0
    assert report["is_leonard_pair"] is True and report["all_checks_passed"] is True
    code, classified = run_json("classify", "--in", pa_path)
    assert code == 0
    assert classified["fingerprint"]["family"] == "q-type"
    disc = classified["fingerprint"]["q_field"]["discriminant"]
    beta = Fraction(classified["fingerprint"]["beta"])
    ratio = (beta * beta - 4) / disc
    assert math.isqrt(ratio.numerator) ** 2 == ratio.numerator
    assert math.isqrt(ratio.denominator) ** 2 == ratio.denominator


SYMPY_FREE_RUN = """
import contextlib, io, json, os, sys
from leonardpairs import cli

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(list(argv)) == 0, argv
    return out.getvalue()

pair_path, pa_path = (os.path.join(sys.argv[1], name) for name in ("pair.json", "pa.json"))
array = json.loads(run("gen", "--source", "random-array", "--d", "4", "--seed", "3",
                       "--field", "Q(sqrt 5)"))
with open(pa_path, "w") as handle:
    json.dump(array["parameter_array"], handle)
with open(pair_path, "w") as handle:
    handle.write(run("construct", "--in", pa_path))
assert json.loads(run("verify", "--pair", pair_path))["all_checks_passed"] is True
run("classify", "--in", pa_path)
assert "sympy" not in sys.modules, "sympy was imported"
"""


def test_runtime_does_not_import_sympy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SYMPY_FREE_RUN, str(tmp_path)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_batch_on_missing_directory(tmp_path):
    code, _, err = run_cli("verify", "--batch", str(tmp_path / "void"))
    assert code == 2
    assert "not a directory" in err


def test_stdin_pipe_gen_into_verify():
    gen = subprocess.run(
        [sys.executable, "-m", "leonardpairs", "gen", "--source", "sl2", "--d", "3"],
        capture_output=True, text=True, check=True,
    )
    verify = subprocess.run(
        [sys.executable, "-m", "leonardpairs", "verify", "--pair", "-"],
        input=gen.stdout, capture_output=True, text=True,
    )
    assert verify.returncode == 0, verify.stderr
    report = json.loads(verify.stdout)
    assert report["is_leonard_pair"] is True and report["diameter"] == 3


def test_console_entrypoint_agrees_with_inprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "leonardpairs", "gen", "--source", "example2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    _, inproc, _ = run_cli("gen", "--source", "example2")
    assert proc.stdout == inproc
