"""Command-line front end: every library operation over JSON files.

One JSON document per invocation on standard output, rendered with
sorted keys and two-space indentation so identical inputs give
byte-identical outputs.  Standard error carries diagnostics only.
Exit codes: 0 for success, 1 for a domain-level negative result (not a
Leonard pair, invalid array, no fit) when --strict is set, 2 for
malformed input.

build_parser declares each subcommand once, through one local
command(name, handler, help, inputs) that adds the options every command
takes and its inputs (a pair or a parameter array) and records its
handler; run calls that handler, which returns the payload and whether
the result is negative.  The array commands that need a valid array share
one validity gate, and every pair is rendered by one _pair_payload.

A payload that holds a matrix (every pair, gen's example2 transition,
gmatrix's g) keeps it as an ExactMatrix, and run writes it one row at a
time, byte for byte as json.dumps would render matrix_to_dict of it, so
no grid of strings and no string of the whole document is built: a dense
lattice pair near the guard is tens of megabytes of output.  Any other
payload, every verify report among them, is rendered by json.dumps.

verify --batch verifies its files one after another in the calling
thread: verification holds the interpreter lock, so threads would buy
nothing, and --jobs is accepted but changes nothing.  A file that fails
is one error line.

run(argv) may be called any number of times in one process.  It builds
its argument parser on the first call and reuses it afterwards; parsing
writes only to the fresh namespace each call returns, so no call sees
another's arguments.  build_parser returns a new parser every time.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import re
import sys
import tempfile
from json.encoder import encode_basestring_ascii

from .errors import LeonardPairsError
from .field import (
    Field,
    PrimeField,
    QuadraticExtension,
    Rationals,
    field_from_dict,
    field_to_dict,
)
from .generators import (
    NONEXAMPLE_KINDS,
    build_lattice,
    example2,
    lattice_pair,
    random_nonexample,
    random_parameter_array,
    sl2_pair,
    uq_pair,
)
from .leonard import (
    askey_wilson_to_dict,
    extract_parameter_array,
    fit_askey_wilson,
    is_leonard_pair,
    system_from_parameter_array,
    verification_report,
)
from .matrix import ExactMatrix, _json_rows, matrix_from_dict
from .parray import (
    ParameterArray,
    construct_bidiagonal,
    construct_tridiagonal,
    duals_proportional,
    find_g_matrix,
    fingerprint,
    fingerprint_to_dict,
    parameter_array_from_dict,
    parameter_array_to_dict,
    poly_u_sequences,
    validate,
    validity_report_to_dict,
)

GEN_SOURCES = (
    "example2",
    "sl2",
    "uq",
    "lattice",
    "random-array",
    "random-nonexample",
)

# Largest --d and --size that gen accepts, the largest diameter (rows
# minus one) of a matrix that verify, extract or awfit read, so that every
# generated pair can be verified, and the largest diameter of a parameter
# array that the array commands read.  Generation and recognition both
# confirm matrices multiplicity-free, at a cost that grows faster than
# cubically.
MAX_GEN_SIZE = 32

_FIELD_FLAG = re.compile(
    r"^\s*(?:Q|QQ)\s*$|^\s*GF\(\s*([0-9]+)\s*\)\s*$|^\s*Q\(\s*sqrt\s*(-?[0-9]+)\s*\)\s*$"
)


class _InputError(Exception):
    """Anything wrong with the invocation or its files; exits with 2."""


def parse_field_flag(text: str) -> Field:
    """Field names as printed by the library: Q, GF(p), Q(sqrt m)."""
    m = _FIELD_FLAG.match(text)
    if not m:
        raise _InputError(
            f"unrecognized field {text!r}; expected Q, GF(p), or Q(sqrt m)"
        )
    try:
        if m.group(1) is not None:
            return PrimeField(int(m.group(1)))
        if m.group(2) is not None:
            return QuadraticExtension(int(m.group(2)))
    except (LeonardPairsError, ValueError) as exc:
        # ValueError: int() refuses integers past Python's digit limit.
        raise _InputError(str(exc)) from exc
    return Rationals()


def _read_json(path: str):
    label = "<stdin>" if path == "-" else path
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
    except OSError as exc:
        raise _InputError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise _InputError(f"{label}: not UTF-8: {exc.reason} at byte {exc.start}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _InputError(
            f"{label}: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:
        # integers past Python's digit limit, nesting past the recursion limit
        raise _InputError(f"{label}: unreadable JSON: {exc}") from exc


def _field_from_obj(obj: dict, override: "Field | None", label: str) -> Field:
    if override is not None:
        return override
    if "field" not in obj:
        raise _InputError(f"{label}: no 'field' key and no --field override")
    try:
        return field_from_dict(obj["field"])
    except LeonardPairsError as exc:
        raise _InputError(f"{label}: {exc}") from exc


def _matrix_from_obj(obj, override: "Field | None", label: str) -> ExactMatrix:
    if not isinstance(obj, dict) or "rows" not in obj:
        raise _InputError(f"{label}: expected an object with 'field' and 'rows'")
    rows = obj["rows"]
    if isinstance(rows, list) and len(rows) > MAX_GEN_SIZE + 1:
        raise _InputError(
            f"{label}: {len(rows)} rows exceed the limit of {MAX_GEN_SIZE + 1} "
            f"(diameter {MAX_GEN_SIZE})"
        )
    field = _field_from_obj(obj, override, label)
    try:
        return ExactMatrix(field, _json_rows(rows))
    except (LeonardPairsError, TypeError, ValueError) as exc:
        raise _InputError(f"{label}: {exc}") from exc


def _checked_pair(a: ExactMatrix, a_star: ExactMatrix, label: str):
    if a.field != a_star.field:
        raise _InputError(f"{label}: the two matrices live in different fields")
    if a.n != a_star.n:
        raise _InputError(
            f"{label}: size mismatch: A is {a.n}x{a.n}, A* is {a_star.n}x{a_star.n}"
        )
    return a, a_star


def _pair_from_file(path: str, override: "Field | None"):
    obj = _read_json(path)
    if not isinstance(obj, dict) or "a" not in obj or "astar" not in obj:
        raise _InputError(f"{path}: expected an object with 'a' and 'astar'")
    a = _matrix_from_obj(obj["a"], override, f"{path}#a")
    a_star = _matrix_from_obj(obj["astar"], override, f"{path}#astar")
    return _checked_pair(a, a_star, path)


def _pair_from_args(args) -> tuple[ExactMatrix, ExactMatrix]:
    if args.pair is not None:
        if args.a is not None or args.astar is not None:
            raise _InputError("give either --pair or --a/--astar, not both")
        return _pair_from_file(args.pair, args.field_obj)
    if args.a is None or args.astar is None:
        raise _InputError("need --a and --astar (or a combined --pair file)")
    if args.a == args.astar == "-":
        raise _InputError("--a and --astar cannot both read standard input")
    a = _matrix_from_obj(_read_json(args.a), args.field_obj, args.a)
    a_star = _matrix_from_obj(_read_json(args.astar), args.field_obj, args.astar)
    return _checked_pair(a, a_star, f"{args.a}, {args.astar}")


def _parray_from_args(args) -> ParameterArray:
    obj = _read_json(args.infile)
    if not isinstance(obj, dict):
        raise _InputError(f"{args.infile}: expected a parameter-array object")
    theta = obj.get("theta")
    if isinstance(theta, list) and len(theta) > MAX_GEN_SIZE + 1:
        raise _InputError(
            f"{args.infile}: diameter {len(theta) - 1} exceeds the limit of {MAX_GEN_SIZE}"
        )
    try:
        if args.field_obj is not None:
            data = dict(obj)
            data["field"] = field_to_dict(args.field_obj)
            return parameter_array_from_dict(data)
        return parameter_array_from_dict(obj)
    except (LeonardPairsError, TypeError, ValueError) as exc:
        raise _InputError(f"{args.infile}: {exc}") from exc


def _render(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write(payload: dict, write) -> None:
    """Write _render(payload) through write, where payload's top-level
    values may be ExactMatrix: each is written as matrix_to_dict renders,
    one row at a time.  Its field's zero is serialized once, and a cell
    holding that very payload is not tested again."""
    sep = "{\n  "
    for key in sorted(payload):
        value = payload[key]
        write(f"{sep}{json.dumps(key)}: ")
        sep = ",\n  "
        if not isinstance(value, ExactMatrix):
            write(json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  "))
            continue
        field = value.field
        zero, is_zero, ser = field.zero, field.is_zero, field.serialize
        zero_text = encode_basestring_ascii(ser(zero))
        field_text = json.dumps(field_to_dict(field), indent=2, sort_keys=True)
        field_text = field_text.replace("\n", "\n    ")
        write(f'{{\n    "field": {field_text},\n    "rows": [')
        row_sep = "\n      [\n        "
        for row in value.rows:
            cells = [
                zero_text if v is zero or is_zero(v) else encode_basestring_ascii(ser(v))
                for v in row
            ]
            write(row_sep + ",\n        ".join(cells) + "\n      ]")
            row_sep = ",\n      [\n        "
        write("\n    ]\n  }")
    write("\n}\n")


def _atomic_write(path: str, obj: dict) -> None:
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(_render(obj))
            os.replace(tmp, path)
        finally:  # after the rename tmp is gone
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError as exc:
        raise _InputError(f"{path}: {exc.strerror or exc}") from exc


# --- command handlers: each returns (payload, negative) ---


def _cmd_verify(args):
    if args.batch is not None:
        return _cmd_verify_batch(args)
    a, a_star = _pair_from_args(args)
    report = verification_report(a, a_star)
    return report, not report["is_leonard_pair"]


def _cmd_verify_batch(args):
    if (args.pair, args.a, args.astar) != (None, None, None):
        raise _InputError("--batch takes no --pair, --a or --astar")
    if args.jobs < 1:
        raise _InputError(f"--jobs must be at least 1, got {args.jobs}")
    directory = args.batch
    if not os.path.isdir(directory):
        raise _InputError(f"{directory}: not a directory")
    names = sorted(
        name
        for name in os.listdir(directory)
        if name.endswith(".json") and not name.endswith(".report.json")
    )
    results: dict = {}
    errors: list[str] = []
    for name in names:
        path = os.path.join(directory, name)
        report_name = name[: -len(".json")] + ".report.json"
        try:
            report = verification_report(*_pair_from_file(path, args.field_obj))
            _atomic_write(os.path.join(directory, report_name), report)
        except _InputError as exc:
            errors.append(str(exc))
        except LeonardPairsError as exc:
            errors.append(f"{path}: {exc}")
        else:
            results[name] = {
                "diameter": report["diameter"],
                "is_leonard_pair": report["is_leonard_pair"],
                "report": report_name,
            }
    payload = {
        "checked": len(names),
        "errors": len(errors),
        "results": results,
    }
    if errors:
        for line in errors:
            print(f"error: {line}", file=sys.stderr)
        print(_render(payload), end="")
        raise SystemExit(2)
    negative = any(not row["is_leonard_pair"] for row in results.values())
    return payload, negative


def _cmd_extract(args):
    a, a_star = _pair_from_args(args)
    rec = is_leonard_pair(a, a_star)
    if not rec:
        payload = {
            "is_leonard_pair": False,
            "failure_reason": rec.failure_reason,
        }
        return payload, True
    return parameter_array_to_dict(extract_parameter_array(rec.canonical)), False


def _valid_array(args, **refusal):
    """The command's parameter array when it is valid; otherwise the
    command's refusal payload, its own keys plus the validity report."""
    pa = _parray_from_args(args)
    report = validate(pa)
    if report.valid:
        return pa
    return {**refusal, "validity": validity_report_to_dict(report)}


def _pair_payload(a: ExactMatrix, a_star: ExactMatrix, **extra) -> dict:
    return {"a": a, "astar": a_star, **extra}


def _cmd_construct(args):
    pa = _valid_array(args, constructed=False)
    if isinstance(pa, dict):
        return pa, True
    return _pair_payload(*construct_bidiagonal(pa)), False


def _cmd_tdconstruct(args):
    pa = _valid_array(args, constructed=False)
    if isinstance(pa, dict):
        return pa, True
    try:
        a, a_star = construct_tridiagonal(pa, split=args.split)
    except LeonardPairsError as exc:
        return {"constructed": False, "reason": str(exc)}, True
    return _pair_payload(a, a_star), False


def _cmd_gmatrix(args):
    pa = _valid_array(args, found=False)
    if isinstance(pa, dict):
        return pa, True
    res = find_g_matrix(pa)
    payload = {
        "found": res.found,
        "g": res.g,
        "pencil_exhausted": res.pencil_exhausted,
        "solution_dimension": res.solution_dimension,
    }
    return payload, not res.found


def _cmd_polys(args):
    pa = _parray_from_args(args)
    report = validate(pa)
    pa12 = report.axiom("PA1").passed and report.axiom("PA2").passed
    if not pa12:
        payload = {"computable": False, "validity": validity_report_to_dict(report)}
        return payload, True
    ser = pa.field.serialize
    us, duals = poly_u_sequences(pa)
    agrees = duals_proportional(us, duals)
    payload = {
        "d": pa.d,
        "field": field_to_dict(pa.field),
        "u": [[ser(c) for c in p.coeffs] for p in us],
        "u_dual": [[ser(c) for c in p.coeffs] for p in duals],
        "poly_characterization": agrees,
    }
    return payload, not agrees


def _cmd_awfit(args):
    a, a_star = _pair_from_args(args)
    fit = fit_askey_wilson(a, a_star)
    return askey_wilson_to_dict(fit), not fit.found


def _cmd_classify(args):
    pa = _valid_array(args, valid=False, fingerprint=None)
    if isinstance(pa, dict):
        return pa, True
    payload = {"valid": True, "fingerprint": fingerprint_to_dict(fingerprint(pa))}
    return payload, False


def _cmd_validate_array(args):
    pa = _parray_from_args(args)
    report = validate(pa)
    return validity_report_to_dict(report), not report.valid


def _cmd_roundtrip(args):
    pa = _valid_array(args, valid=False, identical=None)
    if isinstance(pa, dict):
        return pa, True
    back = system_from_parameter_array(pa).parameter_array()
    identical = back == pa
    payload = {
        "valid": True,
        "identical": identical,
        "parameter_array": parameter_array_to_dict(back),
    }
    return payload, not identical


def _parse_combo(text: str, field: Field, flag: str):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise _InputError(f"{flag} wants three comma-separated coefficients x,y,z")
    return tuple(_coerce_flag(field, p, flag) for p in parts)


def _coerce_flag(field: Field, text: str, flag: str):
    try:
        return field.coerce(text)
    except (LeonardPairsError, TypeError, ValueError) as exc:
        raise _InputError(f"{flag}: {exc}") from exc


def _cmd_gen(args):
    for flag, value in (("--d", args.d), ("--size", args.size)):
        if value > MAX_GEN_SIZE:
            raise _InputError(f"{flag} {value} exceeds the limit of {MAX_GEN_SIZE}")
    field = args.field_obj if args.field_obj is not None else Rationals()
    source = args.source
    if source == "random-array":
        pa = random_parameter_array(field, args.d, random.Random(args.seed))
        payload = {
            "source": source,
            "seed": args.seed,
            "params": {"field": field_to_dict(field), "d": args.d},
            "parameter_array": parameter_array_to_dict(pa),
        }
        return payload, False
    # every other source emits a pair: its params, then keys beside the pair
    params, extra, negative = {}, {}, False
    if source == "example2":
        a, a_star, p = example2(field)
        extra = {"transition": p}
    elif source == "sl2":
        combo = _parse_combo(args.combo, field, "--combo")
        combo_star = _parse_combo(args.combo_star, field, "--combo-star")
        a, a_star = sl2_pair(field, args.d, combo, combo_star)
        params = {
            "d": args.d,
            "combo": [field.serialize(c) for c in combo],
            "combo_star": [field.serialize(c) for c in combo_star],
        }
    elif source == "uq":
        q = _coerce_flag(field, args.q, "--q")
        alpha = _coerce_flag(field, args.alpha, "--alpha")
        beta = _coerce_flag(field, "1" if args.beta is None else args.beta, "--beta")
        epsilon = _coerce_flag(field, args.epsilon, "--epsilon")
        a, a_star, allowed = uq_pair(
            field, args.d, q, alpha=alpha, beta=beta, epsilon=epsilon
        )
        params = {
            "d": args.d,
            "q": field.serialize(q),
            "alpha": field.serialize(alpha),
            "beta": field.serialize(beta),
            "epsilon": field.serialize(epsilon),
        }
        extra, negative = {"allowed": allowed}, not allowed
    elif source == "lattice":
        try:
            prime_power = int(args.q)
        except ValueError as exc:
            raise _InputError("--q must be a prime power integer for lattice") from exc
        lat = build_lattice(args.n, prime_power)
        if args.field_obj not in (None, lat.field):
            raise _InputError(f"--field: the lattice's field is {lat.field.name}")
        field = lat.field
        alpha = _coerce_flag(field, args.alpha, "--alpha")
        if args.beta is None:
            beta = field.coerce(prime_power**args.n)
        else:
            beta = _coerce_flag(field, args.beta, "--beta")
        a, a_star, dec = lattice_pair(lat, alpha, beta)
        params = {
            "n": args.n,
            "q": prime_power,
            "alpha": field.serialize(alpha),
            "beta": field.serialize(beta),
        }
        extra = {
            "counts": list(dec.counts),
            "multiplicities": {
                str(d): c for d, c in sorted(dec.multiplicities().items())
            },
        }
    else:  # random-nonexample
        rng = random.Random(args.seed)
        a, a_star, kind = random_nonexample(field, args.size, rng, args.kind)
        params = {"size": args.size, "kind": kind}
        extra = {"seed": args.seed}
    params["field"] = field_to_dict(field)
    payload = _pair_payload(a, a_star, source=source, params=params, **extra)
    return payload, negative


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leonardpairs",
        description="Exact recognition, construction and classification "
        "of Leonard pairs over Q, GF(p) and Q(sqrt m).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def pair_args(p):
        p.add_argument("--a", help="matrix JSON file ('-' for stdin)")
        p.add_argument("--astar", help="matrix JSON file ('-' for stdin)")
        p.add_argument(
            "--pair", help="combined JSON file with keys 'a' and 'astar'"
        )

    def infile_arg(p):
        p.add_argument(
            "--in",
            dest="infile",
            required=True,
            help="parameter-array JSON file ('-' for stdin)",
        )

    def command(name, handler, help, inputs=None):
        """Declare one subcommand: its handler, the options every command
        takes, then its inputs (pair_args or infile_arg)."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument(
            "--field",
            default=None,
            help="field override: Q, GF(p), or Q(sqrt m); "
            "replaces the field named in the input files",
        )
        p.add_argument(
            "--strict",
            action="store_true",
            help="exit 1 on domain-level negative results",
        )
        if inputs is not None:
            inputs(p)
        return p

    p = command(
        "verify", _cmd_verify, "full cross-validation report for a pair", pair_args
    )
    p.add_argument("--batch", help="verify every *.json pair file in a directory")
    p.add_argument("--jobs", type=int, default=4, help="no effect: files run in turn")
    command("extract", _cmd_extract, "canonical parameter array of a pair", pair_args)
    command(
        "construct", _cmd_construct, "split bidiagonal pair from an array", infile_arg
    )
    p = command(
        "tdconstruct",
        _cmd_tdconstruct,
        "tridiagonal/diagonal pair from an array",
        infile_arg,
    )
    p.add_argument(
        "--split",
        choices=("unit", "symmetric"),
        default="unit",
        help="off-diagonal split of the products",
    )
    command("gmatrix", _cmd_gmatrix, "reversal intertwiner for an array", infile_arg)
    command("polys", _cmd_polys, "the polynomials u_i and their duals", infile_arg)
    command("awfit", _cmd_awfit, "Askey-Wilson relation fit for a pair", pair_args)
    command(
        "classify", _cmd_classify, "fingerprint family of a valid array", infile_arg
    )
    command(
        "validate-array", _cmd_validate_array, "per-axiom validity report", infile_arg
    )

    p = command("gen", _cmd_gen, "emit a generated pair or array as JSON")
    p.add_argument("--source", required=True, choices=GEN_SOURCES)
    p.add_argument(
        "--d",
        type=int,
        default=3,
        help=f"diameter (sl2, uq, random-array), at most {MAX_GEN_SIZE}",
    )
    p.add_argument("--n", type=int, default=3, help="lattice rank")
    p.add_argument(
        "--q",
        default="2",
        help="uq: field element string; lattice: prime power integer",
    )
    p.add_argument("--alpha", default="1", help="uq/lattice scale")
    # None: _cmd_gen takes 1 for uq and q^n for lattice
    p.add_argument("--beta", default=None, help="uq/lattice scale")
    p.add_argument("--epsilon", default="1", help="uq sign")
    p.add_argument("--combo", default="0,0,1", help="sl2: x,y,z for x e + y f + z h")
    p.add_argument("--combo-star", default="1,1,0", help="sl2: the second combination")
    p.add_argument(
        "--size",
        type=int,
        default=4,
        help=f"random-nonexample matrix size, at most {MAX_GEN_SIZE}",
    )
    p.add_argument(
        "--kind",
        default=None,
        choices=NONEXAMPLE_KINDS,
        help="random-nonexample failure class (default: seeded choice)",
    )
    p.add_argument("--seed", type=int, default=0, help="seed, echoed in the output")

    command(
        "roundtrip",
        _cmd_roundtrip,
        "construct then re-extract an array and compare",
        infile_arg,
    )
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def run(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.field_obj = None if args.field is None else parse_field_flag(args.field)
        payload, negative = args.handler(args)
    except (_InputError, LeonardPairsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)
    if any(isinstance(v, ExactMatrix) for v in payload.values()):
        _write(payload, sys.stdout.write)
    else:
        print(_render(payload), end="")
    if negative and args.strict:
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


__all__ = [
    "GEN_SOURCES",
    "MAX_GEN_SIZE",
    "build_parser",
    "main",
    "parse_field_flag",
    "run",
]
