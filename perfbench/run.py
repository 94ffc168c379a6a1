"""Benchmark of the leonardpairs command line, end to end and per module.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ladder|corpus|build --seed N \
        --seconds S --trace 0|1

Every operation is one in-process call of ``leonardpairs.cli.run(argv)``
with standard output captured, and every output is checked.  With
``--trace 0`` the run times whole passes over the workload's inputs for
about S seconds and reports the end-to-end metrics, scaled to the nominal
host speed measured by ``hostspeed.py``.  With ``--trace 1``
each operation is also replayed stage by stage through the package's
public functions under a tracer (see ``tracing.py``), and the run reports
the per-module metrics; the spans are written to
``perfbench/work/trace-<workload>-s<seed>.json`` at exit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every check passed, 1 when one failed, and 2 when the package
sources are missing or the arguments are wrong.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import hostspeed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")
EXPECTED_SHA256 = os.path.join(HERE, "expected_sha256.json")
WORKLOADS = ("ladder", "corpus", "build")
# The reference kernels (hostspeed.py) that do each workload's kind of
# arithmetic.  The corpus spends about half its time in the exhaustive
# root search over GF(999983), whose small-integer arithmetic sped up by
# a quarter less than rational arithmetic when the host got faster.
KERNELS = {"ladder": ("rational",), "corpus": ("rational", "modular"), "build": ("rational",)}
SETUP_PROBES = 2  # fresh processes set up besides this one; setup_s is the median
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Inclusive seconds of the spans of these names.
SPAN_SECONDS = (
    "leonard.is_leonard_pair",
    "leonard.tridiagonal_roundtrip",
    "leonard.bidiagonal_roundtrip",
    "leonard.extract_parameter_array",
    "leonard.fit_askey_wilson",
    "matrix.char_poly",
    "matrix.is_multiplicity_free",
    "field.roots_in_field",
    "field.verify_root_multiset",
    "parray.find_g_matrix",
    "parray.check_poly_characterization",
    "parray.validate",
    "parray.fingerprint",
    "parray.construct_bidiagonal",
    "parray.construct_tridiagonal",
    "generators.build_lattice",
    "generators.lattice_pair",
    "generators.sl2_pair",
    "generators.uq_pair",
    "generators.random_parameter_array",
    "generators.random_nonexample",
)
# Self seconds: the span minus its child spans.
SPAN_SELF_SECONDS = ("leonard.is_leonard_pair", "matrix.is_multiplicity_free")
BOUNDARY_COUNTS = (
    "leonard.orderings_found",
    "field.roots_in_field.calls",
    "field.roots_in_field.degree_sum",
    "parray.find_g_matrix.solution_dimension",
    "parray.find_g_matrix.pencil_exhausted",
)

PER_LAYER = (
    [(f"{name}.s", "s") for name in SPAN_SECONDS]
    + [(f"{name}.self_s", "s") for name in SPAN_SELF_SECONDS]
    + [(name, "count") for name in BOUNDARY_COUNTS]
    + [
        ("leonard.verification_report.uncovered_s", "s"),
        ("cli.parse_s", "s"),
        ("cli.render_s", "s"),
        ("cli.overhead_s", "s"),
        ("cli.output_bytes", "B"),
        ("op.matrix_n", "count"),
        ("op.entry_bits", "bit"),
        ("op.untraced_s", "s"),
        ("trace.replay_s", "s"),
        ("trace.coverage", "ratio"),
        ("trace.overhead_s", "s"),
        ("trace.spans", "count"),
    ]
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="leonardpairs benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="smallest inputs, for the benchmark's own tests"
    )
    parser.add_argument(
        "--setup-only", action="store_true", help=argparse.SUPPRESS
    )  # one set-up probe: set up, print the time, exit
    return parser.parse_args(argv)


def run_cli(cli, argv):
    """(exit code or None when it raised, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(argv)
    except Exception as exc:  # a raise is a failed operation, not a crash
        rc = None
        err.write(f"raised {exc!r}")
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - start


class Run:
    """One benchmark process: set-up, timed passes, checks and metrics."""

    def __init__(self, args):
        self.args = args
        self.attempted = 0
        self.failures: list[str] = []
        self.directory = os.path.join(WORK, f"{args.workload}-s{args.seed}-p{os.getpid()}")
        self.tracer = None
        self.speed = hostspeed.HostSpeed(KERNELS[args.workload])

    def execute(self, op):
        """Run one operation untraced and check it; returns its seconds.

        A fresh process starts each command with an empty heap.  Collecting
        garbage before the call (untimed) keeps the cyclic collector from
        charging one command for another's garbage.
        """
        gc.collect()
        rc, out, err, seconds = run_cli(self.cli, op.argv)
        self.attempted += op.verifications
        problems = op.check(rc, out) if rc is not None else [err] * op.verifications
        if rc not in (0, None) and err:
            problems = [f"{p}: {err.strip()}" for p in problems]
        for problem in problems[: op.verifications]:
            self.failures.append(f"{' '.join(op.argv[:3])}: {problem}")
        self.last_output = out.encode() + (b"" if problems else op.extra_output())
        return seconds

    def set_up(self):
        """Import, generate and write the inputs, then warm up."""
        from leonardpairs import cli

        import workloads

        self.cli = cli
        os.makedirs(self.directory)
        jobs = min(4, len(os.sched_getaffinity(0)))
        self.jobs = jobs
        tracing = self.tracer.installed() if self.tracer else contextlib.nullcontext()
        with tracing:
            if self.tracer:
                self.tracer.op = "setup"
            self.ops = workloads.build_workload(
                self.args.workload, self.args.seed, self.directory, jobs, self.args.tiny
            )
            warm = workloads.warmup_ops(os.path.join(self.directory, "warm-up"))
        self.setup_totals = _zero_totals()
        for op in warm:
            if self.tracer:
                self.trace_op(op, "setup", self.setup_totals)
            else:
                self.execute(op)
        if self.tracer:
            self.setup_spans = len(self.tracer.spans)
        gc.collect()
        gc.freeze()  # the inputs and the package stay; the collector skips them

    def setup_probe(self):
        """Seconds a fresh process of this workload needs to set up."""
        cmd = [
            sys.executable, os.path.abspath(__file__),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--seconds", "0", "--setup-only",
        ] + (["--tiny"] if self.args.tiny else [])
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
        if done.returncode != 0:
            self.failures.append(f"set-up probe failed: {done.stderr.strip()[-300:]}")
            return None
        return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]

    def passes(self, body):
        """Call body(pass index) for whole passes until --seconds is used."""
        start = time.perf_counter()
        k = 0
        while k == 0 or time.perf_counter() - start < self.args.seconds:
            body(k)
            k += 1
        return k

    # --- untraced: end-to-end metrics ---

    def measure(self):
        latencies, digests = [], []
        marks = []  # per pass: sample count before and after its first catch-up

        def one_pass(k):
            lat = []
            digest = hashlib.sha256()
            for i, op in enumerate(self.ops):
                before = len(self.speed.samples)
                self.speed.catch_up()
                if i == 0:
                    marks.append((before, len(self.speed.samples)))
                lat.append(self.execute(op))
                digest.update(self.last_output)
            latencies.append(lat)
            digests.append(digest.hexdigest())

        self.passes(one_pass)
        self.speed.catch_up()
        marks.append((None, len(self.speed.samples)))
        self.latencies = latencies
        # Each pass at the host speed of the samples taken just before it,
        # during it and just after it.
        self.pass_scales = [
            self.speed.scale(marks[k][0], marks[k + 1][1]) for k in range(len(latencies))
        ]
        if len(set(digests)) != 1:
            self.failures.append("output bytes differ between passes of one process")
        self.digest = digests[0]
        self.check_recorded_digest()

        n = len(self.ops)
        self.pass_count = len(latencies)
        self.tail_note = (
            f"p{100.0 * (n - TAIL_BEYOND) / n:.1f} of the {n} invocations of a pass, "
            f"{TAIL_BEYOND} beyond it"
            if n > TAIL_BEYOND
            else f"maximum of the {n} invocation(s) of a pass (fewer than {TAIL_BEYOND + 1})"
        ) + f", each at its median over {self.pass_count} passes"
        self.measured = self.timed_metrics(latencies)
        return self.timed_metrics(
            [[t * scale for t in lat] for lat, scale in zip(latencies, self.pass_scales)]
        )

    def timed_metrics(self, latencies):
        """ops_per_s over all passes; op_p50_s and op_tail_s over the
        invocations of a pass, each at its median over the passes."""
        typical = [statistics.median(column) for column in zip(*latencies)]
        verifications = sum(op.verifications for op in self.ops)
        return {
            "ops_per_s": verifications * len(latencies) / sum(map(sum, latencies)),
            "op_p50_s": statistics.median(typical),
            "op_tail_s": _tail(typical),
        }

    def check_recorded_digest(self):
        with open(EXPECTED_SHA256, encoding="utf-8") as handle:
            recorded = json.load(handle)
        key = self.args.workload + ("-tiny" if self.args.tiny else "")
        want = recorded.get(self.backend, {}).get(key, {}).get(str(self.args.seed))
        self.digest_status = "unrecorded" if want is None else (
            "matches the record" if want == self.digest else "DIFFERS from the record"
        )
        if want is not None and want != self.digest:
            self.failures.append(
                f"output sha256 {self.digest} differs from the recorded {want}"
            )

    # --- traced: per-layer metrics ---

    def trace_op(self, op, op_id, totals):
        """Run op untraced, then each of its units: the library call
        untraced and, right after it, the replay under the tracer."""
        tr = self.tracer
        totals["untraced"] += self.execute(op)
        totals["output_bytes"] += len(self.last_output)
        tr.op = op_id
        for library, replay in op.units():
            start = time.perf_counter()
            library()
            lib = time.perf_counter() - start
            mark = len(tr.spans)
            with tr.installed():
                start = time.perf_counter()
                replay(tr)
                totals["replay"] += time.perf_counter() - start
            totals["library"] += lib
            if op.command.startswith("verify"):
                stages = sum(s[5] - s[4] for s in tr.spans[mark:]
                             if s[2] is None and not s[1].startswith("cli."))
                totals["uncovered"] += lib - stages

    def layer_values(self, spans, op_ids, totals):
        """Per-layer values of one group of operations."""
        from tracing import span_totals

        inclusive, self_time = span_totals(spans)
        values = {f"{n}.s": inclusive[n] for n in SPAN_SECONDS}
        values.update({f"{n}.self_s": self_time[n] for n in SPAN_SELF_SECONDS})
        for name in BOUNDARY_COUNTS:
            values[name] = sum(self.tracer.counts[o][name] for o in op_ids)
        top = sum(s[5] - s[4] for s in spans if s[2] is None)
        values.update({
            "leonard.verification_report.uncovered_s": totals["uncovered"],
            "cli.parse_s": inclusive["cli.parse"],
            "cli.render_s": inclusive["cli.render"],
            "cli.overhead_s": totals["untraced"] - totals["library"],
            "cli.output_bytes": int(totals["output_bytes"]),
            "op.matrix_n": sum(op.size for op in self.ops),
            "op.entry_bits": sum(op.bits for op in self.ops),
            "op.untraced_s": totals["untraced"],
            "trace.replay_s": totals["replay"],
            "trace.coverage": top / totals["untraced"] if totals["untraced"] else 0.0,
            "trace.overhead_s": totals["replay"] - totals["untraced"],
            "trace.spans": len(spans),
        })
        return values

    def measure_traced(self, setup_totals):
        """Median over passes; span times, boundary counts, uncovered and
        CLI overhead also include the set-up (generation and warm-up)."""
        tr = self.tracer
        pass_values = []

        def one_pass(k):
            first = len(tr.spans)
            totals = _zero_totals()
            for i, op in enumerate(self.ops):
                self.trace_op(op, f"p{k}.{i}", totals)
            op_ids = [f"p{k}.{i}" for i in range(len(self.ops))]
            pass_values.append(self.layer_values(tr.spans[first:], op_ids, totals))

        self.pass_count = self.passes(one_pass)
        setup = self.layer_values(tr.spans[: self.setup_spans], ["setup"], setup_totals)
        with_setup = (
            {f"{n}.s" for n in SPAN_SECONDS}
            | {f"{n}.self_s" for n in SPAN_SELF_SECONDS}
            | set(BOUNDARY_COUNTS)
            | {"leonard.verification_report.uncovered_s", "cli.parse_s",
               "cli.render_s", "cli.overhead_s"}
        )
        return {
            name: statistics.median(v[name] for v in pass_values)
            + (setup[name] if name in with_setup else 0)
            for name, _unit in PER_LAYER
        }

    def main(self):
        args = self.args
        try:
            if args.trace:
                from tracing import Tracer

                self.tracer = Tracer()
            self.set_up()
            setup_s = time.perf_counter() - _T0
            import leonardpairs

            self.backend = leonardpairs.BACKEND
            if args.setup_only:
                print(json.dumps({"setup_s": setup_s}))
                return 0 if not self.failures else 1
            if args.trace:
                metrics = self.measure_traced(self.setup_totals)
                units = dict(PER_LAYER)
                self.digest = None
            else:
                samples = [setup_s]
                for _ in range(1 if args.tiny else SETUP_PROBES):
                    probe = self.setup_probe()
                    if probe is not None:
                        samples.append(probe)
                metrics = self.measure()
                self.measured["setup_s"] = statistics.median(samples)
                # Set-up at the host speed of the whole run.
                metrics["setup_s"] = self.measured["setup_s"] * self.speed.scale()
                metrics["peak_rss_mb"] = (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                )
                units = dict(END_TO_END)
                metrics = {name: metrics[name] for name, _ in END_TO_END}
                self.setup_samples = samples
        finally:
            shutil.rmtree(self.directory, ignore_errors=True)
            if self.tracer is not None:
                os.makedirs(WORK, exist_ok=True)
                self.tracer.write(os.path.join(WORK, f"trace-{args.workload}-s{args.seed}.json"))
        self.report(metrics, units)
        return 0 if not self.failures else 1

    def report(self, metrics, units):
        args = self.args
        failed = min(len(self.failures), self.attempted)
        for line in self.failures[:20]:
            print(f"FAILED {line}")
        print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
              f"{'  tiny' if args.tiny else ''}")
        print(f"python {platform.python_version()}  backend {self.backend}  "
              f"nproc {os.cpu_count()}  batch jobs {self.jobs}")
        print(f"operations per pass {sum(op.verifications for op in self.ops)} in "
              f"{len(self.ops)} invocation(s); passes {self.pass_count}; "
              f"input matrix size sum {sum(op.size for op in self.ops)}; "
              f"input entry bits {sum(op.bits for op in self.ops)}")
        if args.trace:
            print(f"trace coverage {metrics['trace.coverage']:.4f} of "
                  f"{metrics['op.untraced_s']:.4f} s untraced per pass; "
                  f"traced minus untraced {metrics['trace.overhead_s']:.4f} s")
        else:
            print(f"setup_s median of {len(self.setup_samples)} fresh-process set-ups")
            print(f"op_tail_s is the {self.tail_note}")
            print(self.speed.describe())
            print("pass scale factors " + " ".join(f"{x:.4f}" for x in self.pass_scales))
            print("measured, unscaled: " + "  ".join(
                f"{name} {value:.6g}" for name, value in self.measured.items()))
            print("pass seconds " + " ".join(f"{sum(lat):.4f}" for lat in self.latencies))
            print(f"output sha256 {self.digest} ({self.digest_status})")
            print(f"failed_ratio {failed / max(self.attempted, 1):.6f} "
                  f"({failed} of {self.attempted})")
        for name, value in metrics.items():
            print(f"{name} {value:.6g} {units[name]}")
        result = {
            "correct": not self.failures,
            "attempted": max(self.attempted, 1),
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": units[name]} for name, value in metrics.items()
            },
        }
        print(json.dumps(result))


def _zero_totals():
    return dict.fromkeys(
        ("untraced", "library", "replay", "uncovered", "output_bytes"), 0.0
    )


def _tail(latencies):
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it,
    or the maximum when there are too few samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1] if n > TAIL_BEYOND else ordered[-1]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "leonardpairs", "cli.py")):
        print(f"error: no package sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    return Run(args).main()


if __name__ == "__main__":
    sys.exit(main())
