"""taskalloc benchmark: three seeded workloads against the public API.

    python3 perfbench/run.py --workload static-dense --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/``.  Load comes from this one single-threaded process as a closed loop:
the next op starts when the previous one and its output checks are done.  A
run lasts ``--seconds``, longer if needed to reach MIN_OPS ops.

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
alternates untraced passes with traced passes over the workload's fixed
instance list and reports per-layer self times and counts (see
``metrics.py``); every count must repeat exactly across traced passes.

Times are reported at reference machine speed (see ``speed.py``): each wall
time is scaled by how fast a fixed kernel ran around it, so load from other
tenants of the machine does not move them.  The raw wall figures are printed
and recorded beside them.

Human-readable results go to stdout, ending with one JSON line
``{"correct", "attempted", "failed", "metrics"}``; the full record, and in
trace mode the spans of the first SPAN_OPS ops of the first traced pass, go
to ``.perfbench_out/``.
Every failed check is printed to stderr with the seed that reproduces it.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 5
WARMUP_K = 999_999  # op index of the untimed warm-up op, never measured
# A run goes on past --seconds until it has this many ops, so that op_ms.p90
# has at least ten samples above it, but not past STRETCH times --seconds,
# which bounds a run on a slow machine (the printed sample count shows it).
MIN_OPS = 100
STRETCH = 1.7
# Ops of the first traced pass whose spans are written out.
SPAN_OPS = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["static-dense", "satellite-mc", "bound-suite"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_library():
    """Import taskalloc from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "taskalloc", "__init__.py")):
        sys.exit(f"perfbench: no taskalloc sources under {SRC}")
    sys.path.insert(0, SRC)
    import taskalloc
    if os.path.dirname(os.path.dirname(os.path.abspath(taskalloc.__file__))) != SRC:
        sys.exit(f"perfbench: taskalloc imported from {taskalloc.__file__}, not {SRC}")
    return taskalloc


def environment() -> dict:
    import numpy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def git_sha() -> str:
    """HEAD commit read from .git, or "unknown" outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    """Drives one workload: ops, checks, failures and quality records."""

    def __init__(self, args, scratch):
        from workloads import WORKLOADS, DgbaCapture, op_seed
        self.args = args
        self.op_seed = op_seed
        self.capture = DgbaCapture()
        self.capture.install()
        self.workload = WORKLOADS[args.workload](args.seed, scratch)
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.quality: dict = {}

    def fail(self, k, message) -> None:
        """Log one failure with the seeds that reproduce it."""
        where = "" if k is None else f" op {k} (op seed {self.op_seed(self.args.seed, k)})"
        line = f"FAIL {self.args.workload} --seed {self.args.seed}{where}: {message}"
        print(line, file=sys.stderr)
        self.failures.append(line)

    def op(self, k, tracer=None):
        """Run, time and check op k.  Returns (seconds, dgba_run records,
        spans, span summary), or None when the op failed."""
        wl = self.workload
        inputs = wl.prepare(k)
        self.attempted += 1
        try:
            if tracer is not None:
                tracer.begin_op()
            start = time.perf_counter()
            try:
                output = wl.run(inputs)
            finally:
                elapsed = time.perf_counter() - start
                spans = tracer.end_op() if tracer is not None else None
            records = self.capture.take()
            summary = None
            if tracer is not None:
                from tracing import summarize
                summary = summarize(spans, tracer.names)
            failures, quality = wl.check(k, inputs, output, records)
        except Exception as exc:  # an op failure is counted, not fatal
            traceback.print_exc()
            self.capture.take()
            failures = [f"{type(exc).__name__}: {exc}"]
        finally:
            wl.cleanup(inputs)
        if not failures and k < wl.quality_ops:
            previous = self.quality.setdefault(k, quality)
            if previous["digest"] != quality["digest"]:
                failures.append("behaviour differs between two runs of the op")
        for message in failures:
            self.fail(k, message)
        if failures:
            self.failed += 1
            return None
        return elapsed, records, spans, summary

    def run_checks(self) -> None:
        """Checks that span ops; each failing one counts as a failed op."""
        for message in self.workload.run_checks():
            self.fail(None, message)
            self.failed += 1
        self.capture.take()


def setup_probe(args) -> None:
    """One set-up as a user pays it: import, configuration, one warm-up op."""
    import_library()
    scratch = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        runner = Runner(args, scratch)
        runner.op(WARMUP_K)
        print(json.dumps({"setup_s": time.perf_counter() - T0,
                          "failed": runner.failed, "failures": runner.failures}))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure_setup(args, gauge) -> tuple:
    """Wall set-up times of SETUP_REPEATS fresh processes, one at a time,
    with a gauge sample after each, and the failed warm-up ops' count and
    messages."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    raw, failed, failures = [], 0, []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              cwd=ROOT, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append(probe["setup_s"])
        failed += probe["failed"]
        failures += probe["failures"]
        gauge.mark()
    return raw, failed, failures


def quantile(values, q):
    """Percentile q (0-100) by statistics.quantiles' exclusive method."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def timings(setup, durations) -> dict:
    """Time metrics from set-up samples and op seconds."""
    ms = [d * 1000.0 for d in durations]
    return {
        "setup_s": statistics.median(setup),
        "throughput_per_s": len(durations) / sum(durations) if durations else None,
        "op_ms.p50": statistics.median(ms) if ms else None,
        "op_ms.p90": quantile(ms, 90) if ms else None,
    }


def end_to_end(runner, durations, setup) -> dict:
    wl = runner.workload
    quality = [runner.quality[k] for k in sorted(runner.quality)]

    def mean(key):
        return statistics.fmean(q[key] for q in quality) if quality else None

    return {
        **timings(setup, durations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "utility_mean": mean("utility"),
        "messages_mean": mean("messages"),
        "rounds_mean": mean("rounds"),
        "failed_share": runner.failed / max(runner.attempted, 1),
        "conflict_share": mean("conflict"),
        "ratio_min": (min(q["ratio"] for q in quality)
                      if quality and wl.name == "bound-suite" else None),
    }


def run_plain(args, runner, gauge) -> tuple:
    """Closed loop of ops until the window is spent and MIN_OPS are done.
    Returns raw and normalized op seconds and each op's gauge block."""
    wl = runner.workload
    blocks, block = [], []
    gauge.mark()
    start = time.perf_counter()
    k = 0
    while (k < wl.quality_ops
           or time.perf_counter() - start < args.seconds
           or (k < MIN_OPS and time.perf_counter() - start < STRETCH * args.seconds)):
        done = runner.op(k)
        if done is not None:
            block.append(done[0])
        k += 1
        if gauge.block_done():
            blocks.append((gauge.mark(), block))
            block = []
    blocks.append((gauge.mark(), block))
    runner.run_checks()
    raw = [d for _b, ds in blocks for d in ds]
    norm = [d * gauge.scale(b) for b, ds in blocks for d in ds]
    return raw, norm, [b for b, ds in blocks for _d in ds]


def run_traced(args, runner, modules, gauge) -> tuple:
    """Alternate untraced and traced passes over the fixed instance list:
    U T T U T T ... until the window is spent (at least U T T).  Op and
    self times are normalized like the end-to-end ones."""
    from tracing import Tracer
    wl = runner.workload
    tracer = Tracer(modules)
    blocks, block = [], []
    first_spans: list = []
    gauge.mark()
    start = time.perf_counter()
    passes = 0
    last = 0.0
    while passes < 3 or time.perf_counter() - start + last <= args.seconds:
        pass_start = time.perf_counter()
        tracing = passes % 3 != 0
        if tracing:
            tracer.install()
        try:
            for k in range(wl.quality_ops):
                done = runner.op(k, tracer if tracing else None)
                if done is not None:
                    elapsed, records, spans, summary = done
                    phase_s = sum(sum(r.phase_times.values()) for _o, r, _w in records)
                    dgba_s = sum(wall for _o, _r, wall in records)
                    block.append((k, elapsed, (phase_s, dgba_s), summary))
                    if passes == 1 and k < SPAN_OPS:
                        first_spans.append((k, [rec[:4] for rec in spans]))
                if gauge.block_done():
                    blocks.append((gauge.mark(), block))
                    block = []
        finally:
            if tracing:
                tracer.uninstall()
        passes += 1
        last = time.perf_counter() - pass_start
    blocks.append((gauge.mark(), block))

    plain_s = plain_ops = phase_s = dgba_s = 0.0
    traced: dict = {}        # op -> list of per-pass summaries
    for b, items in blocks:
        scale = gauge.scale(b)
        for k, elapsed, (op_phase_s, op_dgba_s), summary in items:
            if summary is None:
                plain_s += elapsed * scale
                plain_ops += 1
                phase_s += op_phase_s
                dgba_s += op_dgba_s
            else:
                summary["elapsed_s"] = elapsed * scale
                summary["self_s"] = {n: v * scale for n, v in summary["self_s"].items()}
                traced.setdefault(k, []).append(summary)
    for k, runs in traced.items():
        if any(r["counts"] != runs[0]["counts"] for r in runs[1:]):
            runner.fail(k, "counts differ between traced passes")
            runner.failed += 1
    runner.run_checks()
    return traced, first_spans, {
        "phase_clock_ratio": phase_s / dgba_s if dgba_s else 0.0,
        "plain_throughput": plain_ops / plain_s if plain_s else 0.0,
        "passes": passes,
        "names": tracer.names,
    }


def per_layer(traced, extra) -> dict:
    from metrics import PER_LAYER
    summaries = [s for runs in traced.values() for s in runs]
    n = max(len(summaries), 1)

    def total(key, field="counts"):
        return sum(s[field].get(key, 0) for s in summaries)

    op_s = sum(s["op_s"] for s in summaries)
    elapsed = sum(s["elapsed_s"] for s in summaries)
    run = {
        "phase_clock_ratio": extra["phase_clock_ratio"],
        "bytes_written": sum(s["bytes_written"] for s in summaries) / n,
        "span_cover_ratio": sum(s["covered_s"] for s in summaries) / op_s if op_s else 0.0,
        "overhead_ratio": (len(summaries) / elapsed / extra["plain_throughput"]
                           if elapsed and extra["plain_throughput"] else 0.0),
    }
    out = {}
    for name, _unit, _better, source, _moves, _where in PER_LAYER:
        kind = source[0]
        if kind == "self":
            out[name] = total(source[1], "self_s") / n * 1000.0
        elif kind == "calls":
            out[name] = total(source[1] + ".calls") / n
        elif kind == "count":
            out[name] = total(source[1]) / n
        elif kind == "ratio":
            den = total(source[2])
            out[name] = total(source[1]) / den if den else 0.0
        else:
            out[name] = run[source[1]]
    return out


def fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    taskalloc = import_library()
    from taskalloc import constraints, core, harness, scenario, solvers
    import metrics
    from speed import Gauge
    from tracing import write_spans

    env = environment()
    os.makedirs(OUT, exist_ok=True)
    scratch = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        gauge = Gauge()
        setup_raw, probe_failed, probe_failures = (
            ([], 0, []) if args.trace else measure_setup(args, gauge))
        runner = Runner(args, scratch)
        for message in probe_failures:
            runner.fail(None, f"set-up probe: {message}")
        runner.attempted += len(setup_raw)
        runner.failed += probe_failed
        runner.op(WARMUP_K)
        if args.trace:
            modules = {"taskalloc": taskalloc, "core": core, "constraints": constraints,
                       "solvers": solvers, "scenario": scenario, "harness": harness}
            traced, spans, extra = run_traced(args, runner, modules, gauge)
        else:
            raw, durations, op_blocks = run_plain(args, runner, gauge)
            setup = [s * gauge.run_scale() for s in setup_raw]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    wl = runner.workload
    digests = [runner.quality[k]["digest"] for k in sorted(runner.quality)]
    run_digest = hashlib.sha256("".join(digests).encode()).hexdigest()
    record = {"workload": wl.name, "why": wl.why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "attempted": runner.attempted, "failures": runner.failures,
              "quality_ops": len(digests), "digest": run_digest,
              "op_digests": digests}

    print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    if args.trace:
        values = per_layer(traced, extra)
        units = {name: unit for name, unit, *_ in metrics.PER_LAYER}
        n_traced = sum(len(r) for r in traced.values())
        print(f"traced ops: {n_traced} over {extra['passes']} passes "
              f"({wl.quality_ops} instances); times normalized")
        for name, value in values.items():
            print(f"  {name:36s} {value:.6g} {units[name]}")
        write_spans(os.path.join(OUT, f"{wl.name}-seed{args.seed}-spans.jsonl"),
                    spans, extra["names"])
        record["per_layer"] = values
        reported = {name: {"value": values[name], "unit": units[name]}
                    for name in values}
    else:
        values = end_to_end(runner, durations, setup)
        wall = timings(setup_raw, raw)
        n_fixed = f"{len(digests)} fixed instances"
        notes = {"setup_s": f"median of {len(setup)} set-ups",
                 "throughput_per_s": f"{len(durations)} ops",
                 "op_ms.p50": f"n={len(durations)}",
                 "op_ms.p90": f"n={len(durations)}",
                 "peak_rss_mb": "whole run",
                 "failed_share": f"{runner.failed}/{runner.attempted} ops"}
        print("  time metrics are normalized to reference speed; raw wall in brackets")
        for name, unit, _better, _gated in metrics.END_TO_END:
            note = notes.get(name, n_fixed if values[name] is not None else "")
            if name in wall:
                note = f"[wall {fmt(wall[name])}] {note}"
            print(f"  {name:18s} {fmt(values[name]):>12s} {unit:8s} {note}")
        print(f"  digest {run_digest} ({n_fixed})")
        record.update(end_to_end=values, wall=wall,
                      setup_s=setup, setup_wall_s=setup_raw,
                      op_ms=[d * 1000.0 for d in durations],
                      op_wall_ms=[d * 1000.0 for d in raw],
                      op_block=op_blocks, gauge_s=gauge.samples)
        reported = {name: {"value": values[name], "unit": unit}
                    for name, unit, _better, gated in metrics.END_TO_END if gated}

    path = os.path.join(OUT, f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"record: {os.path.relpath(path, ROOT)}")
    correct = runner.failed == 0 and all(
        v["value"] is not None for v in reported.values())
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
