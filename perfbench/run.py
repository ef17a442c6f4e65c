"""Benchmark for galelemke: three closed-loop workloads, checked op by op.

Run from the repository root:

    python3 perfbench/run.py --workload gale-walk --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --compare parent.jsonl change.jsonl

One run measures one workload in this interpreter, single-threaded, one op
at a time.  It repeats passes over the workload's fixed op list until the
next pass would end past ``--seconds``, checks every op's output, prints
each metric by name with its unit, appends a full record (metrics and
environment) to ``--results``, and prints a one-line JSON summary last.
Times are normalised to host speed by a kernel timed next to every op
(see hostspeed.py); the record keeps them as measured too.
With ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of the traced ones and the tracing overhead instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

import hostspeed
import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

DEFAULT_SEED = 0  # the seed whose outputs fingerprints.json stores
SETUP_SAMPLES = 7  # fresh interpreters whose set-up time gives setup_s
FINGERPRINTS = HERE / "fingerprints.json"


def parse_args(argv):
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results", type=Path, default=OUT / "results.jsonl",
                   help="JSON-lines file each run appends its full record to")
    p.add_argument("--compare", nargs=2, type=Path, metavar=("PARENT", "CHANGE"),
                   help="compare two results files and exit")
    p.add_argument("--record-fingerprints", action="store_true",
                   help="run one pass and store its outputs as the reference for this seed")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.compare is None and args.workload is None:
        p.error("--workload is required")
    return args, spec


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# set-up


def timed_setup(name: str, seed: int, tracer, workdir: Path):
    """Import galelemke and build the workload's instances between kernel
    runs; returns (normalised seconds, raw seconds, api, workload)."""

    def setup():
        api = layers.build_api(tracer)
        return api, workloads.WORKLOADS[name](api, seed, workdir)

    (api, workload), elapsed, slowdown = hostspeed.bracket(setup)
    import galelemke

    if not Path(galelemke.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"galelemke was imported from {galelemke.__file__}, not from {SRC}")
    return elapsed / slowdown, elapsed, api, workload


def probe_setup(name: str, seed: int) -> tuple[float, float]:
    """Set-up time (normalised, raw) measured in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"set-up probe failed:\n{done.stderr}")
    probe = json.loads(done.stdout.splitlines()[-1])
    return probe["setup_s"], probe["raw_setup_s"]


# ---------------------------------------------------------------------------
# passes


class Gate:
    """Correctness gate: oracles inside the ops, then pinned counts and
    stored fingerprints.  A failure is counted, never fatal."""

    def __init__(self, fingerprints: dict):
        self.fingerprints = fingerprints
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []

    def run(self, op, api, counts, tracer=None):
        """Run one op; returns (milliseconds, payload or None)."""
        self.attempted += 1
        start = perf_counter()
        try:
            if tracer is None:
                payload = op.run(api, counts)
            else:
                tracer.op = op.id
                with tracer.span(layers.OP_LAYER, op.id):
                    payload = op.run(api, counts)
        except Exception as exc:  # an op that raises is a failed op; the run goes on
            ms = (perf_counter() - start) * 1e3
            self.fail(op.id, f"{type(exc).__name__}: {exc}")
            return ms, None
        ms = (perf_counter() - start) * 1e3
        pinned = workloads.PINNED.get(op.id)
        stored = self.fingerprints.get(op.id)
        if pinned is not None and payload[0] != pinned:
            self.fail(op.id, f"pinned count {pinned}, got {payload[0]}")
        elif stored is not None and stored != payload:
            self.fail(op.id, f"fingerprint {stored}, got {payload}")
        return ms, payload

    def fail(self, op_id: str, message: str) -> None:
        self.failures.append((op_id, message))


def run_pass(ops, order, api, gate: Gate, tracer=None):
    """One pass over the op list in the given order, with a kernel run
    before each op and after the last; returns (seconds, raw op latencies
    in ms, normalised op latencies in ms, counts), latencies in list order."""
    counts: Counter = Counter()
    latencies = []
    kernel_ms = []
    start = perf_counter()
    for i in order:
        kernel_ms.append(hostspeed.sample())
        ms, _ = gate.run(ops[i], api, counts, tracer)
        latencies.append(ms)
    kernel_ms.append(hostspeed.sample())
    wall = perf_counter() - start
    raw = [0.0] * len(ops)
    normalised = [0.0] * len(ops)
    for i, ms, speed in zip(order, latencies, hostspeed.local_speeds(kernel_ms)):
        raw[i] = ms
        normalised[i] = ms / speed
    return wall, raw, normalised, counts


def per_op_median(passes: list[list[float]]) -> list[float]:
    """Each op's median time over the given passes."""
    return [statistics.median(times) for times in zip(*passes)]


def percentile(samples, q: int) -> float:
    """q-th percentile (q in 10, 20, ..., 90), inclusive method."""
    return statistics.quantiles(samples, n=10, method="inclusive")[q // 10 - 1]


# ---------------------------------------------------------------------------
# environment


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu": cpu,
        "nproc": nproc,
        "commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------
# main


def emit(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"{name:32s} {value:>16.6g} {units[name]}")


def measure(args, spec) -> int:
    trace = bool(args.trace)
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    load_start = os.getloadavg()

    setup_samples = [] if trace else [probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    tracer = layers.Tracer() if trace else None
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        own_setup, own_raw, api, workload = timed_setup(args.workload, args.seed, tracer, workdir)
        setup_samples.append((own_setup, own_raw))
        plain_api = layers.build_api(None)
        setup_spans = tracer.take() if trace else []
        all_spans = list(setup_spans)
        ops = list(workload.ops)
        # a fresh order every pass, so that no op always follows the same one
        shuffler = random.Random(f"order:{args.workload}:{args.seed}")
        order = list(range(len(ops)))

        gate = Gate(json.loads(FINGERPRINTS.read_text(encoding="utf-8")).get(args.workload, {}))
        op_ms = {False: [], True: []}  # untraced and traced passes: each op's normalised time in ms
        raw_ms = []  # untraced passes: each op's time in ms as measured
        per_pass_layers = []
        first_counts = None
        window = perf_counter()
        while True:
            traced = trace and len(op_ms[False]) > len(op_ms[True])
            if traced:
                tracer.phase = f"pass {len(op_ms[False]) + len(op_ms[True])}"
            shuffler.shuffle(order)
            wall, raw, lat, counts = run_pass(ops, order, api if traced else plain_api, gate,
                                              tracer if traced else None)
            op_ms[traced].append(lat)
            if not traced:
                raw_ms.append(raw)
            if traced:
                per_pass_layers.append(layers.layer_metrics(setup_spans + tracer.spans, counts))
                all_spans += tracer.take()
            if first_counts is None:
                first_counts = counts
            else:
                gate.attempted += 1
                if counts != first_counts:
                    gate.fail("determinism", "work counts differ between passes of the same inputs")
            passes = len(op_ms[False]) + len(op_ms[True])
            if passes >= (2 if trace else 1) and perf_counter() - window + wall > args.seconds:
                break
        # high-water mark of set-up and passes; the checks' seed-drawn searches
        # would otherwise make it depend on the workload seed
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for op in workload.checks:
            gate.run(op, plain_api, Counter())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        metrics = {name: statistics.median(p[name] for p in per_pass_layers) for name in per_pass_layers[0]}
        # the same number of passes on each side, alternating, so both see the same host
        paired = min(len(op_ms[False]), len(op_ms[True]))
        traced_s = sum(per_op_median(op_ms[True][:paired])) / 1e3
        untraced_s = sum(per_op_median(op_ms[False][:paired])) / 1e3
        metrics["trace.overhead_s"] = traced_s - untraced_s
        span_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        layers.write_spans(span_file, all_spans)
    else:
        metrics, raw_metrics = (
            {
                "wall_s": sum(per_op_median(passes_ms)) / 1e3,
                "op_ms.p50": percentile(per_op_median(passes_ms), 50),
                "op_ms.p90": percentile(per_op_median(passes_ms), 90),
                "setup_s": statistics.median(s[i] for s in setup_samples),
                "peak_rss_mb": peak_rss_mb,
            }
            for i, passes_ms in enumerate((op_ms[False], raw_ms))
        )
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")

    failed = len(gate.failures)
    env = environment()
    env.update(seed=args.seed, load_start=load_start, load_end=os.getloadavg())
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {passes}  "
          f"ops/pass {len(ops)}  checks {len(workload.checks)}")
    print("env " + json.dumps(env))
    if trace:
        print(f"per-layer metrics: set-up once plus one traced pass, median of {len(op_ms[True])} traced passes")
        print(f"tracing overhead: traced pass {traced_s:.4f} s - untraced pass {untraced_s:.4f} s "
              f"(each op's median time over {paired} passes of each kind, summed)")
        print(f"spans written to {span_file.relative_to(ROOT)}")
    else:
        print(f"wall_s: each op's median time over {passes} passes, summed; "
              f"op_ms: {len(ops)} samples, each op's median time over {passes} passes; "
              f"setup_s: median of {len(setup_samples)} fresh interpreters")
        print(f"times normalised to a host on which the calibration kernel takes {hostspeed.REFERENCE_MS} ms; "
              f"as measured: " + ", ".join(f"{k} {raw_metrics[k]:.6g}" for k in ("wall_s", "op_ms.p50", "op_ms.p90", "setup_s")))
    emit(metrics, units)
    print(f"{'failed_frac':32s} {failed / gate.attempted:>16.6g} ({failed} of {gate.attempted} ops)")
    for op_id, message in gate.failures[:20]:
        print(f"FAILED {op_id}: {message}", file=sys.stderr)

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "passes": passes, "ops_per_pass": len(ops), "env": env,
        "correct": failed == 0, "attempted": gate.attempted, "failed": failed,
        "metrics": metrics, "failures": gate.failures[:20],
    }
    if not trace:
        record["raw_metrics"] = raw_metrics  # the same metrics, not normalised
    args.results.parent.mkdir(parents=True, exist_ok=True)
    with open(args.results, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    summary = {
        "correct": failed == 0, "attempted": gate.attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(summary))
    return 0


def record_fingerprints(args) -> int:
    """Store one pass's payloads (oracles must hold) as the reference."""
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        _, _, api, workload = timed_setup(args.workload, args.seed, None, workdir)
        gate = Gate({})
        stored = {}
        for op in workload.ops + workload.checks:
            _, payload = gate.run(op, api, Counter())
            stored[op.id] = payload
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if gate.failures:
        for op_id, message in gate.failures:
            print(f"FAILED {op_id}: {message}", file=sys.stderr)
        return 1
    data = json.loads(FINGERPRINTS.read_text(encoding="utf-8")) if FINGERPRINTS.exists() else {}
    data["seed"] = args.seed
    data[args.workload] = dict(sorted(stored.items()))
    FINGERPRINTS.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"stored {len(stored)} fingerprints for {args.workload}")
    return 0


def main(argv=None) -> int:
    args, spec = parse_args(argv)
    if args.compare:
        import compare

        return compare.main(args.compare[0], args.compare[1], spec)
    if not (SRC / "galelemke" / "__init__.py").is_file():
        print(f"error: no galelemke sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        seconds, raw_seconds, _, _ = timed_setup(args.workload, args.seed, None, OUT)
        print(json.dumps({"setup_s": seconds, "raw_setup_s": raw_seconds}))
        return 0
    if args.record_fingerprints:
        if args.seed != DEFAULT_SEED:
            print(f"error: fingerprints are stored for seed {DEFAULT_SEED}", file=sys.stderr)
            return 2
        return record_fingerprints(args)
    return measure(args, spec)


if __name__ == "__main__":
    sys.exit(main())
