"""topodyn benchmark: one closed-loop client driving ``topodyn.cli.main``.

    python3 perfbench/run.py --workload audit|refute|transform|query \
        [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the program is imported from ``src/`` next to this
directory.  A round is a fixed, seeded list of ops.  The untraced run repeats
the round until the next one would pass ``--seconds`` (at least three times)
and reports end-to-end metrics; ``--trace 1`` runs one untraced round, then
traced rounds until ``--seconds``, and reports per-layer metrics.  The last
stdout line is the JSON result; the report for people goes to stderr.  See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
DEFAULT_SEED = 20261017
MIN_ROUNDS = 3
SETUP_SAMPLES = 7
CAL_ITERS = 700
CAL_REF_S = 0.0010  # calibration loop on the reference box (2-core Xeon VM, CPython 3.11.7)
CAL_WINDOW = 10  # ops on each side whose calibrations set an op's speed
GAP_FLOOR_S = 0.005  # wall time a traced op may spend outside its root span

SETUP_CODE = """
import statistics, sys, time
sys.path.insert(0, sys.argv[1])
from run import calibrate
cal = statistics.median(calibrate() for _ in range(5))
start = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import topodyn
from topodyn import cli, proofkit
cli.build_parser()
for name in ("SPDL0", "SPDL0_SEQ", "DTEL"):
    proofkit.get_system(name)
print(time.perf_counter() - start, cal)
"""


def load_topodyn():
    """Import topodyn from this checkout's src/, never from anywhere else."""
    if not (SRC / "topodyn" / "__init__.py").is_file():
        raise SystemExit(f"error: no topodyn sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import topodyn
    from topodyn import cli

    if Path(topodyn.__file__).resolve().parent != SRC / "topodyn":
        raise SystemExit(f"error: imported topodyn from {topodyn.__file__}, not {SRC}")
    return cli


def setup_sample() -> float:
    """Seconds a fresh interpreter takes to import topodyn, build the CLI parser
    and fetch the three proof systems, scaled by the calibration loop the same
    interpreter ran just before."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(Path(__file__).resolve().parent), str(SRC)],
        capture_output=True, text=True, timeout=60, cwd=ROOT, check=True,
    )
    seconds, cal = map(float, done.stdout.split())
    return seconds * CAL_REF_S / cal


# --- one op -----------------------------------------------------------------------


def run_op(cli, argv):
    """(seconds, exit code or None, stdout, exception text or None)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a raising op is a failed op, not a crashed run
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), error


def digest(code, stdout: str) -> str:
    return hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest()


class _Node:
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left, self.right = left, right


def _combine(node, mask):
    return node.left & mask | node.right


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop that never touches topodyn.  It
    mixes what the program's own hot paths do (small objects, calls,
    isinstance, dict lookups on tuple keys, bit operations), so its time
    follows the host's speed for them."""
    start = time.perf_counter()
    memo = {}
    acc = 0
    for i in range(CAL_ITERS):
        node = _Node(i & 63, i >> 3)
        if isinstance(node, _Node):
            acc ^= _combine(node, i)
        memo[(i & 127, acc & 7)] = node
        acc += len([x for x in (1, 2, 3) if x & i])
    return time.perf_counter() - start


class Round:
    """Runs the round's ops in order and keeps score across repeats.

    A calibration loop runs before each op.  An op's time is scaled by
    CAL_REF_S over the median calibration time of the ops around it, which
    turns seconds on the host's current speed into seconds at the reference
    speed; the shared host's speed drifts by tens of percent over seconds.
    """

    def __init__(self, cli, ops):
        self.cli = cli
        self.ops = ops
        self.first_hash: list[str] = []
        self.first_failed: list[bool] = []
        self.first_raw: list[float] = []
        self.times: list[list[float]] = [[] for _ in ops]  # scaled, one per pass
        self.throughput: list[float] = []  # ops per scaled second of op wall time, per pass
        self.cal: list[float] = []
        self.gaps: list[float] = []  # traced ops: wall time minus root span
        self.attempted = 0
        self.failed = 0
        self.output_bytes = 0  # of the latest pass
        self.reasons: list[str] = []

    def _fail(self, i: int, why: str) -> None:
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(f"op {i} ({' '.join(self.ops[i].argv[:2])}): {why}")

    def run(self, tracer=None) -> list[float]:
        """One pass over the ops; returns their scaled times.  The first pass
        checks every answer; later passes must print byte-identical output
        (the determinism guard)."""
        first = not self.first_hash
        raw, cal = [], []
        self.output_bytes = 0
        for i, op in enumerate(self.ops):
            cal.append(calibrate())
            if tracer is not None:
                tracer.begin_op(i)
            elapsed, code, out, error = run_op(self.cli, op.argv)
            raw.append(elapsed)
            self.output_bytes += len(out)
            self.attempted += 1
            h = digest(code, out)
            if error is not None:
                why = error
            elif first:
                why = op.check(code, out)
            elif h != self.first_hash[i]:
                why = "output differs from the first pass with the same seed"
            else:
                why = "same wrong answer as the first pass" if self.first_failed[i] else None
            if tracer is not None and why is None:
                why = tracer.end_op()
            if tracer is not None and why is None:
                # the root span, and so the self times that add up to it, must
                # cover the op's wall time, short of it by no more than the
                # op's tracing overhead or a garbage-collection pause
                gap = elapsed - tracer.op_root_ns / 1e9
                self.gaps.append(gap)
                if not 0 <= gap <= max(elapsed - self.first_raw[i], 0) + GAP_FLOOR_S:
                    why = f"span self times miss the op's wall time by {gap:.6f}s"
            if first:
                self.first_hash.append(h)
                self.first_failed.append(why is not None)
                self.first_raw.append(elapsed)
            if why is not None:
                self._fail(i, why)
        cal.append(calibrate())
        self.cal.extend(cal)
        scaled = []
        for i, t in enumerate(raw):
            around = cal[max(0, i - CAL_WINDOW): i + CAL_WINDOW + 2]
            scaled.append(t * CAL_REF_S / statistics.median(around))
            self.times[i].append(scaled[-1])
        self.throughput.append(len(scaled) / sum(scaled))
        return scaled

    def round_digest(self) -> str:
        return hashlib.sha256("".join(self.first_hash).encode()).hexdigest()


def percentile(values, q: int) -> float:
    """q-th percentile (q in 1..99) by linear interpolation."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def latency_stats(times, throughput) -> dict:
    """Percentiles of per-op latencies; ops_per_s is the median over passes of
    each pass's ops divided by its scaled op wall time."""
    return {
        "ops_per_s": statistics.median(throughput),
        "op_p50_s": statistics.median(times),
        "op_p90_s": percentile(times, 90),
    }


def code_id() -> str:
    """Names the code under test: every file of src/topodyn and of this
    benchmark, and the interpreter.  A same-seed record is only compared with
    runs of the same code."""
    h = hashlib.sha256(sys.version.encode())
    for tree in (SRC / "topodyn", Path(__file__).resolve().parent):
        for path in sorted(tree.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(tree)).encode() + b"\0")
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_repeat(key: str, record: dict, stream) -> bool:
    """Compare with what an earlier same-seed run of the same code recorded."""
    path = RUN_DIR / "repeat" / f"{key}-{code_id()}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    if not path.exists():
        path.write_text(json.dumps(record, sort_keys=True))
        return True
    earlier = json.loads(path.read_text())
    if earlier == record:
        return True
    diff = sorted(k for k in set(earlier) | set(record) if earlier.get(k) != record.get(k))
    print(f"determinism guard: {key} differs from an earlier same-seed run in {diff[:8]}",
          file=stream)
    return False


# --- untraced and traced runs --------------------------------------------------------


def timed_run(cli, ops, seconds: float, args, stream) -> dict:
    rnd = Round(cli, ops)
    setup = [setup_sample(), setup_sample()]
    rounds = 0
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        rnd.run()
        rounds += 1
        if len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample())
        now = time.perf_counter()
        if rounds >= MIN_ROUNDS and (now - start) + (now - began) > seconds:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample())

    typical = [statistics.median(t) for t in rnd.times]
    stats = latency_stats(typical, rnd.throughput)
    repeat_ok = check_repeat(f"{args.workload}-{args.seed}-digest",
                             {"digest": rnd.round_digest()}, stream)
    print(f"round digest {rnd.round_digest()}", file=stream)
    failed = rnd.failed + (0 if repeat_ok else 1)
    attempted = rnd.attempted
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (stats["ops_per_s"], "ops/s"),
        "op_p50_s": (stats["op_p50_s"], "s"),
        "op_p90_s": (stats["op_p90_s"], "s"),
        "success_rate": ((attempted - failed) / attempted, "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} ops per round, "
          f"{rounds} rounds, {attempted} ops attempted, {failed} failed", file=stream)
    print(f"  host speed: calibration loop median {statistics.median(rnd.cal) * 1e3:.3f} ms "
          f"over n={len(rnd.cal)}, reference {CAL_REF_S * 1e3:.3f} ms", file=stream)
    print(f"  ops_per_s is the median of n={rounds} passes; "
          f"each op's latency is the median of its {rounds} runs; percentiles over "
          f"n={len(typical)} ops ({len(typical) - int(0.9 * len(typical))} beyond p90); "
          f"setup_s is the median of n={len(setup)} fresh interpreters", file=stream)
    by_kind: dict = {}
    for op, t in zip(ops, typical):
        by_kind.setdefault(op.kind, []).append(t)
    for kind, ts in sorted(by_kind.items()):
        print(f"  {kind:<12} n={len(ts):<4} median {statistics.median(ts):.4f}s "
              f"max {max(ts):.4f}s", file=stream)
    return {"attempted": attempted, "failed": failed, "reasons": rnd.reasons,
            "metrics": metrics}


def traced_run(cli, ops, seconds: float, args, stream) -> dict:
    """One untraced pass, then traced passes until the next would pass
    `seconds` (at least one).  Counts come from the first traced pass and must
    repeat exactly in the others; self times are medians over the passes."""
    rnd = Round(cli, ops)
    start = time.perf_counter()
    plain = rnd.run()
    plain_throughput = rnd.throughput[-1]
    tracers, passes = [], []
    while True:
        began = time.perf_counter()
        tracer = tracing.Tracer()
        try:
            tracing.install(tracer)
            passes.append(rnd.run(tracer))
        finally:
            tracer.unpatch()
        tracer.counts["cli.output_bytes"] = rnd.output_bytes
        tracers.append(tracer)
        now = time.perf_counter()
        if (now - start) + (now - began) > seconds:
            break
    first = tracers[0]
    counts = first.counts
    drifted = sum(t.counts != counts for t in tracers[1:])
    if drifted:
        print(f"determinism guard: per-layer counts changed in {drifted} of "
              f"{len(tracers) - 1} repeated traced passes", file=stream)
    names = set().union(*(t.self_ns for t in tracers))
    selfs = {name: statistics.median(t.self_ns.get(name, 0) for t in tracers) / 1e9
             for name in names}
    traced = [statistics.median(ts) for ts in zip(*passes)]
    plain_stats = latency_stats(plain, [plain_throughput])
    traced_stats = latency_stats(traced, rnd.throughput[1:])
    metrics: dict = {}
    for name in per_layer_names():
        metrics[name] = per_layer_value(name, counts, selfs)
    for key in ("ops_per_s", "op_p50_s", "op_p90_s"):
        unit = "ops/s" if key == "ops_per_s" else "s"
        metrics[f"trace.overhead.{key}"] = (traced_stats[key] - plain_stats[key], unit)
    metrics["trace.spans"] = (float(first.opened), "count")

    record = {k: v for k, (v, unit) in metrics.items() if unit in ("count", "bytes")}
    record["digest"] = rnd.round_digest()
    repeat_ok = check_repeat(f"{args.workload}-{args.seed}-counts", record, stream)
    RUN_DIR.mkdir(exist_ok=True)
    span_file = RUN_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
    first.write(str(span_file))
    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} ops, 1 untraced and "
          f"{len(tracers)} traced passes; {first.opened} spans per pass (the first "
          f"{tracing.SPAN_CAP} of pass 1 written to {span_file.name})", file=stream)
    for key in ("ops_per_s", "op_p50_s", "op_p90_s"):
        print(f"  tracing overhead on {key}: {plain_stats[key]:.6g} untraced -> "
              f"{traced_stats[key]:.6g} traced (n={len(ops)} ops each)", file=stream)
    if rnd.gaps:
        print(f"  wall time outside the root span per traced op: median "
              f"{statistics.median(rnd.gaps) * 1e6:.1f} us, max {max(rnd.gaps) * 1e6:.1f} us "
              f"(n={len(rnd.gaps)})", file=stream)
    for name in ("is_open_map", "is_continuous"):
        key = f"frameprops.{name}"
        print(f"  {key}.holds_ratio = {counts[key + '.accepted']}/{counts[key + '.calls']}",
              file=stream)
    failed = rnd.failed + drifted + (0 if repeat_ok else 1)
    return {"attempted": rnd.attempted, "failed": failed, "reasons": rnd.reasons,
            "metrics": metrics}


# --- per-layer metrics ----------------------------------------------------------------

def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def per_layer_names() -> list[str]:
    return [m["name"] for m in benchmark_spec()["per_layer"]
            if not m["name"].startswith("trace.")]


def per_layer_value(name: str, counts, selfs) -> tuple:
    if name.endswith(".self_s"):
        return selfs.get(name[: -len(".self_s")], 0.0), "s"
    if name.endswith(".holds_ratio"):
        base = name[: -len(".holds_ratio")]
        tested = counts[base + ".calls"]
        return (counts[base + ".accepted"] / tested if tested else 0.0), "fraction"
    unit = "bytes" if name.endswith("_bytes") else "count"
    return float(counts[name]), unit


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=benchmark_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    stream = sys.stderr

    cli = load_topodyn()
    workdir = RUN_DIR / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        ops = workloads.build(args.workload, args.seed, str(workdir))
        if args.trace:
            result = traced_run(cli, ops, args.seconds, args, stream)
        else:
            result = timed_run(cli, ops, args.seconds, args, stream)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for reason in result["reasons"]:
        print(f"  FAILED {reason}", file=stream)
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result["metrics"].items()}
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:.6g} {m['unit']}", file=stream)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
