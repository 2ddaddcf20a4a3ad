#!/usr/bin/env python3
"""cyclonet benchmark: the sweep, series and memory workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

--trace 0 measures the end-to-end metrics with tracing off; --trace 1 runs
the traced passes and reports the per-layer metrics.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  perfbench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile

# One BLAS thread for this process and every child it starts; must be set
# before numpy loads.  The library itself has no thread setting.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import numpy as np  # noqa: E402

import gauge  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("sweep", "series", "memory")
SETUP_PROBES = 7
# Ops in the window whose median latency stands for the machine's speed
# around an op; see local_medians.
LOCAL_WINDOW = 21
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


def metadata() -> dict:
    """Commit, source digest, machine and numerical-stack facts for the result file."""
    commit = None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, env=env, timeout=30
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    package = os.path.join(SRC, "cyclonet")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_pin": BLAS_PIN,
    }


def setup_seconds(workload: str, seed: int, out_dir: str) -> float:
    """Seconds for a fresh process to import the library and finish one warm-up round."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, workload, str(seed), out_dir],
        capture_output=True,
        text=True,
        env=dict(os.environ, **BLAS_PIN),
        cwd=ROOT,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def local_medians(latencies: np.ndarray) -> np.ndarray:
    """Median latency of the LOCAL_WINDOW consecutive ops centred on each op.

    Ops near either end of a round share the first or last full window; a
    round of at most LOCAL_WINDOW ops has one median for all.
    """
    if latencies.size <= LOCAL_WINDOW:
        return np.full(latencies.size, np.median(latencies))
    inner = np.median(np.lib.stride_tricks.sliding_window_view(latencies, LOCAL_WINDOW), axis=1)
    half = LOCAL_WINDOW // 2
    return np.concatenate([np.full(half, inner[0]), inner, np.full(half, inner[-1])])


class Tally:
    """Check outcomes over all rounds of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.classes: dict[str, int] = {}
        self.csv_sha256: list[str] = []
        self.notes: set[str] = set()
        self.maxima: dict[str, float] = {}

    def add(self, check, new_round: bool = True) -> None:
        """Count a round's check outcomes; inputs drawn are counted once per distinct round."""
        self.attempted += check.attempted
        self.failed += check.failed
        self.messages.extend(check.messages[: max(0, 20 - len(self.messages))])
        if new_round:
            for kind, n in check.facts.get("classes", {}).items():
                self.classes[kind] = self.classes.get(kind, 0) + n
        for name, value in check.facts.get("maxima", {}).items():
            self.maxima[name] = max(self.maxima.get(name, 0.0), value)
        if "csv_sha256" in check.facts:
            self.csv_sha256.append(check.facts["csv_sha256"])
        if "unchecked" in check.facts:
            self.notes.add(check.facts["unchecked"])


def measure(wl, speed: gauge.SpeedGauge, args, out_dir: str) -> tuple[dict, Tally, dict]:
    """End-to-end metrics with tracing off: rounds of fresh inputs until --seconds of timed work.

    Times are scaled to the gauge's reference speed (see gauge.py); the
    unscaled medians go to the facts.
    """
    from spans import SpanRecorder

    setup, setup_raw = [], []
    for _ in range(SETUP_PROBES + 1):
        before = gauge.read_ms()
        seconds = setup_seconds(wl.name, args.seed, out_dir)
        setup_raw.append(seconds)
        setup.append(seconds * gauge.REFERENCE_MS * 0.5 * (1.0 / before + 1.0 / gauge.read_ms()))
    del setup[0], setup_raw[0]  # the first probe also fills caches
    wl.warmup(args.seed)
    recorder = SpanRecorder(speed.clock)  # not installed: only numbers the ops
    tally = Tally()
    # Per round: start and wall ns, ops, and the p50 and corrected p99 op
    # latency in ms.  Other processes slow this one in bursts shorter than
    # the gauge's interval, and the slowest 1 % of ops are mostly ops such a
    # burst hit.  So for the p99 each op's latency is first multiplied by
    # the round's median over the median of the LOCAL_WINDOW ops around it:
    # a burst slows the op's neighbours too, an op that is slow by itself
    # does not.
    rounds: list[tuple[int, int, int, float, float]] = []
    samples = 0
    budget_ns = args.seconds * 1e9
    gc.collect()
    with speed.sampling():
        while True:
            inputs = wl.prepare(args.seed, len(rounds))
            result = wl.run(inputs, recorder)
            latencies = np.asarray(result.latencies_ns) / 1e6
            p50 = float(np.median(latencies))
            p99 = float(np.percentile(latencies * p50 / local_medians(latencies), 99))
            rounds.append((result.start_ns, result.wall_ns, result.ops, p50, p99))
            samples += latencies.size
            tally.add(wl.check(result))
            del inputs, result
            walls = [r[1] for r in rounds]
            # Start another round only if a typical one still fits in the budget.
            if sum(walls) + statistics.median(walls) > budget_ns:
                break
    scales = [speed.scale(start, start + wall) for start, wall, *_ in rounds]

    def median_of(f):
        return statistics.median(f(r, k) for r, k in zip(rounds, scales))

    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": median_of(lambda r, k: r[1] * k / 1e9),
        "ops_per_s": median_of(lambda r, k: r[2] / (r[1] * k / 1e9)),
        "op_p50_ms": median_of(lambda r, k: r[3] * k),
        "op_p99_ms": median_of(lambda r, k: r[4] * k),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    facts = {
        "rounds": len(rounds),
        "timed_s": sum(walls) / 1e9,
        "op_unit": wl.op_unit,
        "latency_op": wl.latency_op,
        "latency_samples": samples,
        "latency_samples_per_round": samples // len(rounds),
        "unscaled": {
            "setup_s": statistics.median(setup_raw),
            "wall_s": median_of(lambda r, k: r[1] / 1e9),
            "op_p50_ms": median_of(lambda r, k: r[3]),
            "op_p99_ms": median_of(lambda r, k: r[4]),
        },
        "setup_probes_s": setup_raw,
        "local_window_ops": LOCAL_WINDOW,
        "gauge_ms": speed.readings,
        "round_wall_s": [w / 1e9 for w in walls],
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, tally, facts


def trace(wl, speed: gauge.SpeedGauge, args) -> tuple[dict, Tally, dict]:
    """Per-layer metrics: alternate untraced and traced passes over round 0's inputs.

    Self times and the overhead are scaled like the end-to-end times.
    """
    import cyclonet
    from spans import SPAN_NAMES, SpanRecorder

    wl.warmup(args.seed)
    recorder = SpanRecorder(speed.clock)
    counter = getattr(cyclonet, "cycle_applications", None)
    tally = Tally()
    plain: list[tuple[int, int]] = []  # (start ns, wall ns) per pass
    traced: list[tuple[int, int]] = []
    summaries: list[dict] = []
    csv_ns: list[int] = []
    budget_ns = args.seconds * 1e9
    gc.collect()
    with speed.sampling():
        while True:
            inputs = wl.prepare(args.seed, 0)
            result = wl.run(inputs, recorder)
            plain.append((result.start_ns, result.wall_ns))
            tally.add(wl.check(result), new_round=len(plain) == 1)
            del inputs, result

            inputs = wl.prepare(args.seed, 0)
            recorder.clear()
            before = counter() if counter else 0
            with recorder.installed():
                result = wl.run(inputs, recorder)
            applications = counter() - before if counter else None
            traced.append((result.start_ns, result.wall_ns))
            tally.add(wl.check(result), new_round=False)
            summaries.append(recorder.summary())
            csv_ns.append(
                sum(
                    end - start
                    for name, start, end, parent, op in recorder.spans
                    if name == "cli.main" and parent < 0 and op in result.csv_ops
                )
            )
            last = result
            del inputs
            used = sum(w for _, w in plain) + sum(w for _, w in traced)
            if used + statistics.median(w for _, w in plain) + statistics.median(w for _, w in traced) > budget_ns:
                break
    scales = [speed.scale(start, start + wall) for start, wall in traced]

    final = summaries[-1]
    metrics = {}
    # Every per-layer metric is printed on every workload.  A function this
    # workload never calls (or that the library no longer has) reads 0 calls
    # and 0 s; the comment lines not_exercised and absent name them.
    idle = [name for name in SPAN_NAMES if name not in recorder.absent and final["calls"][name] == 0]
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (final["calls"][name], "count")
        metrics[f"{name}.self_s"] = (statistics.median(s["self_s"][name] * k for s, k in zip(summaries, scales)), "s")
    # A ratio whose denominator is 0 here (no closed-form attempt, no
    # retrieval, no CSV) reads 0; the comment lines give its parts.
    attempts = final["closed_form_attempts"]
    metrics["spectral.fallback_frac"] = (final["oracle_fallbacks"] / attempts if attempts else 0.0, "fraction")
    metrics["protocols.cycle_applications_per_op"] = ((applications or 0) / last.ops, "1/op")
    csv = last.csv_bytes and all(csv_ns)
    metrics["cli.csv_bytes"] = (last.csv_bytes if csv else 0, "bytes")
    metrics["cli.csv_mb_per_s"] = (
        statistics.median(last.csv_bytes / 1e6 / (ns * k / 1e9) for ns, k in zip(csv_ns, scales)) if csv else 0.0,
        "MB/s",
    )
    plain_s = statistics.median(w * speed.scale(start, start + w) / 1e9 for start, w in plain)
    traced_s = statistics.median(w * k / 1e9 for (_, w), k in zip(traced, scales))
    facts = {
        "passes": len(traced),
        "untraced_wall_s": plain_s,
        "traced_wall_s": traced_s,
        # A difference of two medians: within their noise it can come out negative.
        "trace_overhead_s": traced_s - plain_s,
        "calls_repeat": all(s["calls"] == final["calls"] for s in summaries),
        "closed_form_attempts": attempts,
        "oracle_fallbacks": final["oracle_fallbacks"],
        "cycle_applications": applications,
        "not_exercised": ", ".join(idle) or "none",
        "absent": ", ".join(recorder.absent) or "none",
        "spans": len(recorder.spans),
        "gauge_ms": speed.readings,
    }
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{wl.name}-seed{args.seed}.tsv")
    recorder.write(spans_path)
    facts["spans_file"] = os.path.relpath(spans_path, ROOT)
    return metrics, tally, facts


def report(args, metrics: dict, tally: Tally, facts: dict, meta: dict) -> dict:
    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for key, value in meta.items():
        print(f"# {key}: {value}")
    for key, value in facts.items():
        if isinstance(value, list) and len(value) > 8:
            value = f"{len(value)} values, {min(value):.6g} to {max(value):.6g} (all in the result file)"
        print(f"# {key}: {value}")
    if tally.classes:
        print("# classes drawn: " + ", ".join(f"{k}={v}" for k, v in sorted(tally.classes.items())))
    for name, value in tally.maxima.items():
        print(f"# worst: {name} {value:.3e}")
    if tally.csv_sha256:
        print("# csv sha256: " + " ".join(tally.csv_sha256))
    for note in sorted(tally.notes):
        print(f"# not checked: {note}")
    for message in tally.messages:
        print(f"# FAILED: {message}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>16.6f} {unit}")
    print(f"{'failed_frac':<48} {tally.failed / tally.attempted:>16.6f} fraction ({tally.failed} of {tally.attempted} checked ops)")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_one(args) -> int:
    sys.path.insert(0, SRC)
    import workloads

    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    # The library logs each oracle fallback; a file keeps that cost steady
    # and off a stderr pipe that might not be drained.
    logging.basicConfig(filename=os.path.join(OUT, f"log-{stem}.txt"), filemode="w", level=logging.WARNING)
    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        speed = gauge.SpeedGauge()
        wl = workloads.WORKLOADS[args.workload](out_dir, speed.clock)
        if args.trace:
            metrics, tally, facts = trace(wl, speed, args)
        else:
            metrics, tally, facts = measure(wl, speed, args, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    meta = metadata()
    result = report(args, metrics, tally, facts, meta)
    with open(os.path.join(OUT, f"result-{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "meta": meta, "facts": facts, "worst": tally.maxima, "failures": tally.messages, **result}, fh, indent=1, default=str)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30, help="timed work per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(SRC, "cyclonet", "__init__.py")):
        print(f"error: no cyclonet sources at {os.path.relpath(SRC)}; run from a repository checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
