#!/usr/bin/env python3
"""dualsim benchmark runner: one workload, one process, one closed loop.

    python3 benchmarks/run.py --workload train-default --seed 1 --seconds 28 --trace 0

Workloads (defined, with the reason each was chosen, in ``workloads.py``):
``train-default``, ``train-wide``, ``verify`` and ``simulate``. The run
imports the library from ``src/`` of this checkout, sets the workload up
``SETUP_REPS`` times (inputs, golden checks and a discarded warm-up op),
then runs ops back to back for ``--seconds`` and checks every op's output.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates traced and untraced ops: the traced ones give
the per-layer metrics from spans, and the two halves give the tracing
overhead. The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

The line before it is a report with the environment, sample counts,
metrics that are not gated (``op_s_tail``, ``fail_frac``, throughput in
its own unit), per-span self times and the layer -> metric map; the same
report is written to ``out/<workload>-trace<0|1>.json`` next to this file
and a traced run's spans to ``out/spans-<workload>.npz``.

Exit codes: 0 all ops correct, 1 some op failed or raised, 2 the run could
not start (no source in the checkout, a golden file with the wrong hash,
bad arguments).
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from array import array  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

try:
    import workloads as wl  # first: it pins BLAS threads before numpy loads
except ImportError as e:
    wl, IMPORT_ERROR = None, e

import numpy as np  # noqa: E402

import tracing  # noqa: E402

IMPORT_S = time.perf_counter() - T0

WORKLOADS = ("train-default", "train-wide", "verify", "simulate")
SETUP_REPS = 3
MIN_TAIL_OPS = 10
OUT_DIR = Path(__file__).resolve().parent / "out"


def is_traced(i: int) -> bool:
    """Traced runs trace ops in pairs, two on and two off, which keeps both
    halves balanced over inputs that alternate in kind (simulate)."""
    return (i // 2) % 2 == 0


@dataclass
class OpLog:
    """Per-op durations (8 bytes an op, so memory barely depends on op count)."""

    durations: array = field(default_factory=lambda: array("d"))
    work: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.durations)


def run_ops(workload, seconds: float, tracer: tracing.Tracer | None = None) -> OpLog:
    """Closed loop: each op starts when the previous one has returned.

    A traced run holds at least one traced and one untraced op, and stops
    tracing once the span log is full.
    """
    inputs = workload.inputs()
    log = OpLog()
    min_ops = 3 if tracer is not None else 1
    start = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - start < seconds:
        x = inputs[i % len(inputs)]
        traced = tracer is not None and is_traced(i) and not tracer.full
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.op(i):
                    out = workload.op(x)
            else:
                out = workload.op(x)
            dt = time.perf_counter() - t0
            ok = workload.check(x, out)
        except Exception:  # an op that raises is a failed op; the loop goes on
            dt = time.perf_counter() - t0
            ok = False
            if len(log.errors) < 3:
                log.errors.append(traceback.format_exc())
        log.durations.append(dt)
        log.work += workload.work(x)
        log.failed += not ok
        i += 1
    return log


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def op_stats(log: OpLog, workload) -> dict:
    """Per-op statistics for the report, including the ungated ones."""
    d = np.frombuffer(log.durations, dtype=np.float64)
    tail_percentile = workload.tail_percentile
    stats = {
        "ops": log.attempted,
        "op_s_p10": float(np.percentile(d, 10)),
        "op_s_p50": float(np.median(d)),
        "op_s_p90": float(np.percentile(d, 90)),
        "op_s_tail": None,
        workload.throughput: log.work / float(d.sum()),
        "fail_frac": log.failed / log.attempted,
    }
    if tail_percentile is not None and d.size * (100.0 - tail_percentile) / 100.0 >= MIN_TAIL_OPS:
        stats["op_s_tail"] = {
            "percentile": tail_percentile, "value": float(np.percentile(d, tail_percentile)),
        }
    if d.size <= 200:
        stats["op_s_all"] = d.tolist()
    return stats


def end_to_end_metrics(setup_s: float, rss_mb: float) -> dict[str, dict]:
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def per_layer_metrics(table, log: OpLog) -> dict[str, dict]:
    """Per-layer metrics from the traced ops; 0 where a layer is idle."""
    t = table
    sup, dual, multi = (
        "learner.train_supervised", "learner.dual_learning", "learner.multistep_dual_learning",
    )
    builds = ("outcome_model.build_dual_joint", "outcome_model.build_triple_joint")
    predicts = (
        "theory.predict_dual", "theory.predict_multistep",
        "theory.proportional_policy", "theory.proportional_dual_accuracy",
    )
    mc, cu = "oracle.monte_carlo", "oracle.counter_uniforms"

    def per_step(name: str) -> float:
        steps = t.total_work(name)
        return t.total(name) / steps * 1e6 if steps else 0.0

    # compare traced and untraced ops up to the last traced one, so that a
    # full span log does not set early traced ops against late untraced ones
    durations = np.frombuffer(log.durations, dtype=np.float64)[: int(t.ops.max()) + 3]
    traced = np.zeros(durations.size, dtype=bool)
    traced[t.ops] = True
    samples = t.total_work(mc)
    values = {
        "synth_lang.generate_world_ms": (t.per_call_median("synth_lang.generate_world") * 1e3, "ms"),
        "synth_lang.build_corpus_ms": (t.per_call_median("synth_lang.build_corpus") * 1e3, "ms"),
        "learner.train_supervised_s": (t.per_op_median(sup), "s"),
        "learner.dual_learning_s": (t.per_op_median(dual), "s"),
        "learner.multistep_dual_learning_s": (t.per_op_median(multi), "s"),
        "learner.supervised_us_per_step": (per_step(sup), "us"),
        "learner.dual_us_per_step": (per_step(dual), "us"),
        "learner.multistep_us_per_step": (per_step(multi), "us"),
        "learner.calls.train_supervised": (t.calls_per_op(sup), "count"),
        "learner.calls.dual_learning": (t.calls_per_op(dual), "count"),
        "learner.calls.multistep_dual_learning": (t.calls_per_op(multi), "count"),
        "metrics.accuracy_ms": (t.per_call_median("metrics.accuracy") * 1e3, "ms"),
        "metrics.estimators_ms": (t.per_call_median("metrics.estimators") * 1e3, "ms"),
        "learner.evaluate_s": (t.per_op_median("learner.evaluate"), "s"),
        "outcome_model.joint_builds_per_draw": (t.calls_per_op(*builds), "count"),
        "outcome_model.build_joint_us": (t.per_call_median(*builds) * 1e6, "us"),
        "theory.predict_us": (t.per_call_median(*predicts) * 1e6, "us"),
        "oracle.enumerate_us": (
            t.per_call_median("oracle.enumerate_dual", "oracle.enumerate_triple") * 1e6, "us",
        ),
        "oracle.monte_carlo_ms": (t.per_call_median(mc) * 1e3, "ms"),
        "oracle.mc_ns_per_sample": (t.total(mc) / samples * 1e9 if samples else 0.0, "ns"),
        "oracle.counter_uniforms_share": (t.total(cu) / t.total(mc) if samples else 0.0, "ratio"),
        "oracle.counter_uniforms_calls": (t.calls_per_op(cu), "count"),
        "op.unattributed_s": (float(np.median(t.op_self)), "s"),
        # every workload does the same work in each op
        "op.s_p50": (float(np.median(durations[~traced])), "s"),
        "op.work_per_s": (log.work / log.attempted / float(durations[~traced].mean()), "1/s"),
        "trace.overhead_frac": (
            float(np.median(durations[traced]) / np.median(durations[~traced])) - 1.0, "ratio",
        ),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level = _read_text(str(index / "level")).strip()
        kind = _read_text(str(index / "type")).strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            sizes[f"L{level}"] = _read_text(str(index / "size")).strip()
    return sizes


def _git_commit(root: Path) -> str:
    head = _read_text(str(root / ".git" / "HEAD")).strip()
    if head.startswith("ref: "):
        head = _read_text(str(root / ".git" / head[5:])).strip()
    return head or "unknown"


def environment() -> dict:
    import dualsim

    cpu = next(
        (line.split(":", 1)[1].strip() for line in _read_text("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    src_files = sorted((wl.SRC / "dualsim").glob("*.py"))
    public = getattr(dualsim, "__all__", None)
    if public is None:
        public = [n for n, v in vars(dualsim).items()
                  if not n.startswith("_") and type(v).__name__ != "module"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "cache": _cache_sizes(),
        "blas_threads": {v: os.environ.get(v) for v in wl.BLAS_THREAD_VARS},
        "git_commit": _git_commit(wl.ROOT),
        "src_dualsim_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src_files),
        "public_api_size": len(public),
        "public_api_source": "__all__" if hasattr(dualsim, "__all__") else "public non-module names",
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if wl is None:
        print(f"error: cannot import the library from this checkout: {IMPORT_ERROR}", file=sys.stderr)
        return 2

    workload = wl.make_workloads()[args.workload]
    setup_times = []
    try:
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            workload.setup(args.seed)
            workload.warmup()
            setup_times.append(time.perf_counter() - t0)
    except wl.GoldenError as e:
        print(f"error: refusing to start: {e}", file=sys.stderr)
        return 2
    setup_s = IMPORT_S + float(np.median(setup_times))

    tracer = tracing.Tracer() if args.trace else None
    log = run_ops(workload, args.seconds, tracer)
    rss_mb = peak_rss_mb()
    if log.attempted == 0:
        print("error: no op was attempted", file=sys.stderr)
        return 1
    for err in log.errors:
        print(err, file=sys.stderr, end="")

    report = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input": workload.describe(),
        "setup": {"import_s": IMPORT_S, "reps_s": setup_times},
        "op_stats": op_stats(log, workload),
        "layers": workload.layers,
        "environment": environment(),
    }
    if tracer is None:
        metrics = end_to_end_metrics(setup_s, rss_mb)
    else:
        table = tracing.SpanTable(tracer)
        metrics = per_layer_metrics(table, log)
        report["traced_ops"] = table.n_ops
        report["self_s_per_op"] = table.self_seconds_per_op()
        report["unpatched"] = tracer.missing
        tracer.save(OUT_DIR / f"spans-{workload.name}.npz")
    report["metrics"] = metrics

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    text = json.dumps(report, sort_keys=True)
    (OUT_DIR / f"{workload.name}-trace{args.trace}.json").write_text(text + "\n", encoding="utf-8")
    print(text)
    correct = log.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
