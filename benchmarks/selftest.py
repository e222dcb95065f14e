#!/usr/bin/env python3
"""Self-test of the benchmark's correctness gates and input generation.

    python3 benchmarks/selftest.py

Checks that:

- a corrupted golden row, a NaN formula/enumeration difference and a
  wrong Monte Carlo count each give ``fail_frac > 0``, while the true
  references give 0;
- a golden file whose bytes changed makes the runner refuse to start;
- a different workload seed changes the inputs but not the per-op counts
  (calls per span name and work per op);
- the metrics the runner reports are exactly those ``BENCHMARK.json``
  lists.

Prints one PASS/FAIL line per check and exits 1 if any fails. Takes
about half a minute.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import sys

import workloads as wl  # first: it pins BLAS threads before numpy loads

import run
import tracing

FAILURES: list[str] = []


def check(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail and not ok else ''}")
    if not ok:
        FAILURES.append(name)


def fail_frac(workload, seconds: float = 0.0) -> float:
    log = run.run_ops(workload, seconds)
    return log.failed / log.attempted


def corrupted_golden_row() -> None:
    w = wl.make_workloads()["train-wide"]
    w.setup(1)
    check("train golden rows: true rows pass", fail_frac(w) == 0.0)
    seed = w.order[0]
    acc, est = w.golden[seed]
    row = list(acc[0])
    row[4] = repr(math.nextafter(float(row[4]), math.inf))
    acc[0] = tuple(row)
    check("train golden rows: a row one ulp off fails", fail_frac(w) > 0.0)


def nan_difference() -> None:
    w = wl.make_workloads()["verify"]
    w.setup(1)
    check("verify: true formulas pass", fail_frac(w, 0.05) == 0.0)
    original = wl.theory.predict_dual

    def nan_predict(params, policy):
        return dataclasses.replace(original(params, policy), p_d12=math.nan)

    wl.theory.predict_dual = nan_predict
    try:
        check("verify: a NaN difference fails", fail_frac(w, 0.05) > 0.0)
    finally:
        wl.theory.predict_dual = original


def wrong_mc_count() -> None:
    w = wl.make_workloads()["simulate"]
    w.setup(1)
    check("simulate: golden counts pass", fail_frac(w) == 0.0)
    first = w.order[0]
    wrong = dataclasses.replace(first.golden, case11=first.golden.case11 + 1)
    w.order[0] = dataclasses.replace(first, golden=wrong)
    check("simulate: a count off by one fails", fail_frac(w) > 0.0)


def changed_golden_file() -> None:
    copy = run.OUT_DIR / "selftest-golden"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(wl.GOLDEN / "train-default", copy)
    try:
        wl.verify_golden_files(copy, wl.DEFAULT_PINNED)
        path = copy / "accuracy.csv"
        data = bytearray(path.read_bytes())
        data[-2] = ord("0") if data[-2] != ord("0") else ord("1")
        path.write_bytes(bytes(data))
        try:
            wl.verify_golden_files(copy, wl.DEFAULT_PINNED)
            refused = False
        except wl.GoldenError:
            refused = True
        check("golden files: a changed byte refuses the run", refused)
    finally:
        shutil.rmtree(copy, ignore_errors=True)


def op_counts(workload, seed: int) -> tuple[list, dict, tracing.SpanTable]:
    """Set up for a seed and trace its first op: (inputs, per-op counts, spans)."""
    workload.setup(seed)
    inputs = workload.inputs()
    tracer = tracing.Tracer()
    with tracer.op(0):
        workload.op(inputs[0])
    table = tracing.SpanTable(tracer)
    counts = {
        name: (int(table.mask(name).sum()), table.total_work(name))
        for name in table.names if name != tracing.OP_SPAN
    }
    return inputs, counts, table


def seed_changes_inputs_not_counts() -> dict[str, tracing.SpanTable]:
    tables = {}
    for name, w in wl.make_workloads().items():
        inputs1, counts1, tables[name] = op_counts(w, 1)
        inputs2, counts2, _ = op_counts(w, 2)
        check(f"{name}: seed 2 draws other inputs than seed 1", repr(inputs1) != repr(inputs2))
        check(
            f"{name}: seed 2 has the op counts of seed 1",
            counts1 == counts2 and any(c for c, _ in counts1.values()),
            f"{counts1} != {counts2}",
        )
    return tables


def metric_names_match(table: tracing.SpanTable) -> None:
    with open(wl.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    log = run.OpLog(work=3)
    log.durations.extend([1.0, 1.0, 1.0])
    check(
        "BENCHMARK.json lists the workloads",
        [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS) == list(wl.make_workloads()),
    )
    e2e = run.end_to_end_metrics(1.0, 1.0)
    check(
        "BENCHMARK.json lists the end-to-end metrics",
        {m["name"]: m["unit"] for m in bench["end_to_end"]}
        == {k: v["unit"] for k, v in e2e.items()},
    )
    layer = run.per_layer_metrics(table, log)
    check(
        "BENCHMARK.json lists the per-layer metrics",
        {m["name"]: m["unit"] for m in bench["per_layer"]}
        == {k: v["unit"] for k, v in layer.items()},
    )
    mapped = {m for w in wl.make_workloads().values() for m in w.layers}
    check("every mapped layer metric is reported", mapped <= set(layer), str(mapped - set(layer)))


def main() -> int:
    corrupted_golden_row()
    nan_difference()
    wrong_mc_count()
    changed_golden_file()
    tables = seed_changes_inputs_not_counts()
    metric_names_match(tables["simulate"])
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
