#!/usr/bin/env python3
"""Regenerate the benchmark's golden outputs from the current source.

    python3 benchmarks/make_golden.py

Writes ``golden/train-default`` and ``golden/train-wide`` with
``dualsim train`` (the latter from its committed ``config.json``) and
``golden/simulate/simulate.csv`` from ``oracle.monte_carlo``, then prints
the sha256 of every golden file. The runner pins those hashes in
``workloads.py``; the ``train-default`` ones must stay the ROADMAP values,
and any other change of output bits has to be declared when the pins are
updated. Takes about a minute.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io

import workloads as wl  # pins BLAS threads before numpy loads
from dualsim import cli, oracle
np = wl.np

SIMULATE_POOL_SEED = 1
SIMULATE_PAIRS = 16
SIMULATE_SAMPLES = 1_500_000


def write_train(name: str, config: str | None) -> None:
    argv = ["train", "--out", str(wl.GOLDEN / name)]
    if config is not None:
        argv += ["--config", str(wl.GOLDEN / name / config)]
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise SystemExit(f"dualsim train failed for {name}")


def simulate_rows() -> list[dict[str, str]]:
    """Draw the spec pool, then run each spec as the runner will rebuild it
    from its CSV row, so that the golden counts match that spec exactly."""
    rng = np.random.default_rng(SIMULATE_POOL_SEED)
    rows = []
    for _ in range(SIMULATE_PAIRS):
        for drawn in (
            oracle.GenerativeSpec(wl.draw_dual(rng), wl.draw_policy(rng)),
            oracle.GenerativeSpec(wl.draw_triple(rng, True), wl.draw_policy(rng)),
        ):
            p, pol = drawn.params, drawn.policy
            row = dict.fromkeys(wl.SIMULATE_FIELDS, "")
            if drawn.kind == "dual":
                row.update(p12=p.p12, p21r=p.p21r, **{"lambda": p.lam})
            else:
                row.update(q12=p.q12, q23=p.q23, q31=p.q31, lambda1=p.lam1, lambda2=p.lam2)
            row.update(delta=p.delta, alpha=pol.alpha, beta=pol.beta, gamma=pol.gamma)
            row = {k: repr(float(v)) if v != "" else "" for k, v in row.items()}
            row.update(kind=drawn.kind, n=str(SIMULATE_SAMPLES), seed=str(rng.integers(0, 2**63)))
            spec = wl.spec_from_row(row)
            result = oracle.monte_carlo(spec, SIMULATE_SAMPLES, int(row["seed"]))
            z = (result.accuracy - wl.exact_accuracy(spec)) / result.stderr
            if not abs(z) <= wl.MC_Z_LIMIT:
                raise SystemExit(f"Monte Carlo disagrees with enumeration (z={z!r}) for {spec}")
            c = result.counts
            row.update(
                case11=str(c.case11), case12=str(c.case12),
                case2_corrected=str(c.case2_corrected), case2_aligned=str(c.case2_aligned),
                case2_unreconstructed=str(c.case2_unreconstructed),
            )
            rows.append(row)
    return rows


def write_simulate() -> None:
    path = wl.GOLDEN / "simulate" / "simulate.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.DictWriter(fh, fieldnames=wl.SIMULATE_FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(simulate_rows())


def main() -> None:
    write_train("train-default", None)
    write_train("train-wide", "config.json")
    write_simulate()
    for path in sorted(wl.GOLDEN.rglob("*")):
        if path.is_file():
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(wl.BENCH_DIR)}")


if __name__ == "__main__":
    main()
