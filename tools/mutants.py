"""Mutation-kill gate: every catalogued one-line mutant of ``src/dualsim``
must make the tier-1 suite fail.

Each mutant is a ``(file, old, new)`` replacement that must match exactly
once in its file, so a moved or edited line fails the gate loudly instead
of being skipped. For each mutant, ``src/``, ``tests/`` and
``pyproject.toml`` are copied to a temporary directory, the replacement is
applied there, and tier-1 runs on the copy with ``-x``. The unmutated copy
runs first, so a suite that already fails cannot kill anything by accident.

A run that outlasts ``TIMEOUT_S`` is stopped and reported as timed out;
for a mutant that counts as killed (a mutant that makes the suite hang
is caught), for the unmutated copy it is a failure.

Exit status 0 when every mutant is killed; 1 when one survives, does not
apply, or the unmutated suite fails.

    python3 tools/mutants.py

Removing a mutant from the catalogue needs a line in CHANGES.md saying why.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# name: (file under src/dualsim, old text, new text)
MUTANTS = {
    # the kept-reconstruction warning threshold
    "M7": ("learner.py", "rep.eta_hat < 0.8:", "rep.eta_hat < 0.7:"),
    # the sign of the summary's consecutive-phase gain
    "M11": ("cli.py", "means[second] - means[base]", "means[base] - means[second]"),
    # verify skips the dependent half of its triple checks
    "M16": ("cli.py", "for with_dep in (False, True):", "for with_dep in (True,):"),
    # the errata's case-1.2 shortcut flips its lam2 term
    "M18": ("oracle.py", "(1.0 - q2 * q3 - l1 + l2)", "(1.0 - q2 * q3 - l1 - l2)"),
    # the census swaps its 01 and 00r rows
    "census-01-00r": (
        "metrics.py",
        "[c11, hop1 - c11, hop2 - c11, back - c11,",
        "[c11, hop1 - c11, back - c11, hop2 - c11,",
    ),
    # the census's greedy home test inverted
    "census-home": ("metrics.py", "(ends[law] == clusters)", "(ends[law] != clusters)"),
    # the census's 00-not row loses the factor on its doubly subtracted 11 mass
    "census-00n": ("metrics.py", "+ 2.0 * c11]", "+ c11]"),
}

# a few times the 30-40 s that one tier-1 run takes
TIMEOUT_S = 300

TIER1 = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]


def copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    shutil.copytree(ROOT / "tests", dest / "tests", ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def apply(dest: Path, name: str) -> str | None:
    """Apply mutant ``name`` in the copy at ``dest``; return an error, or None."""
    file, old, new = MUTANTS[name]
    path = dest / "src" / "dualsim" / file
    text = path.read_text(encoding="utf-8")
    found = text.count(old)
    if found != 1:
        return f"{file}: {old!r} matches {found} times, not once"
    path.write_text(text.replace(old, new), encoding="utf-8")
    return None


def tier1(dest: Path) -> int | None:
    """Run tier-1 on the copy at ``dest``, its own src/ first on the path;
    its exit status, or None when it outlasts ``TIMEOUT_S``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(dest / "src"), env.get("PYTHONPATH")]))
    try:
        run = subprocess.run(
            [sys.executable, *TIER1], cwd=dest, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None
    return run.returncode


def outcome(name: str | None) -> tuple[bool, str]:
    """Run tier-1 on a fresh copy, mutated by ``name`` unless it is None.
    Returns whether the run went as it must (the unmutated suite passes; a
    mutant makes a test fail, pytest exiting 1, or times out) and what
    happened."""
    with tempfile.TemporaryDirectory(prefix="dualsim-mutant-") as tmp:
        dest = Path(tmp)
        copy_tree(dest)
        error = apply(dest, name) if name else None
        if error:
            return False, error
        code = tier1(dest)
    if code is None:
        return name is not None, "timed out"
    if code == (1 if name else 0):
        return True, "killed" if name else "passes"
    return False, {0: "survived", 1: "tier-1 fails"}.get(code, f"pytest exited {code}")


def main() -> int:
    survivors = []
    for name in [None, *MUTANTS]:
        start = time.perf_counter()
        ok, what = outcome(name)
        print(f"{name or 'unmutated'}: {what} ({time.perf_counter() - start:.1f} s)", flush=True)
        if not ok and name is None:
            return 1
        if not ok:
            survivors.append(name)
    print(f"not killed: {survivors}" if survivors else "every mutant killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
