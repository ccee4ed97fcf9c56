"""Running items in-process, checking them, and summarising their timings.

Every item is one ``supermod.cli.main(argv)`` call with stdout and stderr
captured.  Its outcome is the exit code (an exception that escapes ``main``
reads as exit 1, which is what the interpreter would return) and the
SHA-256 of the report bytes written to stdout.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import Item

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXPECTED = Path(__file__).resolve().parent / "expected.json"

#: percentiles the latency tail may be reported at, highest last
TAIL_GRID = (50, 75, 90, 95, 99)
#: a run always completes at least this many passes over its items
MIN_PASSES = 3


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no source tree, no expectations)."""


def import_cli():
    """Import ``supermod.cli`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "supermod" / "cli.py").is_file():
        raise SetupError(f"no supermod source tree under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import supermod.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "supermod").resolve():
        raise SetupError(f"supermod was imported from {cli.__file__}, not {SRC}")
    return cli


def load_expected() -> dict:
    if not EXPECTED.is_file():
        raise SetupError(f"missing {EXPECTED.name}; run with --record first")
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# one item

@dataclass
class Outcome:
    exit: int
    sha256: str
    seconds: float
    error: str | None = None


def run_item(cli, item: Item) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    os.environ["SUPERMOD_SEED"] = str(item.env_seed)
    error = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(item.argv))
        except Exception as exc:  # an escaping exception is a traceback exit
            code, error = 1, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    return Outcome(code, digest, seconds, error)


def matches(outcome: Outcome, expected: dict | None) -> bool:
    return (expected is not None and outcome.error is None
            and outcome.exit == expected["exit"]
            and outcome.sha256 == expected["sha256"])


# ----------------------------------------------------------------------
# the closed loop

@dataclass
class LoopResult:
    pass_seconds: list[float]
    latencies: dict[str, list[float]]  # item key -> seconds, one per pass
    attempted: int
    failed: int
    failures: dict[str, Outcome]


def closed_loop(cli, items: list[Item], expected: dict, seconds: float,
                min_passes: int = MIN_PASSES, max_passes: int | None = None,
                run=run_item) -> LoopResult:
    """Run the item list in order, again and again, one item at a time.

    Each item starts when the previous one has finished.  After
    ``min_passes`` passes, another pass starts only if one more pass as
    long as the last is expected to end within ``seconds``; a pass is
    never cut short.
    """
    result = LoopResult([], {}, 0, 0, {})
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for item in items:
            outcome = run(cli, item)
            result.attempted += 1
            result.latencies.setdefault(item.key, []).append(outcome.seconds)
            if not matches(outcome, expected.get(item.key)):
                result.failed += 1
                result.failures.setdefault(item.key, outcome)
        now = time.perf_counter()
        result.pass_seconds.append(now - pass_start)
        done = len(result.pass_seconds)
        if max_passes is not None and done >= max_passes:
            return result
        if done >= min_passes and now - start + result.pass_seconds[-1] > seconds:
            return result


# ----------------------------------------------------------------------
# statistics

def tail_percentile(items_per_pass: int) -> int:
    """Highest grid percentile with at least ten samples beyond it.

    It is fixed by the workload's item count and the guaranteed pass count,
    not by how many passes a run happened to fit, so it never jumps between
    runs of one workload.
    """
    n = items_per_pass * MIN_PASSES
    best = TAIL_GRID[0]
    for p in TAIL_GRID:
        if n - _rank(p, n) >= 10:
            best = p
    return best


def _rank(p: float, n: int) -> int:
    """1-based nearest-rank index of the p-th percentile of n samples."""
    return max(1, min(n, -(-p * n // 100)))


def latency_percentile(latencies: dict[str, list[float]], p: float) -> float:
    """The p-th percentile over items of each item's median latency.

    Taking each item's median over the passes first, and interpolating
    between neighbouring items, keeps the value from jumping between two
    items of different cost when the percentile falls on their boundary.
    """
    medians = sorted(statistics.median(v) for v in latencies.values())
    pos = (len(medians) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(medians) - 1)
    return medians[lo] + (medians[hi] - medians[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# set-up time, from a fresh interpreter

def measure_setup(workload: str, seed: int, samples: int, smoke: bool) -> list[float]:
    """Seconds from spawning an interpreter until its first item could start.

    The child imports ``supermod.cli`` and builds the item list, then prints
    CLOCK_MONOTONIC, which the parent read just before spawning it.
    """
    script = Path(__file__).resolve().parent / "run.py"
    argv = [sys.executable, str(script), "--setup-probe", "--workload", workload,
            "--seed", str(seed)] + (["--smoke"] if smoke else [])
    times = []
    for _ in range(samples):
        start = time.monotonic()
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if done.returncode != 0:
            raise SetupError(f"set-up probe failed: {done.stderr.strip()[-400:]}")
        times.append(float(done.stdout.split()[-1]) - start)
    return times


# ----------------------------------------------------------------------
# machine and build

def machine_info() -> dict:
    import sympy
    from sympy.external.gmpy import GROUND_TYPES

    src_lines = sum(len(path.read_text(encoding="utf-8").splitlines())
                    for path in sorted((SRC / "supermod").glob("*.py")))
    return {
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "groundTypes": GROUND_TYPES,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "srcLines": src_lines,
    }
