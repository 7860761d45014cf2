"""The repository's benchmark: four SDE workloads, timed end to end.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload flood3 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seconds 30          # every workload, one table

Each repetition runs in a fresh interpreter (``rep.py``).  A run repeats
the workload until the next repetition would end after ``--seconds``, then
reports the median of every metric over the repetitions; ``setup_s``,
``run_s`` and ``cpu_s`` are scaled to the reference host's speed (see
``calibrate.py``).  Every repetition's answers (state, group, event,
instruction, query and prune counts and the canonical violation set) are
checked against ``expected.json``; a mismatch, an abort or a crash counts
as a failed repetition (``verdict_errors``).

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` alternates traced and untraced repetitions and reports the
per-layer metrics of the traced repetition with the median wall clock,
plus ``trace.overhead_ratio``.  The last line of output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--seed`` is recorded but changes no input: SDE explores every path of a
fixed scenario, so there is nothing to sample (see ``NOTES.md``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from calibrate import REFERENCE_S, kernel_seconds  # noqa: E402
from layers import PER_LAYER, REQUIRED_SPANS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: end-to-end metric -> unit (every one reported with tracing off)
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "peak_accounted_mb": "MB",
    "states": "count",
}

#: set-up is timed at least this many times per run (full repetitions
#: count), and its median reported: one import is too short to time
#: steadily.  The set-up-only repetitions run first, inside ``--seconds``.
SETUP_SAMPLES = 9
SETUP_ONLY_FIRST = 4
#: host-speed kernel passes between repetitions (see ``calibrate.py``)
KERNEL_PASSES = 3
#: no run may take longer than this, whatever ``--seconds`` says.
RUN_LIMIT_S = 170.0

#: the self times that, with gc and the unattributed rest, make up the
#: traced wall clock.
SELF_TIME_METRICS = (
    "vm.self_s",
    "solver.self_s",
    "mapping.self_s",
    "state.fork_s",
    "net.self_s",
    "failures.self_s",
    "reduce.self_s",
    "sample.self_s",
    "sched.self_s",
    "dist.self_s",
    "gc.self_s",
    "engine.unattributed_s",
)


class Repetitions:
    """Fresh-process repetitions of one workload, and their failures."""

    def __init__(self, workload: str, expected: dict, deadline: float) -> None:
        self.workload = workload
        self.expected = expected
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self._kernel_before = None

    def run(self, *flags):
        """One repetition; its result dict, or None if it failed.

        The result's ``scale`` converts its times to seconds on the
        reference host: the host-speed kernel is timed just before and
        just after the repetition (see ``calibrate.py``).
        """
        if self._kernel_before is None:
            self._kernel_before = self._kernel()
        result = self._run(flags)
        after = self._kernel()
        if result is not None:
            kernel_s = statistics.median(self._kernel_before + after)
            result["scale"] = REFERENCE_S / kernel_s
        self._kernel_before = after
        return result

    @staticmethod
    def _kernel():
        return [kernel_seconds() for _ in range(KERNEL_PASSES)]

    def _run(self, flags):
        self.attempted += 1
        command = [sys.executable, os.path.join(HERE, "rep.py"), self.workload]
        # A new session, so a timeout can kill the distributed workers too.
        proc = subprocess.Popen(
            command + list(flags),
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic())
            )
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return self._fail("repetition timed out")
        if proc.returncode != 0:
            return self._fail(f"repetition exited {proc.returncode}:\n{stderr}")
        result = json.loads(stdout.strip().splitlines()[-1])
        if "--setup-only" in flags:
            return result
        if result["verdict"] != self.expected:
            return self._fail(
                f"verdict mismatch:\n  got      {result['verdict']}"
                f"\n  expected {self.expected}"
            )
        return result

    def _fail(self, why: str):
        self.failed += 1
        print(f"[{self.workload}] FAILED: {why}", file=sys.stderr)
        return None


def _git_commit() -> str:
    """HEAD of the checkout's own git directory, without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "none"


def _source_digest() -> str:
    """SHA-256 over every source file of the program, path and content."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for directory, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def environment(workload: str, seed: int, traced: bool) -> dict:
    """The stamp every result carries: results from different boxes or
    code are not comparable, and must not be compared silently."""
    return {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


def measure_end_to_end(reps: Repetitions, seconds: float) -> dict:
    started = time.monotonic()
    setups = [reps.run("--setup-only") for _ in range(SETUP_ONLY_FIRST)]
    runs = []
    while True:
        began = time.monotonic()
        runs.append(reps.run())
        now = time.monotonic()
        if now + (now - began) > started + seconds:
            break
    runs = [r for r in runs if r is not None]
    setups = [r for r in setups if r is not None] + runs
    while len(setups) < SETUP_SAMPLES and time.monotonic() < reps.deadline:
        result = reps.run("--setup-only")
        if result is not None:
            setups.append(result)
    if not runs:
        return {}
    metrics, unscaled = {}, {}
    for name in ("setup_s", "run_s", "cpu_s"):
        sample = setups if name == "setup_s" else runs
        metrics[name] = statistics.median(r[name] * r["scale"] for r in sample)
        unscaled[name] = statistics.median(r[name] for r in sample)
    print("unscaled " + json.dumps(unscaled, sort_keys=True))
    for name in ("peak_rss_mb", "peak_accounted_mb"):
        metrics[name] = statistics.median(r[name] for r in runs)
    metrics["states"] = runs[0]["verdict"]["states.total"]
    return metrics


def measure_layers(reps: Repetitions, seconds: float, problems: list) -> dict:
    started = time.monotonic()
    traced, untraced = [], []
    while True:
        began = time.monotonic()
        for flags, bucket in ((("--traced",), traced), ((), untraced)):
            result = reps.run(*flags)
            if result is not None:
                bucket.append(result)
        now = time.monotonic()
        if now + (now - began) > started + seconds:
            break
    for run in traced:
        problems.extend(check_trace(reps.workload, run))
    if not traced or not untraced:
        return {}
    # One repetition's layers, so its self times still sum to its wall.
    walls = [run["run_s"] for run in traced]
    chosen = traced[walls.index(statistics.median_low(walls))]
    metrics = dict(chosen["layers"])
    metrics["trace.overhead_ratio"] = statistics.median(walls) / statistics.median(
        run["run_s"] for run in untraced
    )
    return metrics


def check_trace(workload: str, run: dict) -> list:
    """Loud failures of a traced repetition: a span that never fired where
    it must, or wall-clock time the layers do not account for."""
    problems = [
        f"spans of layer {layer!r} never fired on {workload}"
        for layer in REQUIRED_SPANS[workload]
        if not run["span_calls"].get(layer)
    ]
    metrics = run["layers"]
    total = sum(metrics[name] for name in SELF_TIME_METRICS)
    wall = metrics["trace.wall_s"]
    if abs(total - wall) > 1e-6 * max(wall, 1.0):
        problems.append(f"self times sum to {total:.6f}s, traced wall is {wall:.6f}s")
    return problems


def run_workload(workload: str, seed: int, seconds: float, traced: bool):
    """Measure one workload; its result object and its trace problems."""
    with open(os.path.join(HERE, "expected.json")) as handle:
        expected = json.load(handle)[workload]
    reps = Repetitions(workload, expected, time.monotonic() + RUN_LIMIT_S)
    print("env " + json.dumps(environment(workload, seed, traced), sort_keys=True))
    problems = []
    if traced:
        values = measure_layers(reps, seconds, problems)
        units = dict(PER_LAYER)
    else:
        values = measure_end_to_end(reps, seconds)
        units = END_TO_END
    for problem in problems:
        print(f"[{workload}] LIVENESS: {problem}", file=sys.stderr)
    for name, unit in units.items():
        if name in values:
            print(f"  {workload:<15} {name:<26} {values[name]:>16.6f} {unit}")
    print(
        f"  {workload:<15} {'verdict_errors':<26} {reps.failed:>16d} count"
        f" (of {reps.attempted} repetitions)"
    )
    result = {
        "correct": bool(values) and reps.failed == 0 and not problems,
        "attempted": reps.attempted,
        "failed": reps.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
            if name in values
        },
    }
    return result, bool(values), problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program to measure (src/repro is missing)",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    results, measured, problems = {}, True, False
    for name in names:
        results[name], ok, trouble = run_workload(
            name, args.seed, args.seconds, bool(args.trace)
        )
        measured = measured and ok
        problems = problems or bool(trouble)
    if not measured:
        return 1  # nothing measured: no result to print
    if args.workload:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, result in results.items()
                for metric, value in result["metrics"].items()
            },
        }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
