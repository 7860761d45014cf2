"""One repetition of one workload, in a fresh interpreter.

Usage: ``python3 perfbench/rep.py <workload> [--setup-only] [--traced]``
from the root of the repository; prints one JSON object.  ``run.py``
starts this script once per repetition, so every repetition pays the
import and set-up cost a user pays, and nothing warmed by an earlier
repetition (caches, interned expressions, heap) leaks into the next.
"""

import time

# Set-up is timed from here: before ``import repro``.
_STARTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    """The largest peak RSS of this process and its waited-for children
    (the distributed workers), in MiB.

    This process's own peak is read from ``VmHWM``: its ``ru_maxrss``
    also counts the parent that started it, as it was just before exec.
    """
    own_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    own_kib = int(line.split()[1])
    except OSError:
        pass
    children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own_kib, children_kib) / 1024.0


def main(argv) -> dict:
    name = argv[0]
    traced = "--traced" in argv
    tracer = None
    if traced:
        import layers

        tracer = layers.install()
    runnable, scenario = workloads.prepare(name)
    setup_s = time.perf_counter() - _STARTED
    if "--setup-only" in argv:
        return {"setup_s": setup_s}

    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    if tracer is not None:
        with tracer.root("engine"):
            report = runnable.run()
    else:
        report = runnable.run()
    run_s = time.perf_counter() - t0
    cpu_s = _cpu_seconds() - cpu0
    out = {
        "setup_s": setup_s,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(),
        "peak_accounted_mb": report.peak_accounted_bytes() / 1e6,
        "verdict": workloads.verdict(report, scenario),
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = layers.layer_metrics(tracer, report)
        out["span_calls"] = dict(tracer.calls)
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
