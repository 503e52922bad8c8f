"""Benchmark driver: ``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``.

Run from the root of a source checkout.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it (``{"info": ...}``) records the environment, the tail percentile
and its sample count, the set-up samples and any failed op.  See
``perfbench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# One BLAS thread per process, whatever the caller's shell says, before numpy
# is first imported: the driver and every worker it forks inherit it.  With
# OpenBLAS's default of one thread per core, 2 pool workers x 2 BLAS threads
# oversubscribe a 2-core machine and make every process-pool figure swing.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

from common import SCRATCH, child_pids  # noqa: E402

# Temporary files of the driver and its workers stay inside the checkout.
os.environ["TMPDIR"] = SCRATCH

WORKLOADS = ("table1_cold", "corner_sweep", "service_mixed")

#: Seconds the supervisor lets orphaned descendants exit on their own before
#: it kills them.
ORPHAN_GRACE_S = 20.0

#: ``prctl`` option that makes this process adopt its orphaned descendants.
PR_SET_CHILD_SUBREAPER = 36

#: Extra full set-ups, each in a fresh process, so ``setup_s`` is a median of
#: ``SETUP_PROBES + 1`` process-start-to-first-op times.
SETUP_PROBES = 2

E2E_UNITS = {
    "ops_per_s": "1/s",
    "latency_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Small models for the benchmark's own tests.
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    # Internal: the measuring process, started by the supervisor.
    parser.add_argument("--inner", action="store_true", help=argparse.SUPPRESS)
    # Internal: set up, report the set-up time, tear down.
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _environment():
    import multiprocessing

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - older numpy: no dict form
        blas_build = "unknown"
    return {
        "nproc": os.cpu_count(),
        "blas": blas_build,
        "blas_threads": {
            name: os.environ[name]
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "start_method": multiprocessing.get_start_method(),
    }


def _setup_probes(args):
    """Set the workload up in fresh processes; returns their set-up times."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--inner", "--setup-only",
    ] + (["--tiny"] if args.tiny else [])
    samples, exit_noise = [], 0
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=150
        )
        if probe.returncode != 0:
            sys.stderr.write(probe.stderr)
            raise SystemExit(f"set-up probe failed with exit code {probe.returncode}")
        samples.append(json.loads(probe.stdout.strip().splitlines()[-1])["setup_s"])
        exit_noise += probe.stderr.count("Bad file descriptor")
    return samples, exit_noise


def _reap_descendants(grace: float) -> None:
    """Wait until no child is left; after ``grace`` seconds, kill the rest.

    As a subreaper this process adopts every orphaned descendant, so "no
    child left" means no process the benchmark started is still running.
    """
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() >= deadline:
            for child in child_pids(str(os.getpid())):
                try:
                    os.kill(int(child), signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def _supervise(argv) -> int:
    """Run the benchmark in a child and outlive every process it starts.

    ``BatchRunner`` and ``PassivityService`` shut their pools down without
    waiting, and ``multiprocessing`` leaves its ``resource_tracker`` to exit
    after the process that started it, so the measuring process alone would
    return while some of its descendants still run.
    """
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        print(f"prctl(PR_SET_CHILD_SUBREAPER) failed: {os.strerror(ctypes.get_errno())}",
              file=sys.stderr)
        return 2

    def _terminate(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, _terminate)
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--inner"] + list(argv), cwd=ROOT
    )
    grace = 0.0
    try:
        code = child.wait()
        grace = ORPHAN_GRACE_S
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        _reap_descendants(grace)
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv)
    if not args.inner:
        return _supervise(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no repro sources under {SRC}: run from a source checkout",
              file=sys.stderr)
        return 2
    os.makedirs(SCRATCH, exist_ok=True)
    sys.path.insert(0, SRC)
    if args.setup_only:
        start = _PROCESS_START
        probe_samples, exit_noise = [], 0
    else:
        probe_samples, exit_noise = _setup_probes(args)
        start = time.perf_counter()

    import importlib

    import repro
    from common import TreeMemory, median, tail

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = importlib.import_module(args.workload)
    setup = workload.Setup(args.seed, args.seconds, args.tiny)
    setup_s = time.perf_counter() - start
    if args.setup_only:
        setup.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    memory = TreeMemory()
    try:
        outcome = workload.measure(setup, args.seconds, bool(args.trace), memory)
        memory.sample()
    finally:
        setup.close()

    tail_value, tail_pct, tail_beyond = tail(outcome.latencies)
    setup_samples = probe_samples + [setup_s]
    if args.trace:
        metrics = {
            name: {"value": float(outcome.layers.get(name, 0.0)), "unit": unit}
            for name, unit in workload_layer_units().items()
        }
    else:
        metrics = {
            "ops_per_s": len(outcome.latencies) / outcome.elapsed,
            "latency_s": median(outcome.latencies),
            "latency_tail_s": tail_value,
            "peak_rss_mb": memory.peak_mb,
            "setup_s": median(setup_samples),
        }
        metrics = {
            name: {"value": float(value), "unit": E2E_UNITS[name]}
            for name, value in metrics.items()
        }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(),
        "ops_completed": len(outcome.latencies),
        "elapsed_s": outcome.elapsed,
        "tail_percentile": tail_pct,
        "tail_samples_beyond": tail_beyond,
        "setup_samples_s": setup_samples,
        "exit_bad_fd_messages": exit_noise,
        "failures": outcome.failures[:20],
        "notes": outcome.notes,
    }
    print(json.dumps({"info": info}, default=str))
    print(json.dumps({
        "correct": not outcome.failures and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": metrics,
    }))
    return 0


def workload_layer_units():
    """Every per-layer metric of every workload, with its unit.

    A traced run prints all of them; a layer its workload never drives
    reads 0 (see the README).
    """
    import corner_sweep
    import service_mixed
    import table1_cold

    units = {}
    for module in (table1_cold, corner_sweep, service_mixed):
        units.update(module.LAYER_UNITS)
    units["trace_overhead_s"] = "s"
    return units


if __name__ == "__main__":
    sys.exit(main())
