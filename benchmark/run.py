"""opsys benchmark: one workload, one closed-loop caller, one JSON result line.

    python3 benchmark/run.py --workload {search,construct,roundtrip} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; opsys is imported from ``src/``.
Inputs are generated from ``--seed``.  The run repeats whole rounds of the
workload's operations until ``--seconds`` of operation time have been spent,
checks every output with the numpy-only checker (outside the timed region),
and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the layers are wrapped by :mod:`tracing` and the metrics are per-layer,
per operation.  Run records and span files go to ``benchmark/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 3  # set-up is repeated and its median reported
IMPORT_PROBE = "import time; t = time.perf_counter(); import opsys; print(time.perf_counter() - t)"


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without starting git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads() -> dict:
    """Thread count each bundled OpenBLAS will use, asked of the library itself."""
    import numpy
    import scipy.linalg

    found = {}
    core = getattr(numpy, "_core", None) or numpy.core
    libs = {"numpy": core._multiarray_umath.__file__, "scipy": scipy.linalg._flapack.__file__}
    for owner, path in libs.items():
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[owner] = fn()
                break
    return found


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                  "MKL_NUM_THREADS") if k in os.environ},
    }


def import_seconds() -> float:
    """Time to import opsys in a fresh interpreter (interpreter start-up excluded)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def run_op(op, tracer):
    """Run one operation; returns (seconds, output, error text or None)."""
    start = time.perf_counter()
    try:
        if tracer is None:
            out = op.run()
        else:
            with tracer.root(f"op:{op.family}"):
                out = op.run()
        return time.perf_counter() - start, out, None
    except Exception as exc:  # a failed operation is counted, and the run goes on
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["search", "construct", "roundtrip"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "opsys" / "__init__.py").is_file():
        print(f"opsys sources not found under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import opsys  # noqa: F401  (in-process import; its cost is measured in a fresh child)
    import tracing
    import workloads

    work = OUT / f"work-{args.workload}"
    work.mkdir(parents=True, exist_ok=True)
    build = workloads.BUILDERS[args.workload]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    setups, setup_parts, ops = [], [], None
    for _ in range(1 if tracer else SETUP_REPS):
        ops = None  # the previous repetition's inputs are freed before the next is built
        imported = import_seconds()
        start = time.perf_counter()
        if tracer is None:
            ops = build(args.seed, work)
        else:
            with tracer.root("setup"):
                ops = build(args.seed, work)
        built = time.perf_counter() - start
        setups.append(imported + built)
        setup_parts.append({"import_s": imported, "build_s": built})
    setup_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Warm-up: one operation of each family, untimed, so lazy imports and
    # first-call costs stay out of the figures.
    warm = {}
    for op in ops:
        warm.setdefault(op.family, op)
    for op in warm.values():
        run_op(op, tracer)
    if tracer:
        tracer.reset_stats()

    latencies, by_label, errors, wrong = [], {}, {}, {}
    attempted = failed = 0
    timed = 0.0
    rounds = 0
    while timed < args.seconds:
        rounds += 1
        for op in ops:
            seconds, out, error = run_op(op, tracer)
            timed += seconds
            attempted += 1
            if error is not None:
                failed += 1
                errors.setdefault(op.label, error)
                continue
            latencies.append(seconds)
            by_label.setdefault(op.label, []).append(1e3 * seconds)
            problem = op.check(out)
            if problem is not None:
                wrong.setdefault(op.label, problem)

    ops_per_s = (attempted - failed) / timed
    if tracer is None:
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "latency_p50_ms": {"value": 1e3 * statistics.median(latencies), "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    else:
        metrics = tracer.per_op_metrics(attempted)
        metrics["bench.traced_ops_per_s"] = {"value": ops_per_s, "unit": "1/s"}
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    result = {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "rounds": rounds, "ops_per_round": len(ops), "timed_s": timed,
        "setup": setup_parts, "setup_peak_rss_mb": setup_rss_mb,
        "env": environment(), "failed_ops": errors, "wrong_outputs": wrong, "result": result,
        "median_ms_by_op": {label: statistics.median(ms) for label, ms in by_label.items()},
    }
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for label, problem in wrong.items():
        print(f"WRONG {label}: {problem}", file=sys.stderr)
    for label, error in errors.items():
        print(f"FAILED {label}: {error}", file=sys.stderr)
    print("env " + json.dumps(record["env"], sort_keys=True))
    print(json.dumps(result))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
