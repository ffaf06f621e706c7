"""Benchmark of sst, run from the root of a source checkout:

    python3 perfbench/run.py --workload c07_train --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the traced probes and reports the per-layer metrics instead.  Human-
readable lines come first; the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  Spans of a traced run are
written to perfbench/out/.
"""

import os

# BLAS must be pinned before numpy is first imported: one thread, so the
# benchmark starts no threads besides its own.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from helpers import Ledger  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
WORKLOAD_NAMES = ("c07_train", "long_seq", "cli_pipeline")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="Benchmark of the sst package.")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measurement window of one run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def os_threads() -> int | str:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return "unknown"


def machine_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import sst
        import sst.cli  # noqa: F401
    except ImportError as err:
        print(f"error: cannot import sst from {ROOT / 'src'}: {err}", file=sys.stderr)
        return 2
    if not Path(sst.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported sst from {sst.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - started

    import workloads

    print("machine " + json.dumps(machine_info()))
    ledger = Ledger()
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    run = workloads.Run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                        work, ledger, import_s, [])
    metrics, crashed = {}, None
    try:
        if args.trace:
            import probes

            metrics = probes.measure(run, OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            metrics = workloads.measure(run)
    except Exception as err:  # a crash is reported as a failed operation
        traceback.print_exc()
        crashed = f"{type(err).__name__}: {err}"
        ledger.check(False, crashed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for note in run.notes:
        print(note)
    print(f"os threads at exit: {os_threads()}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<34} {value:>14.6g} {unit}")
    print(f"{'failed_ops_ratio':<34} {ledger.ratio:>14.6g} "
          f"({ledger.failed} of {ledger.attempted} operations)")
    for what in ledger.errors[:20]:
        print(f"FAILED: {what}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if crashed else 0


if __name__ == "__main__":
    sys.exit(main())
