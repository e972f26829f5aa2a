"""Benchmark of the image -> profile -> forest pipeline, end to end and per
layer.

Usage, from the root of a checkout::

    python3 bench/run.py --workload classify-m --seed 1 --seconds 20 --trace 0

The workloads are defined in ``bench/inputs.py``; their inputs are generated
from ``--seed`` and cached under ``.bench_data/``.  One pass is one
``treeprofiles.cli.main(argv)`` call, run in a fresh worker process
(``bench/worker.py``) for ``--seconds`` seconds.

``--trace 0`` reports the end-to-end metrics: median pass time, median
import time of the package in fresh interpreters started between the passes,
the worker's peak RSS, and the OA and kappa of the report.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics of
``bench/tracing.py``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the input sizes, the report digest and the environment.
"""

from __future__ import annotations

import os

# BLAS pools must be sized before numpy is first imported, here or in a child.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DATA_DIR = ROOT / ".bench_data"
WORKER_TIMEOUT_S = 170

sys.path.insert(0, str(BENCH_DIR))
from inputs import WORKLOADS, prepare  # noqa: E402
from tracing import COUNT_METRICS, TIME_METRICS  # noqa: E402


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _run_worker(workload, inputs: dict, seed: int, seconds: int,
                trace: bool, data_dir: Path) -> dict:
    run_dir = data_dir / "runs" / f"{workload.name}-seed{seed}-trace{int(trace)}"
    run_dir.mkdir(parents=True, exist_ok=True)
    config = {
        "argv": workload.argv(inputs["files"], seed, run_dir / "out"),
        "out": str(run_dir / "out"),
        "seconds": seconds,
        "trace": trace,
        "min_passes": 2 if trace else 3,
        "result": str(run_dir / "result.json"),
        "spans": str(run_dir / "spans.jsonl"),
    }
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=1))
    (run_dir / "result.json").unlink(missing_ok=True)
    subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"),
                    str(config_path)], env=_child_env(), check=True,
                   timeout=WORKER_TIMEOUT_S)
    return json.loads((run_dir / "result.json").read_text())


def _end_to_end(result: dict) -> dict:
    report = result["report"] or {"oa": 0.0, "kappa": 0.0}
    return {
        "wall_s": (statistics.median(result["untraced_s"]), "s"),
        "setup_s": (statistics.median(result["setup_s"]), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
        "oa": (report["oa"], "fraction"),
        "kappa": (report["kappa"], "fraction"),
    }


def _per_layer(result: dict) -> dict:
    passes = result["traced_passes"]
    metrics = {name: (statistics.median(p["times"][name] for p in passes), "s")
               for name in TIME_METRICS}
    # counts repeat exactly from pass to pass; the first traced pass stands
    metrics.update({name: (passes[0]["counts"][name], "count")
                    for name in COUNT_METRICS})
    metrics["profiles.filter_distinct_ratio"] = (
        passes[0]["filter_distinct_ratio"], "ratio")
    traced = statistics.median(result["traced_s"])
    metrics["trace.wall_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (
        traced - statistics.median(result["untraced_s"]), "s")
    return metrics


def _environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        **{var: os.environ[var] for var in THREAD_VARS},
    }


def main(argv=None, workloads=WORKLOADS, data_dir: Path = DATA_DIR) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "treeprofiles" / "cli.py").is_file():
        print(f"error: no treeprofiles sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # input generation uses the package

    workload = workloads[args.workload]
    trace = bool(args.trace)
    inputs = prepare(workload, args.seed, data_dir)
    result = _run_worker(workload, inputs, args.seed, args.seconds, trace,
                         data_dir)
    metrics = _per_layer(result) if trace else _end_to_end(result)
    if result["report"]:
        inputs["sizes"]["stack_dim"] = result["report"]["dim"]
    passes = result["untraced_s"] + result["traced_s"]
    for failure in result["failures"]:
        print(f"failed pass: {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6f} {unit}")
    print(json.dumps({
        "workload": workload.name, "seed": args.seed, "trace": trace,
        "passes": {"untraced": len(result["untraced_s"]),
                   "traced": len(result["traced_s"])},
        "pass_s": {"untraced": result["untraced_s"],
                   "traced": result["traced_s"]},
        "setup_s": result["setup_s"],
        "sizes": inputs["sizes"],
        "report_sha256": result["report_sha256"],
        "environment": _environment(),
    }, sort_keys=True))
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": len(passes),
        "failed": len(result["failures"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
