"""Self-check of the benchmark on tiny inputs.

Usage, from the root of a checkout::

    python3 bench/check.py

Every workload, scaled down to a few hundred pixels and a few forest trees,
runs untraced once and traced twice on one seed, then untraced and traced on
a second seed.  The check fails (exit 1) unless:

* each run prints exactly the metrics ``BENCHMARK.json`` lists for its mode,
  each with its unit, and no pass failed;
* no span's self time is negative, and the per-layer self times as printed
  sum to the printed ``trace.wall_s`` (the median traced pass, timed around
  the pass rather than from its spans) within 5 %;
* traced and untraced passes wrote byte-identical reports;
* every count repeats exactly across the two traced runs;
* the second seed prints the same metric set as the first.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import replace

import run

TINY = {name: replace(w, side=24 if w.bands else 32, train_fraction=0.2,
                      rf_trees=3)
        for name, w in run.WORKLOADS.items()}
CHECK_DIR = run.DATA_DIR / "check"
SEEDS = (1, 2)
SELF_TIME_TOLERANCE = 0.05
_COUNT_UNITS = ("count", "ratio")


def _run(name: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(info line, result line) of one tiny benchmark run."""
    argv = ["--workload", name, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv, workloads=TINY, data_dir=CHECK_DIR)
    if code != 0:
        raise SystemExit(f"{name} seed {seed} trace {trace}: exit {code}")
    *_, info, result = out.getvalue().splitlines()
    return json.loads(info), json.loads(result)


def _min_self_s(name: str, seed: int) -> float:
    path = CHECK_DIR / "runs" / f"{name}-seed{seed}-trace1" / "result.json"
    result = json.loads(path.read_text())
    return min(p["min_self_s"] for p in result["traced_passes"])


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    def expect(ok: bool, message: str) -> None:
        if not ok:
            problems.append(message)

    for name in TINY:
        metric_sets, digests = {seed: set() for seed in SEEDS}, set()
        for seed in SEEDS:
            counts = []
            for trace in (0, 1, 1) if seed == SEEDS[0] else (0, 1):
                info, result = _run(name, seed, trace)
                where = f"{name} seed {seed} trace {trace}"
                printed = {k: v["unit"] for k, v in result["metrics"].items()}
                expect(printed == expected[trace],
                       f"{where}: printed {printed}, expected {expected[trace]}")
                expect(result["correct"] and result["failed"] == 0,
                       f"{where}: {result['failed']} failed passes")
                if seed == SEEDS[0]:
                    digests.update(info["report_sha256"])
                metric_sets[seed].add((trace, tuple(sorted(printed))))
                if trace:
                    metrics = {k: v["value"] for k, v in
                               result["metrics"].items()}
                    counts.append({k: v for k, v in metrics.items()
                                   if printed[k] in _COUNT_UNITS})
                    wall = metrics["trace.wall_s"]
                    self_sum = sum(v for k, v in metrics.items()
                                   if printed[k] == "s"
                                   and not k.startswith("trace."))
                    expect(abs(self_sum - wall) <= SELF_TIME_TOLERANCE * wall,
                           f"{where}: self times sum to {self_sum:.4f} s of"
                           f" a {wall:.4f} s traced pass")
            if len(counts) == 2:
                expect(counts[0] == counts[1],
                       f"{name}: counts differ between traced runs")
            least = _min_self_s(name, seed)
            expect(least >= 0, f"{name}: negative self time {least}")
        expect(len(digests) == 1,
               f"{name}: traced and untraced reports differ: {sorted(digests)}")
        expect(metric_sets[SEEDS[0]] == metric_sets[SEEDS[1]],
               f"{name}: the second seed printed another metric set")
        print(f"{name}: checked", file=sys.stderr)

    for problem in problems:
        print(f"FAIL {problem}")
    print("ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
