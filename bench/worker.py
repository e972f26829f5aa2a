"""Timed passes of one workload in a fresh process.

Usage: ``python3 bench/worker.py CONFIG.json`` with ``src`` on PYTHONPATH.
CONFIG names the CLI argv, the output directory, the time budget and whether
to trace; the result is written to CONFIG's ``result`` path.  Each pass is
one ``treeprofiles.cli.main(argv)`` call, checked for exit code 0,
``report.json`` bytes equal to the first pass's and OA above chance.  With
tracing, passes alternate untraced and traced so both see the same drift,
and the traced reports must match the untraced bytes too.  Without tracing,
the import time of the package in a fresh interpreter is sampled between
passes, spread evenly over the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

CHANCE_OA = 1 / 3  # three classes
REPORT = "report.json"
SETUP_SAMPLES = 16  # import times sampled over an untraced run
SETUP_CODE = ("import time; t = time.perf_counter(); "
              "import treeprofiles, treeprofiles.cli; "
              "print(time.perf_counter() - t)")


def _setup_sample() -> float:
    """Import time of the package in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", SETUP_CODE],
                          capture_output=True, text=True, timeout=60,
                          check=True)
    return float(done.stdout.strip())


def _one_pass(cli, argv: list[str], out: Path, run):
    """Run one pass; returns (seconds, exit code, report bytes, stderr)."""
    shutil.rmtree(out, ignore_errors=True)
    sink, errors = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(errors):
        start = perf_counter()
        try:
            code = run(cli.main, argv)
        except SystemExit as exc:  # argparse rejects the flags
            code = exc.code
        seconds = perf_counter() - start
    report = out / REPORT
    blob = report.read_bytes() if code == 0 and report.exists() else None
    return seconds, code, blob, errors.getvalue()


def main(config_path: str) -> int:
    config = json.loads(Path(config_path).read_text())
    from treeprofiles import cli, profiles

    tracer = None
    if config["trace"]:
        from tracing import Tracer
        tracer = Tracer()
    out = Path(config["out"])
    untraced, traced, failures, digests = [], [], [], set()
    reference = report = None
    setup = []
    setup_target = SETUP_SAMPLES if tracer is None else 0
    start = perf_counter()
    deadline = start + config["seconds"]
    last = 0.0
    while True:
        use_trace = tracer is not None and len(untraced) > len(traced)
        if use_trace:
            tracer.install({"cli": cli, "profiles": profiles})
            try:
                result = _one_pass(cli, config["argv"], out, tracer.run_pass)
            finally:
                tracer.uninstall()
        else:
            result = _one_pass(cli, config["argv"], out,
                               lambda fn, argv: fn(argv))
        seconds, code, blob, errors = result
        problem = None
        if code != 0:
            problem = f"exit code {code}: {errors.strip()[-300:]}"
        elif blob is None:
            problem = f"no {REPORT} written"
        else:
            digests.add(hashlib.sha256(blob).hexdigest())
            if reference is None:
                reference = blob
                report = json.loads(blob)
            if blob != reference:
                problem = "report bytes differ from the first pass"
            elif report["oa"] <= CHANCE_OA:
                problem = f"OA {report['oa']} is not above chance"
        if problem:
            failures.append(("traced " if use_trace else "") + problem)
        (traced if use_trace else untraced).append(seconds)
        last = seconds
        while len(setup) < setup_target * min(
                1.0, (perf_counter() - start) / config["seconds"]):
            setup.append(_setup_sample())
        enough = len(untraced) >= config["min_passes"] and (
            tracer is None or len(traced) >= config["min_passes"]) and (
            len(setup) >= setup_target)
        if enough and perf_counter() + last > deadline:
            break

    result = {
        "untraced_s": untraced,
        "traced_s": traced,
        "failures": failures,
        "setup_s": setup,
        "report_sha256": sorted(digests),
        "report": report,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["traced_passes"] = tracer.pass_summaries()
        tracer.dump(config["spans"])
    Path(config["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
