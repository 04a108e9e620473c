"""Benchmark of the shipped netspectra pipeline, end to end and per module.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs from the root of a checkout and imports netspectra from its ``src``.
Each run starts one worker process for the workload, so every workload gets
its own peak-RSS high-water mark.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones from a run that alternates untraced
and traced experiments; the metric names and units are those of
``BENCHMARK.json``.  The last line of stdout is one JSON object; the full
record, spans included, goes to ``.perfbench_results/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".perfbench_results"

#: BLAS threads for every child; one thread keeps timings steady on a shared host.
BLAS_THREADS = 1
#: Every run must end within this many seconds.
RUN_LIMIT_S = 175.0

#: Per-layer metrics computed here from the whole run rather than per experiment.
OVERHEAD = "trace.overhead_s"
QUALITY = "quality."


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _child(args, tag: str, deadline: float) -> dict:
    """Run worker.py to completion and return its JSON record."""
    result = RESULTS / f"{tag}.child.json"
    log = RESULTS / f"{tag}.log"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--result", str(result)]
    if args.tiny:
        cmd.append("--tiny")
    result.unlink(missing_ok=True)
    with open(log, "a") as fh:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), stdout=fh,
                              stderr=subprocess.STDOUT,
                              timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0 or not result.is_file():
        tail = log.read_text().splitlines()[-20:]
        raise RuntimeError(f"worker exited with code {proc.returncode}; {log}:\n"
                           + "\n".join(tail))
    record = json.loads(result.read_text())
    result.unlink()
    return record


def _layer_values(record: dict, names: list, ok: list) -> dict:
    """Per-layer metrics: medians over the traced experiments of the run."""
    exps = record["experiments"]
    spans: dict = {}
    for d in record["spans"]:
        spans.setdefault(d["experiment"], []).append(tracing.Span(**d))
    per_span = [n for n in names if n != OVERHEAD and not n.startswith(QUALITY)]
    values = tracing.median_metrics([
        tracing.layer_metrics(spans.get(i, []), per_span)
        for i, e in enumerate(exps) if e["traced"]
    ])
    values[OVERHEAD] = (statistics.median(e["run_s"] for e in exps if e["traced"])
                        - statistics.median(e["run_s"] for e in exps if not e["traced"]))
    quality = next((e["quality"] for e in reversed(ok) if e.get("quality")), {})
    for name in names:
        if name.startswith(QUALITY):
            values[name] = quality.get(name[len(QUALITY):], 0.0)
    return values


def summarize(record: dict, trace: bool) -> dict:
    """The printed result: op counts and the metrics of the requested mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    exps = record["experiments"]
    failed = sum("error" in e for e in exps)
    ok = [e for e in exps if "error" not in e] or exps
    if trace:
        values = _layer_values(record, [m["name"] for m in declared], ok)
    else:
        timed = [e for e in ok if not e["traced"]]
        values = {
            "run_s": statistics.median(e["run_s"] for e in timed),
            "cpu_s": statistics.median(e["cpu_s"] for e in timed),
            "setup_s": statistics.median(record["setup_samples"]),
            "peak_rss_mb": record["peak_rss_mb"],
            "written_mb": statistics.median(e["written_mb"] for e in ok),
        }
    return {
        "correct": failed == 0,
        "attempted": len(exps),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a name in workloads.WORKLOADS")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (for the smoke tests)")
    args = parser.parse_args(argv)

    missing = [p for p in ("src/netspectra/__init__.py", "configs/reference.ini")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {ROOT} is not a netspectra checkout (missing {missing})",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    (RESULTS / f"{tag}.log").unlink(missing_ok=True)

    try:
        record = _child(args, tag, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = summarize(record, bool(args.trace))
    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "git_commit": _git_commit(),
        "nproc": os.cpu_count(), "machine": platform.machine(),
        "summary": summary,
    })
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    for e in record["experiments"]:
        if "error" in e:
            print(e["error"], file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
