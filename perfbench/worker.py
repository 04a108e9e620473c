"""One workload in its own process: set it up, run experiments, write a JSON record.

Started by ``run.py``; not meant to be run by hand::

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \\
        --result FILE [--setup-only] [--tiny]

Set-up time runs from the first line of this file to the built inputs, so it
covers importing netspectra (from this checkout's ``src``), loading the config
and building the experiment.  A run also times ``SETUP_SAMPLES - 1`` fresh
``--setup-only`` copies of itself, started between experiments so that the
samples spread over the run.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(SRC))

import netspectra  # noqa: E402
import numpy  # noqa: E402
import scipy  # noqa: E402
from netspectra import cli, pipeline, reconstruct  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

#: Fewest experiments per run, so each run reports a median of at least three.
MIN_EXPERIMENTS = 3
#: Set-up times per run, this process's own included; setup_s is their median.
SETUP_SAMPLES = 7
#: Modules whose imported names a traced experiment patches.
TRACED_MODULES = {"pipeline": pipeline, "reconstruct": reconstruct, "cli": cli}


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _one_experiment(workload, exp, tracer) -> dict:
    shutil.rmtree(exp.out, ignore_errors=True)
    record = {"traced": tracer is not None}
    patches = tracer.installed(TRACED_MODULES) if tracer else contextlib.nullcontext()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        with patches:
            workload.run(exp, tracer)
    except Exception:  # the experiment fails; the run goes on
        record["error"] = traceback.format_exc()
    record["run_s"] = time.perf_counter() - wall0
    record["cpu_s"] = time.process_time() - cpu0
    record["written_mb"] = _dir_bytes(exp.out) / tracing.MIB if exp.out.exists() else 0.0
    if "error" not in record:
        try:
            record["quality"] = workload.check(exp)
        except workloads.CheckFailed as exc:
            record["error"] = f"output check failed: {exc}"
            record["quality"] = exc.quality
        except Exception:  # unreadable artifacts fail the check too
            record["error"] = "output check failed:\n" + traceback.format_exc()
    return record


def _setup_sample(args) -> float:
    """Set-up time of a fresh ``--setup-only`` copy of this worker."""
    result = Path(args.result + ".setup")
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--result", str(result), "--setup-only"] + (["--tiny"] if args.tiny else [])
    subprocess.run(cmd, check=True, timeout=60)
    setup_s = json.loads(result.read_text())["setup_s"]
    result.unlink()
    return setup_s


def run_experiments(workload, exp, args, setup_s: float) -> dict:
    """Experiments for about ``args.seconds``; traced runs alternate untraced and traced."""
    seconds = args.seconds
    tracer = tracing.Tracer(workload.name, exp.seed) if args.trace else None
    records: list = []
    setups = [setup_s]
    start = time.perf_counter()
    setup_time = 0.0

    def take_setups(count: int) -> None:
        nonlocal setup_time
        t0 = time.perf_counter()
        while len(setups) < count:
            setups.append(_setup_sample(args))
        setup_time += time.perf_counter() - t0

    # Start another experiment while it should end within half an experiment
    # of the deadline, and always run enough for a median.  Set-up time does
    # not count against the deadline.
    while len(records) < MIN_EXPERIMENTS or (
        time.perf_counter() - start - setup_time + records[-1]["run_s"] / 2 < seconds
    ):
        traced = args.trace and len(records) % 2 == 1
        if tracer:
            tracer.experiment = len(records)
        records.append(_one_experiment(workload, exp, tracer if traced else None))
        spent = time.perf_counter() - start - setup_time
        share = min(1.0, spent / seconds) if seconds > 0 else 1.0
        take_setups(1 + int((SETUP_SAMPLES - 1) * share))
    take_setups(SETUP_SAMPLES)
    shutil.rmtree(exp.out, ignore_errors=True)
    return {
        "experiments": records,
        "setup_samples": setups,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.dump() if tracer else [],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    origin = Path(netspectra.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"netspectra was imported from {origin}, not from {SRC}")
    workload = workloads.WORKLOADS[args.workload]
    exp = workloads.make_experiment(args.workload, ROOT, WORK / "out", args.seed, args.tiny)
    result = {
        "setup_s": time.perf_counter() - T0,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }
    if not args.setup_only:
        result.update(run_experiments(workload, exp, args, result["setup_s"]))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
