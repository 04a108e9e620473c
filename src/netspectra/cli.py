"""Command-line entry point.

Subcommands mirror the pipeline stages (``generate``, ``simulate``,
``estimate``, ``reconstruct``, ``evaluate``), plus ``run`` for the whole
pipeline and ``bench`` for stage timing sweeps.  Every stage reads its inputs
from, and writes its outputs to, the run directory, so stages can be re-driven
individually against saved artifacts.  Each does only its own stage, and
``run`` runs them in order, except that it streams each simulation into the
estimator instead of writing ``timeseries/`` (in oracle modes ``simulate``
writes nothing and ``estimate`` the analytic spectra).  Every command after
``generate`` exits 2, writing nothing, without its ``network.txt`` and
``node.txt``.  Only ``bench`` takes ``--cost-model``: the config alone decides
what every other command writes.

Exit codes: 0 success, 2 configuration/input error, 3 numerical failure,
4 stability rejection.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import (
    ConfigError,
    NetspectraError,
    NumericalError,
    StabilityError,
    ValidationError,
)
from .bench import benchmark, parse_sweep, write_bench_csv
from .graphs import compare  # noqa: F401  perfbench/tracing.py wraps cli.compare
from . import pipeline as pl


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="experiment config file")
    common.add_argument("--out", default=None, help="run directory (overrides [output])")
    common.add_argument("--workers", type=int, default=1,
                        help="worker threads for the grounded runs; the staged simulate "
                             "and estimate hold up to this many whole records at once")
    common.add_argument("--seed-override", type=int, default=None,
                        help="replace the network and noise seeds")

    parser = argparse.ArgumentParser(
        prog="netspectra",
        description="Reconstruct network topology from output cross-power spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("generate", "materialise the ground-truth network and node dynamics"),
        ("simulate", "run the full and grounded noise-driven simulations"),
        ("estimate", "estimate CPSD matrices from saved time series"),
        ("reconstruct", "recover the topology from saved CPSD matrices"),
        ("evaluate", "score a saved recovery against the ground truth"),
        ("run", "full pipeline"),
    ):
        sub.add_parser(name, parents=[common], help=doc)
    bench_p = sub.add_parser("bench", parents=[common], help="stage timing sweep")
    bench_p.add_argument("--cost-model", choices=("fft", "paper"), default="fft",
                         help="spectral estimation route (paper = lag-domain correlations)")
    bench_p.add_argument("--sweep", required=True,
                         help="comma-separated N:L pairs, e.g. 8:16384,16:16384")
    bench_p.add_argument("--repeats", type=int, default=3)
    return parser


def _load(args) -> tuple[pl.ExperimentConfig, Path]:
    if args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    cfg = pl.load_config(args.config)
    if args.seed_override is not None:
        cfg = pl.apply_seed_override(cfg, args.seed_override)
    out = Path(args.out) if args.out else Path(cfg.out_dir)
    return cfg, out


def _cmd_generate(args) -> None:
    cfg, out = _load(args)
    pl.stage_generate(cfg, out)


def _cmd_simulate(args) -> None:
    cfg, out = _load(args)
    truth, node = pl.load_saved_truth(out)
    pl.stage_simulate(cfg, out, truth, node, workers=args.workers)


def _cmd_estimate(args) -> None:
    cfg, out = _load(args)
    truth, node = pl.load_saved_truth(out)
    if cfg.recon.oracle:
        pl.stage_oracle_spectra(cfg, out, truth, node)
    else:
        runs = pl.load_saved_runs(cfg, out, truth.n_nodes)
        pl.stage_estimate(cfg, out, runs, node, truth.n_nodes, workers=args.workers)


def _cmd_reconstruct(args) -> None:
    pl.stage_reconstruct(*_load(args))


def _cmd_evaluate(args) -> None:
    print(json.dumps(pl.stage_evaluate(*_load(args)), indent=2))


def _cmd_run(args) -> None:
    cfg, out = _load(args)
    print(json.dumps(pl.run_pipeline(cfg, out, workers=args.workers), indent=2))


def _cmd_bench(args) -> None:
    cfg, out = _load(args)
    rows = benchmark(cfg, parse_sweep(args.sweep), cost_model=args.cost_model,
                     repeats=args.repeats)
    out.mkdir(parents=True, exist_ok=True)
    write_bench_csv(out / "bench.csv", rows)
    for row in rows:
        print(f"N={row['n_nodes']} L={row['n_samples']} "
              f"{row['stage']}: {row['seconds']:.6f} s")


_COMMANDS = {
    "generate": _cmd_generate,
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "reconstruct": _cmd_reconstruct,
    "evaluate": _cmd_evaluate,
    "run": _cmd_run,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except (ConfigError, ValidationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StabilityError as exc:
        print(f"stability rejection: {exc}", file=sys.stderr)
        return 4
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except NetspectraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
