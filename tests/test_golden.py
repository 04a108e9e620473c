"""Pinned numbers: short runs of every route, compared with ``golden.json``.

Each case is a ``run`` of ``configs/reference.ini`` at L = 2^16, under flat
noise, under lowpass noise (``shaping_pole = -2``) and at the lowest bin
(``omega0 = 0.15``, bin 1, the one bin where the Hann window does not cancel
a segment's mean, so that detrending shows), on a network its route applies
to:

* ``boolean`` and ``exact-directed`` on the reference network; both read the
  same spectra, so ``boolean`` reconstructs and evaluates the
  ``exact-directed`` run directory again;
* ``undirected`` on the symmetric 6-ring;
* ``nonreciprocal`` on a uniform nonreciprocal 6-ring;
* every ``oracle-`` mode on the same networks.

Empirical runs take seeds 1 and 2.  The oracle spectra of these fixed
networks depend on no seed, so each oracle case runs once per variant.  Every
case pins its CPSD matrices, the recovered weights, S_w, the threshold and
``metrics.json``.

Numbers must agree within 1e-12 of the largest magnitude of what they belong
to (a CPSD matrix, the weight matrix; S_w and the threshold themselves; a
metric at least 1): BLAS and LAPACK kernels may round differently on another
CPU.  Byte identity of whole run directories is checked by hand, on one host,
when a change claims it.

``golden.json`` is ``json.dumps(collect(directory), indent=1)``.  It changes
only in a change whose CHANGES.md entry says which numbers moved, by how much
and why.
"""

import configparser
import json
from pathlib import Path
from typing import Optional

import numpy as np

from netspectra import (laplacian_connectivity, load_config, load_matrix,
                        regular_connectivity, save_matrix)
from netspectra import pipeline as pl
from netspectra.lti import CpsdMatrix, load_cpsd, save_cpsd

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden.json")
RTOL = 1e-12

_RING = np.roll(np.eye(6), 1, axis=0)
#: network name -> (its matrix, saved for the run's [network] file, or None for
#: the reference network the config builds; the routes that run on it)
NETWORKS = {
    "reference": (None, ("exact-directed", "boolean")),
    "symmetric-ring": (laplacian_connectivity(_RING + _RING.T), ("undirected",)),
    "nonreciprocal-ring": (regular_connectivity(0.8 * _RING), ("nonreciprocal",)),
}
VARIANTS = {
    "flat": {},
    "lowpass": {("noise", "shaping"): "lowpass", ("noise", "shaping_pole"): "-2.0"},
    "lowest-bin": {("spectral", "omega0"): "0.15"},
}
SEEDS = (1, 2)


def _config(directory: Path, name: str, network, mode: str, overrides: dict):
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(ROOT / "configs" / "reference.ini")
    parser["simulation"]["n_samples"] = str(2**16)
    parser["reconstruction"]["mode"] = mode
    for (section, key), value in overrides.items():
        parser[section][key] = value
    if network is not None:
        save_matrix(directory / f"{name}.txt", network)
        parser["network"]["source"] = "file"
        parser["network"]["file"] = str(directory / f"{name}.txt")
    path = directory / f"{name}-{mode}.ini"
    with open(path, "w") as fh:
        parser.write(fh)
    return load_config(path)


def _spectra(out: Path) -> dict:
    """The CPSD matrices of one run directory, by file name."""
    spectra = {}
    for path in sorted((out / "spectra").glob("cpsd_*.txt")):
        s = load_cpsd(path)
        spectra[path.stem] = {"omega": s.omega, "source": s.source, "K": s.segment_count,
                              "re": s.values.real.tolist(), "im": s.values.imag.tolist()}
    return spectra


def _save_spectra(out: Path, spectra: dict) -> None:
    for stem, s in spectra.items():
        values = np.array(s["re"]) + 1j * np.array(s["im"])
        save_cpsd(out / "spectra" / f"{stem}.txt",
                  CpsdMatrix(values, s["omega"], s["source"], s["K"]))


def _recovery(out: Path, oracle: bool) -> dict:
    """What one route recovered in ``out``: weights, S_w, threshold, metrics.

    An oracle's gap threshold is the geometric midpoint between its edges and
    the rounding error of its non-edges, so a change of rounding moves it by
    factors (a 1e-16 relative change of the reference's analytic spectra took
    it from 1e-6 to 5e-4): an oracle run pins the edges it keeps, not its
    threshold.
    """
    weights = out / "recovered_weights.txt"
    metrics = json.loads((out / "metrics.json").read_text())
    threshold = metrics.pop("threshold_used") if oracle else metrics["threshold_used"]
    return {"weights": load_matrix(weights).weights.tolist() if weights.exists() else None,
            "input_psd": metrics["input_psd_estimate"],
            "threshold": None if oracle else threshold,
            "metrics": metrics}


def collect(directory: Path, pinned: Optional[dict] = None) -> dict:
    """Run every case under ``directory``: ``{run name: {"spectra", "routes"}}``.

    The routes of one network share its spectra, so the first route runs and
    the others reconstruct and evaluate its run directory again.  With
    ``pinned``, every route reconstructs from the pinned spectra in place of
    the run's own: inverting a CPSD matrix multiplies its rounding by the
    matrix's condition number (up to about 500 here), so the recovered numbers
    are checked apart from the rounding of the simulation.
    """
    runs = {}
    for variant, overrides in VARIANTS.items():
        for net_name, (network, routes) in NETWORKS.items():
            for prefix, seeds in (("", SEEDS), ("oracle-", (1,))):
                for seed in seeds:
                    name = f"{variant}/{net_name}/{prefix or 'empirical-'}seed{seed}"
                    out = directory / name.replace("/", "-")
                    recovered = {}
                    for route in routes:
                        cfg = pl.apply_seed_override(_config(
                            directory, net_name, network, prefix + route, overrides), seed)
                        if not recovered:
                            pl.run_pipeline(cfg, out)
                            runs[name] = {"spectra": _spectra(out), "routes": recovered}
                            if pinned is not None and name in pinned:
                                _save_spectra(out, pinned[name]["spectra"])
                        if recovered or pinned is not None:
                            pl.stage_reconstruct(cfg, out, *pl.load_saved_truth(out))
                            pl.stage_evaluate(cfg, out)
                        recovered[prefix + route] = _recovery(out, oracle=bool(prefix))
    return runs


def _differs(got, want, scale) -> bool:
    """Whether ``got`` is off ``want`` anywhere by more than RTOL * ``scale``."""
    if want is None or got is None:
        return got is not want
    got, want = np.asarray(got), np.asarray(want)
    return got.shape != want.shape or bool(np.any(np.abs(got - want) > RTOL * scale))


def _mismatches(name: str, got: dict, want: dict) -> list:
    """What of one run's ``got`` is off its pinned ``want``."""
    bad = []
    if (got["spectra"].keys(), got["routes"].keys()) != (want["spectra"].keys(),
                                                          want["routes"].keys()):
        return [f"{name}: spectra {sorted(got['spectra'])}, routes {sorted(got['routes'])}"]
    for run, pinned in want["spectra"].items():
        s, ref = got["spectra"][run], np.array(pinned["re"]) + 1j * np.array(pinned["im"])
        if _differs(np.array(s["re"]) + 1j * np.array(s["im"]), ref, np.abs(ref).max()):
            bad.append(f"{name}: {run}")
        if _differs(s["omega"], pinned["omega"], pinned["omega"]) or (
                (s["source"], s["K"]) != (pinned["source"], pinned["K"])):
            bad.append(f"{name}: {run} omega, source or K")
    for route, pinned in want["routes"].items():
        rec, w = got["routes"][route], pinned["weights"]
        if _differs(rec["weights"], w, None if w is None else np.abs(w).max()):
            bad.append(f"{name} {route}: weights")
        for key in ("input_psd", "threshold"):
            value = pinned[key]
            if _differs(rec[key], value, None if value is None else abs(value)):
                bad.append(f"{name} {route}: {key} {rec[key]!r} != {value!r}")
        if rec["metrics"].keys() != pinned["metrics"].keys():
            bad.append(f"{name} {route}: metrics keys {sorted(rec['metrics'])}")
            continue
        for key, value in pinned["metrics"].items():
            if (_differs(rec["metrics"][key], value, max(1.0, abs(value)))
                    if isinstance(value, float) else rec["metrics"][key] != value):
                bad.append(f"{name} {route}: metrics {key} {rec['metrics'][key]!r} != {value!r}")
    return bad


def test_runs_match_the_pinned_numbers(tmp_path):
    want = json.loads(GOLDEN.read_text())
    got = collect(tmp_path, want)
    assert sorted(got) == sorted(want)
    assert [bad for name in want for bad in _mismatches(name, got[name], want[name])] == []
