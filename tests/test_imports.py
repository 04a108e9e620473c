"""netspectra never loads the heavy SciPy modules.

``scipy.signal`` (about 0.9 s of import time) is on no path: lowpass noise
shaping is state of the propagator.  ``scipy.linalg`` (about 0.3 s and
21 MiB, with the numpy.f2py, numpy.testing and second OpenBLAS it pulls in)
is on no path either: the propagator and the discretization's matrix
exponential are numpy alone, so no command loads it, the simulating ones
(``run``, the staged ``simulate``, an empirical ``bench``) included.  Each
check runs in a fresh interpreter, since this test process imports both
modules itself.
"""

import os
import subprocess
import sys
from pathlib import Path

import netspectra

SRC = str(Path(netspectra.__file__).resolve().parents[1])

WATCHED = ("scipy.signal", "scipy.linalg")

CONFIG = """
[network]
family = laplacian
graph = ring
n_nodes = 3
seed = 2

[noise]
seed = 5
shaping = none

[simulation]
n_samples = 8192

[spectral]
segment_length = 1024
window = hann
omega0 = 0.5

[reconstruction]
mode = exact-directed
"""


def loaded_after(code: str, cwd: Path) -> set:
    """The modules of ``WATCHED`` that a fresh interpreter holds after running ``code``."""
    script = (f"import sys\n{code}\n"
              f"print('loaded:', *[m for m in {WATCHED!r} if m in sys.modules])\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1].split()
    assert last[0] == "loaded:", proc.stdout
    return set(last[1:])


def test_import_leaves_scipy_signal_out(tmp_path):
    assert "scipy.signal" not in loaded_after(
        "import netspectra, netspectra.cli, netspectra.pipeline", tmp_path)


def test_import_leaves_scipy_linalg_out(tmp_path):
    assert "scipy.linalg" not in loaded_after(
        "import netspectra, netspectra.cli, netspectra.pipeline", tmp_path)


def test_unshaped_hann_run_leaves_scipy_signal_out(tmp_path):
    (tmp_path / "exp.ini").write_text(CONFIG)
    code = ("from netspectra import load_config, run_pipeline\n"
            "run_pipeline(load_config('exp.ini'), 'out')")
    assert "scipy.signal" not in loaded_after(code, tmp_path)
    assert (tmp_path / "out" / "metrics.json").exists()


def test_lowpass_simulation_leaves_scipy_signal_out(tmp_path):
    code = ("import numpy as np\n"
            "from netspectra import (ConnectivityMatrix, NetworkSystem, NodeDynamics,\n"
            "                        NoiseConfig, SimConfig, simulate)\n"
            "sys_ = NetworkSystem(NodeDynamics.scalar_pole(-1.0), ConnectivityMatrix(np.zeros((2, 2))))\n"
            "simulate(sys_, NoiseConfig(shaping='lowpass', shaping_pole=-2.0), SimConfig(n_samples=256))")
    assert "scipy.signal" not in loaded_after(code, tmp_path)


def test_lowpass_run_leaves_scipy_signal_out(tmp_path):
    (tmp_path / "exp.ini").write_text(
        CONFIG.replace("shaping = none", "shaping = lowpass\nshaping_pole = -2.0"))
    code = ("from netspectra import load_config, run_pipeline\n"
            "run_pipeline(load_config('exp.ini'), 'out')")
    assert "scipy.signal" not in loaded_after(code, tmp_path)
    assert (tmp_path / "out" / "metrics.json").exists()


def test_no_command_loads_scipy_linalg(tmp_path):
    (tmp_path / "exp.ini").write_text(CONFIG)
    (tmp_path / "lowpass.ini").write_text(
        CONFIG.replace("shaping = none", "shaping = lowpass\nshaping_pole = -2.0"))
    commands = [[command, "--config", "exp.ini", "--out", "staged"]
                for command in ("generate", "simulate", "estimate", "reconstruct", "evaluate")]
    commands += [["run", "--config", config, "--out", out]
                 for config, out in (("exp.ini", "run"), ("lowpass.ini", "lowpass"))]
    commands.append(["bench", "--config", "exp.ini", "--out", "bench", "--sweep", "3:8192",
                     "--repeats", "1"])
    for args in commands:
        code = f"from netspectra import cli\nassert cli.main({args!r}) == 0"
        assert "scipy.linalg" not in loaded_after(code, tmp_path), args
    for out in ("staged", "run", "lowpass"):
        assert (tmp_path / out / "metrics.json").exists()
    assert (tmp_path / "staged" / "timeseries").is_dir()
    assert (tmp_path / "bench" / "bench.csv").exists()


def test_oracle_run_leaves_scipy_linalg_out(tmp_path):
    (tmp_path / "exp.ini").write_text(
        CONFIG.replace("mode = exact-directed", "mode = oracle-exact-directed"))
    code = ("from netspectra import load_config, run_pipeline\n"
            "run_pipeline(load_config('exp.ini'), 'out')")
    assert "scipy.linalg" not in loaded_after(code, tmp_path)
    assert (tmp_path / "out" / "metrics.json").exists()
