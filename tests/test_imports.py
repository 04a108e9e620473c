"""netspectra keeps ``scipy.signal`` (about 0.9 s of import time) out of its import graph.

No path needs it: lowpass noise shaping solves its recursion with the Schur
cascade's banded solve.  Each check runs in a fresh interpreter, since this
test process imports ``scipy.signal`` itself.
"""

import os
import subprocess
import sys
from pathlib import Path

import netspectra

SRC = str(Path(netspectra.__file__).resolve().parents[1])

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


def signal_imported_after(code: str, cwd: Path) -> bool:
    script = f"import sys\n{code}\nprint('scipy.signal' in sys.modules)\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1] == "True"


def test_import_leaves_scipy_signal_out(tmp_path):
    assert not signal_imported_after(
        "import netspectra, netspectra.cli, netspectra.pipeline", tmp_path)


def test_unshaped_hann_run_leaves_scipy_signal_out(tmp_path):
    (tmp_path / "exp.ini").write_text(CONFIG)
    code = ("from netspectra import load_config, run_pipeline\n"
            "run_pipeline(load_config('exp.ini'), 'out')")
    assert not signal_imported_after(code, tmp_path)
    assert (tmp_path / "out" / "metrics.json").exists()


def test_lowpass_simulation_leaves_scipy_signal_out(tmp_path):
    code = ("import numpy as np\n"
            "from netspectra import (ConnectivityMatrix, NetworkSystem, NodeDynamics,\n"
            "                        NoiseConfig, SimConfig, simulate)\n"
            "sys_ = NetworkSystem(NodeDynamics.scalar_pole(-1.0), ConnectivityMatrix(np.zeros((2, 2))))\n"
            "simulate(sys_, NoiseConfig(shaping='lowpass', shaping_pole=-2.0), SimConfig(n_samples=256))")
    assert not signal_imported_after(code, tmp_path)


def test_lowpass_run_leaves_scipy_signal_out(tmp_path):
    (tmp_path / "exp.ini").write_text(
        CONFIG.replace("shaping = none", "shaping = lowpass\nshaping_pole = -2.0"))
    code = ("from netspectra import load_config, run_pipeline\n"
            "run_pipeline(load_config('exp.ini'), 'out')")
    assert not signal_imported_after(code, tmp_path)
    assert (tmp_path / "out" / "metrics.json").exists()
