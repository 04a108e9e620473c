"""Noise generation and zero-order-hold simulation of the networked dynamics.

The continuous-time network is driven by independent per-node noise: a
discrete white (optionally low-pass shaped) Gaussian sequence held constant
over each sampling interval.  The held input makes the discretization exact
(a matrix exponential, then a cascade of recursions in the real Schur basis,
one per real pole and one per complex pole pair, each a real banded triangular
solve, exact for defective couplings too) and gives the injected noise a
known, strictly positive power spectral density over a wide band:

    ``S_w(w) = sigma^2 * dt * sinc^2(w dt / 2)``            (unshaped)

which is flat to within 1% for ``|w| <= 0.35 / dt``.  That band is exposed as
the excitation interval so every downstream frequency choice stays inside it,
and analytic cross-checks use the exact injected density rather than an
idealisation.

:func:`simulate_blocks` is the one simulator: it draws the noise and runs the
cascade ``PROPAGATE_BLOCK`` samples at a time with the propagator state carried
between blocks, so a consumer such as the single-bin CPSD accumulator never
needs the whole record.  :func:`simulate` and :func:`simulate_grounded`
collect its blocks into one read-only :class:`TimeSeriesMatrix`.
"""

from __future__ import annotations

import math
import os
import struct
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np
from scipy.linalg import expm, schur
from scipy.linalg.blas import dtbsv

from .errors import NumericalError, StabilityError, ValidationError
from .graphs import _as_readonly
from .lti import InputPsdModel, NetworkSystem, is_hurwitz

__all__ = [
    "NoiseConfig",
    "SimConfig",
    "TimeSeriesMatrix",
    "discretize",
    "simulate",
    "simulate_grounded",
    "simulate_blocks",
    "save_timeseries",
    "load_timeseries",
]

#: Fraction of the sampling rate up to which the held-noise PSD is flat to ~1%.
FLAT_BAND_FRACTION = 0.35

#: Samples per block of the noise draw and the Schur cascade (cache-sized).
PROPAGATE_BLOCK = 2**14

_MAGIC = b"NSTS0001"
_HEAD = struct.Struct("<8sIQd")


@dataclass(frozen=True)
class NoiseConfig:
    """Per-node input noise: i.i.d. Gaussian samples, optionally AR(1)-shaped.

    ``variance`` is the per-sample variance of the underlying white sequence.
    ``shaping="lowpass"`` filters each stream through the exact ZOH
    discretization of a first-order low-pass with the given (negative) pole.
    Streams for distinct nodes are always independent.
    """

    variance: float = 1.0
    seed: int = 0
    shaping: str = "none"
    shaping_pole: Optional[float] = None

    def __post_init__(self):
        if self.variance <= 0:
            raise ValidationError("noise variance must be positive")
        if self.seed < 0:
            raise ValidationError("noise seed must be nonnegative")
        if self.shaping not in ("none", "lowpass"):
            raise ValidationError(f"unknown shaping {self.shaping!r}")
        if self.shaping == "lowpass":
            if self.shaping_pole is None or self.shaping_pole >= 0:
                raise ValidationError("lowpass shaping needs a negative pole")

    def input_psd_model(self, dt: float) -> InputPsdModel:
        """Exact PSD of the held noise actually injected at sampling step dt."""
        if dt <= 0:
            raise ValidationError("dt must be positive")
        sig2 = self.variance
        if self.shaping == "none":

            def evaluator(w: float) -> float:
                return sig2 * dt * np.sinc(w * dt / (2 * math.pi)) ** 2

        else:
            p = float(self.shaping_pole)
            phi = math.exp(p * dt)
            gam = (phi - 1.0) / p

            def evaluator(w: float) -> float:
                held = sig2 * dt * np.sinc(w * dt / (2 * math.pi)) ** 2
                ar = gam**2 / abs(np.exp(1j * w * dt) - phi) ** 2
                return held * ar

        return InputPsdModel(evaluator=evaluator, omega_max=FLAT_BAND_FRACTION / dt)

    def _draws(self, rng: np.random.Generator, n_samples: int, n_channels: int,
               dt: float) -> Iterator[np.ndarray]:
        """The noise in blocks of ``PROPAGATE_BLOCK`` samples (rows).

        Row-major chunks of ``standard_normal`` and an ``lfilter`` carrying its
        state give the same numbers, bit for bit, as one whole-record draw.
        ``scipy.signal`` is imported here, at the first lowpass draw, so that
        importing netspectra does not pay for it.
        """
        scale = math.sqrt(self.variance)
        if self.shaping == "lowpass":
            from scipy.signal import lfilter

            p = float(self.shaping_pole)
            phi = math.exp(p * dt)
            gam = (phi - 1.0) / p
            state = np.zeros((1, n_channels))
        for lo in range(0, n_samples, PROPAGATE_BLOCK):
            w = scale * rng.standard_normal((min(PROPAGATE_BLOCK, n_samples - lo), n_channels))
            if self.shaping == "lowpass":
                w, state = lfilter([gam], [1.0, -phi], w, axis=0, zi=state)
            yield w


@dataclass(frozen=True)
class SimConfig:
    """Sampling step, run length and transient discard.

    ``burn_in=None`` selects the automatic default ``10 / (|abscissa| * dt)``
    samples, after which initial transients have decayed by ``e^-10``.
    """

    dt: float = 0.01
    n_samples: int = 2**16
    burn_in: Optional[int] = None

    def __post_init__(self):
        if self.dt <= 0:
            raise ValidationError("dt must be positive")
        if self.n_samples < 2:
            raise ValidationError("n_samples must be at least 2")
        if self.burn_in is not None and self.burn_in < 0:
            raise ValidationError("burn_in must be nonnegative")


@dataclass(frozen=True)
class TimeSeriesMatrix:
    """Sampled multichannel output: ``data[k]`` is channel ``k``'s series.

    ``channel_labels`` carries the original 1-based node indices so grounded
    runs (which drop a node) stay traceable to the full network.
    """

    data: np.ndarray
    dt: float
    channel_labels: tuple[int, ...]

    def __post_init__(self):
        d = self.data
        # a read-only float64 array that owns its buffer cannot change: keep it
        if not (isinstance(d, np.ndarray) and d.dtype == np.float64
                and not d.flags.writeable and d.base is None):
            d = _as_readonly(d)
        if d.ndim != 2:
            raise ValidationError(f"data must be 2-D (channels x samples), got {d.shape}")
        if not np.isfinite(d).all():
            raise ValidationError("time series contains non-finite samples")
        if self.dt <= 0:
            raise ValidationError("dt must be positive")
        labels = tuple(int(v) for v in self.channel_labels)
        if len(labels) != d.shape[0]:
            raise ValidationError("one label per channel required")
        object.__setattr__(self, "data", d)
        object.__setattr__(self, "channel_labels", labels)

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]


def discretize(sys: NetworkSystem, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact ZOH discretization ``(Phi, Gamma)`` of the joint dynamics.

    ``Phi = exp(M dt)`` and ``Gamma = (int_0^dt exp(M s) ds) (I_N (x) b)``,
    obtained in one augmented matrix exponential (Van Loan block trick).
    The output map is unchanged.
    """
    if dt <= 0:
        raise ValidationError("dt must be positive")
    m = sys.joint_state_matrix()
    bmat = sys.input_matrix()
    nx, nu = bmat.shape
    aug = np.zeros((nx + nu, nx + nu))
    aug[:nx, :nx] = m * dt
    aug[:nx, nx:] = bmat * dt
    try:
        e = expm(aug)
    except Exception as exc:  # scipy raises various types on overflow
        raise NumericalError(f"matrix exponential failed for dt={dt}") from exc
    if not np.isfinite(e).all():
        raise NumericalError(f"matrix exponential overflowed for dt={dt}")
    return e[:nx, :nx], e[:nx, nx:]


def _block_solver(t: np.ndarray, lo: int, hi: int):
    """In-place solver of block ``T[lo:hi, lo:hi]``'s recursion ``z[k+1] = T_b z[k] + v[k]``.

    A real Schur block is one row (a real pole) or two (a complex pair).
    ``solve(zb)`` takes the block's rows ``zb = [z[0], v[0], ..., v[n-1]]``,
    ``n <= PROPAGATE_BLOCK``, and leaves ``zb = [z[0], ..., z[n]]``: one unit
    lower-banded solve by BLAS ``dtbsv`` over the rows interleaved in time,
    ``x[b k + r] = z_r[k]``, whose band holds ``-T[lo + r, lo + c]`` at offset
    ``b + r - c`` in columns ``c::b``.  One row is solved in place; a pair is
    interleaved into a copy and back.  The band is Fortran-ordered and built
    once, so no call copies it.
    """
    b = hi - lo
    band = np.zeros((2 * b, b * (PROPAGATE_BLOCK + 1)), order="F")
    band[0] = 1.0
    for r in range(b):
        for c in range(b):
            band[b + r - c, c::b] = -t[lo + r, lo + c]

    def solve(zb: np.ndarray) -> None:
        if b == 1:
            dtbsv(1, band[:, :zb.shape[1]], zb[0], lower=1, diag=1, overwrite_x=1)
        else:
            x = dtbsv(2 * b - 1, band[:, :zb.size], zb.T.ravel(), lower=1, diag=1, overwrite_x=1)
            zb[:] = x.reshape(-1, b).T

    return solve


def _cascade(phi: np.ndarray, gamma: np.ndarray, cmat: np.ndarray,
             w_blocks: Iterable[np.ndarray], burn: int = 0) -> Iterator[np.ndarray]:
    """Outputs ``y[k] = C x[k]``, ``k >= burn``, of ``x[k+1] = Phi x[k] + Gamma w[k]``, ``x[0] = 0``.

    Exact for every ``Phi``, defective or not, in real arithmetic only: in the
    real Schur basis ``Phi = Q T Q^T`` (``Q`` orthogonal, ``T`` quasi-upper
    triangular with a 2x2 diagonal block per complex pole pair) block ``lo:hi``
    of ``z = Q^T x`` is a recursion driven by its input plus ``T[lo:hi, hi:]
    z[hi:]``, solved bottom block first as one banded triangular solve per
    propagation block (:func:`_block_solver`).  Column 0 of each propagation
    block's buffer carries the state in from the block before.  ``w_blocks``
    are (samples x inputs) blocks of at most ``PROPAGATE_BLOCK`` samples in
    time order; each yields its (channels x samples) outputs, the burn-in left
    out, and a non-finite output raises ``NumericalError``.
    """
    t, q = schur(phi, output="real")
    g = q.T @ gamma
    cq = cmat @ q
    nx = t.shape[0]
    starts = [i for i in range(nx) if i == 0 or t[i, i - 1] == 0]
    blocks = [(b_lo, b_hi, _block_solver(t, b_lo, b_hi))
              for b_lo, b_hi in zip(starts, starts[1:] + [nx])]
    z = np.zeros((nx, PROPAGATE_BLOCK + 1))
    lo = 0
    for w in w_blocks:
        n = w.shape[0]
        if n > PROPAGATE_BLOCK:
            raise ValueError(f"a block holds {n} samples, more than PROPAGATE_BLOCK")
        zb = z[:, :n + 1]
        np.matmul(g, w.T, out=zb[:, 1:])
        for b_lo, b_hi, solve in reversed(blocks):
            zb[b_lo:b_hi, 1:] += t[b_lo:b_hi, b_hi:] @ zb[b_hi:, :n]
            solve(zb[b_lo:b_hi])
        hi = lo + n
        if hi > burn:
            y = (cq @ zb[:, :n])[:, max(0, burn - lo):]
            if not np.isfinite(y).all():
                raise NumericalError("simulation produced non-finite samples (overflow)")
            yield y
        z[:, 0] = zb[:, n]
        lo = hi


def _collect(blocks: Iterable[np.ndarray], n_channels: int, n_samples: int) -> np.ndarray:
    """The blocks written side by side into one read-only (channels x samples) array."""
    out = np.empty((n_channels, n_samples))
    lo = 0
    for y in blocks:
        out[:, lo:lo + y.shape[1]] = y
        lo += y.shape[1]
    out.flags.writeable = False
    return out


def _propagate(phi: np.ndarray, gamma: np.ndarray, w: np.ndarray, cmat: np.ndarray,
               burn: int = 0) -> np.ndarray:
    """:func:`_cascade` over the rows of ``w``, collected as (samples x channels)."""
    blocks = (w[lo:lo + PROPAGATE_BLOCK] for lo in range(0, w.shape[0], PROPAGATE_BLOCK))
    return _collect(_cascade(phi, gamma, cmat, blocks, burn), cmat.shape[0], w.shape[0] - burn).T


def simulate_blocks(sys: NetworkSystem, noise: NoiseConfig, cfg: SimConfig,
                    ground: Optional[int] = None) -> Iterator[np.ndarray]:
    """Sampled outputs, block by block: (channels x samples) arrays in time order.

    ``ground=j`` simulates the network with node ``j`` grounded (N-1
    channels).  Stability, step size and burn-in are checked at the call,
    before the first block; the blocks together hold ``cfg.n_samples``
    samples, at most ``PROPAGATE_BLOCK`` each, and are the same numbers
    :func:`simulate` and :func:`simulate_grounded` return as one record.
    """
    run = 0
    if ground is not None:
        sys, run = sys.grounded(ground), ground
    report = is_hurwitz(sys)
    if not report.stable:
        raise StabilityError(
            f"network state matrix is not Hurwitz "
            f"(spectral abscissa {report.spectral_abscissa:+.6g})"
        )
    step_norm = np.linalg.norm(sys.joint_state_matrix(), 2) * cfg.dt
    if step_norm > 0.5:
        warnings.warn(f"||M||*dt = {step_norm:.3g} > 0.5; consider a smaller dt")
    burn = cfg.burn_in
    if burn is None:
        burn = math.ceil(10.0 / (abs(report.spectral_abscissa) * cfg.dt))
        if burn > 10**8:
            raise NumericalError(
                f"automatic burn-in of {burn} samples (spectral abscissa "
                f"{report.spectral_abscissa:+.3e} is nearly marginal); set "
                "burn_in explicitly if this is intended"
            )
    phi, gamma = discretize(sys, cfg.dt)
    rng = np.random.default_rng(np.random.SeedSequence((noise.seed, run)))
    draws = noise._draws(rng, cfg.n_samples + burn, sys.n_nodes, cfg.dt)
    return _cascade(phi, gamma, sys.output_matrix(), draws, burn)


def simulate(sys: NetworkSystem, noise: NoiseConfig, cfg: SimConfig) -> TimeSeriesMatrix:
    """Sampled outputs of the full network driven by fresh noise streams.

    Deterministic: identical ``(sys, noise, cfg)`` give bit-identical output.
    The whole record is held; :func:`simulate_blocks` yields it block by block.
    """
    data = _collect(simulate_blocks(sys, noise, cfg), sys.n_nodes, cfg.n_samples)
    return TimeSeriesMatrix(data=data, dt=cfg.dt, channel_labels=tuple(range(1, sys.n_nodes + 1)))


def simulate_grounded(sys: NetworkSystem, j: int, noise: NoiseConfig,
                      cfg: SimConfig) -> TimeSeriesMatrix:
    """Sampled outputs with node ``j`` grounded (N-1 channels).

    The grounded run is simulated directly on the reduced coupling matrix and
    driven by its own independent streams, seeded ``SeedSequence((noise.seed,
    j))`` (the full run's ``(noise.seed, 0)`` equals ``noise.seed``), so no two
    runs of any seeds share a stream and running the N grounded experiments in
    any order (or in parallel) cannot change the result.
    """
    blocks = simulate_blocks(sys, noise, cfg, ground=j)
    labels = tuple(i for i in range(1, sys.n_nodes + 1) if i != j)
    data = _collect(blocks, len(labels), cfg.n_samples)
    return TimeSeriesMatrix(data=data, dt=cfg.dt, channel_labels=labels)


# ---------------------------------------------------------------------------
# binary container: magic, N (u32), L (u64), dt (f64), labels (N x u32),
# then row-major float64 samples; all little-endian.

def save_timeseries(path, ts: TimeSeriesMatrix) -> None:
    with open(path, "wb") as fh:
        fh.write(_HEAD.pack(_MAGIC, ts.n_channels, ts.n_samples, ts.dt))
        fh.write(struct.pack(f"<{ts.n_channels}I", *ts.channel_labels))
        fh.write(np.ascontiguousarray(ts.data, dtype="<f8"))  # the buffer, uncopied


def load_timeseries(path) -> TimeSeriesMatrix:
    with open(path, "rb") as fh:
        head = fh.read(_HEAD.size)
        if head[:len(_MAGIC)] != _MAGIC:
            raise ValidationError(f"{path} is not a netspectra time-series file")
        _, n, l, dt = _HEAD.unpack(head.ljust(_HEAD.size, b"\0"))  # short: size check fails
        if os.fstat(fh.fileno()).st_size != _HEAD.size + 4 * n + 8 * n * l:
            raise ValidationError(f"{path} is truncated: its size does not match its header")
        labels = struct.unpack(f"<{n}I", fh.read(4 * n))
        data = np.empty((n, l), dtype="<f8")
        if fh.readinto(data) != data.nbytes:
            raise ValidationError(f"{path} is truncated: it shrank while being read")
    data.flags.writeable = False
    return TimeSeriesMatrix(data=data, dt=dt, channel_labels=labels)
