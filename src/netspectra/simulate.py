"""Noise generation and zero-order-hold simulation of the networked dynamics.

The continuous-time network is driven by independent per-node noise: a
discrete white (optionally low-pass shaped) Gaussian sequence held constant
over each sampling interval.  The held input makes the discretization exact
(a matrix exponential, then a recursion in the real Schur basis lifted to
chunks of ``CASCADE_CHUNK`` samples, :func:`_cascade`: the states at the
chunk starts follow a cascade of recursions, one per real pole and one per
complex pole pair, each a real banded triangular solve, exact for defective
couplings too, and three GEMMs per block give their inputs and the outputs)
and gives the injected noise a known, strictly positive power spectral
density over a wide band:

    ``S_w(w) = sigma^2 * dt * sinc^2(w dt / 2)``            (unshaped)

which is flat to within 1% for ``|w| <= 0.35 / dt``.  That band is exposed as
the excitation interval so every downstream frequency choice stays inside it,
and analytic cross-checks use the exact injected density rather than an
idealisation.  Low-pass shaping, a first-order recursion per node, runs on the
cascade's own banded solve (:func:`_block_solver`).

Each simulation draws its noise one block ahead on a helper thread of its own
(:func:`_ahead`), so the draw, the largest single cost of a simulation,
overlaps the cascade's work on the block before.  Only work that releases the
GIL goes there: the ``standard_normal`` draw and its in-place scaling.  The
shaping solve, the cascade and the sinks stay on the caller's thread, because
f2py's ``dtbsv`` holds the GIL and two threads solving would take turns.  The
generator is advanced by one thread at a time, in order, so every number is
the one a single thread draws.

``scipy.linalg`` (``expm``, ``schur`` and BLAS ``dtbsv`` and ``dgemm``) is
imported inside :func:`discretize`, :func:`_cascade` and
:func:`_block_solver`, so a process loads it at its first simulation and one
that never simulates (``import netspectra``, the staged ``generate``,
``estimate``, ``reconstruct`` and ``evaluate``, an oracle run) never pays its
import.

A record is described by its header ``(channel labels, n_samples, dt)`` and
is either held, as a read-only :class:`TimeSeriesMatrix`, or streamed, as a
:class:`StreamedRecord`.  Both give ``into(sink)``, which feeds the record's
(channels x samples) blocks in time order to ``sink.feed`` and returns the
sink, so a consumer (an ``.nsts`` writer, a spectral accumulator) takes either
the same way.  :func:`simulate_blocks` is the one simulator, yielding blocks
of at most ``PROPAGATE_BLOCK`` samples with the propagator state carried
between them.  :func:`simulate`, :func:`simulate_grounded` and
:func:`load_timeseries` drive a stream, simulated or read from an ``.nsts``
file, into a sink, so neither the simulation nor the file is held; with no
sink they return the record held whole.
:func:`save_timeseries` writes a record block by block as it arrives.
"""

from __future__ import annotations

import math
import os
import struct
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .errors import NumericalError, StabilityError, ValidationError
from .graphs import _as_readonly
from .lti import InputPsdModel, NetworkSystem, is_hurwitz

__all__ = [
    "NoiseConfig",
    "SimConfig",
    "TimeSeriesMatrix",
    "StreamedRecord",
    "discretize",
    "simulate",
    "simulate_grounded",
    "simulate_blocks",
    "channel_labels",
    "save_timeseries",
    "load_timeseries",
]

#: Fraction of the sampling rate up to which the held-noise PSD is flat to ~1%.
FLAT_BAND_FRACTION = 0.35

#: Samples per block of the noise draw and the Schur cascade (cache-sized).
PROPAGATE_BLOCK = 2**14

#: Samples per chunk of the lifted Schur cascade: one state recursion step per chunk.
CASCADE_CHUNK = 8

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
        if self.shaping == "lowpass":
            phi, gam = self._ar1(dt)

        def evaluator(w: float) -> float:
            held = sig2 * dt * np.sinc(w * dt / (2 * math.pi)) ** 2
            if self.shaping == "none":
                return held
            return held * (gam**2 / abs(np.exp(1j * w * dt) - phi) ** 2)

        return InputPsdModel(evaluator=evaluator, omega_max=FLAT_BAND_FRACTION / dt)

    def _ar1(self, dt: float) -> tuple[float, float]:
        """``(phi, gamma)`` of the lowpass shaping ``u[k] = phi u[k-1] + gamma w[k]`` at step dt."""
        p = float(self.shaping_pole)
        phi = math.exp(p * dt)
        return phi, (phi - 1.0) / p

    def _draws(self, rng: np.random.Generator, n_samples: int, n_channels: int,
               dt: float) -> Iterator[np.ndarray]:
        """The noise in blocks of ``PROPAGATE_BLOCK`` samples (rows).

        Row-major chunks of ``standard_normal`` give the same numbers, bit for
        bit, as one whole-record draw.  They are drawn, and scaled in place,
        one block ahead on a helper thread (:func:`_ahead`); that work
        releases the GIL, so it overlaps the caller's.  Lowpass shaping stays
        on the caller's thread, because f2py's ``dtbsv`` holds the GIL and a
        solve on the helper would only take turns with the cascade's.  It
        solves each channel's recursion with :func:`_block_solver` on the 1x1
        block ``[[phi]]``, its last value carried into the next block, which
        gives the same numbers as one banded solve over the whole record.
        """
        scale = math.sqrt(self.variance)

        def raw() -> Iterator[np.ndarray]:
            for lo in range(0, n_samples, PROPAGATE_BLOCK):
                w = rng.standard_normal((min(PROPAGATE_BLOCK, n_samples - lo), n_channels))
                w *= scale
                yield w

        if self.shaping == "lowpass":
            phi, gam = self._ar1(dt)
            solve = _block_solver(np.array([[phi]]), 0, 1)
            last = np.zeros(n_channels)
        for w in _ahead(raw()):
            if self.shaping == "lowpass":
                # per channel a contiguous row [u[-1], gamma w[0], ...], which the solve takes uncopied
                u = np.empty((n_channels, w.shape[0] + 1))
                u[:, 0] = last
                np.multiply(w.T, gam, out=u[:, 1:])
                for row in u:
                    solve(row[None])
                w, last = u[:, 1:].T, u[:, -1]
            yield w


def _ahead(blocks: Iterator[np.ndarray]) -> Iterator[np.ndarray]:
    """The blocks of ``blocks``, each taken on a helper thread while the caller has the one before.

    One thread advances ``blocks`` at a time, in order, one block ahead of
    the caller.  An exception from ``blocks`` reaches the caller as itself,
    after the blocks before it; closing the generator waits for the block in
    flight and leaves no thread running.
    """
    with ThreadPoolExecutor(max_workers=1) as pool:
        ahead = pool.submit(next, blocks, None)
        while (block := ahead.result()) is not None:
            ahead = pool.submit(next, blocks, None)
            yield block


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

    def into(self, sink):
        """Feed the record to ``sink`` as one block and return ``sink``."""
        sink.feed(self.data)
        return sink


@dataclass(frozen=True)
class StreamedRecord:
    """A record that is not held: its header and the ``source`` that streams its blocks.

    ``source(sink)`` produces the record afresh, the same numbers at every
    call, feeds its (channels x samples) blocks in time order to
    ``sink.feed`` and returns ``sink``; ``source(None)`` returns the record
    held whole.  :func:`simulate`, :func:`simulate_grounded` and
    :func:`load_timeseries`, with the rest of their arguments bound, are such
    sources.
    """

    channel_labels: tuple[int, ...]
    n_samples: int
    dt: float
    source: Callable

    @property
    def n_channels(self) -> int:
        return len(self.channel_labels)

    def into(self, sink=None):
        """Stream the record into ``sink`` and return ``sink``; with none, the record held whole."""
        return self.source(sink)


def discretize(sys: NetworkSystem, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact ZOH discretization ``(Phi, Gamma)`` of the joint dynamics.

    ``Phi = exp(M dt)`` and ``Gamma = (int_0^dt exp(M s) ds) (I_N (x) b)``,
    obtained in one augmented matrix exponential (Van Loan block trick).
    The output map is unchanged.
    """
    from scipy.linalg import expm

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


def _block_solver(t: np.ndarray, lo: int, hi: int, n_max: int = PROPAGATE_BLOCK):
    """In-place solver of block ``T[lo:hi, lo:hi]``'s recursion ``z[k+1] = T_b z[k] + v[k]``.

    A real Schur block is one row (a real pole) or two (a complex pair).
    ``solve(zb)`` takes the block's rows ``zb = [z[0], v[0], ..., v[n-1]]``,
    ``n <= n_max``, and leaves ``zb = [z[0], ..., z[n]]``: one unit
    lower-banded solve by BLAS ``dtbsv`` over the rows interleaved in time,
    ``x[b k + r] = z_r[k]``, whose band holds ``-T[lo + r, lo + c]`` at offset
    ``b + r - c`` in columns ``c::b``.  One row is solved in place (through a
    copy when it is not contiguous); a pair is interleaved into a copy and
    back.  The band is Fortran-ordered and built once, so no call copies it.
    """
    from scipy.linalg.blas import dtbsv

    b = hi - lo
    band = np.zeros((2 * b, b * (n_max + 1)), order="F")
    band[0] = 1.0
    for r in range(b):
        for c in range(b):
            band[b + r - c, c::b] = -t[lo + r, lo + c]

    def solve(zb: np.ndarray) -> None:
        if b == 1:
            row = zb[0]
            x = dtbsv(1, band[:, :zb.shape[1]], row, lower=1, diag=1, overwrite_x=1)
            if x is not row:  # f2py solved a copy of a non-contiguous row
                row[:] = x
        else:
            x = dtbsv(2 * b - 1, band[:, :zb.size], zb.T.ravel(), lower=1, diag=1, overwrite_x=1)
            zb[:] = x.reshape(-1, b).T

    return solve


def _cascade(phi: np.ndarray, gamma: np.ndarray, cmat: np.ndarray,
             w_blocks: Iterable[np.ndarray], burn: int = 0) -> Iterator[np.ndarray]:
    """Outputs ``y[k] = C x[k]``, ``k >= burn``, of ``x[k+1] = Phi x[k] + Gamma w[k]``, ``x[0] = 0``.

    Exact for every ``Phi``, defective or not, in real arithmetic only, and
    lifted (Burrus 1972) to chunks of ``m = CASCADE_CHUNK`` samples.  In the
    real Schur basis ``Phi = Q T Q^T`` (``Q`` orthogonal, ``T`` quasi-upper
    triangular with a 2x2 diagonal block per complex pole pair), the state
    ``s`` of ``z = Q^T x`` at each chunk's start follows ``s' = T^m s + R w``,
    ``w`` the chunk's ``m`` inputs side by side and ``R = [T^(m-1-i) Q^T
    Gamma]``.  ``T^m`` has ``T``'s block structure, so block ``lo:hi`` of
    ``s`` is a recursion driven by ``R w`` plus ``T^m[lo:hi, hi:] s[hi:]``,
    solved bottom block first as one banded triangular solve per propagation
    block (:func:`_block_solver`).  The chunk's outputs are then ``y = O s + H
    w``, with ``O = [C Q T^k]`` and the block-Toeplitz Markov matrix ``H =
    [C Q T^(k-1-i) Q^T Gamma]``, ``i < k``: with the ``R w`` product, three
    GEMMs per propagation block.  Chunks start at each propagation block's
    start; a block that ends ``r`` samples into a chunk takes that chunk's
    outputs from its inputs padded with zeros and leaves ``T^r s + R_r w``,
    ``R_r`` the last ``r`` columns of ``R``, to the next.  ``w_blocks`` are
    (samples x inputs) blocks of at most ``PROPAGATE_BLOCK`` samples in time
    order; each yields its (channels x samples) outputs, a view of the GEMM
    output with the burn-in left out, and a non-finite output raises
    ``NumericalError``.
    """
    from scipy.linalg import schur
    from scipy.linalg.blas import dgemm

    t, q = schur(phi, output="real")
    m, nx, p, nu = CASCADE_CHUNK, t.shape[0], cmat.shape[0], gamma.shape[1]
    powers = [np.eye(nx)]  # T^0 .. T^m
    for _ in range(m):
        powers.append(t @ powers[-1])
    cq = cmat @ q
    obs = np.asfortranarray(np.vstack([cq @ tk for tk in powers[:m]]))  # O
    drive = np.hstack([tk @ (q.T @ gamma) for tk in powers[m - 1::-1]])  # R
    # H without its last column block, the chunk's last input, which no output of it sees
    markov = np.zeros((m * p, (m - 1) * nu))
    cr = cq @ drive
    for k in range(1, m):
        markov[k * p:(k + 1) * p, :k * nu] = cr[:, (m - k) * nu:]
    tm = powers[m]
    # the block starts of T: a 2x2 block of T^m may have lost its subdiagonal entry
    starts = [i for i in range(nx) if i == 0 or t[i, i - 1] == 0]
    n_chunks = PROPAGATE_BLOCK // m
    blocks = [(b_lo, b_hi, _block_solver(tm, b_lo, b_hi, n_chunks))
              for b_lo, b_hi in zip(starts, starts[1:] + [nx])]
    s = np.zeros((nx, n_chunks + 1))  # column 0 carries the state in from the block before
    lo = 0
    for w in w_blocks:
        n = w.shape[0]
        if n > PROPAGATE_BLOCK:
            raise ValueError(f"a block holds {n} samples, more than PROPAGATE_BLOCK")
        full, r = divmod(n, m)
        wc = w[:full * m].reshape(full, m * nu)
        tail = np.zeros((m - 1) * nu)  # the inputs of a last, partial chunk, padded with zeros
        tail[:r * nu] = w[full * m:].ravel()
        sb = s[:, :full + 1]
        np.matmul(drive, wc.T, out=sb[:, 1:])
        for b_lo, b_hi, solve in reversed(blocks):
            sb[b_lo:b_hi, 1:] += tm[b_lo:b_hi, b_hi:] @ sb[b_hi:, :full]
            solve(sb[b_lo:b_hi])
        hi = lo + n
        if hi > burn:
            y = np.empty((full + (r > 0), m * p))
            if full:
                np.matmul(wc[:, :(m - 1) * nu], markov.T, out=y[:full])
                dgemm(1.0, obs, sb[:, :full], beta=1.0, c=y[:full].T, overwrite_c=1)  # += S^T O^T
            if r:
                y[full] = markov @ tail + obs @ sb[:, full]
            y = y.reshape(-1, p)[max(0, burn - lo):n].T
            if not np.isfinite(y).all():
                raise NumericalError("simulation produced non-finite samples (overflow)")
            yield y
        s[:, 0] = powers[r] @ sb[:, full] + drive[:, (m - r) * nu:] @ tail[:r * nu]
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


def _deliver(blocks: Iterator[np.ndarray], sink, labels, n_samples: int, dt: float):
    """Feed the stream ``blocks`` to ``sink`` and return it.

    With no sink, the record with header ``(labels, n_samples, dt)`` is
    returned held whole.  The stream is closed on the way out, so one that a
    failed sink leaves unfinished stops its noise draw at once.
    """
    with closing(blocks):
        if sink is None:
            return TimeSeriesMatrix(data=_collect(blocks, len(labels), n_samples), dt=dt,
                                    channel_labels=labels)
        for block in blocks:
            sink.feed(block)
        return sink


def channel_labels(n_nodes: int, ground: Optional[int] = None) -> tuple[int, ...]:
    """The 1-based node of each channel of a run: every node, or all but the grounded one."""
    return tuple(i for i in range(1, n_nodes + 1) if i != ground)


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

    def outputs() -> Iterator[np.ndarray]:
        with closing(draws):  # a cascade that raises stops the draw ahead too
            yield from _cascade(phi, gamma, sys.output_matrix(), draws, burn)
    return outputs()


def simulate(sys: NetworkSystem, noise: NoiseConfig, cfg: SimConfig, sink=None):
    """Sampled outputs of the full network driven by fresh noise streams.

    Each block of :func:`simulate_blocks` goes to ``sink.feed`` as it is
    simulated, and ``sink`` is returned; with no sink, the record is returned
    held whole as a :class:`TimeSeriesMatrix`.  Deterministic: identical
    ``(sys, noise, cfg)`` give bit-identical output.
    """
    return _deliver(simulate_blocks(sys, noise, cfg), sink, channel_labels(sys.n_nodes),
                    cfg.n_samples, cfg.dt)


def simulate_grounded(sys: NetworkSystem, j: int, noise: NoiseConfig, cfg: SimConfig,
                      sink=None):
    """Sampled outputs with node ``j`` grounded (N-1 channels), into ``sink`` as :func:`simulate`.

    The grounded run is simulated directly on the reduced coupling matrix and
    driven by its own independent streams, seeded ``SeedSequence((noise.seed,
    j))`` (the full run's ``(noise.seed, 0)`` equals ``noise.seed``), so no two
    runs of any seeds share a stream and running the N grounded experiments in
    any order (or in parallel) cannot change the result.
    """
    return _deliver(simulate_blocks(sys, noise, cfg, ground=j), sink,
                    channel_labels(sys.n_nodes, j), cfg.n_samples, cfg.dt)


# ---------------------------------------------------------------------------
# binary container: magic, N (u32), L (u64), dt (f64), labels (N x u32),
# then the samples as float64, channel after channel; all little-endian.

def _offset(n_channels: int, n_samples: int, ch: int, lo: int) -> int:
    """Where sample ``lo`` of channel ``ch`` sits in an ``.nsts`` file."""
    return _HEAD.size + 4 * n_channels + 8 * (ch * n_samples + lo)


class _NstsWriter:
    """The sink of :func:`save_timeseries`: each block to its place in an open ``.nsts`` file."""

    def __init__(self, fh, n_channels: int, n_samples: int):
        self._fh, self._shape = fh, (n_channels, n_samples)
        self.n_samples = 0

    def feed(self, block: np.ndarray) -> None:
        n, l = self._shape
        if block.shape[0] != n or self.n_samples + block.shape[1] > l:
            raise ValidationError(
                f"a {block.shape} block does not fit a record of {n} channels "
                f"x {l} samples after {self.n_samples} samples")
        for ch, row in enumerate(block):
            self._fh.seek(_offset(n, l, ch, self.n_samples))
            self._fh.write(np.ascontiguousarray(row, dtype="<f8"))
        self.n_samples += block.shape[1]


def save_timeseries(path, record) -> None:
    """Write ``record``, held or streamed, as an ``.nsts`` file.

    Each (channels x samples) block goes to its place in the file as it
    arrives, one positioned write per channel, so a streamed record is never
    held.  The blocks must hold the header's samples of its channels in all
    (else :class:`ValidationError`); a stream that does not, or that raises,
    leaves no file behind.
    """
    labels, l = record.channel_labels, record.n_samples
    n = len(labels)
    fh = open(path, "wb")
    try:
        with fh:
            fh.write(_HEAD.pack(_MAGIC, n, l, record.dt) + struct.pack(f"<{n}I", *labels))
            done = record.into(_NstsWriter(fh, n, l)).n_samples
            if done != l:
                raise ValidationError(f"the record ended after {done} of {l} samples")
    except BaseException:
        os.unlink(path)
        raise


def load_timeseries(path, labels, n_samples: int, dt: float, sink=None):
    """Read the record of an ``.nsts`` file into ``sink`` and return ``sink``.

    The header is checked before any sample is read: the file must be a
    netspectra time series whose size matches its header, and the header
    must be ``(labels, n_samples, dt)``, the run the caller expects.  The
    samples then go to ``sink.feed`` ``PROPAGATE_BLOCK`` columns at a time
    (the last block may hold fewer), one positioned read per channel; with no
    sink, the record is returned held whole.  A failed check, a file that
    shrinks while being read and a non-finite sample each raise
    :class:`ValidationError`.
    """
    labels = tuple(labels)
    with open(path, "rb") as fh:
        head = fh.read(_HEAD.size)
        if head[:len(_MAGIC)] != _MAGIC:
            raise ValidationError(f"{path} is not a netspectra time-series file")
        _, n, l, file_dt = _HEAD.unpack(head.ljust(_HEAD.size, b"\0"))  # short: size check fails
        if os.fstat(fh.fileno()).st_size != _offset(n, l, n, 0):  # the end of the last channel
            raise ValidationError(f"{path} is truncated: its size does not match its header")
        file_labels = struct.unpack(f"<{n}I", fh.read(4 * n))
        if (file_labels, l, file_dt) != (labels, n_samples, dt):
            raise ValidationError(
                f"{path} holds channels {file_labels} x {l} samples at dt={file_dt!r}, "
                f"not the run's channels {labels} x {n_samples} samples at dt={dt!r}")
        return _deliver(_read_blocks(fh, path, n, l), sink, labels, n_samples, dt)


def _read_blocks(fh, path, n_channels: int, n_samples: int) -> Iterator[np.ndarray]:
    """The samples of the checked ``.nsts`` file ``fh``, ``PROPAGATE_BLOCK`` columns at a time."""
    for lo in range(0, n_samples, PROPAGATE_BLOCK):
        block = np.empty((n_channels, min(PROPAGATE_BLOCK, n_samples - lo)), dtype="<f8")
        for ch, row in enumerate(block):
            fh.seek(_offset(n_channels, n_samples, ch, lo))
            if fh.readinto(row) != row.nbytes:
                raise ValidationError(f"{path} is truncated: it shrank while being read")
        if not np.isfinite(block).all():
            raise ValidationError(f"{path} contains non-finite samples")
        yield block
