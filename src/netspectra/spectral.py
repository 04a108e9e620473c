"""Cross-power spectral density estimation at a single frequency.

The reconstruction algorithms need the output CPSD matrix at one frequency
only, so the estimator computes exactly that: each channel's windowed segment
transforms are evaluated at a single FFT bin (shared across all channel pairs)
and averaged Welch-style into an exactly Hermitian matrix.  The one estimator
is :class:`CpsdAccumulator`, which takes the record block by block as it is
simulated or read, reduces each segment to N complex numbers as it goes by and
gives the same bytes for any chunking.  :func:`estimate_cpsd_matrix` streams a
record, held or streamed (:mod:`netspectra.simulate`), into it.  The automatic
choice of frequency (:func:`select_omega0`) sums the PSD grid over the same
segment batches, so it too holds no record.  Requested frequencies are snapped
to the segment grid ``2 pi k / (segment_length * dt)`` so that estimates and
analytic references are always compared at the same frequency.

A lag-domain path (:func:`estimate_cpsd_lag_domain`) computes the same
quantity through explicit full-lag cross-correlations followed by a
single-frequency transform.  It is mathematically the single cross-periodogram
(no averaging, high variance) and exists for cost-model benchmarking where the
quadratic-in-length correlation stage is the object of study.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NumericalError, ValidationError
from .lti import CpsdMatrix, NodeDynamics, nodal_transfer
from .simulate import TimeSeriesMatrix

__all__ = [
    "SpectralConfig",
    "CpsdInverse",
    "CpsdAccumulator",
    "estimate_cpsd_matrix",
    "estimate_cpsd_lag_domain",
    "estimate_psd_grid",
    "estimate_inverse_cpsd",
    "select_omega0",
]

#: Minimum |h(jw)| for a frequency to be admissible in automatic selection.
H_ADMISSIBLE_TOL = 1e-6

#: Diagonal loading factor applied to indefinite estimated CPSD matrices.
LOADING_EPS = 1e-10


@dataclass(frozen=True)
class SpectralConfig:
    """Averaged-periodogram estimator parameters.

    ``overlap_fraction=0`` with the rectangular window reproduces plain
    non-overlapping segment averaging; the default (hann, 50% overlap) has
    lower variance at equal record length.
    """

    segment_length: int = 4096
    overlap_fraction: float = 0.5
    window: str = "hann"
    detrend: str = "mean"

    def __post_init__(self):
        s = self.segment_length
        if s < 2 or (s & (s - 1)) != 0:
            raise ValidationError(f"segment_length must be a power of two, got {s}")
        if not 0.0 <= self.overlap_fraction < 1.0:
            raise ValidationError("overlap_fraction must lie in [0, 1)")
        if self.window not in ("hann", "rectangular"):
            raise ValidationError(f"unknown window {self.window!r}")
        if self.detrend not in ("mean", "none"):
            raise ValidationError(f"unknown detrend {self.detrend!r}")

    @property
    def step(self) -> int:
        return max(1, int(round(self.segment_length * (1.0 - self.overlap_fraction))))

    def window_values(self) -> np.ndarray:
        """The periodic window, bit for bit SciPy's ``get_window(window, M)``.

        The Hann window is scipy's own cosine sum over ``M + 1`` symmetric
        points with the last dropped; ``0.5 - 0.5 cos(2 pi n / M)`` differs
        from it in the last bit.
        """
        m = self.segment_length
        if self.window == "rectangular":
            return np.ones(m)
        fac = np.linspace(-np.pi, np.pi, m + 1)
        return (0.5 + 0.5 * np.cos(fac))[:m]

    def n_segments(self, n_samples: int) -> int:
        return (n_samples - self.segment_length) // self.step + 1


def require_two_segments(n_samples: int, cfg: SpectralConfig) -> None:
    """Raise :class:`ValidationError` for a record shorter than two segments."""
    if n_samples < 2 * cfg.segment_length:
        raise ValidationError(
            f"record of {n_samples} samples is shorter than twice the "
            f"segment length {cfg.segment_length}"
        )


def _check_record(n_samples: int, cfg: SpectralConfig) -> int:
    require_two_segments(n_samples, cfg)
    k = cfg.n_segments(n_samples)
    if k < 8:
        warnings.warn(f"only {k} segments averaged; estimates will be noisy")
    return k


def snap_frequency(omega0: float, ts_dt: float, cfg: SpectralConfig) -> tuple[float, int]:
    """Snap to the nearest admissible bin ``2 pi k / (segment_length * dt)``.

    Returns ``(snapped_omega, bin_index)``.  DC and the Nyquist bin are not
    admissible (detrending removes DC; Nyquist carries no phase information).
    """
    nyquist = np.pi / ts_dt
    if abs(omega0) >= nyquist:
        raise ValidationError(
            f"omega0={omega0:.6g} is at or above the Nyquist rate {nyquist:.6g}"
        )
    spacing = 2 * np.pi / (cfg.segment_length * ts_dt)
    k = int(round(abs(omega0) / spacing))
    k = min(k, cfg.segment_length // 2 - 1)
    if k == 0:
        raise NumericalError(
            f"omega0={omega0:.6g} snaps to the DC bin; increase the segment "
            "length or choose a larger frequency"
        )
    return k * spacing, k


#: Segments per transform batch of :class:`CpsdAccumulator` and the PSD grid; a
#: batch of 4096-sample segments is 512 KiB per channel, small enough to stay in cache.
ACCUMULATOR_BATCH = 16


class _SegmentBuffer:
    """A record fed block by block and cut into its Welch segments, a batch at a time.

    :meth:`feed` takes (channels x samples) blocks in time order, of any
    sizes.  Whenever ``ACCUMULATOR_BATCH`` segments are buffered they go to
    the subclass's ``_batch(segs)``, ``segs`` one read-only (channels, n_seg,
    segment_length) strided view of the buffer, and only the samples of later
    segments are kept, so the batches are cut at fixed segment indices however
    the record is chunked, and memory is one batch span of samples whatever its
    length.  :meth:`_rest` gives the segment count and the last, partial batch
    (empty when the count is a multiple of the batch), which no ``_batch`` has
    seen.
    """

    def __init__(self, n_channels: int, cfg: SpectralConfig):
        self.cfg = cfg
        self._buf = np.empty((n_channels, (ACCUMULATOR_BATCH - 1) * cfg.step + cfg.segment_length))
        self._fill = 0
        self._batches = 0
        self.n_samples = 0

    def feed(self, block: np.ndarray) -> None:
        block = np.asarray(block, dtype=float)
        if block.ndim != 2 or block.shape[0] != self._buf.shape[0]:
            raise ValidationError(
                f"expected ({self._buf.shape[0]} x samples) blocks, got {block.shape}"
            )
        cap, lo = self._buf.shape[1], 0
        while lo < block.shape[1]:
            take = min(cap - self._fill, block.shape[1] - lo)
            self._buf[:, self._fill:self._fill + take] = block[:, lo:lo + take]
            self._fill += take
            lo += take
            if self._fill == cap:
                self._batch(self._buffered(ACCUMULATOR_BATCH))
                self._batches += 1
                used = ACCUMULATOR_BATCH * self.cfg.step
                self._buf[:, :cap - used] = self._buf[:, used:]
                self._fill = cap - used
        self.n_samples += block.shape[1]

    def _buffered(self, n_seg: int) -> np.ndarray:
        """Read-only (channels, n_seg, segment_length) view of the first ``n_seg`` segments.

        The caller asks only for segments the buffer holds whole.
        """
        ch, sample = self._buf.strides
        return np.lib.stride_tricks.as_strided(
            self._buf, (self._buf.shape[0], n_seg, self.cfg.segment_length),
            (ch, self.cfg.step * sample, sample), writeable=False)

    def _rest(self) -> tuple[int, np.ndarray]:
        """``(K, segs)``: the record's segment count and its segments not yet batched."""
        n_seg = _check_record(self.n_samples, self.cfg)
        return n_seg, self._buffered(n_seg - ACCUMULATOR_BATCH * self._batches)


class CpsdAccumulator(_SegmentBuffer):
    """Welch-averaged CPSD matrix at one bin, fed a record block by block.

    Each batch of segments is transformed by one real GEMM per channel
    against the windowed ``[Re phase, Im phase, ones]`` basis (the last column
    gives the segment mean for detrending), so the arithmetic, and the
    result, are the same bit for bit however the record is chunked.  Memory
    is one batch span of samples plus the K x N segment transforms, never the
    whole record.
    """

    def __init__(self, n_channels: int, dt: float, omega0: float, cfg: SpectralConfig):
        self.omega, k = snap_frequency(omega0, dt, cfg)
        super().__init__(n_channels, cfg)
        self.dt = dt
        s = cfg.segment_length
        phase = cfg.window_values() * np.exp(-2j * np.pi * k * np.arange(s) / s)
        self._basis = np.stack([phase.real, phase.imag, np.ones(s)], axis=1)
        self._mean_gain = phase.sum() / s
        self._transforms: list[np.ndarray] = []

    def _batch(self, segs: np.ndarray) -> None:
        self._transforms.append(self._transform(segs))

    def _transform(self, segs: np.ndarray) -> np.ndarray:
        """Windowed, detrended transforms of a batch of segments: (n_seg, N)."""
        x = np.empty((len(segs[0]), len(segs)), dtype=complex)
        for ch, seg in enumerate(segs):
            t = np.ascontiguousarray(seg) @ self._basis
            x[:, ch] = t[:, 0] + 1j * t[:, 1]
            if self.cfg.detrend == "mean":
                x[:, ch] -= t[:, 2] * self._mean_gain
        return x

    def result(self) -> CpsdMatrix:
        """The estimate from everything fed so far (see :func:`estimate_cpsd_matrix`)."""
        n_seg, rest = self._rest()
        x = np.concatenate(self._transforms + ([self._transform(rest)] if len(rest[0]) else []))
        win = self.cfg.window_values()
        scale = self.dt / (n_seg * (win * win).sum())
        return CpsdMatrix(values=scale * (x.T @ x.conj()), omega=self.omega, source="estimated",
                          segment_count=n_seg)


class _PsdGrid(_SegmentBuffer):
    """Per-channel sums of the segment periodograms over the whole bin grid."""

    def __init__(self, n_channels: int, dt: float, cfg: SpectralConfig):
        super().__init__(n_channels, cfg)
        self.dt = dt
        self.sums = np.zeros((n_channels, cfg.segment_length // 2 + 1))

    def _batch(self, segs: np.ndarray) -> None:
        win = self.cfg.window_values()
        for total, batch in zip(self.sums, segs):
            if self.cfg.detrend == "mean":
                batch = batch - batch.mean(axis=1, keepdims=True)
            spec = np.fft.rfft(batch * win, axis=1)
            for power in spec.real**2 + spec.imag**2:
                total += power  # row by row, the order of a sum over axis 0

    def result(self) -> tuple[np.ndarray, np.ndarray]:
        """``(omegas, psd)`` from everything fed so far (see :func:`estimate_psd_grid`)."""
        n_seg, rest = self._rest()
        self._batch(rest)
        win = self.cfg.window_values()
        psd = self.sums * (self.dt / (n_seg * (win * win).sum()))
        return 2 * np.pi * np.fft.rfftfreq(self.cfg.segment_length, self.dt), psd


def estimate_cpsd_matrix(record, omega0: float, cfg: SpectralConfig) -> CpsdMatrix:
    """Welch-averaged CPSD matrix at the bin nearest ``omega0``.

    The result is exactly Hermitian with a real nonnegative diagonal and
    carries the averaged segment count ``K``.  Density convention: two-sided,
    per angular frequency, i.e. directly comparable with
    :func:`netspectra.lti.analytic_cpsd`.  ``record``, a held
    :class:`~netspectra.simulate.TimeSeriesMatrix` or a
    :class:`~netspectra.simulate.StreamedRecord`, streams into a
    :class:`CpsdAccumulator`, so both give the same matrix bit for bit.
    """
    return record.into(CpsdAccumulator(record.n_channels, record.dt, omega0, cfg)).result()


#: Tile size for the lag-domain correlation; keeps every partial correlation
#: cache-resident so the quadratic cost has a length-independent constant.
_CORR_BLOCK = 2048


def _full_correlate(x: np.ndarray, y: np.ndarray, block: int = _CORR_BLOCK) -> np.ndarray:
    """All-lags cross-correlation sum_n x[n + m] y[n], m = -(L-1)..(L-1).

    Tiled into block-pair partial correlations; bitwise layout matches
    ``np.correlate(x, y, mode="full")`` up to summation order.
    """
    l = x.size
    if l <= block:
        return np.correlate(x, y, mode="full")
    n_blocks = -(-l // block)
    lp = n_blocks * block
    xp = np.zeros(lp)
    xp[:l] = x
    yp = np.zeros(lp)
    yp[:l] = y
    out = np.zeros(2 * lp - 1)
    for a in range(n_blocks):
        xa = xp[a * block : (a + 1) * block]
        for b in range(n_blocks):
            yb = yp[b * block : (b + 1) * block]
            c = np.correlate(xa, yb, mode="full")
            center = lp - 1 + (a - b) * block
            out[center - (block - 1) : center + block] += c
    return out[(lp - 1) - (l - 1) : (lp - 1) + l]


def estimate_cpsd_lag_domain(ts: TimeSeriesMatrix, omega0: float) -> CpsdMatrix:
    """CPSD matrix via explicit full-lag cross-correlations (cost-model path).

    Computes the biased cross-correlation of every channel pair over all
    ``2L-1`` lags (quadratic in the record length) and transforms it at the
    single frequency ``|omega0|``.  Equivalent to the un-averaged cross
    periodogram; meant for benchmarking, not precision estimation.
    """
    n, l = ts.n_channels, ts.n_samples
    nyquist = np.pi / ts.dt
    if abs(omega0) >= nyquist:
        raise ValidationError(
            f"omega0={omega0:.6g} is at or above the Nyquist rate {nyquist:.6g}"
        )
    data = ts.data - ts.data.mean(axis=1, keepdims=True)
    lags = np.arange(-(l - 1), l)
    phase = np.exp(-1j * abs(omega0) * lags * ts.dt)
    s = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(i, n):
            # biased estimate: entry m' holds sum_n x_i[n + lags[m']] x_j[n]
            r = _full_correlate(data[i], data[j]) / l
            val = ts.dt * (r @ phase)
            s[i, j] = val
            s[j, i] = np.conj(val)
    s[np.diag_indices_from(s)] = np.maximum(np.diag(s).real, 0.0)
    return CpsdMatrix(values=s, omega=float(abs(omega0)), source="estimated", segment_count=1)


def estimate_psd_grid(record, cfg: SpectralConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel Welch PSD over the whole segment grid of ``record``, held or streamed.

    Returns ``(omegas, psd)`` with ``psd[ch, f]`` two-sided density values on
    the nonnegative half-grid ``omegas = 2 pi k / (segment_length * dt)``.
    The segments are cut and batched as :class:`CpsdAccumulator` cuts them.
    """
    return record.into(_PsdGrid(record.n_channels, record.dt, cfg)).result()


@dataclass(frozen=True)
class CpsdInverse:
    """Inverse CPSD matrix with its conditioning report.

    ``loaded`` records whether diagonal loading was needed to restore positive
    definiteness of an estimated matrix (it never fires on analytic inputs).
    """

    values: np.ndarray
    condition_number: float
    min_eigenvalue: float
    loaded: bool


def estimate_inverse_cpsd(s: CpsdMatrix) -> CpsdInverse:
    """Invert a Hermitian CPSD matrix, reporting conditioning.

    Estimated matrices that fail positive definiteness receive one round of
    diagonal loading ``eps * trace / N`` (eps = 1e-10); analytic matrices must
    be positive definite as given.  The inverse is ``np.linalg.inv`` averaged
    with its conjugate transpose, so it is exactly Hermitian; the eigenvalues
    only decide the loading and give the condition number.
    """
    v = s.values
    lam = np.linalg.eigvalsh(v)
    loaded = False
    if lam[0] <= 0.0:
        if s.source == "estimated":
            shift = LOADING_EPS * np.trace(v).real / s.n_nodes
            v = v + shift * np.eye(s.n_nodes)
            lam = np.linalg.eigvalsh(v)
            loaded = True
        if lam[0] <= 0.0:
            raise NumericalError(
                f"CPSD matrix at omega={s.omega:.6g} is singular or indefinite "
                f"(min eigenvalue {lam[0]:.3e})"
                + ("" if loaded else "; analytic input should be positive definite")
            )
    inv = np.linalg.inv(v)
    inv = 0.5 * (inv + inv.conj().T)
    return CpsdInverse(
        values=inv,
        condition_number=float(lam[-1] / lam[0]),
        min_eigenvalue=float(lam[0]),
        loaded=loaded,
    )


def select_omega0(
    record,
    omega_max: float,
    cfg: SpectralConfig,
    node: Optional[NodeDynamics] = None,
) -> float:
    """Pick a reconstruction frequency on the estimator's bin grid of ``record``.

    Any frequency inside the excitation band ``(0, omega_max)`` is
    theoretically valid; this policy maximises the worst-channel estimated
    PSD (best signal floor, :func:`estimate_psd_grid` of ``record``) over the
    bins in it, skipping bins where the nodal transfer function is within
    ``1e-6`` of a transmission zero.  Deterministic given the inputs; ties
    resolve to the lowest frequency.
    """
    if omega_max <= 0:
        raise ValidationError("noise band upper edge must be positive")
    omegas, psd = estimate_psd_grid(record, cfg)
    admissible = (omegas > 0) & (omegas < omega_max) & (omegas < np.pi / record.dt)
    if node is not None:
        for i in np.flatnonzero(admissible):
            admissible[i] = abs(nodal_transfer(node, omegas[i])) >= H_ADMISSIBLE_TOL
    if not admissible.any():
        raise NumericalError(
            f"no admissible frequency bin in (0, {omega_max:.6g}); "
            "increase the segment length or widen the band"
        )
    floor = psd.min(axis=0)
    score = np.where(admissible, floor, -np.inf)
    return float(omegas[int(np.argmax(score))])
