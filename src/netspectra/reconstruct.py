"""Topology reconstruction from CPSD matrices at a single frequency.

Four recovery routes are implemented, all operating on the inverse of the
output CPSD matrix evaluated at one frequency ``w0`` inside the excitation
band:

* :func:`boolean_directed` -- edge presence for an arbitrary directed network
  from the full run plus the ``N`` grounded runs; needs no knowledge of the
  input noise.
* :func:`exact_directed` -- edge weights for the same setting, once the input
  density ``S_w(w0)`` is known (recoverable through
  :func:`input_psd_from_eigenpair` whenever an eigenpair of the connectivity
  matrix is known a priori, e.g. diffusive/Laplacian coupling or in-regular
  adjacencies).
* :func:`exact_undirected` -- symmetric networks, no grounding required: a
  real symmetric square root plus a scalar shift.
* :func:`nonreciprocal` -- networks with no bidirectional pairs, no grounding
  required: the skew part of the inverse CPSD carries ``G - G^T``.

Grounding node ``j`` deletes its row and column from both the coupling matrix
and the CPSD; the inverse-CPSD diagonal of surviving node ``i`` then drops by
exactly ``g_ji^2 / S_w``.  Both grounding routes threshold that drop; the
exact route then weighs each present edge ``sqrt(S_w * drop)``.  Diagonal
entries ``g_jj`` are unobservable by construction (grounding removes them
with the row/column); recovered diagonals are fixed at zero and flagged.

Every route computes its raw statistic once, inverting every CPSD matrix
once, compares it with ``tau`` -- a number, or a policy such as
:func:`threshold_heuristic` called on the finite raw values (the positive
ones for the antisymmetric nonreciprocal skew) -- and gives absent entries
weight zero.  The statistic is unscaled by ``S_w``, except in the undirected
route, whose statistic is its off-diagonal weights.  The weighted routes
take ``S_w`` the same way: a number, or a policy such as
:func:`eigenpair_input_psd` called on the inverse of the full CPSD that the
route has computed, so recovering ``S_w`` inverts nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import FrequencyRejectedError, NumericalError, ValidationError
from .graphs import BooleanStructure, ConnectivityMatrix
from .lti import CpsdMatrix, check_nodal_transfer
from .spectral import CpsdInverse, estimate_inverse_cpsd

__all__ = [
    "ReconstructionDiagnostics",
    "ReconstructionResult",
    "UndirectedRecovery",
    "eigenpair_input_psd",
    "input_psd_from_eigenpair",
    "input_psd_laplacian",
    "boolean_directed",
    "exact_directed",
    "exact_undirected",
    "nonreciprocal",
    "threshold_heuristic",
]

#: Default edge threshold for analytic pipelines (empirical runs should use
#: the gap heuristic or a user-chosen value).
DEFAULT_TAU = 1e-6

#: |Im{1/h}| below this rejects the frequency for the skew-part method.
IM_H_INV_TOL = 1e-8

#: Relative eigenvalue clamp of the undirected square root, by CPSD source:
#: an estimate's eigenvalues scatter by about ``K^-1/2``.
EIG_CLAMP_TOL = {"analytic": 1e-8, "estimated": 0.05}

#: Significance level of the undirected route's symmetry test: an estimate
#: whose imaginary part is this improbable under symmetry is refused.
SYMMETRY_ALPHA = 0.01

#: An edge threshold: a number, or a policy mapping the finite raw statistics
#: to one (:func:`threshold_heuristic` is such a policy).
Tau = Union[float, Callable[[np.ndarray], float]]

#: The input density ``S_w(w0)``: a number, or a policy mapping the inverse of
#: the full CPSD to one (:func:`eigenpair_input_psd` gives such a policy).
InputPsd = Union[float, Callable[[CpsdInverse], float]]


@dataclass(frozen=True)
class ReconstructionDiagnostics:
    """Raw per-entry statistics and numerical health of a reconstruction.

    ``raw_differences[j, i]`` holds the inverse-CPSD diagonal difference for
    the candidate edge ``v_i -> v_j`` (ungrounded minus grounded-at-``j``),
    before any scaling or clamping; ``nan`` on the diagonal.  For the
    grounding-free routes it holds the analogous raw edge statistic.
    """

    raw_differences: np.ndarray
    clamp_count: int = 0
    suppressed_count: int = 0
    condition_numbers: dict = field(default_factory=dict)
    loaded: tuple = ()
    notes: tuple = ()


@dataclass(frozen=True)
class ReconstructionResult:
    """Recovered topology plus everything needed to audit it."""

    omega0: float
    boolean_structure: Optional[BooleanStructure] = None
    weights: Optional[ConnectivityMatrix] = None
    input_psd_estimate: Optional[float] = None
    threshold_used: Optional[float] = None
    diagnostics: Optional[ReconstructionDiagnostics] = None


def eigenpair_input_psd(
    s: CpsdMatrix,
    h: complex,
    eigenvalue: float,
    eigenvector: np.ndarray,
) -> Callable[[CpsdInverse], float]:
    """The ``S_w`` policy of a known eigenpair: :func:`input_psd_from_eigenpair` as a
    function of the inverse of ``s``.

    ``h`` and the eigenvector are checked against ``s`` here; a route calls
    the policy on the inverse of ``s`` it computes anyway, so the recovery
    inverts nothing of its own.
    """
    check_nodal_transfer(h, s.omega)
    u = np.asarray(eigenvector, dtype=float)
    if u.shape != (s.n_nodes,):
        raise ValidationError(
            f"eigenvector has shape {u.shape}, expected ({s.n_nodes},)"
        )
    norm2 = float(u @ u)
    if norm2 == 0.0:
        raise ValidationError("eigenvector must be nonzero")

    def policy(inv: CpsdInverse) -> float:
        quad = float(np.real(u @ inv.values @ u))
        if quad <= 0.0:
            raise NumericalError(
                f"quadratic form u^T S^-1 u = {quad:.3e} is not positive; the CPSD "
                f"estimate is unusable (condition number {inv.condition_number:.3e})"
            )
        lam = float(eigenvalue)
        s_w = norm2 * abs(lam * h - 1.0) ** 2 / (quad * abs(h) ** 2)
        if s_w <= 0.0:
            raise NumericalError("recovered input PSD is not positive")
        return s_w

    return policy


def input_psd_from_eigenpair(
    s: CpsdMatrix,
    h: complex,
    eigenvalue: float,
    eigenvector: np.ndarray,
) -> float:
    """Recover the input noise density ``S_w(w)`` from a known eigenpair.

    For ``G u = lam u`` the quadratic form of the inverse CPSD satisfies
    ``u^T S^{-1} u * S_w = ||u||^2 |lam h - 1|^2 / |h|^2``; solving for
    ``S_w`` needs no knowledge of the rest of ``G``.  The formula is invariant
    to the scaling of ``u``.  This inverts ``s``; a route given
    :func:`eigenpair_input_psd` in place of the number reuses its own inverse.
    """
    return eigenpair_input_psd(s, h, eigenvalue, eigenvector)(estimate_inverse_cpsd(s))


def input_psd_laplacian(s: CpsdMatrix, h: complex) -> float:
    """Input density for diffusive (Laplacian) coupling: eigenpair ``(0, ones)``.

    Reduces to ``N / ((1^T S^{-1} 1) |h|^2)``.
    """
    return input_psd_from_eigenpair(s, h, 0.0, np.ones(s.n_nodes))


def _input_psd(s_w: InputPsd, inv: CpsdInverse) -> float:
    """``S_w``: the number given, or what its policy makes of the full CPSD's inverse ``inv``."""
    if callable(s_w):
        s_w = s_w(inv)
    if s_w <= 0:
        raise ValidationError("S_w must be positive")
    return s_w


def _grounded_row(s_inv: np.ndarray, sj_inv: np.ndarray, j: int) -> np.ndarray:
    """Full minus grounded-at-``j`` inverse-CPSD diagonal, ``nan`` at ``j``.

    Grounded indices above ``j`` sit one lower, so entry ``j`` of the full
    diagonal is skipped before the subtraction.
    """
    full = s_inv.diagonal().real
    keep = np.arange(full.size) != j - 1
    row = np.full(full.size, np.nan)
    row[keep] = full[keep] - sj_inv.diagonal().real
    return row


def _grounding_statistic(
    s: CpsdMatrix, grounded: Sequence[tuple[int, CpsdMatrix]]
) -> tuple[np.ndarray, dict[str, CpsdInverse]]:
    """The raw grounding differences and the inverses they came from.

    Row ``j - 1`` of the raw matrix is :func:`_grounded_row` of the
    grounded-at-``j`` experiment.  Every matrix is checked before any is
    inverted, and each is inverted once.
    """
    n = s.n_nodes
    by_node: dict[int, CpsdMatrix] = {}
    for j, sj in grounded:
        j = int(j)
        if not 1 <= j <= n:
            raise IndexError(f"grounded index {j} out of range [1, {n}]")
        if j in by_node:
            raise ValidationError(f"duplicate grounded matrix for node {j}")
        if sj.n_nodes != n - 1:
            raise ValidationError(
                f"grounded CPSD for node {j} has size {sj.n_nodes}, expected {n - 1}"
            )
        if not np.isclose(sj.omega, s.omega, rtol=1e-9, atol=1e-12):
            raise ValidationError(
                f"grounded CPSD for node {j} is at omega={sj.omega!r}, "
                f"full CPSD at omega={s.omega!r}"
            )
        by_node[j] = sj
    missing = sorted(set(range(1, n + 1)) - set(by_node))
    if missing:
        raise ValidationError(f"missing grounded CPSD for nodes {missing}")
    inverses = {"full": estimate_inverse_cpsd(s)}
    raw = np.full((n, n), np.nan)
    for j, sj in by_node.items():
        inverses[f"grounded_{j}"] = inv_j = estimate_inverse_cpsd(sj)
        raw[j - 1] = _grounded_row(inverses["full"].values, inv_j.values, j)
    return raw, inverses


def _decide(
    omega: float,
    raw: np.ndarray,
    tau: Tau,
    s_w: Optional[float],
    inverses: dict[str, CpsdInverse],
    notes: tuple,
    root: bool = False,
    weights: Optional[np.ndarray] = None,
) -> ReconstructionResult:
    """Declare ``v_i -> v_j`` present where ``raw[j, i] > tau``, and weigh it.

    A policy ``tau`` is called once on the finite raw values.  With ``s_w``,
    present entries weigh ``S_w * raw``, or its square root when ``root``
    (the grounding statistic, whose negative values clamp to zero and are
    counted, as are the positive ones at or below ``tau``), or what
    ``weights`` gives, diagonal included; absent entries weigh zero.
    """
    if callable(tau):
        tau = tau(raw[np.isfinite(raw)])
    n = raw.shape[0]
    off = ~np.eye(n, dtype=bool)
    present = np.zeros((n, n), dtype=bool)
    present[off] = raw[off] > tau
    recovered, clamp_count, suppressed = None, 0, 0
    if s_w is not None:
        w = np.nan_to_num(raw, nan=0.0) * s_w if weights is None else weights.copy()
        if root:
            w = np.sqrt(np.clip(w, 0.0, None))
            clamp_count = int(np.sum(raw[off] < 0.0))
            suppressed = int(np.sum((raw[off] > 0.0) & (raw[off] <= tau)))
        w[off & ~present] = 0.0
        recovered = ConnectivityMatrix(w)
    return ReconstructionResult(
        omega0=omega,
        boolean_structure=BooleanStructure(present.astype(int)),
        weights=recovered,
        input_psd_estimate=None if s_w is None else float(s_w),
        threshold_used=float(tau),
        diagnostics=ReconstructionDiagnostics(
            raw_differences=raw,
            clamp_count=clamp_count,
            suppressed_count=suppressed,
            condition_numbers={k: inv.condition_number for k, inv in inverses.items()},
            loaded=tuple(k for k, inv in inverses.items() if inv.loaded),
            notes=notes,
        ),
    )


def boolean_directed(
    s: CpsdMatrix,
    grounded: Sequence[tuple[int, CpsdMatrix]],
    tau: Tau = DEFAULT_TAU,
) -> ReconstructionResult:
    """Edge presence from grounding, with no knowledge of the input noise.

    Declares ``v_i -> v_j`` present iff the raw inverse-CPSD diagonal
    difference exceeds ``tau``.  The difference itself (not scaled by
    ``S_w``) is thresholded; all raw values are retained in the diagnostics
    so other thresholds can be applied after the fact.  ``tau`` may be a
    policy such as :func:`threshold_heuristic`, called on the finite raw
    values.
    """
    raw, inverses = _grounding_statistic(s, grounded)
    return _decide(s.omega, raw, tau, None, inverses,
                   ("self-loops are unobservable; diagonal forced to absent",))


def exact_directed(
    s: CpsdMatrix,
    grounded: Sequence[tuple[int, CpsdMatrix]],
    s_w: InputPsd,
    tau: Tau = DEFAULT_TAU,
) -> ReconstructionResult:
    """Edge weights from grounding plus the input density at ``w0``.

    Each weight is ``sqrt(S_w * D)`` for the raw difference ``D`` of
    :func:`_grounded_row`: diagonal entry ``i`` of the full inverse CPSD minus
    the matching entry of the grounded-at-``j`` inverse (indices above ``j``
    sit one lower there).  Entries whose raw statistic does not exceed ``tau``
    (a number, or a policy called on the finite raw values) are reported as
    absent (weight zero); the raw statistics stay available in the
    diagnostics.  Negative raw differences (estimation noise; impossible
    analytically) are clamped and counted.  ``s_w`` is a number, or a policy
    called on the full CPSD's inverse (:func:`eigenpair_input_psd`).
    """
    raw, inverses = _grounding_statistic(s, grounded)
    s_w = _input_psd(s_w, inverses["full"])
    return _decide(s.omega, raw, tau, s_w, inverses, (
        "recovered off-diagonal weights are magnitudes",
        "self-loops are unobservable; diagonal fixed at zero",
    ), root=True)


class UndirectedRecovery(NamedTuple):
    """Symmetric-network recovery, its square-root branch audit, the input's skew
    and, for a tested estimate, its symmetry statistic and p-value."""

    result: ReconstructionResult
    flipped: bool
    branch_score: float
    branch_score_alternative: float
    clamped_eigenvalues: int
    skew: float
    symmetry_chi2: Optional[float] = None
    symmetry_p: Optional[float] = None

    @property
    def connectivity(self) -> ConnectivityMatrix:
        """The recovered coupling matrix: absent edges zero, diagonal kept."""
        return self.result.weights


def _branch_score(g: np.ndarray) -> float:
    """Negative off-diagonal mass: zero for a valid nonnegative coupling."""
    off = g[~np.eye(g.shape[0], dtype=bool)]
    return float(np.clip(-off, 0.0, None).sum())


def exact_undirected(
    s: CpsdMatrix,
    h: complex,
    s_w: InputPsd,
    tau: Tau = DEFAULT_TAU,
    k_eff: Optional[float] = None,
) -> UndirectedRecovery:
    """Symmetric coupling matrix from the CPSD at one frequency, no grounding.

    For symmetric ``G``, ``Im{S^{-1}}`` (the skew statistic of
    :func:`nonreciprocal`) is zero and ``M = Re{S^{-1}} S_w - Im^2{1/h} I``
    equals ``(G - Re{1/h} I)^2``: the route forms ``Re{1/h} I +/- R`` from
    the real symmetric square root ``R`` of ``M``.  The square root only determines ``G - Re{1/h} I``
    up to sign, and the CPSD itself cannot discriminate: both sign candidates
    reproduce it exactly.  The default takes ``-R`` when ``Re{1/h} >= 0``
    (the case for diffusive coupling with stable first-order nodes, where
    stability forces the spectrum of ``G`` below ``Re{1/h}``) and the choice
    is verified against the model's nonnegative-coupling assumption: the
    wrong branch negates the off-diagonal, so the candidate with less
    negative off-diagonal mass (smaller norm on ties) wins.  A flip of the
    default is reported, not silent.

    Tolerances come from ``s.source``.  An analytic CPSD whose skew
    ``max|Im S^{-1}| / max|S^{-1}|`` exceeds ``1e-8`` is no symmetric
    network's and raises; an estimate's skew, of order ``K^-1/2`` on any
    network, is only reported.  An estimate is tested instead, and must give
    ``k_eff``, its segments' worth of averaging
    (:meth:`SpectralConfig.effective_segment_count`): a symmetric network's
    CPSD is real, so whitened by ``W = (Re S)^{-1/2}``,
    ``T = 2 k_eff sum_{i<j} (W Im S W)_ij^2`` is about chi-square with
    ``N(N-1)/2`` degrees of freedom (complex Wishart, Goodman 1963); a
    p-value below :data:`SYMMETRY_ALPHA`, or a ``Re S`` not positive definite
    to working precision (as a one-segment estimate's), raises.  Eigenvalues
    of ``M`` down to ``-EIG_CLAMP_TOL[s.source]`` times the largest are
    clamped to zero; more negative ones (an eigenvalue of ``G`` straddling
    ``Re{1/h}``, or an unusable estimate) raise.  Edges are the off-diagonal
    weights above ``tau`` (a number, or a policy called on them); absent
    entries weigh zero and the diagonal is kept.  ``s_w`` is a number, or a
    policy called on the inverse of ``s`` (:func:`eigenpair_input_psd`).
    """
    check_nodal_transfer(h, s.omega)
    inv = estimate_inverse_cpsd(s)
    s_w = _input_psd(s_w, inv)
    skew = float(np.abs(inv.values.imag).max() / np.abs(inv.values).max())
    if s.source == "analytic" and skew > 1e-8:
        raise NumericalError(
            f"skew part {skew:.3e} of the inverse CPSD exceeds 1e-8 of its largest "
            "entry; the input CPSD is inconsistent with a symmetric network"
        )
    n = s.n_nodes
    chi2 = p_value = None
    if s.source == "estimated":
        if k_eff is None:
            raise ValidationError("an estimated CPSD needs k_eff for the symmetry test")
        from scipy.special import chdtrc  # about 0.3 s to import: only this test needs it

        lam_s, v_s = np.linalg.eigh(s.values.real)
        if not lam_s[0] > n * np.finfo(float).eps * lam_s[-1]:
            raise NumericalError(
                f"symmetry test: Re S has eigenvalue {lam_s[0]:.3e} of {lam_s[-1]:.3e}; an "
                "estimate not positive definite to working precision cannot be whitened")
        w = (v_s / np.sqrt(lam_s)) @ v_s.T
        chi2 = float(2.0 * k_eff * np.square(np.triu(w @ s.values.imag @ w, 1)).sum())
        p_value = float(chdtrc(n * (n - 1) / 2, chi2))
        if not p_value >= SYMMETRY_ALPHA:  # a nan p-value is refused too
            raise NumericalError(
                f"symmetry test: T = {chi2:.4g} on {n * (n - 1) // 2} degrees of freedom, "
                f"p = {p_value:.3g} < {SYMMETRY_ALPHA}; the estimated CPSD is inconsistent "
                "with a symmetric network")
    a = 1.0 / h
    lam, v = np.linalg.eigh(inv.values.real * s_w - (a.imag**2) * np.eye(n))
    scale = max(1.0, float(lam[-1]))
    clamp_tol = EIG_CLAMP_TOL[s.source]
    if lam[0] < -clamp_tol * scale:
        raise NumericalError(
            f"Re(S^-1) S_w - Im^2(1/h) I has eigenvalue {lam[0]:.3e} below "
            f"-{clamp_tol:.1e} * {scale:.3g}; wrong branch or bad estimate"
        )
    clamped = int(np.sum(lam < 0.0))
    half = v * np.sqrt(np.sqrt(np.clip(lam, 0.0, None)))
    root = half @ half.T  # a Gram product, so exactly symmetric
    default_sign = -1.0 if a.real >= 0.0 else 1.0
    candidates = [(g, _branch_score(g)) for g in (
        a.real * np.eye(n) + sign * root for sign in (default_sign, -default_sign))]
    (g_default, score_default), (g_other, score_other) = candidates
    tol = 1e-12 * max(1.0, float(np.abs(root).max()))
    flipped = bool(score_other < score_default - tol or (
        abs(score_other - score_default) <= tol
        and np.linalg.norm(g_other) < np.linalg.norm(g_default) - tol
    ))
    (chosen, res), (_, res_alt) = candidates[::-1] if flipped else candidates
    raw = np.where(np.eye(n, dtype=bool), np.nan, chosen)
    result = _decide(s.omega, raw, tau, s_w, {"full": inv},
                     ("real square-root method; assumes G = G^T",), weights=chosen)
    return UndirectedRecovery(result, flipped, res, res_alt, clamped, skew, chi2, p_value)


def nonreciprocal(
    s: CpsdMatrix,
    h: complex,
    s_w: Optional[InputPsd] = None,
    tau: Tau = DEFAULT_TAU,
) -> ReconstructionResult:
    """Nonreciprocal (no bidirectional pairs) recovery, no grounding.

    The imaginary part of the inverse CPSD equals ``Im{1/h} (G - G^T) / S_w``;
    for a nonreciprocal nonnegative ``G`` the positive part of the skew matrix
    is ``G`` itself.  The skew statistic ``(G - G^T) / S_w`` is what is
    reported and compared with ``tau`` (a number, or a policy called on its
    positive values: the statistic is antisymmetric, so its negative half
    mirrors the edges), so the Boolean structure needs only the sign of
    ``Im{1/h}`` and is available without ``S_w``; weights additionally
    require ``s_w`` (a number, or a policy called on the inverse of ``s``:
    :func:`eigenpair_input_psd`) and are ``S_w`` times the statistic where an
    edge is present, zero elsewhere.  Frequencies where ``Im{1/h}`` (the
    strictly-proper node's phase) vanishes are rejected.
    """
    check_nodal_transfer(h, s.omega)
    a = 1.0 / h
    if abs(a.imag) < IM_H_INV_TOL:
        raise FrequencyRejectedError(
            f"|Im(1/h)| = {abs(a.imag):.3e} too small at omega={s.omega:.6g}; "
            "choose a nonzero frequency away from the node's phase zeros"
        )
    inv = estimate_inverse_cpsd(s)
    if s_w is not None:
        s_w = _input_psd(s_w, inv)
    skew = inv.values.imag / a.imag  # equals (G - G^T)/S_w, zero diagonal
    np.fill_diagonal(skew, np.nan)
    if callable(tau):  # the negative half mirrors the edges; it is no noise sample
        policy = tau
        tau = lambda raw: policy(raw[raw > 0.0])
    return _decide(s.omega, skew, tau, s_w, {"full": inv},
                   ("skew-part method; assumes Tr(G^2) = 0 and G >= 0",))


def threshold_heuristic(
    raw_values: Sequence[float], fallback_tau: float = DEFAULT_TAU
) -> float:
    """Pick an edge threshold separating signal from the noise floor.

    Sorts the positive raw statistics and returns the geometric midpoint of
    the largest multiplicative gap between consecutive values.  Two guards
    keep the gap search out of the noise tail: the magnitude of the negative
    statistics (non-edges fluctuate symmetrically around zero, true edges are
    never negative) sets a robust noise scale below which gaps are ignored,
    and if the positive values span less than a decade the configured
    absolute fallback is returned instead.
    """
    vals = np.asarray(raw_values, dtype=float).ravel()
    vals = vals[np.isfinite(vals)]
    pos = np.sort(vals[vals > 0.0])[::-1]
    if pos.size == 0 or pos[0] / pos[-1] < 10.0:
        return float(fallback_tau)
    neg = vals[vals < 0.0]
    floor = 3.0 * 1.4826 * float(np.median(np.abs(neg))) if neg.size else 0.0
    cand = list(pos[pos > floor])
    if not cand:
        return float(fallback_tau)
    below = pos[pos <= floor]
    if floor > 0.0:
        cand.append(max(floor, float(below.max()) if below.size else floor))
    if len(cand) < 2:
        return float(fallback_tau)
    ratios = [cand[t] / cand[t + 1] for t in range(len(cand) - 1)]
    t = int(np.argmax(ratios))
    return float(np.sqrt(cand[t] * cand[t + 1]))
