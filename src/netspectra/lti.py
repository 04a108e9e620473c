"""Node and network transfer functions, stability, and the analytic CPSD.

All nodes share one SISO state-space triple ``(A, b, c)``; the network couples
their scalar outputs through a :class:`~netspectra.graphs.ConnectivityMatrix`
``G``, giving the joint state matrix ``I_N (x) A + G (x) b c^T``.

Two routes to the N x N frequency response are kept deliberately:

* :func:`network_transfer_direct` assembles and inverts the full ``Nn x Nn``
  resolvent.  It is the trusted oracle.
* :func:`network_transfer_closed` inverts only ``I_N / h(jw) - G`` where ``h``
  is the nodal transfer function.

Their agreement is an executable matrix-inversion-lemma identity and is kept
under test permanently; the package itself calls neither.  :func:`analytic_cpsd`
inverts its own closed form of the output CPSD, which equals
``S_w H(jw) H^*(jw)`` for that response.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .errors import FrequencyRejectedError, NumericalError, ValidationError
from .graphs import ConnectivityMatrix, _as_readonly

__all__ = [
    "NodeDynamics",
    "NetworkSystem",
    "CpsdMatrix",
    "InputPsdModel",
    "HurwitzReport",
    "nodal_transfer",
    "network_transfer_direct",
    "network_transfer_closed",
    "analytic_cpsd",
    "is_hurwitz",
    "save_node",
    "load_node",
    "save_cpsd",
    "load_cpsd",
]

#: |h(jw)| below this is treated as a transmission zero and the frequency rejected.
H_ZERO_TOL = 1e-12


def check_nodal_transfer(h: complex, omega: float) -> None:
    """Raise :class:`FrequencyRejectedError` if ``h = h(j omega)`` is a transmission zero."""
    if abs(h) < H_ZERO_TOL:
        raise FrequencyRejectedError(f"nodal transfer function vanishes at omega={omega} "
                                     f"(|h|={abs(h):.3e}); choose a different frequency")


@dataclass(frozen=True)
class NodeDynamics:
    """State-space triple ``(A, b, c)`` shared by every node.

    The node's scalar input is ``b``-injected and its scalar output is
    ``c^T x``; there is no direct feedthrough.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        a = _as_readonly(np.atleast_2d(self.a))
        b = _as_readonly(np.atleast_1d(self.b))
        c = _as_readonly(np.atleast_1d(self.c))
        n = a.shape[0]
        if a.shape != (n, n):
            raise ValidationError(f"A must be square, got {a.shape}")
        if b.shape != (n,) or c.shape != (n,):
            raise ValidationError("b and c must be n-vectors matching A")
        if not (np.isfinite(a).all() and np.isfinite(b).all() and np.isfinite(c).all()):
            raise ValidationError("node matrices contain non-finite entries")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def state_dim(self) -> int:
        return self.a.shape[0]

    @classmethod
    def scalar_pole(cls, pole: float) -> "NodeDynamics":
        """First-order node with transfer function ``1 / (s - pole)``."""
        if pole >= 0:
            raise ValidationError(f"scalar pole must be negative, got {pole}")
        return cls(np.array([[pole]]), np.array([1.0]), np.array([1.0]))


def nodal_transfer(node: NodeDynamics, omega: float) -> complex:
    """Evaluate ``h(jw) = c^T (jw I - A)^{-1} b`` at a real frequency.

    Satisfies conjugate symmetry ``h(-jw) == conj(h(jw))``.
    """
    n = node.state_dim
    m = 1j * omega * np.eye(n) - node.a
    try:
        x = np.linalg.solve(m, node.b.astype(complex))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular resolvent at omega={omega}") from exc
    return complex(node.c @ x)


@dataclass(frozen=True)
class NetworkSystem:
    """``N`` identical nodes coupled through a connectivity matrix."""

    node: NodeDynamics
    connectivity: ConnectivityMatrix

    @property
    def n_nodes(self) -> int:
        return self.connectivity.n_nodes

    @property
    def state_dim(self) -> int:
        return self.n_nodes * self.node.state_dim

    def joint_state_matrix(self) -> np.ndarray:
        """``I_N (x) A + G (x) b c^T`` of size ``Nn x Nn``."""
        n = self.n_nodes
        bc = np.outer(self.node.b, self.node.c)
        return np.kron(np.eye(n), self.node.a) + np.kron(
            self.connectivity.weights, bc
        )

    def input_matrix(self) -> np.ndarray:
        """``I_N (x) b`` mapping the N noise channels into the joint state."""
        return np.kron(np.eye(self.n_nodes), self.node.b.reshape(-1, 1))

    def output_matrix(self) -> np.ndarray:
        """``I_N (x) c^T`` reading the N scalar outputs off the joint state."""
        return np.kron(np.eye(self.n_nodes), self.node.c.reshape(1, -1))

    def grounded(self, j: int) -> "NetworkSystem":
        """The system with node ``j`` (1-based) grounded."""
        from .graphs import ground

        return NetworkSystem(self.node, ground(self.connectivity, j))


class HurwitzReport(NamedTuple):
    stable: bool
    spectral_abscissa: float


def is_hurwitz(sys: NetworkSystem) -> HurwitzReport:
    """Check the joint state matrix; report the largest eigenvalue real part."""
    try:
        eig = np.linalg.eigvals(sys.joint_state_matrix())
    except np.linalg.LinAlgError as exc:
        raise NumericalError("eigenvalue computation failed") from exc
    abscissa = float(np.max(eig.real))
    return HurwitzReport(stable=abscissa < 0.0, spectral_abscissa=abscissa)


def network_transfer_direct(sys: NetworkSystem, omega: float) -> np.ndarray:
    """N x N response via the full joint resolvent (the oracle route)."""
    m = sys.joint_state_matrix()
    resolvent = 1j * omega * np.eye(m.shape[0]) - m
    try:
        x = np.linalg.solve(resolvent, sys.input_matrix().astype(complex))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular joint resolvent at omega={omega}") from exc
    return sys.output_matrix() @ x


def network_transfer_closed(sys: NetworkSystem, omega: float) -> np.ndarray:
    """N x N response via ``(I_N / h(jw) - G)^{-1}``.

    Agrees with :func:`network_transfer_direct` wherever both are defined.
    Raises :class:`FrequencyRejectedError` at transmission zeros of the node
    (``h(jw) == 0``); the caller should evaluate at a different frequency.
    """
    h = nodal_transfer(sys.node, omega)
    check_nodal_transfer(h, omega)
    g = sys.connectivity.weights
    inner = np.eye(sys.n_nodes, dtype=complex) / h - g
    try:
        return np.linalg.inv(inner)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"I/h - G singular at omega={omega}; the network response is "
            "unbounded there"
        ) from exc


@dataclass(frozen=True)
class InputPsdModel:
    """Input-noise power spectral density ``S_w(w)`` with its excitation band.

    ``evaluator`` maps angular frequency to a nonnegative density; it is
    wrapped so that ``S_w(-w) == S_w(w)`` holds by construction.  ``omega_max``
    is the half-width of the band ``(-Omega, Omega)`` on which the density is
    guaranteed strictly positive; reconstruction frequencies are chosen inside
    it.
    """

    evaluator: Callable[[float], float]
    omega_max: float

    def __post_init__(self):
        if not self.omega_max > 0:
            raise ValidationError("excitation band half-width must be positive")

    def __call__(self, omega: float) -> float:
        v = float(self.evaluator(abs(omega)))
        if v < 0 or not math.isfinite(v):
            raise NumericalError(f"input PSD model returned {v} at omega={omega}")
        return v

    @classmethod
    def flat(cls, level: float, omega_max: float = 1e6) -> "InputPsdModel":
        """Frequency-independent density (idealised white noise)."""
        if level <= 0:
            raise ValidationError("flat PSD level must be positive")
        return cls(evaluator=lambda w: level, omega_max=omega_max)


@dataclass(frozen=True)
class CpsdMatrix:
    """Hermitian matrix of output (cross-)power spectral densities at one frequency.

    ``values[i, j]`` is the cross density of outputs ``y_i`` and ``y_j`` under
    the convention ``S_ij(w) = F{E[y_i(t) y_j(t - tau)]}``; for outputs driven
    by uncorrelated inputs of common density ``S_w`` this equals
    ``S_w(w) [H H^*]_ij`` with ``H`` the network transfer matrix.

    ``source`` is ``"analytic"`` (exact, from the model) or ``"estimated"``
    (from data); estimated instances carry the averaged segment count ``K``.
    ``values`` within ``1e-10`` of Hermitian are stored exactly Hermitian,
    ``(V + V^*) / 2`` with a real diagonal, so callers pass them unsymmetrized.
    The fields are exactly what :func:`save_cpsd` writes.  How far the
    requested frequency was snapped is a fact of the estimate, not of the
    matrix: ``spectra/estimate.json`` records it.
    """

    values: np.ndarray
    omega: float
    source: str
    segment_count: Optional[int] = None

    def __post_init__(self):
        v = np.array(self.values, dtype=complex)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValidationError(f"values must be square, got {v.shape}")
        if self.source not in ("analytic", "estimated"):
            raise ValidationError(f"unknown source tag {self.source!r}")
        herm_gap = np.abs(v - v.conj().T).max()
        scale = max(1.0, np.abs(v).max())
        if herm_gap > 1e-10 * scale:
            raise ValidationError(
                f"values are not Hermitian (gap {herm_gap:.3e}); symmetrize first"
            )
        v = 0.5 * (v + v.conj().T)
        d = np.diag(v).real.copy()
        if np.any(d < -1e-10 * scale):
            raise ValidationError("diagonal entries must be nonnegative")
        v[np.diag_indices_from(v)] = d
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def n_nodes(self) -> int:
        return self.values.shape[0]


def analytic_cpsd(
    sys: NetworkSystem,
    noise: Union[InputPsdModel, float],
    omega: float,
) -> CpsdMatrix:
    """Exact output CPSD matrix of the noise-driven network at one frequency.

    Computed from the closed form

        ``S(w) = S_w(w) (I/|h|^2 + G^T G - G/h* - G^T/h)^{-1}``

    which equals ``S_w(w) H(jw) H^*(jw)``.  ``noise`` may be an
    :class:`InputPsdModel` or a plain positive float (flat density).
    """
    if isinstance(noise, (int, float)):
        noise = InputPsdModel.flat(float(noise))
    if abs(omega) >= noise.omega_max:
        raise FrequencyRejectedError(
            f"omega={omega} lies outside the excitation band "
            f"(|omega| < {noise.omega_max:.3g})"
        )
    s_w = noise(omega)
    if s_w <= 0:
        raise FrequencyRejectedError(
            f"input PSD is not positive at omega={omega}; choose a frequency "
            "where the noise model is strictly positive"
        )
    h = nodal_transfer(sys.node, omega)
    check_nodal_transfer(h, omega)
    g = sys.connectivity.weights
    n = sys.n_nodes
    inner = (
        np.eye(n, dtype=complex) / abs(h) ** 2
        + g.T @ g
        - g / np.conj(h)
        - g.T / h
    )
    try:
        values = s_w * np.linalg.inv(inner)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"CPSD inner matrix singular at omega={omega}; the system is "
            "ill-conditioned at this frequency"
        ) from exc
    return CpsdMatrix(values=values, omega=float(omega), source="analytic")


# ---------------------------------------------------------------------------
# plain-text serialization

def save_node(path, node: NodeDynamics) -> None:
    """Text format: n, then n rows of A, then b, then c."""
    lines = [str(node.state_dim)]
    for row in node.a:
        lines.append(" ".join(format(v, ".17g") for v in row))
    lines.append(" ".join(format(v, ".17g") for v in node.b))
    lines.append(" ".join(format(v, ".17g") for v in node.c))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_node(path) -> NodeDynamics:
    with open(path) as fh:
        tokens = [line.split() for line in fh if line.strip()]
    try:
        n = int(tokens[0][0])
        a = np.array([[float(v) for v in tokens[1 + i]] for i in range(n)])
        b = np.array([float(v) for v in tokens[1 + n]])
        c = np.array([float(v) for v in tokens[2 + n]])
    except (IndexError, ValueError) as exc:
        raise ValidationError(f"malformed node file {path}: {exc}") from exc
    return NodeDynamics(a, b, c)


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}j"


def save_cpsd(path, s: CpsdMatrix) -> None:
    """Text format: header lines (N, omega, source, K), then N rows of re+imj."""
    lines = [
        f"N {s.n_nodes}",
        f"omega {s.omega:.17g}",
        f"source {s.source}",
        f"K {s.segment_count if s.segment_count is not None else 0}",
    ]
    for row in s.values:
        lines.append(" ".join(_fmt_complex(v) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_cpsd(path) -> CpsdMatrix:
    with open(path) as fh:
        lines = [line.strip() for line in fh if line.strip()]
    try:
        n = int(lines[0].split()[1])
        omega = float(lines[1].split()[1])
        source = lines[2].split()[1]
        k = int(lines[3].split()[1])
        values = np.array(
            [[complex(tok) for tok in lines[4 + i].split()] for i in range(n)]
        )
    except (IndexError, ValueError) as exc:
        raise ValidationError(f"malformed CPSD file {path}: {exc}") from exc
    return CpsdMatrix(
        values=values, omega=omega, source=source, segment_count=k if k > 0 else None
    )
