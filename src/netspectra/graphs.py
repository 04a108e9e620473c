"""Connectivity matrices, Laplacian construction, grounding and topology metrics.

Entry convention (used everywhere in this package): ``weights[j, i]`` is the
weight of the directed edge ``v_i -> v_j``, i.e. row ``j`` collects the
couplings through which node ``j`` receives the other nodes' outputs.  This is
the only convention consistent with each node integrating a weighted sum of
the outputs it receives, and with edge recovery by grounding the receiving
node.  Node indices are 1-based at the API surface (matching the usual
``v_1 .. v_N`` labelling); array indices are 0-based internally.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import ValidationError

__all__ = [
    "ConnectivityMatrix",
    "BooleanStructure",
    "ground",
    "laplacian_connectivity",
    "regular_connectivity",
    "is_nonreciprocal",
    "compare",
    "ComparisonMetrics",
    "save_matrix",
    "load_matrix",
]

#: Tolerance for the stored eigenpair residual ||G u - lam u||.
EIGENPAIR_RESIDUAL_TOL = 1e-10


def _as_readonly(a: np.ndarray, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ConnectivityMatrix:
    """Square coupling matrix of a directed network, with an optional eigenpair.

    Parameters
    ----------
    weights : (N, N) array_like
        Coupling weights; ``weights[j, i]`` is the weight of edge
        ``v_i -> v_j`` (row = receiver).
    eigenpair : (float, (N,) array_like), optional
        A known eigenvalue/eigenvector pair of the matrix.  Storing the
        pair with the matrix (rather than passing it around separately)
        keeps it from being applied to the wrong network.  Constructions
        that guarantee a pair (Laplacian, regular) attach it automatically.
    """

    weights: np.ndarray
    eigenpair: Optional[tuple[float, np.ndarray]] = None

    def __post_init__(self):
        w = _as_readonly(self.weights)
        if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] < 1:
            raise ValidationError(f"weights must be square, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValidationError("weights contain non-finite entries")
        object.__setattr__(self, "weights", w)
        if self.eigenpair is not None:
            lam, u = self.eigenpair
            lam = float(lam)
            u = _as_readonly(u)
            if u.shape != (w.shape[0],):
                raise ValidationError(
                    f"eigenvector has shape {u.shape}, expected ({w.shape[0]},)"
                )
            resid = np.linalg.norm(w @ u - lam * u)
            bound = EIGENPAIR_RESIDUAL_TOL * np.linalg.norm(u) * max(
                1.0, np.linalg.norm(w)
            )
            if resid > bound:
                raise ValidationError(
                    f"eigenpair residual {resid:.3e} exceeds {bound:.3e}"
                )
            object.__setattr__(self, "eigenpair", (lam, u))

    @property
    def n_nodes(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class BooleanStructure:
    """0/1 edge-presence matrix with zero diagonal.

    ``entries[j, i] == 1`` declares the directed edge ``v_i -> v_j`` present.
    """

    entries: np.ndarray

    def __post_init__(self):
        e = _as_readonly(self.entries, dtype=int)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValidationError(f"entries must be square, got shape {e.shape}")
        if not np.isin(e, (0, 1)).all():
            raise ValidationError("entries must be 0 or 1")
        if np.any(np.diag(e) != 0):
            raise ValidationError("diagonal must be zero (no self-loops)")
        object.__setattr__(self, "entries", e)

    @property
    def n_nodes(self) -> int:
        return self.entries.shape[0]


def _check_node_index(j: int, n: int) -> int:
    j = int(j)
    if not 1 <= j <= n:
        raise IndexError(f"node index {j} out of range [1, {n}]")
    return j


def ground(g: ConnectivityMatrix, j: int) -> ConnectivityMatrix:
    """Delete row and column ``j`` (1-based) from the connectivity matrix.

    This realises grounding: pinning node ``v_j``'s state to zero leaves the
    remaining ``N-1`` nodes coupled through exactly this minor.  Surviving
    indices keep their relative order.  Any stored eigenpair is dropped,
    since grounding does not preserve it.
    """
    n = g.n_nodes
    if n < 2:
        raise ValidationError("cannot ground a single-node network")
    j = _check_node_index(j, n)
    keep = [k for k in range(n) if k != j - 1]
    return ConnectivityMatrix(g.weights[np.ix_(keep, keep)])


def laplacian_connectivity(adjacency: np.ndarray) -> ConnectivityMatrix:
    """Build the diffusive-coupling matrix ``G = -(D - A)`` from an adjacency.

    ``adjacency[i, j]`` is the weight of edge ``v_j -> v_i`` (same receiver-row
    convention as :class:`ConnectivityMatrix`); ``D`` is the diagonal of
    weighted in-degrees (row sums).  The result satisfies ``G @ 1 == 0``, so
    the eigenpair ``(0, ones)`` is attached.
    """
    a = np.asarray(adjacency, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"adjacency must be square, got shape {a.shape}")
    if np.any(a < 0):
        raise ValidationError("adjacency entries must be nonnegative")
    if np.any(np.diag(a) != 0):
        raise ValidationError("adjacency diagonal must be zero")
    g = a - np.diag(a.sum(axis=1))
    return ConnectivityMatrix(g, eigenpair=(0.0, np.ones(a.shape[0])))


def regular_connectivity(adjacency: np.ndarray) -> ConnectivityMatrix:
    """Wrap the adjacency of a (weighted) in-regular graph, attaching ``(k, ones)``.

    Every row of the adjacency must sum to the same total in-weight ``k``;
    then ``ones`` is an eigenvector with eigenvalue ``k``.
    """
    a = np.asarray(adjacency, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"adjacency must be square, got shape {a.shape}")
    if np.any(a < 0):
        raise ValidationError("adjacency entries must be nonnegative")
    if np.any(np.diag(a) != 0):
        raise ValidationError("adjacency diagonal must be zero")
    sums = a.sum(axis=1)
    k = float(sums[0])
    if not np.allclose(sums, k, rtol=1e-12, atol=1e-12 * max(1.0, abs(k))):
        raise ValidationError(f"rows are not regular: in-weights {sums}")
    return ConnectivityMatrix(a, eigenpair=(k, np.ones(a.shape[0])))


def is_nonreciprocal(g: ConnectivityMatrix, tol: float = 1e-12) -> bool:
    """True iff no node pair is coupled in both directions: |Tr(G^2)| <= tol.

    Meaningful for nonnegative matrices with zero diagonal; violations of
    those preconditions are reported as ``False`` with a warning rather than
    an exception.
    """
    w = g.weights
    if np.any(np.diag(w) != 0):
        warnings.warn("is_nonreciprocal: nonzero diagonal (self-loops present)")
        return False
    if np.any(w < 0):
        warnings.warn("is_nonreciprocal: negative entries")
        return False
    return abs(np.trace(w @ w)) <= tol


@dataclass(frozen=True)
class ComparisonMetrics:
    """Edge-level agreement between a recovered topology and the truth."""

    precision: float
    recall: float
    f1: float
    n_true_edges: int
    n_recovered_edges: int
    max_abs_error: Optional[float] = None
    rms_error: Optional[float] = None

    def as_dict(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "n_true_edges": self.n_true_edges,
            "n_recovered_edges": self.n_recovered_edges,
            "max_abs_error": self.max_abs_error,
            "rms_error": self.rms_error,
        }


def compare(
    truth: ConnectivityMatrix,
    recovered: Union[ConnectivityMatrix, BooleanStructure],
    edge_tol: float = 1e-6,
) -> ComparisonMetrics:
    """Edge precision/recall/F1, plus weight errors for weighted recoveries.

    An off-diagonal entry with ``|g| > edge_tol`` counts as an edge.  The
    diagonal is excluded throughout (self-loops are outside the scope of the
    reconstruction methods).  For weighted recoveries the max and RMS errors
    are taken over the true-edge positions, comparing magnitudes (the
    grounding-based recovery returns magnitudes).
    """
    t = truth.weights
    if isinstance(recovered, BooleanStructure):
        r_edges = recovered.entries.astype(bool)
        r_weights = None
        n_rec = recovered.n_nodes
    else:
        r_weights = recovered.weights
        r_edges = np.abs(r_weights) > edge_tol
        n_rec = recovered.n_nodes
    if n_rec != truth.n_nodes:
        raise ValidationError(
            f"dimension mismatch: truth {truth.n_nodes}, recovered {n_rec}"
        )
    off = ~np.eye(truth.n_nodes, dtype=bool)
    t_edges = (np.abs(t) > edge_tol) & off
    r_edges = r_edges & off

    tp = int(np.sum(t_edges & r_edges))
    fp = int(np.sum(~t_edges & r_edges))
    fn = int(np.sum(t_edges & ~r_edges))
    precision = tp / (tp + fp) if (tp + fp) else 1.0
    recall = tp / (tp + fn) if (tp + fn) else 1.0
    f1 = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 1.0

    max_err = rms_err = None
    if r_weights is not None and t_edges.any():
        diff = np.abs(r_weights[t_edges]) - np.abs(t[t_edges])
        max_err = float(np.max(np.abs(diff)))
        rms_err = float(np.sqrt(np.mean(diff**2)))
    elif r_weights is not None:
        max_err = rms_err = 0.0
    return ComparisonMetrics(
        precision=precision,
        recall=recall,
        f1=f1,
        n_true_edges=int(t_edges.sum()),
        n_recovered_edges=int(r_edges.sum()),
        max_abs_error=max_err,
        rms_error=rms_err,
    )


# ---------------------------------------------------------------------------
# plain-text matrix format: first line N, then N rows, then an optional
# trailing line "eigenpair <lam> <u_1> ... <u_N>".

def save_matrix(path, g: Union[ConnectivityMatrix, BooleanStructure]) -> None:
    if isinstance(g, BooleanStructure):
        w, pair = g.entries, None
    else:
        w, pair = g.weights, g.eigenpair
    lines = [str(w.shape[0])]
    for row in w:
        lines.append(" ".join(format(v, ".17g") for v in row))
    if pair is not None:
        lam, u = pair
        lines.append(
            "eigenpair "
            + format(lam, ".17g")
            + " "
            + " ".join(format(v, ".17g") for v in u)
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_matrix(path) -> ConnectivityMatrix:
    with open(path) as fh:
        tokens = [line.split() for line in fh if line.strip()]
    try:
        n = int(tokens[0][0])
        rows = [[float(v) for v in tokens[1 + i]] for i in range(n)]
    except (IndexError, ValueError) as exc:
        raise ValidationError(f"malformed matrix file {path}: {exc}") from exc
    w = np.array(rows)
    if w.shape != (n, n):
        raise ValidationError(f"matrix file {path} is not {n}x{n}")
    pair = None
    if len(tokens) > 1 + n:
        tail = tokens[1 + n]
        if tail[0] != "eigenpair" or len(tail) != 2 + n:
            raise ValidationError(f"malformed eigenpair line in {path}")
        pair = (float(tail[1]), np.array([float(v) for v in tail[2:]]))
    return ConnectivityMatrix(w, eigenpair=pair)
