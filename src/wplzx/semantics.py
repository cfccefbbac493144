"""Dense matrix semantics of diagrams, plus phase comparisons and state fidelity.

This is the numerical oracle for every rewrite: a diagram denotes a linear
map from its inputs to its outputs, computed by tensor-network contraction.
Only the total angle of a spider label is visible here; the (a, alpha, k)
decomposition is metadata.

Conventions: qubit 0 is the most significant bit; a diagram with m inputs and
n outputs evaluates to a 2^n x 2^m matrix.  Equality checks use the fixed
tolerance EQ_TOL = 1e-9 unless told otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diagram as dg
from .errors import DimensionMismatch, DimensionOverflow
from .phase import TotalAngle, total_angle

EQ_TOL = 1e-9

MAX_OPEN_WIRES = 12
MAX_TENSOR_ENTRIES = 1 << 24
MAX_SPIDER_LEGS = 20

_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
_SPLIT_DEGREE = 8  # spiders above this degree are chained before contraction


def hadamard() -> np.ndarray:
    return _H.copy()


def _kron_pow(mat: np.ndarray, k: int) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for _ in range(k):
        out = np.kron(out, mat)
    return out


def spider_matrix(kind: str, m: int, n: int, theta: TotalAngle | float, *,
                  max_legs: int = MAX_SPIDER_LEGS) -> np.ndarray:
    """Matrix of a single spider with m inputs and n outputs.

    Z: |0..0><0..0| + e^{i theta} |1..1><1..1|; X is the Hadamard conjugate.
    The scalar case m = n = 0 gives the 1x1 matrix [1 + e^{i theta}].
    """
    if kind not in dg.SPIDER_KINDS:
        raise ValueError(f"spider_matrix needs a spider kind, got {kind!r}")
    if m < 0 or n < 0:
        raise ValueError("arities must be non-negative")
    if m + n > max_legs:
        raise DimensionOverflow(f"spider with {m + n} legs exceeds cap {max_legs}")
    th = theta.radians() if isinstance(theta, TotalAngle) else float(theta)
    phase = complex(math.cos(th), math.sin(th))
    if m == 0 and n == 0:
        out = np.array([[1.0 + phase]], dtype=complex)
    else:
        out = np.zeros((2 ** n, 2 ** m), dtype=complex)
        out[0, 0] = 1.0
        out[-1, -1] = phase
    if kind == dg.X:
        out = _kron_pow(_H, n) @ out @ _kron_pow(_H, m)
    return out


def _spider_tensor(kind: str, degree: int, theta_radians: float) -> np.ndarray:
    """Rank-``degree`` tensor of a spider (symmetric in its legs)."""
    phase = complex(math.cos(theta_radians), math.sin(theta_radians))
    if degree == 0:
        return np.array(1.0 + phase, dtype=complex)
    t = np.zeros((2,) * degree, dtype=complex)
    t[(0,) * degree] = 1.0
    t[(1,) * degree] = phase
    if kind == dg.X:
        for ax in range(degree):
            t = np.tensordot(t, _H, axes=([ax], [0]))
            t = np.moveaxis(t, -1, ax)
    return t


@dataclass
class _Blob:
    tensor: np.ndarray
    axes: list  # axis labels, parallel to tensor dims


def _node_blobs(node: dg.Node, port_labels: list) -> list[_Blob]:
    """Tensors for one node; high-degree spiders are split into exact chains.

    Splitting relies on the spider fusion law (chaining same-color spiders
    through single wires reproduces the big spider exactly), keeping every
    materialized tensor small.
    """
    if node.kind == dg.H:
        return [_Blob(_H.copy(), list(port_labels))]
    theta = total_angle(node.label).radians()
    deg = node.degree
    if deg <= _SPLIT_DEGREE:
        return [_Blob(_spider_tensor(node.kind, deg, theta), list(port_labels))]
    blobs = []
    chunk = _SPLIT_DEGREE - 2
    remaining = list(port_labels)
    first = True
    prev_bond = None
    idx = 0
    while remaining:
        take, remaining = remaining[:chunk], remaining[chunk:]
        labels = list(take)
        if prev_bond is not None:
            labels.append(prev_bond)
        if remaining:
            bond = ("bond", node.id, idx)
            labels.append(bond)
            prev_bond = bond
            idx += 1
        th = theta if first else 0.0
        blobs.append(_Blob(_spider_tensor(node.kind, len(labels), th), labels))
        first = False
    return blobs


def _contract_pair(a: _Blob, b: _Blob, max_entries: int) -> _Blob:
    shared = [lab for lab in a.axes if lab in b.axes]
    ax_a = [a.axes.index(lab) for lab in shared]
    ax_b = [b.axes.index(lab) for lab in shared]
    size = 2 ** (len(a.axes) + len(b.axes) - 2 * len(shared))
    if size > max_entries:
        raise DimensionOverflow(
            f"intermediate tensor of {size} entries exceeds cap {max_entries}"
        )
    t = np.tensordot(a.tensor, b.tensor, axes=(ax_a, ax_b))
    axes = [lab for lab in a.axes if lab not in shared] + [
        lab for lab in b.axes if lab not in shared
    ]
    return _Blob(t, axes)


def _trace_self(blob: _Blob) -> _Blob:
    while True:
        dup = None
        for lab in blob.axes:
            if blob.axes.count(lab) == 2:
                dup = lab
                break
        if dup is None:
            return blob
        i = blob.axes.index(dup)
        j = blob.axes.index(dup, i + 1)
        blob.tensor = np.trace(blob.tensor, axis1=i, axis2=j)
        blob.axes = [lab for k, lab in enumerate(blob.axes) if k not in (i, j)]


def evaluate(
    d: dg.Diagram,
    *,
    max_open_wires: int = MAX_OPEN_WIRES,
    max_entries: int = MAX_TENSOR_ENTRIES,
    order: str = "greedy",
) -> np.ndarray:
    """Contract the diagram to its 2^{outputs} x 2^{inputs} matrix.

    ``order`` selects the contraction schedule: "greedy" picks the pair with
    the smallest resulting tensor first, "sequential" contracts in a fixed
    deterministic order.  Both must agree (used as a cross-check).
    """
    if d.n_inputs + d.n_outputs > max_open_wires:
        raise DimensionOverflow(
            f"{d.n_inputs + d.n_outputs} open wires exceed cap {max_open_wires}"
        )

    # Label each wire; boundary endpoints become open axes.
    port_label: dict[tuple, object] = {}
    blobs: list[_Blob] = []
    for i, w in enumerate(d.wires):
        a, b = w.endpoints()
        if isinstance(a, dg.NodePort) and isinstance(b, dg.NodePort):
            lab = ("w", i)
            port_label[(a.node, a.port)] = lab
            port_label[(b.node, b.port)] = lab
        elif isinstance(a, dg.NodePort) or isinstance(b, dg.NodePort):
            node_end, bound_end = (a, b) if isinstance(a, dg.NodePort) else (b, a)
            port_label[(node_end.node, node_end.port)] = ("b", bound_end.side, bound_end.pos)
        else:
            ident = np.eye(2, dtype=complex)
            blobs.append(
                _Blob(ident, [("b", a.side, a.pos), ("b", b.side, b.pos)])
            )

    for node in d.nodes:
        labels = [port_label[(node.id, p)] for p in range(node.degree)]
        blobs.extend(_node_blobs(node, labels))

    if not blobs:
        return np.eye(1, dtype=complex)

    blobs = [_trace_self(b) for b in blobs]

    def is_open(lab) -> bool:
        return lab[0] == "b"

    while True:
        # Candidate pairs are blobs sharing a contracted label; scan via a
        # label index instead of all blob pairs.
        owner: dict = {}
        best = None
        for i, blob in enumerate(blobs):
            for lab in blob.axes:
                if is_open(lab):
                    continue
                j = owner.get(lab)
                if j is None:
                    owner[lab] = i
                elif j != i:
                    shared = set(blobs[j].axes) & set(blob.axes)
                    cost = len(blobs[j].axes) + len(blob.axes) - 2 * len(shared)
                    key = (cost, j, i)
                    if best is None or key < best:
                        best = key
            if order == "sequential" and best is not None:
                break
        if best is None:
            break
        _, i, j = best
        merged = _contract_pair(blobs[i], blobs[j], max_entries)
        blobs = [b for k, b in enumerate(blobs) if k not in (i, j)]
        blobs.append(_trace_self(merged))

    # Remaining blobs are disconnected; take their outer product.
    total = blobs[0]
    for b in blobs[1:]:
        size = 2 ** (len(total.axes) + len(b.axes))
        if size > max_entries:
            raise DimensionOverflow(
                f"final tensor of {size} entries exceeds cap {max_entries}"
            )
        total = _Blob(
            np.tensordot(total.tensor, b.tensor, axes=0), total.axes + b.axes
        )

    assert all(is_open(lab) for lab in total.axes)
    want = [("b", dg.OUT, p) for p in range(d.n_outputs)] + [
        ("b", dg.IN, p) for p in range(d.n_inputs)
    ]
    perm = [total.axes.index(lab) for lab in want]
    t = np.transpose(total.tensor, perm) if perm else total.tensor
    return t.reshape(2 ** d.n_outputs, 2 ** d.n_inputs)


def phase_free_magnitude(d: dg.Diagram) -> float:
    """Largest entry of d's matrix with all phases 0 and |H| for H.

    It bounds every product the true contraction sums, so each entry's
    rounding error is about node count x machine epsilon x this magnitude.
    |H| has rank one, so H nodes (1/sqrt 2) and X spiders (2^(1 - degree/2))
    are constant tensors, a wire between two of them sums to 2, and each Z
    region is a copy tensor: 2 with no boundary leg, else at most 1.
    """
    log2 = 0.0
    at_boundary = set()
    for w in d.wires:
        ids = [ep.node for ep in w.endpoints() if isinstance(ep, dg.NodePort)]
        if len(ids) == 1:
            at_boundary.add(ids[0])
        elif len(ids) == 2 and all(d.node(i).kind != dg.Z for i in ids):
            log2 += 1
    for n in d.nodes:
        if n.kind == dg.X:
            log2 += 1 - n.degree / 2
        elif n.kind == dg.H:
            log2 -= 0.5
    for region in dg.monochrome_regions(d):
        if d.node(next(iter(region))).kind == dg.Z and not region & at_boundary:
            log2 += 1
    return math.inf if log2 >= 1024 else 2.0 ** log2


# --- comparison predicates ---


def equal_up_to_global_phase(a: np.ndarray, b: np.ndarray, tol: float = EQ_TOL) -> bool:
    """True iff a = c*b for some unit complex c, in max norm.

    The phase estimate comes from the largest-magnitude entry of b; this is
    ``max_phase_deviation(a, b) <= tol``.
    """
    return max_phase_deviation(a, b) <= tol


def equal_up_to_global_scalar(a: np.ndarray, b: np.ndarray, tol: float = EQ_TOL) -> bool:
    """True iff a = c*b for some nonzero complex c (magnitude ignored).

    Used where rewrite rules are only scalar-sound (bialgebra, Hopf, gate
    gadgets with their sqrt-2 bookkeeping).
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape {a.shape} vs {b.shape}")
    if not b.size:
        return True
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[idx]) == 0.0:
        return float(np.max(np.abs(a), initial=0.0)) <= tol
    c = a[idx] / b[idx]
    if c == 0.0:
        return False
    scale = max(1.0, float(np.max(np.abs(a))))
    return float(np.max(np.abs(a - c * b))) <= tol * scale


def max_phase_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Max-norm residual after the best unit-phase alignment of b to a.

    The phase is read off the largest-magnitude entry of b, which recovers
    c exactly whenever a = c*b; an empty pair deviates by 0.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape {a.shape} vs {b.shape}")
    if not b.size:
        return 0.0
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[idx]) == 0.0:
        return float(np.max(np.abs(a), initial=0.0))
    c = a[idx] / b[idx]
    c = c / abs(c) if abs(c) else 1.0
    return float(np.max(np.abs(a - c * b)))


# --- states ---


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Squared overlap |<a|b>|^2 of two pure states."""
    a = np.asarray(a, dtype=complex).reshape(-1)
    b = np.asarray(b, dtype=complex).reshape(-1)
    if a.shape != b.shape:
        raise DimensionMismatch(f"state length {a.size} vs {b.size}")
    return float(abs(np.vdot(a, b)) ** 2)
