"""Dense matrix semantics of diagrams, plus phase comparisons and state fidelity.

This is the oracle for every rewrite: a diagram denotes a linear map from its
inputs to its outputs, computed by tensor-network contraction, by default in
complex double precision.  Only the total angle of a spider label is visible
here.  When every total angle's denominator divides M, the matrix entries lie
in Z[zeta_M, 1/sqrt 2], and for a prime p = 1 (mod lcm(M, 8)) reduction mod p
is a ring map into F_p: ``evaluate(primes=...)`` computes these residues
exactly, along the same contraction schedule.  ``exact_residues`` is the
exact oracle that ``verify`` and ``metrics`` call: it picks the primes from
the phase order of all its diagrams and evaluates each mod them.  One pass
carries every prime: each tensor has a leading batch axis, one slice per
prime, and the complex ring is a batch of one.  A ring supplies its
arithmetic, H and the phase factors; ``_spider_tensor`` builds every other
tensor the same way in both rings, an X spider in closed form.

Conventions: qubit 0 is the most significant bit; a diagram with m inputs and
n outputs evaluates to a 2^n x 2^m matrix.  Float equality checks use the
fixed tolerance EQ_TOL = 1e-9.

The one size limit is MAX_TENSOR_ENTRIES = 2^24 entries per tensor, the
final matrix and ``spider_matrix`` included.  Past it DimensionOverflow comes
before any arithmetic, so no diagram of more than 24 open wires is contracted.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math

import numpy as np

from . import diagram as dg
from .errors import DimensionMismatch, DimensionOverflow, GridOverflow
from .phase import ZERO, RationalAngle, TotalAngle, total_angle

EQ_TOL = 1e-9

MAX_TENSOR_ENTRIES = 1 << 24
PRIME_BOUND = 1 << 20  # exact-mode primes stay below it, so products stay below 2^40

_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
_SPLIT_DEGREE = 8  # spiders above this degree are chained before contraction
_INT64_MAX = (1 << 63) - 1


def hadamard() -> np.ndarray:
    return _H.copy()


# --- number systems ---


def _unit(theta: float) -> complex:
    return complex(math.cos(theta), math.sin(theta))


class _Complex:
    """Complex numbers in double precision, as a batch of one: every tensor
    has a leading axis of length 1, and ``dot`` is ``np.tensordot`` on the
    slice, so the result is bit for bit the unbatched contraction."""

    dtype, h, batch = complex, _H[None], 1
    phase = staticmethod(lambda turns: np.array([_unit(turns.radians())]))
    mod = staticmethod(lambda t: t)

    @staticmethod
    def dot(a, b, axes):
        return np.tensordot(a[0], b[0], axes)[None]


class Residues:
    """Residues mod a batch of primes p = 1 (mod 8), as int64, reduced after
    every product.  Every tensor has a leading prime axis, and one contraction
    carries all the primes.  One ring serves any number of contractions.

    zeta_M maps to g^((p - 1) / M) for every M dividing p - 1, with g the least
    generator of F_p^*.  One generator for all M keeps the maps of different
    diagrams consistent (zeta_M^(M/K) = zeta_K).  sqrt 2 = zeta_8 + zeta_8^-1,
    so 1/sqrt 2 exists mod p.
    """

    dtype = np.int64

    def __init__(self, primes: tuple[int, ...]):
        self.primes, self.batch = primes, len(primes)
        self.p = np.array(primes, dtype=np.int64)[:, None, None]
        self.g = [_least_generator(p) for p in primes]
        h = []
        for p, g in zip(primes, self.g):
            z8 = pow(g, (p - 1) // 8, p)
            s = pow(z8 + pow(z8, -1, p), -1, p)
            h.append([[s, s], [s, p - s]])
        self.h = np.array(h, dtype=np.int64)
        # Products per int64 sum that keep it below 2^63, for the largest
        # prime: 2^23 when every p < 2^20.
        self.terms = max(1, _INT64_MAX // (max(primes) - 1) ** 2)
        self._phases: dict = {}

    def phase(self, turns: RationalAngle) -> np.ndarray:
        """e^{2 pi i turns} mod each prime, kept per ``turns`` for every
        contraction in the ring; read-only."""
        out = self._phases.get(turns)
        if out is None:
            roots = []
            for p, g in zip(self.primes, self.g):
                if (p - 1) % turns.den:
                    raise ValueError(f"F_{p} has no primitive {turns.den}-th root of unity")
                roots.append(pow(g, (p - 1) // turns.den * turns.num, p))
            out = self._phases[turns] = np.array(roots, dtype=np.int64)
            out.flags.writeable = False
        return out

    def mod(self, t):
        return t % self.p.reshape((-1,) + (1,) * (t.ndim - 1))

    def dot(self, a, b, axes):
        """``tensordot`` of each prime's slices as one batched matrix
        product, summed in chunks of ``self.terms`` products, each chunk
        reduced before it is added; ``axes`` count the axes after the prime
        axis."""
        perm_a, shape_a, perm_b, shape_b, shape = _dot_layout(
            a.ndim, b.ndim, tuple(axes[0]), tuple(axes[1])
        )
        m = a.transpose(perm_a).reshape(shape_a)
        n = b.transpose(perm_b).reshape(shape_b)
        if shape_a[2] <= self.terms:
            out = m @ n % self.p
        else:
            t = self.terms
            chunks = range(0, shape_a[2], t)
            out = sum(m[:, :, s : s + t] @ n[:, s : s + t] % self.p for s in chunks) % self.p
        return out.reshape(shape)


@functools.cache
def _dot_layout(ndim_a: int, ndim_b: int, ax_a: tuple, ax_b: tuple) -> tuple:
    """How ``Residues.dot`` lays out a pair of tensors of these ranks for one
    batched matrix product over the shared axes ``ax_a``/``ax_b`` (counted
    after the batch axis): the transpose and the (batch, rows, columns)
    shape of each factor, and the shape of the result; the batch size is
    left to numpy (-1).

    Cached per signature for the process, since a product is nearly all
    numpy (two transposes, the batched product and its reduction): about
    4 us for a 5-leg by 4-leg pair over two primes (timeit median, 2-CPU
    Xeon VM).  The verify of the first seed-7 d1-main diagram makes 99
    products, about half on a signature seen before in that verify.  The
    cache changes neither the plan nor the arithmetic."""
    ax_a, ax_b = [k + 1 for k in ax_a], [k + 1 for k in ax_b]
    free_a = [k for k in range(1, ndim_a) if k not in ax_a]
    free_b = [k for k in range(1, ndim_b) if k not in ax_b]
    inner = 1 << len(ax_a)
    return (
        (0, *free_a, *ax_a),
        (-1, 1 << len(free_a), inner),
        (0, *ax_b, *free_b),
        (-1, inner, 1 << len(free_b)),
        (-1,) + (2,) * (len(free_a) + len(free_b)),
    )


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % q for q in range(2, math.isqrt(n) + 1))


@functools.cache
def _least_generator(p: int) -> int:
    """Least generator of the multiplicative group mod the prime p."""
    small = [k for k in range(1, math.isqrt(p) + 1) if (p - 1) % k == 0]
    factors = {q for k in small for q in (k, (p - 1) // k) if _is_prime(q)}
    return next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in factors))


def phase_order(*diagrams: dg.Diagram) -> int:
    """lcm(8, every total-angle denominator of the diagrams): their matrix
    entries lie in Z[zeta_n, 1/sqrt 2]."""
    return math.lcm(8, *(total_angle(n.label).turns.den for d in diagrams for n in d.spiders))


@functools.cache
def exact_primes(n: int) -> tuple[int, int]:
    """The two largest primes p < PRIME_BOUND with p = 1 (mod n), so F_p holds
    the n-th roots of unity; GridOverflow when fewer than two exist."""
    candidates = range((PRIME_BOUND - 2) // n * n + 1, 1, -n)
    found = list(itertools.islice(filter(_is_prime, candidates), 2))
    if len(found) < 2:
        raise GridOverflow(f"phase order {n}: no two primes p = 1 (mod n) below {PRIME_BOUND}")
    return found[0], found[1]


@functools.cache
def _odd_weight(degree: int) -> np.ndarray:
    """Read-only bool tensor of rank ``degree``: whether each index has an
    odd number of ones, built one leading bit at a time in O(2^degree)."""
    odd = np.zeros(1, dtype=bool)
    for _ in range(degree):
        odd = np.concatenate([odd, ~odd])
    odd = odd.reshape((2,) * degree)
    odd.flags.writeable = False
    return odd


def _spider_tensor(kind: str, degree: int, phase: np.ndarray, ring) -> np.ndarray:
    """Rank-``degree`` tensor of a spider (symmetric in its legs) behind the
    ring's batch axis, whose phase factor e^{i theta} is ``phase`` in
    ``ring``, one entry per batch slice.

    Z: 1 at 0..0 and phase at 1..1.  X, the Z spider with H on every leg:
    s^degree (1 + phase (-1)^|x|) at index x, with s = 1/sqrt 2 = h[0][0]
    and |x| the number of ones in x.  With no legs both are 1 + phase, so a
    scalar takes the X form; s^degree is one Python ``pow`` per slice."""
    if kind == dg.Z and degree:
        t = np.zeros((ring.batch,) + (2,) * degree, dtype=ring.dtype)
        t[(slice(None),) + (0,) * degree] = 1
        t[(slice(None),) + (1,) * degree] = phase
        return t
    s = np.array([pow(h, degree) for h in ring.h[:, 0, 0].tolist()], dtype=object)
    s = ring.mod(s).astype(ring.dtype)
    shape = (ring.batch,) + (1,) * degree
    even = ring.mod(s * (1 + phase)).reshape(shape)
    odd = ring.mod(s * (1 - phase)).reshape(shape)
    return np.where(_odd_weight(degree), odd, even)


def spider_matrix(kind: str, m: int, n: int, theta: TotalAngle | float) -> np.ndarray:
    """Matrix of a single spider with m inputs and n outputs.

    Z: |0..0><0..0| + e^{i theta} |1..1><1..1|; X is the Hadamard conjugate.
    The scalar case m = n = 0 gives the 1x1 matrix [1 + e^{i theta}].
    """
    if kind not in dg.SPIDER_KINDS:
        raise ValueError(f"spider_matrix needs a spider kind, got {kind!r}")
    if m < 0 or n < 0:
        raise ValueError("arities must be non-negative")
    if (size := 2 ** (m + n)) > MAX_TENSOR_ENTRIES:
        raise DimensionOverflow(f"spider tensor of {size} entries exceeds cap {MAX_TENSOR_ENTRIES}")
    th = theta.radians() if isinstance(theta, TotalAngle) else float(theta)
    return _spider_tensor(kind, m + n, np.array([_unit(th)]), _Complex)[0].reshape(2 ** n, 2 ** m)


def _network(d: dg.Diagram) -> list[tuple]:
    """One (kind, total angle in turns, axis labels) piece per tensor of d.
    A leg on port p is labelled max(p, far[p]): below ``first[-1]`` a wire
    between nodes, whose two legs share the label, and otherwise the
    boundary slot the wire ends at, an open axis.  A bare boundary-to-boundary
    wire is a phase-zero two-leg Z spider (the identity) on its two slots.
    A spider's self-loops are left out: a spider traced over a loop is the
    same spider with two fewer legs (for X, 2 s^2 = 1).  A spider with more
    legs left than the split degree becomes an exact chain of smaller ones
    (spider fusion), its angle on the first, each bond a negative label."""
    far, first = d.far, d.first
    n_ports = first[-1]
    pieces = [(dg.Z, ZERO, [p, far[p]]) for p in range(n_ports, len(far)) if p < far[p]]
    bond = -1
    for i, node in enumerate(d.nodes):
        lo, hi = first[i], first[i + 1]
        labels = [max(p, far[p]) for p in range(lo, hi) if not lo <= far[p] < hi]
        if node.kind == dg.H:
            pieces.append((dg.H, None, labels))
            continue
        turns = total_angle(node.label).turns
        if len(labels) <= _SPLIT_DEGREE:
            pieces.append((node.kind, turns, labels))
            continue
        chunk = _SPLIT_DEGREE - 2
        for idx, start in enumerate(range(0, len(labels), chunk)):
            axes = labels[start : start + chunk]
            if idx:
                axes.append(bond + 1)
            if start + chunk < len(labels):
                axes.append(bond)
                bond -= 1
            pieces.append((node.kind, turns if idx == 0 else ZERO, axes))
    return pieces


def _schedule(d: dg.Diagram) -> tuple:
    """Plan the contraction of d from its axis labels alone; DimensionOverflow
    comes before any arithmetic.  Returns (pieces, pairs, perm): the
    ``_network`` pieces, numbered in order; the (a, b, axes of a, axes of b)
    contractions, each result numbered next; and the transpose of the outer
    product of what is left into matrix order.  Greedy: the pair with the
    smallest result comes first, then the pair with the lowest numbers; the
    final tensor, one axis per open wire, and every intermediate stay within
    MAX_TENSOR_ENTRIES."""
    if (size := 2 ** (d.n_inputs + d.n_outputs)) > MAX_TENSOR_ENTRIES:
        raise DimensionOverflow(
            f"final tensor of {size} entries exceeds cap {MAX_TENSOR_ENTRIES}"
        )
    pieces = _network(d)
    n_ports = d.first[-1]
    # live[k]: tensor k's axis labels, None once contracted; holders[label]:
    # the two tensors holding a wire or bond label (one below n_ports).
    live = [ax for _, _, ax in pieces] + [None] * len(pieces)
    holders = {}
    for k, (_, _, ax) in enumerate(pieces):
        for lab in ax:
            if lab < n_ports:
                holders.setdefault(lab, []).append(k)

    # Each wire label joins exactly two tensors, so the wires a pair shares
    # are counted in one pass over the labels.
    shared_by: dict = {}
    for a, b in holders.values():
        shared_by[a, b] = shared_by.get((a, b), 0) + 1
    heap = [(len(live[a]) + len(live[b]) - 2 * n, a, b) for (a, b), n in shared_by.items()]
    heapq.heapify(heap)
    pairs = []
    new = len(pieces)
    while heap:
        _, a, b = heapq.heappop(heap)
        ax_a, ax_b = live[a], live[b]
        if ax_a is None or ax_b is None:
            continue  # stale: one of them is contracted already
        live[a] = live[b] = None
        on_a, on_b, kept = [], [], []
        for i, lab in enumerate(ax_a):
            if lab in ax_b:
                on_a.append(i)
                on_b.append(ax_b.index(lab))
            else:
                kept.append(lab)
        for j, lab in enumerate(ax_b):
            if j not in on_b:
                kept.append(lab)
        if (size := 2 ** len(kept)) > MAX_TENSOR_ENTRIES:
            raise DimensionOverflow(
                f"intermediate tensor of {size} entries exceeds cap {MAX_TENSOR_ENTRIES}"
            )
        pairs.append((a, b, on_a, on_b))
        ax = live[new] = kept
        # One heap entry per neighbour, costed by the wires it shares with new.
        shared_by = {}
        for lab in ax:
            if lab < n_ports:
                pair = holders[lab]
                j = 0 if pair[0] == a or pair[0] == b else 1
                pair[j] = new
                other = pair[1 - j]
                shared_by[other] = shared_by.get(other, 0) + 1
        for other, n in shared_by.items():
            heapq.heappush(heap, (len(live[other]) + len(ax) - 2 * n, other, new))
        new += 1

    # What is left is unconnected and has only open axes: outer products.
    total = [lab for ax in live if ax is not None for lab in ax]
    assert min(total, default=n_ports) >= n_ports  # only open axes are left
    outputs = n_ports + d.n_inputs
    want = [*range(outputs, outputs + d.n_outputs), *range(n_ports, outputs)]
    perm = [total.index(lab) for lab in want]
    return pieces, pairs, perm


def _contract(d: dg.Diagram, plan: tuple, ring) -> np.ndarray:
    """Follow d's contraction plan in ``ring``, every tensor behind the ring's
    batch axis: a (batch, 2^outputs, 2^inputs) array.  A ring gives
    ``batch``, ``dtype``, the Hadamard ``h``, ``phase(turns)``, ``mod`` and
    ``dot``; every other tensor is a ``_spider_tensor``, of as many legs as
    its piece has labels."""
    pieces, pairs, perm = plan
    if not pieces:
        return np.ones((ring.batch, 1, 1), dtype=ring.dtype)
    ts, made = {}, {}  # spiders of one kind, degree and angle share a tensor
    for k, (kind, turns, axes) in enumerate(pieces):
        if kind == dg.H:
            ts[k] = ring.h
        else:
            key = (kind, len(axes), turns)
            if key not in made:
                made[key] = _spider_tensor(kind, len(axes), ring.phase(turns), ring)
            ts[k] = made[key]
    for new, (a, b, ax_a, ax_b) in enumerate(pairs, start=len(pieces)):
        ts[new] = ring.dot(ts.pop(a), ts.pop(b), (ax_a, ax_b))
    total, *rest = ts.values()
    for t in rest:
        total = ring.dot(total, t, ([], []))  # outer product
    t = np.transpose(total, [0] + [k + 1 for k in perm]) if perm else total
    return t.reshape(ring.batch, 2 ** d.n_outputs, 2 ** d.n_inputs)


def evaluate(d: dg.Diagram, *, primes: Residues | None = None):
    """Contract the diagram to its 2^{outputs} x 2^{inputs} matrix.

    Without ``primes``, a complex matrix in double precision.  With a
    ``Residues`` ring, a list of int64 matrices, the exact matrix's residues
    mod each of the ring's primes; every p must be 1 mod 8 and mod each
    total-angle denominator of d, as ``exact_residues`` picks them.  One
    ring serves every diagram contracted mod the same primes.  The
    contraction schedule (see ``_schedule``) is planned once, and one
    pass along it carries every prime.
    """
    plan = _schedule(d)
    if primes is None:
        return _contract(d, plan, _Complex)[0]
    return list(_contract(d, plan, primes))


def exact_residues(*diagrams: dg.Diagram) -> tuple[tuple[int, int], int, list]:
    """The exact oracle: (primes, n, residues), with n the ``phase_order`` of
    all the diagrams, primes its ``exact_primes`` and residues one
    ``evaluate`` list per diagram, in order, all mod those primes.
    GridOverflow when no two primes exist; DimensionOverflow, as
    ``evaluate`` raises it, past the tensor cap.
    """
    n = phase_order(*diagrams)
    primes = exact_primes(n)
    ring = Residues(primes)
    return primes, n, [evaluate(d, primes=ring) for d in diagrams]


# --- comparison predicates ---


def _anchored(a, b) -> tuple:
    """(a, b, c): both as complex arrays of one shape, and c = a/b at b's
    largest-magnitude entry, or None when b is empty or zero."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape {a.shape} vs {b.shape}")
    if b.size:
        idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
        if abs(b[idx]) != 0.0:
            return a, b, a[idx] / b[idx]
    return a, b, None


def equal_up_to_global_phase(a: np.ndarray, b: np.ndarray) -> bool:
    """True iff a = c*b for some unit complex c, in max norm.

    The phase estimate comes from the largest-magnitude entry of b; this is
    ``max_phase_deviation(a, b) <= EQ_TOL``.
    """
    return max_phase_deviation(a, b) <= EQ_TOL


def equal_up_to_global_scalar(a: np.ndarray, b: np.ndarray) -> bool:
    """True iff a = c*b for some nonzero complex c (magnitude ignored).

    Used where rewrite rules are only scalar-sound (bialgebra, Hopf, gate
    gadgets with their sqrt-2 bookkeeping).
    """
    a, b, c = _anchored(a, b)
    if c is None:
        return float(np.max(np.abs(a), initial=0.0)) <= EQ_TOL
    if c == 0.0:
        return False
    scale = max(1.0, float(np.max(np.abs(a))))
    return float(np.max(np.abs(a - c * b))) <= EQ_TOL * scale


def congruent_up_to_root_of_unity(a, b, p, n: int) -> bool:
    """True iff a = zeta_n^j b (mod q) under every prime q, for one j:
    equality up to one global phase among the n-th roots of unity.  p is a
    tuple of primes, with a and b one residue matrix per prime as
    ``evaluate(primes=...)`` gives them.  zeta_n is g^((q - 1) / n) mod q,
    with g the least generator, as in ``Residues``; j is read off the first
    prime under which b is nonzero, at b's first nonzero entry.  A zero
    matrix matches only a zero one."""
    for x, y in zip(a, b):
        if x.shape != y.shape:
            raise DimensionMismatch(f"shape {x.shape} vs {y.shape}")
    anchor = next((i for i, y in enumerate(b) if y.any()), None)
    if anchor is None:
        return not any(x.any() for x in a)
    q, x, y = p[anchor], a[anchor], b[anchor]
    k = np.flatnonzero(y)[0]
    c = int(x.flat[k]) * pow(int(y.flat[k]), -1, q) % q
    zeta = pow(_least_generator(q), (q - 1) // n, q)
    j = next((j for j in range(n) if pow(zeta, j, q) == c), None)
    if j is None:
        return False  # c is no n-th root of unity
    return all(
        np.array_equal(y * pow(_least_generator(q), (q - 1) // n * j, q) % q, x)
        for q, x, y in zip(p, a, b)
    )


def max_phase_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Max-norm residual after the best unit-phase alignment of b to a.

    The phase is read off the largest-magnitude entry of b, which recovers
    c exactly whenever a = c*b; an empty pair deviates by 0.
    """
    a, b, c = _anchored(a, b)
    if c is None:
        return float(np.max(np.abs(a), initial=0.0))
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
