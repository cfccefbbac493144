"""Minimum-weight perfect matching on defect graphs.

Every matching is exact: a subset DP over the F(n+2) masks reachable from
the empty one (Fibonacci, at most n relaxations each).  The DP takes at most
:data:`DP_VERTEX_CAP` = 24 vertices, the Z-check count of the largest
supported surface code, so every graph ``sweep`` samples fits; a larger
graph raises MatchingOverflow instead of being matched approximately.  When
virtual boundary vertices follow the one-virtual-per-defect pattern, each
virtual is folded into its real defect's retirement cost, so only the real
defects enter the DP mask and the unused virtuals pair up among themselves
afterwards, for free, whether or not an edge joins them: no virtual-virtual
edge is read.  Any other virtual layout puts every vertex into the same DP
with an infinite retirement cost, so there each pair needs an edge and pays
its weight.

The matcher reads a graph's array form (``graph.DefectArrays``): the
sampler's graphs carry theirs, built from per-code arrays, and any other
graph is converted once and keeps the form.  A sampled graph builds its
vertex and edge tuples only when a caller first reads them; ``masd_decode``
hands the matcher the form itself, so a sweep never builds them.  Weights
arrive as one float per edge, in ``g.edges`` order (see
``graph.edge_weights``), and the form's rows are the graph's first edges,
so the same positions serve both.  Which layout applies, the DP vertex
order, each real defect's retirement candidates and the row of each of the
kernel's slots are part of the form.  The slots (``_dp``) list, for each DP
vertex, its pairs with the later ones, then its boundary.  A sampled form's
rows are its slots, so its weights go to the pure-Python kernel as they
are; a converted form reads each call's weights through its slot -> row map
into a Python list, a missing pair at +inf.  The same positions name, in
``Matching.edges``, the edge whose weight each pair paid: ``None`` marks
exactly the free virtual pairs.  A graph with no vertices skips the kernel.

A lambda grid raises weights (the penalty lambda * slope has slope >= 0),
and often leaves the optimum where it was.  So each form keeps the weights
of its last solve and the ``Matching`` that solve returned, and a later call
returns that same object, without running the DP, when (a) every weight the
matching paid (each position in ``Matching.edges``) is exactly what it was
and (b) no weight decreased.  The result is the one a fresh solve gives,
bit for bit.  On the benchmark's sweep-d7 workload at seed 7, 2,232 of the
3,600 decodes at lambda > 0 are served this way.  A graph's weight list
may run past the form's rows (a sampled graph's free virtual-virtual
clique); the DP never reads those weights, so comparing two lists over
their common positions is enough.

Float addition and ``min`` are monotone, so raising weights can only raise
each ``dp[mask]``.  Take a mask on the kept matching's reconstruct chain:
its chosen candidate keeps its value, since every weight on the chain is
unchanged; every candidate processed before it was strictly
greater and can only have grown; every later one is still >= the kept value
and the strict ``<`` rejects it.  So ``dp`` and ``choice`` along the chain,
``reconstruct``, the retirement owner (the first strict minimum among a
real's candidates: the same argument) and the leftover virtual pairing are
all unchanged.  This holds for either virtual layout, +inf edges and
parallel edges; a NaN weight never certifies, since ``>=`` is false on it.
The length, odd-count and cap checks run first on every call.

A pair that costs more than retiring both its ends is never worth taking,
so from :data:`PRUNE_MIN` DP vertices on, ``_prune`` gives the DP a copy
of its pair costs with such a pair at +inf, and the DP's ``isfinite`` test
then skips every mask that only such pairs reach.  Over the 4,800 decodes of
the benchmark's seed-7 sweep-d7 pass, each solved without the certificate,
36% of pairs go and 53% of masks stay reachable.  The result is the
unpruned solve's, bit for bit.  Write u = 2^-53, n for the DP size, b_i
for the retirement costs, beta = max b_i and B = sum b_i <= n beta, S(M)
for the exact sum of a cover M's move costs and S^(M) for their float sum,
added in move order (lead order) from 0.0.

Preconditions, all checked before any entry changes; if one fails, that
solve is not pruned.  No weight is negative or NaN, so every entry the DP
reads is >= 0 or +inf.  Every b_i is below 2^1018, hence finite, and
B < 2^1023, so no sum below overflows.  Only the own-boundary layout can
pass: any other retires at +inf.

(1) The chain uses no pair with exact gap g = w_ij - b_i - b_j above
G = 2(n-1)uB / (1 - 2(n-1)u).  Float addition is monotone, so ``dp[mask]``
is the least S^ over the move paths that reach the mask.  A cover's moves
come in lead order, so it is one path, and the returned cover M* has
S^(M*) = ``dp[full]``.  A cover has at most n moves, so its sum has at most
n - 1 roundings, and |S^(M) - S(M)| <= gamma S(M) with
gamma = (n-1)u / (1 - (n-1)u) (Higham, Accuracy and Stability of Numerical
Algorithms, section 4.2).  Retiring every vertex is a cover, so
``dp[full]`` <= (1 + gamma)B.  Let a cover M hold a pair ij with g > G, and
let M' be M with ij swapped for the two retirements: a cover with
S(M') = S(M) - g.  If S^(M) > (1 + gamma)B, then S^(M) > ``dp[full]``.
Otherwise S(M) <= B(1 + gamma)/(1 - gamma), so
S^(M) - S^(M') >= (1 - gamma)S(M) - (1 + gamma)(S(M) - g)
>= (1 + gamma)(g - 2 gamma B/(1 - gamma)) = (1 + gamma)(g - G) > 0, and
``dp[full]`` <= S^(M') < S^(M).  Either way M is not M*.

(2) Every pruned pair has g > G.  ``_prune`` computes the margin
mu = fl(fl(K beta) + 2^-1074) with K = (2n^2 + 1)u, an exact float.  Then
mu >= (1 - u)K beta: when K beta is normal, fl(K beta) >= (1 - u)K beta
and adding the least subnormal cannot lower it; when K beta underflows,
fl(K beta) >= K beta - 2^-1075 and that addition, exact there, lifts it
above K beta.  The pair goes when w_ij > t with
t = fl(fl(b_i + mu) + b_j) >= (1 - u)^2 (b_i + b_j + mu), and the
comparison itself is exact.  So g > (1 - 2u)mu - 2u(b_i + b_j)
>= (1 - 3u)K beta - 2un beta = ((1 - 3u)(2n^2 + 1) - 2n)u beta, which for
n <= 24 is at least 2n(n - 1)u beta / (1 - 2(n - 1)u) >= G, because
3u(2n^2 + 1) + 4n(n - 1)^2 u / (1 - 2(n - 1)u) < 10^-11 < 1.

(3) The chain's values and choices stay.  Pruning turns candidates into
+inf, so by induction over masks every pruned ``dp`` entry is >= the
unpruned one.  Along M*'s reconstruct chain every move is kept, by (1)
and (2), and the certificate's argument applies: the chosen candidate
keeps its value, the ones processed before it were strictly greater and
can only have grown, and later ones still lose the strict ``<``.  So
``dp`` and ``choice`` along the chain, ``reconstruct``, the cost, the
retirement owner, the leftover virtual pairs and the kept certificate
(read from ``weights``, which ``_prune`` leaves alone) are unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import ge, itemgetter
from typing import Sequence

from ..errors import MatchingOverflow, OddVertexCount
from . import _dp
from .graph import DefectArrays, DefectGraph, VertexId, defect_arrays

DP_VERTEX_CAP = 24

# Fewest DP vertices at which ``_prune`` runs.  On sampled d = 7 instances
# at lambda = 0.1 (30 per size, best of 7 timings, 2-CPU Xeon VM), with the
# copy it writes into, it costs 3.4 us at n = 7 and saves 1.7 us of the
# kernel's 7.6 us; at n = 8 it costs 4.2 us and saves 4.0 us of 13.3 us;
# at n = 12 it costs 7.5 us and saves 43 us of 121 us.
PRUNE_MIN = 8
# Rounding constants of ``_prune``'s margin (see the module docstring): the
# unit roundoff, a bound on retirement costs that keeps every sum finite,
# and the least subnormal.
_U = 2.0**-53
_CEILING = 2.0**1018
_TINY = 5e-324

# The kernel module under the name profilers and tests patch ``solve_dense`` on.
_kernel = _dp


def kernel_name() -> str:
    """The DP kernel in use: always 'pure', the pure-Python subset DP in
    ``_dp``."""
    return "pure"


@dataclass(frozen=True)
class Matching:
    """A perfect matching: vertex-id pairs, its cost, an exactness flag
    (always true: every matching is a minimum-weight one) and, per pair in
    ``pairs`` order, the ``g.edges`` position whose weight it paid, or None
    for two virtuals paired for free."""

    pairs: tuple[tuple[VertexId, VertexId], ...]
    total_cost: float
    exact: bool
    edges: tuple[int | None, ...]


# The matching of every graph with no vertices, built once.
_EMPTY = Matching((), 0.0, exact=True, edges=())


def min_weight_perfect_matching(
    g: DefectGraph | DefectArrays, weights: Sequence[float]
) -> Matching:
    """Match all vertices of g, a defect graph or its array form, at
    minimum total weight.

    ``weights`` holds one cost per edge of g, in ``g.edges`` order, as built
    by ``edge_weights``; where edges are parallel, the last one's cost is
    used.  Only the weights of the array form's rows are read.  Raises
    ValueError when its length differs from the edge count, OddVertexCount
    when no perfect matching can exist and MatchingOverflow past
    DP_VERTEX_CAP DP vertices.
    """
    arrays = defect_arrays(g)
    if len(weights) != len(g.edges):
        raise ValueError(f"{len(weights)} weights for {len(g.edges)} edges")
    ids, virts, retire, slot_rows = arrays.ids, arrays.virtuals, arrays.retire, arrays.slot_rows
    n, n_vertices = len(ids), len(ids) + len(virts)
    if n_vertices % 2 != 0:
        raise OddVertexCount(f"{n_vertices} vertices cannot be perfectly matched")
    if not n_vertices:
        return _EMPTY
    if n > DP_VERTEX_CAP:
        raise MatchingOverflow(f"{n} DP vertices exceed cap {DP_VERTEX_CAP}")
    kept = arrays._cache.get("matching")
    if kept is not None:
        paid, paid_weights, old, matching = kept
        if paid(weights) == paid_weights and all(map(ge, weights, old)):
            return matching
    boundary = [math.inf] * n
    owner: list = [None] * n  # DP index -> (virtual it retires onto, edge position)
    for i, virt, k in retire:
        cost = float(weights[k])
        if owner[i] is None or cost < boundary[i]:
            boundary[i], owner[i] = cost, (virt, k)

    w = [weights]  # the kernel's pair costs, as the one item ``_prune`` may replace
    if slot_rows is not None:  # a pair no edge joins (row -1) costs +inf
        w[0] = [weights[k] if k >= 0 else math.inf for k in slot_rows]
    if n >= PRUNE_MIN:
        _prune(w, boundary, weights)
    cost, choice = _dp.solve_dense(w[0], boundary)
    if not math.isfinite(cost):
        raise OddVertexCount("graph admits no finite-cost perfect matching")
    pairs: list[tuple[VertexId, VertexId]] = []
    edges: list[int | None] = []
    retired = set()
    for i, j in _dp.reconstruct(choice, n):
        if j == -1:
            mate, k = owner[i]
            retired.add(mate)
        else:
            k = _dp.slot(i, j, n)
            mate, k = ids[j], (k if slot_rows is None else slot_rows[k])
        pairs.append((ids[i], mate))
        edges.append(k)
    # Every pair so far paid an edge (a finite cost reads no -1 position).
    paid = itemgetter(*edges) if edges else lambda _: ()
    leftover = [v for v in virts if v not in retired]
    for i in range(0, len(leftover), 2):
        pairs.append((leftover[i], leftover[i + 1]))
        edges.append(None)
    matching = Matching(tuple(pairs), cost, exact=True, edges=tuple(edges))
    arrays._cache["matching"] = (paid, paid(weights), list(weights), matching)
    return matching


def _prune(w: list, boundary: list, weights: Sequence[float]) -> None:
    """Replace ``w``'s one item, pair costs in slot layout, by a copy with
    +inf wherever the pair costs more than retiring both ends plus a margin.
    Nothing changes unless every retirement cost is below 2^1018 (so finite)
    and every entry of ``weights``, which the costs are read from, is >= 0
    and not NaN; the cost list replaced is never written.  The module
    docstring proves that the solve's result stays the same, bit for bit."""
    n = len(boundary)
    beta = max(boundary)
    # With no NaN in weights (their sum would be NaN), ``min`` sees every one.
    if not (beta < _CEILING and not math.isnan(sum(weights)) and min(weights) >= 0.0):
        return
    margin = (2 * n * n + 1) * _U * beta + _TINY
    inf = math.inf
    costs = w[0]
    w[0] = pruned = list(costs)
    for i in range(n - 1):
        lead, k = boundary[i] + margin, _dp.slot(i, i + 1, n)  # k: the slot of (i, j)
        for j in range(i + 1, n):
            if costs[k] > lead + boundary[j]:
                pruned[k] = inf
            k += 1
