"""Subset-DP kernel for exact minimum-weight perfect matching, in pure Python.

dp[mask] is the cheapest way to cover exactly the vertex set ``mask``, where
the lowest uncovered vertex is either paired with another uncovered vertex or
retired at its boundary cost.  Each mask records the mask its best move came
from, so optimal matchings can be reconstructed by walking ``choice`` down
from the full mask: the bits a step sets are the lowest uncovered vertex i
and, unless i retired, its partner j.

Pair costs come as one flat list in slot layout (``slot``): for each vertex
i, its pairs (i, j > i), then a boundary slot.  The surface-code sampler
writes its rows in that order, so its weights are the kernel's input as
they are.  Only pair slots are read; retirement costs come in a list.

Since every move covers the lowest uncovered vertex, only F(n+2) of the 2^n
masks (Fibonacci; 2,584 of 65,536 at n = 16, 121,393 of 16,777,216 at
n = 24) can be reached from the empty one.  ``transitions(n)`` lists them
with their moves once per n, each pair move with its slot, and the kernel
relaxes over that table in increasing mask order: O(n F(n+2)) work rather
than a scan of all 2^n masks.
``dp`` and ``choice`` are indexed by a mask's position in that order, not by
the mask, so their size is F(n+2) too, and ``choice`` holds positions.  At
n = 24 the table costs about 1.0 s and 115 MB to build, once per process,
and a solve over it about 0.1 s (2-CPU Xeon VM).

Everything is a Python list of Python floats and ints: at these sizes
indexing numpy arrays one scalar at a time costs more than the recurrence
itself.
"""

from __future__ import annotations

import math
from itertools import combinations

_TABLES: dict[int, tuple] = {}


def slot(i: int, j: int, n: int) -> int:
    """The slot of the pair i < j of n vertices; j = n: i's boundary slot."""
    return i * (2 * n - i - 1) // 2 + j - 1


def transitions(n: int) -> tuple[tuple, tuple]:
    """(masks, rows), built once per n and cached.

    ``masks`` lists every mask reachable from 0 in increasing order; the full
    mask comes last.  ``rows[p]`` holds the moves out of ``masks[p]``, for
    every mask but the full one, as (i, retired position, ((slot, paired
    position), ...)) with i the lowest uncovered vertex and one pair per
    uncovered vertex j above it, in increasing j, by the slot of (i, j).
    """
    table = _TABLES.get(n)
    if table is None:
        # A mask is reachable iff, with h its lowest uncovered vertex, it sets
        # at most h bits above h: each of those was paired with its own lead
        # below h, and the leads left over retired.
        masks = [(1 << n) - 1]
        for h in range(n):
            low = (1 << h) - 1
            for size in range(min(h, n - h - 1) + 1):
                above = combinations(range(h + 1, n), size)
                masks += (low | sum(1 << b for b in c) for c in above)
        masks.sort()
        pos = {mask: p for p, mask in enumerate(masks)}
        at = list(range(n * (n + 1) // 2))  # one int object per slot, shared by the moves
        rows = []
        for mask in masks[:-1]:
            bit_i = ~mask & (mask + 1)
            i = bit_i.bit_length() - 1
            nm = mask | bit_i
            s = slot(i, i + 1, n) - i - 1  # slot(i, j, n) is s + j
            pairs = tuple((at[s + j], pos[nm | 1 << j]) for j in range(i + 1, n) if not nm >> j & 1)
            rows.append((i, pos[nm], pairs))
        table = _TABLES[n] = (tuple(masks), tuple(rows))
    return table


def solve_dense(w: list, boundary: list) -> tuple[float, list[int]]:
    """Exact matching cost over slot-layout pair costs plus n retirement costs.

    Entries may be +inf for missing edges.  Returns (optimal cost, for each
    reachable mask at its ``transitions`` position, the position its best
    move came from, -1 where none was); the cost is +inf when no perfect
    cover exists.
    """
    masks, rows = transitions(len(boundary))
    size = len(masks)
    isfinite = math.isfinite
    dp = [math.inf] * size
    dp[0] = 0.0
    choice = [-1] * size
    for pos, (i, retired, pairs) in enumerate(rows):
        cost = dp[pos]
        if not isfinite(cost):
            continue
        cand = cost + boundary[i]
        if cand < dp[retired]:
            dp[retired] = cand
            choice[retired] = pos
        for k, nxt in pairs:
            cand = cost + w[k]
            if cand < dp[nxt]:
                dp[nxt] = cand
                choice[nxt] = pos
    return dp[-1], choice


def reconstruct(choice: list[int], n: int) -> list[tuple[int, int]]:
    """Decode the optimal move list; boundary retirements appear as (i, -1)."""
    masks, _ = transitions(n)
    out: list[tuple[int, int]] = []
    pos = len(masks) - 1
    while pos:
        prev = choice[pos]
        if prev < 0:
            raise ValueError("no perfect matching recorded for this mask")
        moved = masks[pos] ^ masks[prev]
        low = moved & -moved
        out.append((low.bit_length() - 1, (moved ^ low).bit_length() - 1))
        pos = prev
    out.reverse()
    return out
