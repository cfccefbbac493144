"""Subset-DP kernel for exact minimum-weight perfect matching, in pure Python.

dp[mask] is the cheapest way to cover exactly the vertex set ``mask``, where
the lowest uncovered vertex is either paired with another uncovered vertex or
retired at its boundary cost.  Moves are encoded as (i << 32) | j with
j = 0xFFFFFFFF for a boundary retirement, so optimal matchings can be
reconstructed by walking ``choice`` down from the full mask.

Since every move covers the lowest uncovered vertex, only F(n+2) of the 2^n
masks (Fibonacci; 2,584 of 65,536 at n = 16, 121,393 of 16,777,216 at
n = 24) can be reached from the empty one.  ``transitions(n)`` lists them
with their moves once per n, and the kernel relaxes over that table in
increasing mask order: O(n F(n+2)) work rather than a scan of all 2^n masks.
``dp`` and ``choice`` are indexed by a mask's position in that order, not by
the mask, so their size is F(n+2) too.

Everything is a Python list of Python floats and ints: at these sizes
indexing numpy arrays one scalar at a time costs more than the recurrence
itself.
"""

from __future__ import annotations

import math
from itertools import combinations

RETIRE = 0xFFFFFFFF

_TABLES: dict[int, tuple] = {}


def transitions(n: int) -> tuple[tuple, dict]:
    """(rows, position), built once per n and cached.

    ``position`` maps every mask reachable from 0 to its index in increasing
    order; the full mask comes last.  ``rows[p]`` holds the moves out of the
    mask at position p, for every mask but the full one, as (i, retired
    position, retire move, ((j, paired position, pair move), ...)) with i the
    lowest uncovered vertex and j the uncovered vertices above it in
    increasing order.
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
        position = {mask: p for p, mask in enumerate(masks)}
        # One int per move code, shared by the rows: n = 24 has 1.2 M moves.
        moves = [[(i << 32) | j for j in range(n)] for i in range(n)]
        rows = []
        for mask in masks[:-1]:
            bit_i = ~mask & (mask + 1)
            i = bit_i.bit_length() - 1
            nm = mask | bit_i
            pairs = tuple(
                (j, position[nm | 1 << j], moves[i][j]) for j in range(i + 1, n) if not nm >> j & 1
            )
            rows.append((i, position[nm], (i << 32) | RETIRE, pairs))
        table = _TABLES[n] = (tuple(rows), position)
    return table


def solve_dense(w: list, boundary: list) -> tuple[float, list[int]]:
    """Exact matching cost over n rows of pair costs plus n retirement costs.

    Only ``w[i][j]`` with i < j is read.  Entries may be +inf for missing
    edges.  Returns (optimal cost, the move recorded for each reachable mask
    at its ``transitions`` position, -1 where none was); the cost is +inf
    when no perfect cover exists.
    """
    rows, _ = transitions(len(boundary))
    size = len(rows) + 1
    isfinite = math.isfinite
    dp = [math.inf] * size
    dp[0] = 0.0
    choice = [-1] * size
    for pos, (i, retired, retire, pairs) in enumerate(rows):
        cost = dp[pos]
        if not isfinite(cost):
            continue
        cand = cost + boundary[i]
        if cand < dp[retired]:
            dp[retired] = cand
            choice[retired] = retire
        row = w[i]
        for j, nxt, move in pairs:
            cand = cost + row[j]
            if cand < dp[nxt]:
                dp[nxt] = cand
                choice[nxt] = move
    return dp[-1], choice


def reconstruct(choice: list[int], n: int) -> list[tuple[int, int]]:
    """Decode the optimal move list; boundary retirements appear as (i, -1)."""
    _, position = transitions(n)
    out: list[tuple[int, int]] = []
    mask = (1 << n) - 1
    while mask:
        mv = choice[position[mask]]
        if mv < 0:
            raise ValueError("no perfect matching recorded for this mask")
        i = mv >> 32
        j = mv & RETIRE
        if j == RETIRE:
            out.append((i, -1))
            mask ^= 1 << i
        else:
            out.append((i, j))
            mask ^= (1 << i) | (1 << j)
    out.reverse()
    return out
