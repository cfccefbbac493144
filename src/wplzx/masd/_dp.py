"""Subset-DP kernel for exact minimum-weight perfect matching, in pure Python.

dp[mask] is the cheapest way to cover exactly the vertex set ``mask``, where
the lowest uncovered vertex is either paired with another uncovered vertex or
retired at its boundary cost.  Moves are encoded as (i << 32) | j with
j = 0xFFFFFFFF for a boundary retirement, so optimal matchings can be
reconstructed by walking ``choice`` down from the full mask.

Since every move covers the lowest uncovered vertex, only F(n+2) of the 2^n
masks (Fibonacci; 2,584 of 65,536 at n = 16) can be reached from the empty
one.  ``transitions(n)`` lists them with their moves once per n, and the
kernel relaxes over that table in increasing mask order: O(n F(n+2)) work
rather than a scan of all 2^n masks.

Everything is a Python list of Python floats and ints: at n <= 16 indexing
numpy arrays one scalar at a time costs more than the recurrence itself.
"""

from __future__ import annotations

import heapq
import math

RETIRE = 0xFFFFFFFF

_TABLES: dict[int, tuple] = {}


def transitions(n: int) -> tuple:
    """Every mask reachable from 0 except the full one, in increasing order,
    as (mask, i, retired mask, retire move, ((j, paired mask, pair move), ...))
    with i the lowest uncovered vertex and j the uncovered vertices above it in
    increasing order.  Built once per n and cached."""
    table = _TABLES.get(n)
    if table is None:
        top = (1 << n) - 1
        rows, seen, heap = [], {0}, [0]
        while heap:  # every move leads to a larger mask, so pops are in order
            mask = heapq.heappop(heap)
            if mask == top:
                continue
            bit_i = ~mask & (mask + 1)  # lowest uncovered vertex
            i = bit_i.bit_length() - 1
            nm = mask | bit_i
            pairs = tuple(
                (j, nm | (1 << j), (i << 32) | j) for j in range(i + 1, n) if not nm >> j & 1
            )
            rows.append((mask, i, nm, (i << 32) | RETIRE, pairs))
            for nxt in (nm, *(pair[1] for pair in pairs)):
                if nxt not in seen:
                    seen.add(nxt)
                    heapq.heappush(heap, nxt)
        table = _TABLES[n] = tuple(rows)
    return table


def solve_dense(w: list, boundary: list) -> tuple[float, list[int]]:
    """Exact matching cost over n rows of pair costs plus n retirement costs.

    Only ``w[i][j]`` with i < j is read.  Entries may be +inf for missing
    edges.  Returns (optimal cost, choice list over masks, -1 where no move
    was recorded); the cost is +inf when no perfect cover exists.
    """
    n = len(boundary)
    full = 1 << n
    isfinite = math.isfinite
    dp = [math.inf] * full
    dp[0] = 0.0
    choice = [-1] * full
    for mask, i, nm, retire, pairs in transitions(n):
        cost = dp[mask]
        if not isfinite(cost):
            continue
        cand = cost + boundary[i]
        if cand < dp[nm]:
            dp[nm] = cand
            choice[nm] = retire
        row = w[i]
        for j, nm2, move in pairs:
            cand = cost + row[j]
            if cand < dp[nm2]:
                dp[nm2] = cand
                choice[nm2] = move
    return dp[full - 1], choice


def reconstruct(choice: list[int], n: int) -> list[tuple[int, int]]:
    """Decode the optimal move list; boundary retirements appear as (i, -1)."""
    out: list[tuple[int, int]] = []
    mask = (1 << n) - 1
    while mask:
        mv = choice[mask]
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
