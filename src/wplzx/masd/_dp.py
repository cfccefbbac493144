"""Subset-DP kernel for exact minimum-weight perfect matching, in pure Python.

dp[mask] is the cheapest way to cover exactly the vertex set ``mask``, where
the lowest uncovered vertex is either paired with another uncovered vertex or
retired at its boundary cost.  Moves are encoded as (i << 32) | j with
j = 0xFFFFFFFF for a boundary retirement, so optimal matchings can be
reconstructed by walking ``choice`` down from the full mask.

Everything is a Python list of Python floats and ints: at n <= 16 indexing
numpy arrays one scalar at a time costs more than the recurrence itself.
"""

from __future__ import annotations

import math

RETIRE = 0xFFFFFFFF


def solve_dense(w: list, boundary: list) -> tuple[float, list[int]]:
    """Exact matching cost over n rows of pair costs plus n retirement costs.

    Only ``w[i][j]`` with i < j is read.  Entries may be +inf for missing
    edges.  Returns (optimal cost, choice list over masks, -1 where no move
    was recorded); the cost is +inf when no perfect cover exists.
    """
    n = len(boundary)
    full = 1 << n
    top = full - 1
    isfinite = math.isfinite
    dp = [math.inf] * full
    dp[0] = 0.0
    choice = [-1] * full
    for mask in range(top):
        cost = dp[mask]
        if not isfinite(cost):
            continue
        bit_i = ~mask & (mask + 1)  # lowest uncovered vertex
        i = bit_i.bit_length() - 1
        nm = mask | bit_i
        cand = cost + boundary[i]
        if cand < dp[nm]:
            dp[nm] = cand
            choice[nm] = (i << 32) | RETIRE
        row = w[i]
        move = i << 32
        free = top ^ nm  # uncovered vertices above i, visited in increasing j
        while free:
            bit_j = free & -free
            free ^= bit_j
            j = bit_j.bit_length() - 1
            nm2 = nm | bit_j
            cand = cost + row[j]
            if cand < dp[nm2]:
                dp[nm2] = cand
                choice[nm2] = move | j
    return dp[top], choice


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
