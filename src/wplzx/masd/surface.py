"""Rotated surface-code Monte-Carlo harness for the winding-aware decoder.

The code places d*d data qubits on a grid with checkerboard plaquettes:
weight-2 X checks close the top and bottom edges, weight-2 Z checks the left
and right edges.  The harness samples iid bit-flip errors on data qubits,
decodes the violated Z checks (the symmetric phase-flip sector behaves
identically with roles swapped), applies the matched correction chains and
declares logical failure when the composite error crosses the lattice an odd
number of times (anticommutes with the logical Z row).

Defect-pair distances are exact minimum error-chain lengths obtained by BFS
over the qubit adjacency of the checks; in the bulk these coincide with
Manhattan distances in the rotated frame.  Every defect gets one virtual
boundary partner (k = 0) at its nearest boundary so odd defect sets always
match, and virtual-virtual pairs are free.

Everything about an instance that depends only on the code is tabulated once
by ``build_code``: the witness chains and the logical Z row as int bitmasks
with bit q for data qubit q, and the per-code arrays the sampler builds each
trial's array form from (``graph.DefectArrays``): pair and boundary
distances and boundary-partner ids by check index, plus one cached slope
per pair of winding labels.  ``defect_graph_for`` draws the real defects'
labels and builds only that form: the sorted defect checks and one (d, raw
slope, normalized slope) row per defect pair and per boundary edge, in the
matching kernel's slot layout, so the matcher reads its weights as they
are.  A sweep trial builds no edge or vertex object, no virtual-virtual
clique and no id lookup; its graph builds them from its rows, its labels
and the checks' centers only when a caller reads its vertices or edges
(``serialize``, a file, a test).
Corrections and the logical parity read the sample's syndrome checks and
qubit masks: XORs and ``int.bit_count()``.  Only the decoded sector is
kept: ``build_code`` builds the X checks and the logical X column to assert
the layout (check counts, X-Z commutation, the logicals' commutation with
the other sector's checks and with each other), then drops them.

Syndromes are read per flipped qubit, not per check: ``qubit_checks[q]`` is
the bitmask of the Z checks that contain qubit q, so the syndrome of a set
of flipped qubits is the XOR of their masks, and its set bits are the
violated checks.  The sampler takes it straight from its list of flipped
qubits, and the residual-syndrome check after a correction costs one XOR per
qubit that error and correction do not share.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Sequence

import numpy as np

from ..errors import ConfigInvalid, InvalidDistance
from ..phase import lcm_order
from ..rng import trial_stream
from .decode import masd_decode
from .graph import (
    NORMALIZED,
    DefectArrays,
    DefectEdge,
    DefectGraph,
    DefectVertex,
    label_slopes,
)
from .matching import Matching

SUPPORTED_DISTANCES = (3, 5, 7)

UNIFORM = "uniform"
TWO_SECTOR = "two-sector"
CONSTANT = "constant"

# The sweep CSV's columns, in order: the keys of every ``sweep_rows`` row.
SWEEP_COLUMNS = [
    "lambda",
    "p_phys",
    "distance",
    "trials",
    "logical_error_rate",
    "drg_toy_mean",
    "drg_pm_mean",
    "mean_cost",
    "mode",
]


@dataclass(frozen=True)
class WindingModel:
    """How sampled defects acquire (a_v, k_v) labels.

    two-sector: constant grid order, one winding value per lattice half, so
    cross-sector matches pay the winding penalty.  uniform: k_v drawn from
    {0..a-1}.  constant: one (a, k) everywhere.
    """

    kind: str = TWO_SECTOR
    a: int = 8
    k_left: int = 0
    k_right: int = 1
    k_const: int = 0

    def __post_init__(self) -> None:
        if self.kind not in (UNIFORM, TWO_SECTOR, CONSTANT):
            raise ConfigInvalid(f"unknown winding model {self.kind!r}")
        if self.a < 1:
            raise ConfigInvalid("winding model grid order must be >= 1")
        # Every real-real edge refines a with itself, so check that once here,
        # not at whichever sampled edge comes first.
        lcm_order(self.a, self.a)

    def assign(self, position: tuple[float, float], midline: float, rng) -> tuple[int, int]:
        if self.kind == UNIFORM:
            return self.a, int(rng.integers(0, self.a))
        if self.kind == TWO_SECTOR:
            return self.a, self.k_left if position[1] < midline else self.k_right
        return self.a, self.k_const


@dataclass(frozen=True)
class Plaquette:
    index: int
    center: tuple[float, float]
    qubits: frozenset[int]


@dataclass(frozen=True)
class RotatedSurfaceCode:
    """Stabilizer layout of the distance-d rotated surface code."""

    distance: int
    z_checks: tuple[Plaquette, ...]
    # qubit_checks[q]: the Z checks containing data qubit q, as a check
    # bitmask (bit i = Z check i).
    qubit_checks: tuple = field(compare=False, repr=False, default=None)
    # The logical Z row and the BFS witness chains of the decoded (Z-check)
    # sector as qubit bitmasks (bit q = data qubit q): pair_mask[(u, v)] for
    # every ordered pair u != v, boundary_mask[u] from check u to its nearest
    # boundary.
    logical_z_mask: int = field(compare=False, repr=False, default=None)
    pair_mask: dict = field(compare=False, repr=False, default=None)
    boundary_mask: dict = field(compare=False, repr=False, default=None)
    # Per-code arrays of the sampler's array form, indexed by Z check:
    # pair_distance[u][v] and boundary_distance[u] are the lengths of the
    # witness chains as floats, virtual_id[u] names check u's boundary
    # partner "b<u>", and slopes caches label_slopes per pair of (a, k)
    # labels, filled as sampled labels meet.
    pair_distance: tuple = field(compare=False, repr=False, default=None)
    boundary_distance: tuple = field(compare=False, repr=False, default=None)
    virtual_id: tuple = field(compare=False, repr=False, default=None)
    slopes: dict = field(compare=False, repr=False, default_factory=dict)

    @property
    def n_data(self) -> int:
        return self.distance * self.distance

    def _syndrome_of(self, qubits: Iterable[int]) -> tuple[int, ...]:
        """Indices, ascending, of the Z checks with odd overlap with a list
        of flipped qubit indices (a qubit listed twice cancels)."""
        checks = 0
        for q in qubits:
            checks ^= self.qubit_checks[q]
        return tuple(_bits(checks))


def _mask(qubits: Iterable[int]) -> int:
    """Bitmask with bit q set for each qubit q."""
    out = 0
    for q in qubits:
        out |= 1 << q
    return out


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def build_code(distance: int) -> RotatedSurfaceCode:
    if distance not in SUPPORTED_DISTANCES:
        raise InvalidDistance(
            f"distance must be one of {SUPPORTED_DISTANCES}, got {distance}"
        )
    d = distance

    def qubits_of(i: int, j: int) -> frozenset[int]:
        out = []
        for r, c in ((i, j), (i, j + 1), (i + 1, j), (i + 1, j + 1)):
            if 0 <= r < d and 0 <= c < d:
                out.append(r * d + c)
        return frozenset(out)

    z_list: list[Plaquette] = []
    x_list: list[Plaquette] = []
    for i in range(-1, d):
        for j in range(-1, d):
            qs = qubits_of(i, j)
            if len(qs) not in (2, 4):
                continue
            is_z = (i + j) % 2 == 0
            if len(qs) == 2:
                on_top_bottom = i in (-1, d - 1)
                if is_z and on_top_bottom:
                    continue  # Z checks close only the left/right edges
                if not is_z and not on_top_bottom:
                    continue  # X checks close only the top/bottom edges
            center = (i + 0.5, j + 0.5)
            target = z_list if is_z else x_list
            target.append(Plaquette(len(target), center, qs))

    assert len(z_list) == len(x_list) == (d * d - 1) // 2
    row0 = frozenset(range(d))  # logical Z
    col0 = frozenset(r * d for r in range(d))  # logical X
    assert len(row0 & col0) % 2 == 1  # the logicals anticommute
    for xp in x_list:
        assert len(xp.qubits & row0) % 2 == 0  # logical Z commutes with X checks
        for zp in z_list:  # X and Z checks commute
            assert len(xp.qubits & zp.qubits) % 2 == 0
    for zp in z_list:  # logical X commutes with every Z check
        assert len(zp.qubits & col0) % 2 == 0

    pair_mask, boundary_mask = _bfs_tables(z_list, d)
    n = len(z_list)
    return RotatedSurfaceCode(
        distance=d,
        z_checks=tuple(z_list),
        qubit_checks=tuple(
            _mask(p.index for p in z_list if q in p.qubits) for q in range(d * d)
        ),
        logical_z_mask=_mask(row0),
        pair_mask=pair_mask,
        boundary_mask=boundary_mask,
        pair_distance=tuple(
            tuple(float(pair_mask[(u, v)].bit_count()) if u != v else 0.0 for v in range(n))
            for u in range(n)
        ),
        boundary_distance=tuple(float(boundary_mask[u].bit_count()) for u in range(n)),
        virtual_id=tuple(f"b{u}" for u in range(n)),
    )


def _bfs_tables(z_list: Sequence[Plaquette], d: int):
    """(pair_mask, boundary_mask): a shortest witness chain, as a qubit
    bitmask, for every ordered pair of Z checks and from every Z check to
    its nearest boundary.

    Nodes are Z checks plus a shared boundary sink; each data qubit links the
    checks containing it (or a check to the boundary when it sits in exactly
    one).  A shortest chain crosses no qubit twice, so its length, the
    minimum error count, is its mask's ``bit_count()``.
    """
    containing: dict[int, list[int]] = {}
    for p in z_list:
        for q in p.qubits:
            containing.setdefault(q, []).append(p.index)
    adjacency: dict[int, list[tuple[int, int]]] = {p.index: [] for p in z_list}
    for q in range(d * d):
        owners = containing.get(q, [])
        assert 1 <= len(owners) <= 2, f"qubit {q} sits in {len(owners)} Z checks"
        if len(owners) == 2:
            a, b = owners
            adjacency[a].append((b, q))
            adjacency[b].append((a, q))
        else:
            adjacency[owners[0]].append((-1, q))
    for lst in adjacency.values():
        lst.sort()

    pair_mask: dict[tuple[int, int], int] = {}
    boundary_mask: dict[int, int] = {}
    for src in adjacency:
        chain = {src: 0}
        queue = deque([src])
        while queue:
            cur = queue.popleft()
            for nxt, q in adjacency[cur]:
                if nxt == -1:
                    boundary_mask.setdefault(src, chain[cur] | 1 << q)
                elif nxt not in chain:
                    chain[nxt] = chain[cur] | 1 << q
                    queue.append(nxt)
        for dst, mask in chain.items():
            if dst != src:
                pair_mask[(src, dst)] = mask
        assert src in boundary_mask, f"Z check {src} reaches no boundary"
    return pair_mask, boundary_mask


@dataclass(frozen=True)
class SurfaceSample:
    """One Monte-Carlo draw: the true error and its syndrome graph."""

    distance: int
    p_phys: float
    seed: int
    trial: int
    x_errors: tuple[int, ...]
    syndrome: tuple[int, ...]


def defect_graph_for(
    code: RotatedSurfaceCode,
    syndrome: Iterable[int],
    winding: WindingModel,
    rng,
) -> DefectGraph:
    """The defect graph of a syndrome: a real vertex with drawn winding
    labels and its virtual boundary partner per defect, then, for each
    defect in check order, its edges to the later defects and to its own
    partner, then the virtual-virtual edges.

    Only the array form is built here, from ``code``'s per-code arrays:
    the sorted defect checks and one (d, raw slope, normalized slope) row
    per pair and per boundary edge, from labels drawn in check order.  The
    graph's tuples are built from these when a caller first reads them.
    """
    checks = tuple(sorted(syndrome))
    midline = (code.distance - 1) / 2.0
    labels = tuple(winding.assign(code.z_checks[u].center, midline, rng) for u in checks)
    pair_distance, slopes = code.pair_distance, code.slopes
    rows, boundary_rows = [], []  # boundary_rows[i]: defect i's boundary row
    for i, u in enumerate(checks):
        distance, lu = pair_distance[u], labels[i]
        for j in range(i + 1, len(checks)):
            lv = labels[j]
            pair = slopes.get((lu, lv))
            if pair is None:
                pair = slopes[(lu, lv)] = label_slopes(*lu, *lv)
            rows.append((distance[checks[j]], *pair))
        boundary_rows.append(len(rows))
        rows.append((code.boundary_distance[u], 0.0, 0.0))
    names = [code.virtual_id[u] for u in checks]
    arrays = DefectArrays(
        ids=checks,
        real_vertices=checks,
        edges=tuple(rows),
        virtual_rows=frozenset(),
        virtuals=tuple(sorted(names, key=repr)),
        retire=tuple(zip(range(len(checks)), names, boundary_rows)),
    )
    return DefectGraph.from_arrays(arrays, partial(_graph_parts, code, arrays, labels))


def _graph_parts(
    code: RotatedSurfaceCode, arrays: DefectArrays, labels: tuple
) -> tuple[tuple, tuple]:
    """The (vertices, edges) of the sampled graph whose array form is
    ``arrays`` and whose defects drew ``labels``: edge k takes row k's
    distance, and the virtual-virtual clique follows the rows."""
    checks, names = arrays.ids, code.virtual_id
    vertices: list[DefectVertex] = []
    for u, (a, k) in zip(checks, labels):
        center = code.z_checks[u].center
        vertices.append(DefectVertex(u, center, a, k))
        vertices.append(DefectVertex(names[u], center, 1, 0, is_virtual_boundary=True))
    ends = [(u, v) for i, u in enumerate(checks) for v in (*checks[i + 1 :], names[u])]
    edges = [DefectEdge(u, v, row[0]) for (u, v), row in zip(ends, arrays.edges, strict=True)]
    edges += [
        DefectEdge(names[u], names[v], 0.0) for i, u in enumerate(checks) for v in checks[i + 1 :]
    ]
    return tuple(vertices), tuple(edges)


def sample_surface_code(
    distance: int,
    p_phys: float,
    seed: int,
    trial: int = 0,
    winding: WindingModel = WindingModel(),
    code: RotatedSurfaceCode | None = None,
) -> tuple[SurfaceSample, DefectGraph]:
    """Draw iid data-qubit errors at rate p_phys and build the defect graph
    (its array form; see ``defect_graph_for``).

    Deterministic per (seed, trial) via counter-mode seed splitting.
    ``code``, when given, must have the given distance.
    """
    if not 0.0 <= p_phys < 0.5:
        raise ConfigInvalid(f"p_phys must lie in [0, 0.5), got {p_phys}")
    if code is None:
        code = build_code(distance)
    elif code.distance != distance:
        raise ConfigInvalid(f"code distance {code.distance} does not match distance {distance}")
    rng = trial_stream(seed, trial)
    x_errors = (rng.random(code.n_data) < p_phys).nonzero()[0].tolist()
    syndrome = code._syndrome_of(x_errors)
    graph = defect_graph_for(code, syndrome, winding, rng)
    sample = SurfaceSample(
        distance=distance,
        p_phys=p_phys,
        seed=seed,
        trial=trial,
        x_errors=tuple(x_errors),
        syndrome=syndrome,
    )
    return sample, graph


def _correction(code: RotatedSurfaceCode, matching: Matching, reals: tuple) -> int:
    """The matched pairing's error chain as a qubit mask: a pair of two
    real defects (Z-check indices in ``reals``) takes its pair chain, a real
    paired with a virtual its boundary chain, two virtuals nothing."""
    correction = 0
    for u, v in matching.pairs:
        if u in reals:
            correction ^= code.pair_mask[(u, v)] if v in reals else code.boundary_mask[u]
        elif v in reals:
            correction ^= code.boundary_mask[v]
    return correction


def logical_failure(code: RotatedSurfaceCode, sample: SurfaceSample, matching: Matching) -> bool:
    """True when error + correction flips the logical operator.

    The real defects are the sample's syndrome checks, as in every graph
    ``sample_surface_code`` builds, and the correction is read from the
    check indices and qubit masks alone.  The composite is syndrome-free by
    construction; failure is odd overlap with the logical Z row (an odd
    number of lattice crossings).
    """
    correction = _correction(code, matching, sample.syndrome)
    composite = correction ^ _mask(sample.x_errors)
    assert not code._syndrome_of(_bits(composite)), "correction left residual syndrome"
    return (composite & code.logical_z_mask).bit_count() % 2 == 1


def lambda_sweep(
    instances: Sequence[tuple[SurfaceSample, DefectGraph]],
    lambdas: Iterable[float],
    mode: str = NORMALIZED,
    beta: float = 1.0,
    code: RotatedSurfaceCode | None = None,
) -> list[dict]:
    """Decode every instance at each lambda; one aggregate row per lambda.

    Rows carry the logical error rate and mean DRG/cost statistics, in the
    order of ``lambdas``; results are deterministic given the instances.  All
    instances must share one distance and one p_phys (the row labels), and
    ``code``, when given, must have that distance.  ``decode_grid`` decodes
    and ``sweep_rows`` aggregates.
    """
    lambdas = list(lambdas)
    if not instances or not lambdas:
        raise ConfigInvalid("lambda_sweep needs instances and a lambda grid")
    first = instances[0][0]
    if any(
        sample.distance != first.distance or sample.p_phys != first.p_phys
        for sample, _ in instances
    ):
        raise ConfigInvalid("lambda_sweep instances must share one distance and p_phys")
    if code is None:
        code = build_code(first.distance)
    elif code.distance != first.distance:
        raise ConfigInvalid(
            f"code distance {code.distance} does not match instance distance {first.distance}"
        )
    grid = decode_grid(instances, lambdas, mode, beta, code)
    return sweep_rows(lambdas, first.p_phys, first.distance, mode, grid)


def decode_grid(
    instances: Sequence[tuple[SurfaceSample, DefectGraph]],
    lambdas: Sequence[float],
    mode: str,
    beta: float,
    code: RotatedSurfaceCode,
) -> list[list[tuple[bool, float, float, float]]]:
    """Decode every instance at each lambda: one list per lambda of the
    grid, holding one (failed, drg_toy, drg_pm, total_cost) per instance, in
    order.

    When an instance's decode matches the same pairs as at the lambda
    before, its failure verdict is reused: ``logical_failure`` reads
    nothing of a matching but its pairs, and it already checked these.  An
    ascending grid gets the most reuse; any other order only gets less,
    with the same values.  Each graph is decoded through its array form,
    and its failure check reads its sample's syndrome.
    """
    # Per instance: the pairs matched at the previous lambda and their verdict.
    verdicts: list[tuple] = [(None, False)] * len(instances)
    grid = []
    for lam in lambdas:
        values = []
        for index, (sample, graph) in enumerate(instances):
            matching, report = masd_decode(graph, lam, mode=mode, beta=beta)
            kept, failed = verdicts[index]
            if matching.pairs != kept:
                failed = logical_failure(code, sample, matching)
                verdicts[index] = matching.pairs, failed
            values.append((failed, report.drg_toy, report.drg_pm, report.total_cost))
        grid.append(values)
    return grid


def sweep_rows(
    lambdas: Sequence[float], p_phys: float, distance: int, mode: str, grid: Sequence
) -> list[dict]:
    """The sweep rows, keyed by ``SWEEP_COLUMNS``, one per lambda, from the
    ``decode_grid`` values of each lambda's instances, in instance order."""
    rows = []
    for lam, outcomes in zip(lambdas, grid):
        trials = len(outcomes)
        failed, *risks = zip(*outcomes)  # risks: drg_toy, drg_pm, total_cost
        means = [float(np.mean(column)) for column in risks]
        values = [lam, p_phys, distance, trials, sum(failed) / trials, *means, mode]
        rows.append(dict(zip(SWEEP_COLUMNS, values, strict=True)))
    return rows
