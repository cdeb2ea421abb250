"""Tagging initialisers and initial-condition verifiers.

Two ways to equip an untagged regular mesh with T-arrays: the generalised
initial division (recursive division by typed marked points, ending in
type-1 arrays that satisfy the strong initial conditions) and the
vertex-partition algorithm (hyperlevel 0/1 tagging that satisfies restricted
T-array and hyperlevel coincidence).  The ``check_*`` functions report
violations instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

from .exactgeom import DyadicPoint, _locate, _rows
from .tarray import (
    TaggedSimplex, VertexPool, canonicalize, lattice_of, refinement_edge, restrict, same_lattice,
)
from .forest import Triangulation
from .refine import _bisect_all, check_conforming, edge_disagreement


@dataclass
class VertexPartition:
    """Disjoint cover (v0, v1) of the initial vertices with total orders."""

    v0: frozenset
    v1: frozenset
    order0: Optional[Sequence[int]] = None
    order1: Optional[Sequence[int]] = None


class MarkingError(ValueError):
    pass


def _subsimplices(cells: Sequence[tuple], m: int) -> list:
    """The m-subsimplices of the mesh, as ascending vertex-id lists, sorted."""
    subs = {c for cell in cells for c in combinations(sorted(cell), m + 1)}
    return sorted(map(list, subs))


def resolve_marking(
    pool: VertexPool, cells: Sequence[tuple], marking: dict[int, list[DyadicPoint]]
) -> dict:
    """Validate a marking ``{type: points}`` and locate each marked point once.

    Every free m-subsimplex (one containing no point of type > m) must
    contain exactly one type-m point; a type-m point lying in no free
    m-subsimplex is an extra point, and a type outside ``2..n`` has no
    subsimplices.  Raises :class:`MarkingError` otherwise; the free ones are
    walked in sorted vertex-id order, so a count error names the lowest.  Returns
    ``{subsimplex: (point, support)}``, where the support lists, in
    ascending id order, the subsimplex's vertices at which the point's
    barycentric coordinate is nonzero.
    """
    n = len(cells[0]) - 1
    outside = sorted(m for m in marking if not 2 <= m <= n)
    if outside:
        keys = ", ".join(f"marking.{m}" for m in outside)
        raise MarkingError(f"{keys}: marking types must lie in 2..{n}")
    assignment: dict[frozenset, tuple] = {}
    higher: list[DyadicPoint] = []
    for m in range(n, 1, -1):
        points = marking.get(m, [])
        free = [
            ids
            for ids in _subsimplices(cells, m)
            if all(c is None for c in _locate([pool.point(v) for v in ids], higher))
        ]
        used = [False] * len(points)
        for ids in free:
            located = _locate([pool.point(v) for v in ids], points)
            inside = [(i, coords) for i, coords in enumerate(located) if coords is not None]
            if len(inside) != 1:
                raise MarkingError(
                    f"type-{m} marking gives {len(inside)} points in subsimplex "
                    f"{ids}; need exactly one"
                )
            i, coords = inside[0]
            assignment[frozenset(ids)] = points[i], [v for v, c in zip(ids, coords) if c]
            used[i] = True
        for i, q in enumerate(points):
            if not used[i]:
                raise MarkingError(
                    f"type-{m} point {q!r} lies in no free {m}-subsimplex"
                )
        higher.extend(points)
    return assignment


def barycentre_marking(
    pool: VertexPool, cells: Sequence[tuple]
) -> dict[int, list[DyadicPoint]]:
    """Barycentres of all m-subsimplices: the classical full division into
    (n+1)!/2 cells per simplex."""
    n = len(cells[0]) - 1
    return {
        m: [_barycentre(pool, s) for s in _subsimplices(cells, m)]
        for m in range(n, 1, -1)
    }


def _barycentre(pool: VertexPool, ids) -> DyadicPoint:
    """Barycentre of the points ``ids``.  With ``k = 2**a * q`` points, ``q``
    odd, the column sums over ``2**e`` divided by ``k`` are dyadic exactly
    when ``q`` divides every sum."""
    ids = list(ids)
    rows, e = _rows([pool.point(v) for v in ids])
    k = len(rows)
    a = (k & -k).bit_length() - 1
    q = k >> a
    sums = [sum(col) for col in zip(*rows)]
    if any(x % q for x in sums):
        raise MarkingError(
            f"barycentre of {ids} is not dyadic; supply explicit dyadic marking"
        )
    return DyadicPoint._of([x // q for x in sums], e + a)


def initial_division(
    pool: VertexPool,
    cells: Sequence[tuple],
    marking: Optional[dict[int, list[DyadicPoint]]] = None,
) -> Triangulation:
    """Recursive division of every cell by its typed points (a marking
    ``{type: points}``, the barycentres by default); the resulting cells
    carry type-1 T-arrays and satisfy the strong initial conditions."""
    n = len(cells[0]) - 1
    if any(len(c) != n + 1 for c in cells):
        raise MarkingError("all cells must be n-simplices of one dimension")
    if marking is None:
        marking = barycentre_marking(pool, cells)
    assignment = resolve_marking(pool, cells, marking)
    parts = [(tuple(sorted(cell)), ()) for cell in cells]
    for m in range(n, 1, -1):
        next_parts = []
        for old, new in parts:
            q, support = assignment[frozenset(old)]
            q_id = pool.id_of(q)
            for dropped in support:
                rest = tuple(v for v in old if v != dropped)
                next_parts.append((rest, (q_id, *new)))
        parts = next_parts
    tagged = [
        TaggedSimplex(old, new, level=0, hyperlevel=0) for old, new in parts
    ]
    return Triangulation.from_cells(pool, tagged)


def agk_init(
    pool: VertexPool, cells: Sequence[tuple], partition: VertexPartition
) -> Triangulation:
    """Tag every cell from a two-block vertex partition.

    Cells touching the first block become hyperlevel 0 with the touched
    vertices as (ordered) horizontal part; cells inside the second block
    become full-type hyperlevel 1.
    """
    all_vertices = {v for cell in cells for v in cell}
    if (partition.v0 | partition.v1) != frozenset(all_vertices) or (
        partition.v0 & partition.v1
    ):
        raise MarkingError("partition must split the vertex set into two blocks")
    # every vertex's place in the order of its block (default: ascending ids)
    rank = {}
    for block, order in ((partition.v0, partition.order0), (partition.v1, partition.order1)):
        rank.update((v, i) for i, v in enumerate(sorted(block) if order is None else order))
    tagged = []
    for cell in cells:
        hor = sorted((v for v in cell if v in partition.v0), key=rank.__getitem__)
        ver = sorted((v for v in cell if v in partition.v1), key=rank.__getitem__)
        if hor:
            tagged.append(TaggedSimplex(tuple(hor), tuple(ver), 0, 0))
        else:
            tagged.append(TaggedSimplex(tuple(ver), (), 0, 1))
    return Triangulation.from_cells(pool, tagged)


# --- verifiers ---------------------------------------------------------------


def _cell_pairs(tri: Triangulation):
    """Pairs ``a < b`` of leaves sharing a vertex, in sorted order, as ``(a,
    b, sa, sb, shared)``: the node ids, their T-arrays and common vertex ids."""
    forest = tri.forest
    pairs = set()
    for sharers in tri.vertex_index.values():
        pairs.update(combinations(sorted(sharers), 2))
    for a, b in sorted(pairs):
        sa, sb = forest.tarray(a), forest.tarray(b)
        yield a, b, sa, sb, set(sa.vertex_ids) & set(sb.vertex_ids)


def check_sic(tri: Triangulation, depth: Optional[int] = None) -> list[str]:
    """Operational test of the strong initial conditions.

    Verifies regularity and equal types, then re-checks refinement-edge
    consistency on successive uniform refinements up to ``depth`` (default
    n+1, at least 1).  The depth-limited edge test stands in for the
    reference-coordinate clause; see the README for the heuristic character
    of the default.
    """
    if depth is not None and depth < 1:
        raise ValueError(f"check_sic depth must be at least 1, got {depth}")
    problems = list(check_conforming(tri))
    forest = tri.forest
    types = {forest.tarray(leaf).type for leaf in tri.leaves}
    if len(types) > 1:
        problems.append(f"mixed initial types {sorted(types)}")
    if problems:
        return problems
    n = forest.tarray(next(iter(tri.leaves))).dim
    depth = depth if depth is not None else n + 1
    stage = tri.copy()
    for d in range(depth):
        if bad := edge_disagreement(stage):
            edge, owners, sharers = bad
            problems.append(
                f"uniform refinement {d}: edge {set(edge)} is the "
                f"refinement edge of {len(owners)} of {len(sharers)} sharers"
            )
            return problems
        _bisect_all(stage)
        hanging = check_conforming(stage)
        if hanging:
            problems.append(f"uniform refinement {d + 1} not conforming")
            problems.extend(hanging)
            return problems
    return problems


def check_retaco(tri: Triangulation) -> list[str]:
    """Restricted T-arrays of intersecting cells must coincide up to the
    reflexion/transposition identification."""
    problems = []
    for a, b, sa, sb, shared in _cell_pairs(tri):
        ra = canonicalize(restrict(sa, shared))
        rb = canonicalize(restrict(sb, shared))
        if ra != rb:
            problems.append(
                f"cells {a} and {b}: restrictions to {sorted(shared)} differ "
                f"({ra.horizontal}|{ra.vertical} vs {rb.horizontal}|{rb.vertical})"
            )
    return problems


def check_retahyco(tri: Triangulation) -> list[str]:
    """Hyperlevels in {0, 1}, full type at hyperlevel 1, a consistent
    per-vertex hyperlevel, and reflexion-coincident restrictions."""
    problems = list(check_conforming(tri))
    forest = tri.forest
    n = forest.tarray(next(iter(tri.leaves))).dim
    vertex_h: dict[int, int] = {}
    for leaf in sorted(tri.leaves):
        t = forest.tarray(leaf)
        if t.hyperlevel not in (0, 1):
            problems.append(f"cell {leaf}: hyperlevel {t.hyperlevel} not in {{0,1}}")
            continue
        if t.hyperlevel == 1 and t.type != n:
            problems.append(f"cell {leaf}: hyperlevel 1 but type {t.type} != {n}")
        for part, h in ((t.horizontal, t.hyperlevel), (t.vertical, t.hyperlevel + 1)):
            for v in part:
                if vertex_h.setdefault(v, h) != h:
                    problems.append(f"vertex {v}: inconsistent hyperlevel assignment")
    for a, b, sa, sb, shared in _cell_pairs(tri):
        ra = restrict(sa, shared)
        rb = restrict(sb, shared)
        if ra.hyperlevel != rb.hyperlevel:
            problems.append(
                f"cells {a} and {b}: restriction hyperlevels "
                f"{ra.hyperlevel} != {rb.hyperlevel}"
            )
        elif ra.vertical != rb.vertical or (
            ra.horizontal != rb.horizontal
            and ra.horizontal != tuple(reversed(rb.horizontal))
        ):
            problems.append(
                f"cells {a} and {b}: restrictions to {sorted(shared)} do not "
                "coincide up to reflexion"
            )
    return problems


def check_pc(tri: Triangulation) -> list[str]:
    """Pairwise compatibility of the roots: a regular mesh where two cells
    whose refinement edges both lie in the intersection agree on that edge.

    The no-infinite-path clause holds automatically for this bisection rule
    and is not checked.
    """
    problems = list(check_conforming(tri))
    for a, b, sa, sb, shared in _cell_pairs(tri):
        ea, eb = refinement_edge(sa), refinement_edge(sb)
        if ea <= shared and eb <= shared and ea != eb:
            problems.append(
                f"cells {a} and {b}: refinement edges {set(ea)} and "
                f"{set(eb)} both lie in the intersection but differ"
            )
    return problems


def check_isocochange(tri: Triangulation) -> list[str]:
    """Intersection sublattices of the refined Chebyshev lattices coincide.

    The sublattice spanned by the intersection is the lattice of the
    restricted T-array (restrictions of reference simplices are reference
    simplices in sublattices), refined to the finer of the two widths.
    """
    problems = []
    pool = tri.forest.pool
    for a, b, sa, sb, shared in _cell_pairs(tri):
        ra = restrict(sa, shared)
        rb = restrict(sb, shared)
        alpha = max(ra.hyperlevel, rb.hyperlevel)
        if not same_lattice(lattice_of(ra, pool, alpha), lattice_of(rb, pool, alpha)):
            problems.append(
                f"cells {a} and {b}: intersection sublattices differ on "
                f"{sorted(shared)}"
            )
    return problems
