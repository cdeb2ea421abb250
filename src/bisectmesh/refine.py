"""Conformity-preserving refinement and the uniform refinement variants.

``refine`` implements the recursive closure: to bisect a cell, first refine
every leaf that shares its refinement edge but disagrees about it, then
bisect all leaves around that edge at once.  The output forest is the
coarsest conforming refinement strictly finer than the marked cell.
"""

from __future__ import annotations

from typing import Optional

from .exactgeom import barycentric, orientation
from .tarray import Edge, refinement_edge
from .forest import Triangulation


class RefinementError(RuntimeError):
    """Raised when the closure does not terminate within the guard budget
    (a pairwise-compatibility violation on a hand-made tagging)."""


class RefineRecord:
    """Bisection log of one refinement round, for bound measurements.

    ``bisections`` holds ``(node_id, origin_leaf_id)`` pairs where the origin
    is the leaf of the round's input triangulation whose subtree the
    bisection happened in.
    """

    def __init__(self):
        self.bisections: list[tuple[int, int]] = []

    @property
    def cells_added(self) -> int:
        return len(self.bisections)

    def max_jump(self, forest) -> int:
        """Largest level increase any input leaf suffered this round."""
        best = 0
        for node_id, origin in self.bisections:
            jump = forest.tarray(node_id).level + 1 - forest.tarray(origin).level
            if jump > best:
                best = jump
        return best


def refine(
    tri: Triangulation,
    target: int,
    guard: Optional[int] = None,
    record: Optional[RefineRecord] = None,
) -> Triangulation:
    """Refine ``tri`` in place so it becomes strictly finer than the leaf
    ``target``; returns ``tri``.

    The guard bounds the closure work in this round (default
    ``64 * dim * #cells`` loop steps) and turns a non-refineable tagging
    into a :class:`RefinementError` instead of divergence.
    """
    if target not in tri.leaves:
        raise ValueError(f"node {target} is not a leaf")
    forest = tri.forest
    dim = forest.tarray(target).dim
    budget = guard if guard is not None else 64 * dim * len(tri.leaves)
    origin: dict[int, int] = {}
    stack = [target]
    while stack:
        if budget == 0:
            raise RefinementError(
                "closure budget exhausted; tagging is not refineable"
            )
        budget -= 1
        t = stack[-1]
        if t not in tri.leaves:
            stack.pop()
            continue
        edge = refinement_edge(forest.tarray(t))
        sharers = tri.edge_sharers(edge)
        incompatible = [
            u
            for u in sharers
            if refinement_edge(forest.tarray(u)).ids != edge.ids
        ]
        if incompatible:
            # The sharer set changes under nested refinement, so only one
            # incompatible cell is pushed and incidence is re-queried after.
            stack.append(min(incompatible))
            continue
        for u in sorted(sharers):
            if u not in tri.leaves:
                continue
            src = origin.get(u, u)
            c1, c2 = tri.bisect_leaf(u)
            origin[c1] = origin[c2] = src
            if record is not None:
                record.bisections.append((u, src))
        stack.pop()
    return tri


def check_conforming(tri: Triangulation) -> list[str]:
    """Report hanging nodes: leaf vertices lying in a leaf they do not span.

    Under pairwise compatibility the absence of hanging nodes is equivalent
    to regularity, which the engine relies on for dimensions above 2; the
    exact pairwise-intersection oracle for the plane lives in
    :func:`check_conforming_2d_exact`.
    """
    forest = tri.forest
    pool = forest.pool
    problems = []
    exp = max((pool.point(v).exp for v in tri.vertex_index), default=0)
    rows = {v: pool.point(v).at_exp(exp) for v in tri.vertex_index}
    boxes = {}
    for leaf in tri.leaves:
        ids = forest.tarray(leaf).vertex_ids
        cols = list(zip(*(rows[v] for v in ids)))
        boxes[leaf] = ([min(c) for c in cols], [max(c) for c in cols], ids)
    for vid, q in rows.items():
        for leaf, (lo, hi, ids) in boxes.items():
            if vid in ids or any(c < a or b < c for c, a, b in zip(q, lo, hi)):
                continue
            if barycentric(pool.point(vid), [pool.point(v) for v in ids]) is not None:
                problems.append(
                    f"hanging node: vertex {vid} lies in leaf {leaf} "
                    "without being one of its vertices"
                )
    return problems


def _segments_cross(a, b, c, d) -> bool:
    """Exact proper-crossing test for segments ab and cd in the plane."""
    if orientation((a, b, c)) * orientation((a, b, d)) >= 0:
        return False
    return orientation((c, d, a)) * orientation((c, d, b)) < 0


def check_conforming_2d_exact(tri: Triangulation) -> list[str]:
    """Exact pairwise-intersection oracle for plane meshes.

    For every pair of leaves it verifies that the geometric intersection is
    the common subsimplex spanned by the shared vertices: no vertex of one
    cell may lie inside the other beyond the shared ones (hanging nodes) and
    no pair of edges may cross properly.
    """
    forest = tri.forest
    pool = forest.pool
    problems = check_conforming(tri)
    leaves = sorted(tri.leaves)
    for i, s in enumerate(leaves):
        ts = forest.tarray(s)
        s_edges = [
            (pool.point(e.a), pool.point(e.b), e) for e in ts.edges()
        ]
        for t in leaves[i + 1 :]:
            tt = forest.tarray(t)
            shared = set(ts.vertex_ids) & set(tt.vertex_ids)
            for pa, pb, ea in s_edges:
                if ea.a in shared and ea.b in shared:
                    continue
                for et in tt.edges():
                    if et.a in shared and et.b in shared:
                        continue
                    if _segments_cross(pa, pb, pool.point(et.a), pool.point(et.b)):
                        problems.append(
                            f"leaves {s} and {t}: edges {ea.ids} and {et.ids} "
                            "cross outside a common subsimplex"
                        )
    return problems


def uniform_refine(tri: Triangulation) -> Triangulation:
    """Bisect every leaf exactly once; valid on meshes where every shared
    edge is the refinement edge of all or none of its sharers."""
    forest = tri.forest
    ref_edges: dict[int, Edge] = {
        leaf: refinement_edge(forest.tarray(leaf)) for leaf in tri.leaves
    }
    for leaf, edge in ref_edges.items():
        for sharer in tri.edge_sharers(edge):
            if ref_edges[sharer].ids != edge.ids:
                raise RefinementError(
                    f"mismatched refinement edges on shared edge {set(edge.ids)}: "
                    f"leaves {leaf} and {sharer}"
                )
    for leaf in list(tri.leaves):
        tri.bisect_leaf(leaf)
    return tri


def hyperlevel_uniform_refine(
    tri: Triangulation, j: int, guard_rounds: int = 10_000
) -> Triangulation:
    """Bisect every leaf whose refinement edge has hyperlevel <= j, until
    none remains.

    Edges never demand higher-hyperlevel edges, so the sweep terminates with
    every cell at hyperlevel j+1 and full type (in the transposition
    convention: stored type-0 cells of hyperlevel j are the same thing).
    """
    forest = tri.forest
    for _ in range(guard_rounds):
        targets = [
            leaf
            for leaf in tri.leaves
            if refinement_edge(forest.tarray(leaf)).hyperlevel <= j
        ]
        if not targets:
            return tri
        for leaf in targets:
            if leaf in tri.leaves:
                tri.bisect_leaf(leaf)
    raise RefinementError("hyperlevel-uniform sweep did not settle")


def quasi_uniform_refine(tri: Triangulation, guard_rounds: int = 10_000) -> Triangulation:
    """One quasi-uniform sweep: bisect every input edge and every arising
    (midpoint, vertical-vertex) edge of a restricted type-1 triangle.

    On a mesh with coinciding restricted T-arrays the result has all levels
    in {n, ..., 2n-1} relative to the input and, excluding full type, all
    hyperlevels incremented by exactly one.
    """
    from .tarray import restrict

    forest = tri.forest
    pool = forest.pool
    targets: set[frozenset] = set(tri.edge_index.keys())
    for leaf in tri.leaves:
        t = forest.tarray(leaf)
        ids = t.vertex_ids
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                for k in range(j + 1, len(ids)):
                    sub = restrict(t, {ids[i], ids[j], ids[k]}, rule="legacy")
                    if sub.type == 1:
                        mid = pool.midpoint_id(sub.horizontal[0], sub.horizontal[1])
                        targets.add(frozenset((mid, sub.vertical[0])))
    for _ in range(guard_rounds):
        work = [
            leaf
            for leaf in tri.leaves
            if refinement_edge(forest.tarray(leaf)).ids in targets
        ]
        if not work:
            return tri
        for leaf in work:
            if leaf in tri.leaves:
                tri.bisect_leaf(leaf)
    raise RefinementError(
        "quasi-uniform sweep did not settle; input lacks restricted "
        "T-array coincidence"
    )
