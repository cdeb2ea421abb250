"""Conformity-preserving refinement and the uniform refinement variants.

``refine`` implements the recursive closure: to bisect a cell, first refine
every leaf that shares its refinement edge but disagrees about it, then
bisect all leaves around that edge at once.  The output forest is the
coarsest conforming refinement strictly finer than the marked cell.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain, combinations
from operator import le

from .exactgeom import _cell_dets, _locate
from .tarray import refinement_edge, restrict
from .forest import Triangulation


class RefinementError(RuntimeError):
    """Raised when the closure does not terminate within the guard budget
    (a pairwise-compatibility violation on a hand-made tagging)."""


def refine(tri: Triangulation, target: int) -> list[int]:
    """Refine ``tri`` in place so it becomes strictly finer than the leaf
    ``target``; returns the bisection log.

    The log holds the bisected node ids in bisection order, so a node
    whose parent was bisected in the same round comes after it: only a
    leaf is bisected.  A guard bounds the closure work in this round
    (``64 * dim * #cells`` loop steps) and turns a non-refineable tagging
    into a :class:`RefinementError` instead of divergence.

    Every stack entry is a leaf: the target is one, a pushed entry is a
    leaf sharer, and a bisection removes only the sharers of the top's
    refinement edge ``e`` whose refinement edge is ``e``.  Were a lower
    entry ``s_j`` one, the entry ``s_{j+1}`` above it, pushed as a sharer
    of ``e`` whose refinement edge is not ``e``, is still a leaf.  It is
    not the top, whose refinement edge is ``e``, so it is an incompatible
    sharer of the top's edge, and the top would push, not bisect.
    Pairwise compatibility is not used.
    """
    if target not in tri.leaves:
        raise ValueError(f"node {target} is not a leaf")
    forest = tri.forest
    dim = forest.tarray(target).dim
    budget = 64 * dim * len(tri.leaves)
    bisections: list[int] = []
    stack = [target]
    while stack:
        if budget == 0:
            raise RefinementError(
                "closure budget exhausted; tagging is not refineable"
            )
        budget -= 1
        edge = refinement_edge(forest.tarray(stack[-1]))
        sharers = tri.edge_sharers(edge)
        incompatible = [
            u
            for u in sharers
            if refinement_edge(forest.tarray(u)) != edge
        ]
        if incompatible:
            # The sharer set changes under nested refinement, so only one
            # incompatible cell is pushed and incidence is re-queried after.
            stack.append(min(incompatible))
            continue
        for u in sorted(sharers):
            tri.bisect_leaf(u)
            bisections.append(u)
        stack.pop()
    return bisections


def max_jump(forest, bisections: list[int]) -> int:
    """Largest level increase any input leaf suffered in one :func:`refine`
    round: the depth of the round's bisection tree, read from its log.
    Each bisection adds exactly one level, and the log lists a parent
    before its children, so one walk gives each new node its depth below
    its input leaf; no level is read."""
    depth: dict[int, int] = {}
    for u in bisections:
        c1, c2 = forest.nodes[u].children
        depth[c1] = depth[c2] = depth.get(u, 0) + 1
    return max(depth.values(), default=0)


def _box(pts: list) -> tuple[list, list]:
    """Closed bounding box ``(lo, hi)`` of integer rows: on frame rows of
    :func:`_leaf_frame`, the least and greatest value of each functional,
    so ``lo[k] <= f_k(x) <= hi[k]`` holds for every point x of the closed
    simplex (or segment) the rows span."""
    cols = list(zip(*pts))
    return [min(c) for c in cols], [max(c) for c in cols]


def _boxes_meet(a: tuple, b: tuple) -> bool:
    return all(map(le, a[0], b[1])) and all(map(le, b[0], a[1]))


def check_conforming(tri: Triangulation) -> list[str]:
    """Report hanging nodes: leaf vertices lying in a leaf they do not span.

    An empty report (PASS) means exactly that.  It does not prove the mesh
    conforming: two cells on the same side of a shared facet overlap
    without a hanging vertex, and they pass.  Under pairwise compatibility
    the absence of hanging nodes is equivalent to regularity, which the
    engine relies on for dimensions above 2; the exact pairwise oracle for
    the plane is :func:`check_conforming_2d_exact`.

    Cost: the V leaf vertices are shifted once to the mesh's largest
    exponent, for the filter only, as rows of n² slab values (see
    :func:`_leaf_frame`), and sorted by first coordinate.  Per leaf, a
    binary search and one pass per further slab direction, which stops once
    only the leaf's own vertices are left, find the vertices in its slabs,
    and one :func:`_locate` on the leaf's own points and those candidates
    decides them all, so a deep vertex lengthens only the eliminations it
    takes part in.  That is O(V n² + V log V + L log V + K n²) filter work
    for L leaves and K vertices in x-ranges, and at most L eliminations,
    against the O(V L) of testing every vertex in every leaf.  Where a
    leaf's facets lie on slab planes, as on the Kuhn-cube refinements
    measured in :func:`_leaf_frame`, its slabs meet in the leaf itself, so
    only a leaf with a hanging vertex reaches an elimination.
    Problems are listed by vertex id, then leaf id.
    """
    return _hanging(tri, _leaf_frame(tri))


def _leaf_frame(tri: Triangulation) -> dict:
    """Every leaf vertex as an integer row over the mesh's largest exponent,
    for the filters only: ``{vertex id: row}``.

    A row holds the n coordinates, then ``x_i + x_j`` and ``x_i - x_j`` for
    each ``i < j``: the values of n² linear functionals, so :func:`_box`
    gives a cell's slabs in those directions.  A point of a closed simplex
    gives every linear functional a value between that functional's least
    and greatest over the simplex's vertices, so a slab filter never drops
    a point of the cell; it only keeps points that the exact solve then
    rejects.  The slabs are tight where a cell's facets lie on planes
    ``x_i = c`` or ``x_i ± x_j = c``: then their intersection is the closed
    cell itself.  Measured, not proved: on random-leaf ``refine`` runs
    from the Kuhn 2-, 3- and 4-cube (three seeds each, to about 3000, 1500
    and 600 leaves) every leaf facet has one of these n² normals, so there
    only true hits pass the filter.
    """
    forest = tri.forest
    points = forest.pool.points
    verts = set(chain.from_iterable(forest.tarray(leaf).vertex_ids for leaf in tri.leaves))
    exp = max((points[v].exp for v in verts), default=0)
    rows = {}
    for v in verts:
        row = points[v].at_exp(exp)
        pairs = list(combinations(row, 2))
        rows[v] = row + [a + b for a, b in pairs] + [a - b for a, b in pairs]
    return rows


def _hanging(tri: Triangulation, rows: dict) -> list[str]:
    """The scan of :func:`check_conforming`: slabs on the leaf frame
    ``rows``, each solve on the rows of its own points."""
    forest = tri.forest
    pool = forest.pool
    points = pool.points
    by_x = sorted(rows, key=lambda v: rows[v][0])
    columns = list(zip(*(rows[v] for v in by_x)))  # one per axis, in x order
    hits = []
    for leaf in tri.leaves:
        cell = forest.tarray(leaf)
        ids = cell.vertex_ids
        lo, hi = _box([rows[v] for v in ids])
        near = range(bisect_left(columns[0], lo[0]), bisect_right(columns[0], hi[0]))
        for col, a, b in zip(columns[1:], lo[1:], hi[1:]):
            if len(near) == len(ids):
                break  # the leaf's own vertices always pass: none other is left
            near = [k for k in near if a <= col[k] <= b]
        boxed = [v for v in map(by_x.__getitem__, near) if v not in ids]
        if not boxed:
            continue
        located = _locate(cell.vertices(pool), [points[v] for v in boxed])
        for vid, coords in zip(boxed, located):
            if coords is not None:
                hits.append((vid, leaf))
    hits.sort()
    return [
        f"hanging node: vertex {vid} lies in leaf {leaf} "
        "without being one of its vertices"
        for vid, leaf in hits
    ]


def _segments_cross(a, b, c, d) -> bool:
    """Exact proper-crossing test for segments ab and cd of plane points:
    the kernel's orientation signs of abc and abd differ strictly, then
    those of cda and cdb, each taken only while still needed."""
    dets = _cell_dets([(a, b, c), (a, b, d), (c, d, a), (c, d, b)])
    # zip draws both of a pair from the one generator: (abc, abd), then (cda, cdb)
    return all(p * q < 0 for (p, _), (q, _) in zip(dets, dets))


def check_conforming_2d_exact(tri: Triangulation) -> list[str]:
    """Exact pairwise-intersection oracle for plane meshes.

    For every pair of leaves it verifies that the geometric intersection is
    the common subsimplex spanned by the shared vertices: no vertex of one
    cell may lie inside the other beyond the shared ones (hanging nodes) and
    no pair of edges may cross properly.  A proper crossing point lies in
    both closed cells and both closed edges, and never at an endpoint, so
    only leaf pairs whose slab boxes meet (found by a sweep over the boxes
    sorted by their left ends), and within them only edge pairs with
    meeting boxes and no common endpoint, reach the orientation tests.  An
    edge of one triangle with both ends in the other shares an endpoint
    with each of the other's edges, so it is skipped by the same rule.
    Boxes are read on the slab rows of :func:`_leaf_frame` (x, y, x + y and
    x - y), every verdict by the kernel on its own points.  A mesh outside
    the plane raises ValueError before any scan.
    """
    forest = tri.forest
    at = forest.pool.points.__getitem__
    rows = _leaf_frame(tri)
    if any(at(v).dim != 2 for v in rows):
        raise ValueError("check_conforming_2d_exact needs a plane mesh")
    problems = _hanging(tri, rows)
    boxes, edges = {}, {}
    for s in tri.leaves:
        cell = forest.tarray(s)
        boxes[s] = _box([rows[v] for v in cell.vertex_ids])
        edges[s] = [(e, _box([rows[v] for v in e])) for e in cell.edges()]
    by_left = sorted(boxes, key=lambda s: boxes[s][0][0])
    pairs = []
    for i, s in enumerate(by_left):
        for t in by_left[i + 1 :]:
            if boxes[t][0][0] > boxes[s][1][0]:
                break
            if _boxes_meet(boxes[s], boxes[t]):
                pairs.append((min(s, t), max(s, t)))
    pairs.sort()
    for s, t in pairs:
        for ea, box_a in edges[s]:
            for et, box_b in edges[t]:
                if not ea.isdisjoint(et):
                    continue  # a common endpoint is no proper crossing
                if _boxes_meet(box_a, box_b) and _segments_cross(*map(at, ea), *map(at, et)):
                    problems.append(
                        f"leaves {s} and {t}: edges {ea} and {et} "
                        "cross outside a common subsimplex"
                    )
    return problems


def edge_disagreement(tri: Triangulation):
    """The first leaf refinement edge, in sorted leaf order, that is not the
    refinement edge of all its sharers, as ``(edge, owners, sharers)``; None
    when every refinement edge is agreed on."""
    ref = {leaf: refinement_edge(tri.forest.tarray(leaf)) for leaf in tri.leaves}
    for leaf in sorted(ref):
        edge = ref[leaf]
        sharers = tri.edge_sharers(edge)
        owners = {u for u in sharers if ref[u] == edge}
        if owners != sharers:
            return edge, owners, sharers
    return None


def uniform_refine(tri: Triangulation) -> Triangulation:
    """Bisect every leaf exactly once; valid on meshes where every shared
    edge is the refinement edge of all or none of its sharers."""
    if bad := edge_disagreement(tri):
        edge, owners, sharers = bad
        raise RefinementError(
            f"mismatched refinement edges on shared edge {set(edge)}: "
            f"leaves {min(owners)} and {min(sharers - owners)}"
        )
    return _bisect_all(tri)


def _bisect_all(tri: Triangulation) -> Triangulation:
    """Bisect every leaf of ``tri`` once, in place, in leaf-id order, with no closure."""
    for leaf in sorted(tri.leaves):
        tri.bisect_leaf(leaf)
    return tri


# sweep rounds before the hyperlevel-uniform and quasi-uniform sweeps give up
_GUARD_ROUNDS = 10_000


def _sweep(tri: Triangulation, wanted, failure: str) -> Triangulation:
    """Bisect the leaves that ``wanted`` accepts, in leaf-id order, until none is left."""
    for _ in range(_GUARD_ROUNDS):
        work = [leaf for leaf in sorted(tri.leaves) if wanted(tri.forest.tarray(leaf))]
        if not work:
            return tri
        for leaf in work:
            tri.bisect_leaf(leaf)
    raise RefinementError(failure)


def hyperlevel_uniform_refine(tri: Triangulation, j: int) -> Triangulation:
    """Bisect every leaf whose refinement edge has hyperlevel <= j, until
    none remains.

    Edges never demand higher-hyperlevel edges, so the sweep terminates with
    every cell at hyperlevel j+1 and full type (in the transposition
    convention: stored type-0 cells of hyperlevel j are the same thing).
    """
    return _sweep(
        tri, lambda t: t.edge_hyperlevel <= j, "hyperlevel-uniform sweep did not settle"
    )


def quasi_uniform_refine(tri: Triangulation) -> Triangulation:
    """One quasi-uniform sweep: bisect every input edge and every arising
    (midpoint, vertical-vertex) edge of a restricted type-1 triangle.

    On a mesh with coinciding restricted T-arrays the result has all levels
    in {n, ..., 2n-1} relative to the input and, excluding full type, all
    hyperlevels incremented by exactly one.
    """
    forest = tri.forest
    pool = forest.pool
    targets: set[frozenset] = set()
    for leaf in sorted(tri.leaves):  # midpoints are interned in leaf-id order
        t = forest.tarray(leaf)
        targets.update(t.edges())
        for triple in combinations(t.vertex_ids, 3):
            sub = restrict(t, set(triple))
            if sub.type == 1:
                mid = pool.midpoint_id(*refinement_edge(sub))
                targets.add(frozenset((mid, sub.vertical[0])))
    return _sweep(
        tri, lambda t: refinement_edge(t) in targets,
        "quasi-uniform sweep did not settle; input lacks restricted "
        "T-array coincidence",
    )
