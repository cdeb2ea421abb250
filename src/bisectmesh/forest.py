"""Binary forest of generated simplices and triangulations (leaf sets).

The infinite forest of all bisection descendants is never materialised;
nodes come into existence when a bisection first needs them and are shared
afterwards, so two triangulations refined from the same roots can be
compared, united (overlay) and intersected (underlay) by plain set algebra
on node ids.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .tarray import TaggedSimplex, VertexPool, bisect


class Node:
    """One generated simplex; its id is its position in ``Forest.nodes``."""

    __slots__ = ("tarray", "parent", "children", "v_new")

    def __init__(self, tarray, parent, v_new):
        self.tarray: TaggedSimplex = tarray
        self.parent: Optional[int] = parent
        self.children: Optional[tuple[int, int]] = None
        self.v_new: Optional[int] = v_new  # vertex created by the bisection


class Forest:
    """Arena of tagged-simplex nodes with parent/child links.

    Roots are the initial cells.  ``ensure_children`` memoises bisection, so
    every admissible simplex is represented by at most one node.  Links and
    new vertices are read off ``nodes[nid]``; ``tarray(nid)`` is the one
    accessor, for the T-array.
    """

    def __init__(self, pool: VertexPool):
        self.pool = pool
        self.nodes: list[Node] = []
        self.roots: list[int] = []

    def tarray(self, nid: int) -> TaggedSimplex:
        return self.nodes[nid].tarray

    def ensure_children(self, nid: int) -> tuple[int, int]:
        """Bisect the node unless already done; returns the two child ids."""
        node = self.nodes[nid]
        if node.children is not None:
            return node.children
        c1, c2, v_new = bisect(node.tarray, self.pool)
        node.children = (len(self.nodes), len(self.nodes) + 1)
        self.nodes += (Node(c1, nid, v_new), Node(c2, nid, v_new))
        return node.children

    def leaves_of(self, node_set: frozenset) -> set:
        """Leaves of a full subforest given as a node-id set."""
        out = set()
        for nid in node_set:
            ch = self.nodes[nid].children
            if ch is None or ch[0] not in node_set:
                out.add(nid)
        return out


class Triangulation:
    """A leaf set of the forest plus its vertex stars: ``vertex_index`` maps
    each leaf vertex to the leaves holding it.  An edge is the ``frozenset``
    of its two vertex ids (:meth:`TaggedSimplex.edges`, :func:`refinement_edge`);
    a leaf carries it when it holds both ends, so :meth:`edge_sharers`
    intersects the two ends' stars.

    The stars are built the first time ``vertex_index`` is read, and
    :meth:`bisect_leaf` keeps them up to date only once they exist, so a
    triangulation that is only loaded, hashed, overlaid or scanned builds
    none.  They are an unordered index that no output reads in order.  No
    star is ever empty: :meth:`bisect_leaf` is the only mutator, and every
    vertex of a bisected leaf is a vertex of one of its children."""

    def __init__(self, forest: Forest, leaves: Iterable[int]):
        self.forest = forest
        self.leaves: set[int] = set(leaves)
        self._stars: Optional[dict[int, set[int]]] = None

    @property
    def vertex_index(self) -> dict[int, set[int]]:
        if self._stars is None:
            self._stars = {}
            for leaf in self.leaves:
                self._index_leaf(leaf)
        return self._stars

    @classmethod
    def from_cells(cls, pool: VertexPool, cells: Iterable[TaggedSimplex]):
        """A new forest whose roots are ``cells``, in order, as its leaves."""
        forest = Forest(pool)
        forest.nodes = [Node(c, None, None) for c in cells]
        forest.roots = list(range(len(forest.nodes)))
        return cls(forest, forest.roots)

    def copy(self) -> "Triangulation":
        """The same leaves in the same forest; stars already built are
        copied, one set per vertex, and otherwise left to be built."""
        out = Triangulation(self.forest, self.leaves)
        if self._stars is not None:
            out._stars = {v: set(star) for v, star in self._stars.items()}
        return out

    def _index_leaf(self, nid: int):
        for v in self.forest.tarray(nid).vertex_ids:
            self._stars.setdefault(v, set()).add(nid)

    def _unindex_leaf(self, nid: int):
        for v in self.forest.tarray(nid).vertex_ids:
            self._stars[v].discard(nid)

    def bisect_leaf(self, nid: int) -> tuple[int, int]:
        """Replace a leaf by its two children; no conformity closure here."""
        if nid not in self.leaves:
            raise ValueError(f"node {nid} is not a leaf of this triangulation")
        c1, c2 = self.forest.ensure_children(nid)
        self.leaves.remove(nid)
        self.leaves.add(c1)
        self.leaves.add(c2)
        if self._stars is not None:
            self._unindex_leaf(nid)
            self._index_leaf(c1)
            self._index_leaf(c2)
        return c1, c2

    def edge_sharers(self, edge: frozenset) -> set:
        """A new set of the leaves holding both ends of ``edge``."""
        a, b = edge
        stars = self.vertex_index
        return stars.get(a, set()) & stars.get(b, set())

    def cells(self) -> list[TaggedSimplex]:
        return [self.forest.tarray(nid) for nid in sorted(self.leaves)]

    def node_set(self) -> frozenset:
        """fo(P): the leaves together with all their ancestors and all roots."""
        nodes = self.forest.nodes
        seen = set(self.forest.roots)
        for nid in self.leaves:
            # the walk ends at the latest at a root, and every root is seen
            while nid not in seen:
                seen.add(nid)
                nid = nodes[nid].parent
        return frozenset(seen)


def finer(p: Triangulation, q: Triangulation) -> bool:
    """True iff fo(P) is a superset of fo(Q); requires the same root set."""
    _require_same_roots(p, q)
    return p.node_set() >= q.node_set()


def overlay(p: Triangulation, q: Triangulation) -> Triangulation:
    """Coarsest common refinement: leaves of the union of the forests."""
    _require_same_roots(p, q)
    union = p.node_set() | q.node_set()
    return Triangulation(p.forest, p.forest.leaves_of(union))


def underlay(p: Triangulation, q: Triangulation) -> Triangulation:
    """Finest common recoarsement: leaves of the intersection of the forests."""
    _require_same_roots(p, q)
    inter = p.node_set() & q.node_set()
    return Triangulation(p.forest, p.forest.leaves_of(inter))


def _require_same_roots(p: Triangulation, q: Triangulation):
    if p.forest is not q.forest:
        raise ValueError("triangulations must share one forest arena")
