"""Oracles for the paper's lemmas on towers and forests, called by the tests.

* The tower of a child S of a leaf, fo(refine(P, pa(S))) minus fo(P), two
  ways: :func:`tower` runs ``refine`` on a scratch copy, and
  :func:`closure01` closes the demand relation over the generated forest.
* :func:`verify_forest_characterisation`: the vertex-set characterisation
  of an admissible forest.
* :func:`forest_size_identity`: the three counts of the counting theorem,
  #cells - #initial, the inner nodes and half the non-roots of fo(P).
* :func:`tower_patch_spotcheck`: the tower lemma behind the bound of 2n
  recursive bisections per simplex per round, that every deep tower layer
  lies inside one vertex patch of the matching hyperlevel-uniform
  triangulation; :func:`hyperlevel_ancestor_vertices` finds the patch cells.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Optional

from bisectmesh.forest import Forest, Triangulation
from bisectmesh.harness import _h0
from bisectmesh.refine import refine

from conftest import frac_diam_sq


def forest_size_identity(tri: Triangulation) -> tuple[int, int, int]:
    """The three counts of the counting theorem; the caller asserts equality.

    Returns ``(#cells - #initial, #non-leaves, #(forest \\ roots) / 2)``.
    """
    forest = tri.forest
    nodes = tri.node_set()
    cells_minus_initial = len(tri.leaves) - len(forest.roots)
    nonleaves = sum(1 for nid in nodes if nid not in tri.leaves)
    nonroot = len(nodes) - len(forest.roots)
    half, rem = divmod(nonroot, 2)
    if rem:
        return cells_minus_initial, nonleaves, -1
    return cells_minus_initial, nonleaves, half


def tower(tri: Triangulation, child_of_leaf: int) -> frozenset:
    """Nodes forced into the forest when the child's parent leaf is refined.

    Computed as fo(refine(P, pa(S))) minus fo(P) on a scratch copy;
    :func:`closure01` computes the same set from the demand relation.
    """
    parent = tri.forest.nodes[child_of_leaf].parent
    if parent is None or parent not in tri.leaves:
        raise ValueError("tower seed must be the child of a current leaf")
    scratch = tri.copy()
    refine(scratch, parent)
    return scratch.node_set() - tri.node_set()


def closure01(forest: Forest, seeds: Iterable[int]) -> frozenset:
    """Smallest demand-closed node set containing the seeds and the roots.

    The demand targets of a node T are its 0-class (nodes sharing its new
    vertex) and the 0-class of its parent's new vertex.  The closure is
    taken over the *generated* part of the forest, so the caller must have
    materialised the relevant region first, e.g. by running :func:`tower`
    (which refines a scratch copy through the shared arena) or by expanding
    every node down to the seed's level: demands never point to deeper
    levels.
    """
    by_v_new: dict[int, list[int]] = {}
    for nid, node in enumerate(forest.nodes):
        if node.v_new is not None:
            by_v_new.setdefault(node.v_new, []).append(nid)
    closed = set(forest.roots)
    stack = list(seeds)
    while stack:
        nid = stack.pop()
        if nid in closed:
            continue
        closed.add(nid)
        node = forest.nodes[nid]
        if node.v_new is not None:
            stack.extend(by_v_new[node.v_new])
        if node.parent is not None and forest.nodes[node.parent].v_new is not None:
            stack.extend(by_v_new[forest.nodes[node.parent].v_new])
    return frozenset(closed)


def verify_forest_characterisation(tri: Triangulation) -> list[str]:
    """Check the vertex-set characterisation of an admissible forest: the
    non-root nodes of fo(P) are exactly the generated nodes whose new vertex
    belongs to V, the new vertices of fo(P), and V is closed under the
    vertex demand relation.

    Only one direction can fail.  V is read off fo(P), so every non-root
    node of fo(P) has its new vertex in V; fo(P) (:meth:`Triangulation.node_set`)
    is ancestor-closed, so the parent of such a node is in fo(P) too and its
    new vertex, if any, is in V.  What remains is a generated node outside
    fo(P) whose new vertex is in V.  Returns one message per such node, in
    id order (empty = pass).
    """
    forest = tri.forest
    nodes = tri.node_set()
    v_set = {forest.nodes[nid].v_new for nid in nodes} - {None}
    return [
        f"node {nid}: shares new vertex {node.v_new} with the forest but is "
        "missing from it"
        for nid, node in enumerate(forest.nodes)
        if node.v_new in v_set and nid not in nodes
    ]


def hyperlevel_ancestor_vertices(forest, nid: int, h_target: int) -> Optional[tuple]:
    """Vertex ids of the type-n hyperlevel-``h_target`` ancestor simplex.

    That is the first node on the walk from ``nid`` up to its root whose
    type is 0 or n and whose :attr:`~TaggedSimplex.edge_hyperlevel` is
    ``h_target``: a type-0 node counts as its transposed, and a full-type
    node is a root, because a child is never full type.  None if no node on
    the walk qualifies.
    """
    while nid is not None:
        t = forest.tarray(nid)
        if t.type in (0, t.dim) and t.edge_hyperlevel == h_target:
            return t.vertex_ids
        nid = forest.nodes[nid].parent
    return None


def tower_patch_spotcheck(tri: Triangulation, samples: int, seed: int) -> dict:
    """Empirical check that every deep tower layer sits inside one vertex
    patch of the corresponding hyperlevel-uniform triangulation.

    For each sampled child of a leaf with hyperlevel above h0, each layer
    (hyperlevel j > h0, full-type convention) of its tower is mapped to the
    type-n hyperlevel-(j - h0) ancestors of its cells; those ancestors are
    patch cells and must share a vertex.  Returns a report dict.
    """
    forest = tri.forest
    n = forest.tarray(forest.roots[0]).dim
    h0 = _h0(n)
    rng = random.Random(seed)
    deep = [
        leaf for leaf in tri.leaves if forest.tarray(leaf).edge_hyperlevel >= h0 + 1
    ]
    rng.shuffle(deep)
    checked = 0
    vacuous = 0
    failures = []
    worst_diameter_ratio = 0.0
    pool = forest.pool

    def diameter_sq(vertex_ids):
        return frac_diam_sq([pool.point(v) for v in vertex_ids])

    for leaf in deep[:samples]:
        c1, _ = forest.ensure_children(leaf)
        tw = tower(tri, c1)
        layers: dict[int, list[int]] = {}
        for nid in tw:
            layers.setdefault(forest.tarray(nid).edge_hyperlevel, []).append(nid)
        for j, nodes in sorted(layers.items()):
            if j < h0 + 1:
                vacuous += 1
                continue
            ancestor_sets = []
            for nid in nodes:
                anc = hyperlevel_ancestor_vertices(forest, nid, j - h0)
                if anc is None:
                    failures.append(f"node {nid}: no hyperlevel-{j - h0} ancestor")
                    continue
                ancestor_sets.append(set(anc))
            if not ancestor_sets:
                continue
            common = set.intersection(*ancestor_sets)
            checked += 1
            if not common:
                failures.append(
                    f"tower of {leaf}, layer {j}: patch cells share no vertex"
                )
                continue
            layer_sq = diameter_sq(
                {v for nid in nodes for v in forest.tarray(nid).vertex_ids}
            )
            patch_sq = diameter_sq(set.union(*ancestor_sets))
            if patch_sq:
                ratio = math.sqrt(float(layer_sq) / float(patch_sq))
                worst_diameter_ratio = max(worst_diameter_ratio, ratio)
    return {
        "sampled": min(samples, len(deep)),
        "layers_checked": checked,
        "vacuous": vacuous,
        "worst_diameter_ratio": worst_diameter_ratio,
        "failures": failures,
    }
