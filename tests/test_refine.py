import importlib
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from bisectmesh import DyadicPoint, Triangulation, VertexPool
from bisectmesh.forest import overlay, underlay
from bisectmesh.refine import (
    RefinementError,
    _bisect_all,
    _segments_cross,
    check_conforming,
    check_conforming_2d_exact,
    hyperlevel_uniform_refine,
    max_jump,
    quasi_uniform_refine,
    refine,
    uniform_refine,
)
from bisectmesh.inittags import (
    VertexPartition,
    agk_init,
    check_retaco,
    initial_division,
)
from bisectmesh.tarray import TaggedSimplex, refinement_edge

from conftest import (
    barycentric,
    find_hanging,
    frac_det,
    frac_offset,
    fractions_of,
    kuhn_cube_mesh,
    kuhn_grid,
    kuhn_square,
    naive_repair_oracle,
    point,
    single_kuhn,
    staircase_mesh,
    tripled_tet,
    tripled_triangle_pair,
)
from lemmas import verify_forest_characterisation


class TestRefine:
    def test_single_triangle(self):
        tri = single_kuhn(2)
        refine(tri, min(tri.leaves))
        assert len(tri.leaves) == 2
        assert check_conforming(tri) == []

    def test_square_compatible_patch(self, square):
        refine(square, min(square.leaves))
        assert len(square.leaves) == 4
        assert check_conforming_2d_exact(square) == []

    def test_matches_repair_oracle(self):
        rng = random.Random(2)
        for seed in range(6):
            tri = kuhn_square()
            for _ in range(8):
                refine(tri, rng.choice(sorted(tri.leaves)))
            marked = rng.choice(sorted(tri.leaves))
            via_refine = tri.copy()
            refine(via_refine, marked)
            via_repair = naive_repair_oracle(tri.copy(), marked)
            assert via_refine.leaves == via_repair.leaves

    def test_staircase_counts_match_oracle(self):
        for steps in (3, 6, 9):
            tri = staircase_mesh(steps)
            deep = max(
                tri.leaves, key=lambda nid: (tri.forest.tarray(nid).level, -nid)
            )
            via_refine = tri.copy()
            refine(via_refine, deep)
            via_repair = naive_repair_oracle(tri.copy(), deep)
            assert via_refine.leaves == via_repair.leaves

    def test_output_is_monotone_and_characterised(self):
        rng = random.Random(31)
        tri = kuhn_square()
        for _ in range(20):
            before = tri.node_set()
            refine(tri, rng.choice(sorted(tri.leaves)))
            assert tri.node_set() >= before
            assert verify_forest_characterisation(tri) == []

    def test_minimality_by_removal(self):
        """Removing any added sibling pair breaks conformity or fineness."""
        tri = staircase_mesh(4)
        marked = max(
            tri.leaves, key=lambda nid: (tri.forest.tarray(nid).level, -nid)
        )
        refined = tri.copy()
        refine(refined, marked)
        forest = tri.forest
        added = refined.node_set() - tri.node_set()
        pairs = {forest.nodes[x].parent for x in added}
        for parent in sorted(pairs):
            c1, c2 = forest.nodes[parent].children
            if c1 not in refined.leaves or c2 not in refined.leaves:
                continue  # only leaf pairs can be removed keeping a forest
            mutilated = Triangulation(
                forest, (refined.leaves - {c1, c2}) | {parent}
            )
            still_fine = marked not in mutilated.leaves
            assert find_hanging(mutilated) != [] or not still_fine

    def test_nonrefineable_tagging_raises(self):
        """Two tetrahedra whose refinement edges both lie in the shared face
        but differ demand each other forever."""
        pool = VertexPool()
        a = pool.id_of(point(0, 0, 0))
        b = pool.id_of(point(2, 0, 0))
        c = pool.id_of(point(0, 2, 0))
        d = pool.id_of(point(0, 0, 2))
        e = pool.id_of(point(0, 0, -2))
        t1 = TaggedSimplex((a, b), (c, d))  # E_ref (a, b) in face abc
        t2 = TaggedSimplex((a, c), (b, e))  # E_ref (a, c) in face abc
        tri = Triangulation.from_cells(pool, [t1, t2])
        with pytest.raises(RefinementError):
            refine(tri, min(tri.leaves))

    def test_requires_leaf(self, square):
        refine(square, min(square.leaves))
        with pytest.raises(ValueError):
            refine(square, min(square.forest.roots))


class TestCheckConforming:
    def test_initial_passes(self, square):
        assert check_conforming(square) == []

    def test_hanging_node_detected(self, square):
        square.bisect_leaf(min(square.leaves))
        report = check_conforming(square)
        assert report and "hanging" in report[0]
        assert find_hanging(square) != []

    def test_2d_exact_crossing(self):
        """Interpenetrating cells without contained vertices (two triangles
        overlapping in a hexagram) pass the hanging-node scan but are caught
        by the segment-crossing oracle."""
        pool = VertexPool()
        a = pool.id_of(point(0, 0))
        b = pool.id_of(point(4, 0))
        c = pool.id_of(point(2, 3))
        d = pool.id_of(point(0, 2))
        e = pool.id_of(point(4, 2))
        f = pool.id_of(point(2, -1))
        tri = Triangulation.from_cells(
            pool,
            [TaggedSimplex((a, b, c), ()), TaggedSimplex((d, e, f), ())],
        )
        assert check_conforming(tri) == []
        assert check_conforming_2d_exact(tri) != []

    def test_2d_exact_rejects_other_dimensions(self, monkeypatch):
        """The refusal comes before any scan."""
        monkeypatch.setattr(importlib.import_module("bisectmesh.refine"), "_hanging", None)
        with pytest.raises(ValueError, match="needs a plane mesh"):
            check_conforming_2d_exact(kuhn_cube_mesh(3))

    def test_random_suite(self):
        rng = random.Random(8)
        for n, rounds in ((2, 12), (3, 8), (4, 5)):
            tri = (
                kuhn_square()
                if n == 2
                else kuhn_cube_mesh(n)
            )
            for _ in range(rounds):
                refine(tri, rng.choice(sorted(tri.leaves)))
                assert check_conforming(tri) == []


def reference_check_conforming(tri):
    """All-pairs hanging-node scan: every leaf vertex against every leaf's
    bounding box, then the reference ``barycentric``, by vertex id, then
    leaf id."""
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
    for vid, q in sorted(rows.items()):
        for leaf, (lo, hi, ids) in sorted(boxes.items()):
            if vid in ids or any(c < a or b < c for c, a, b in zip(q, lo, hi)):
                continue
            if barycentric(pool.point(vid), [pool.point(v) for v in ids]) is not None:
                problems.append(
                    f"hanging node: vertex {vid} lies in leaf {leaf} "
                    "without being one of its vertices"
                )
    return problems


def _orientation(a, b, c):
    """Sign of the cross product (b - a) x (c - a) of three plane points,
    over Fractions."""
    (ax, ay), (bx, by), (cx, cy) = map(fractions_of, (a, b, c))
    det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (det > 0) - (det < 0)


def reference_check_conforming_2d_exact(tri):
    """All-pairs plane oracle: the hanging-node scan, then every edge pair
    of every leaf pair through Fraction orientations of points."""
    forest = tri.forest
    pool = forest.pool

    def cross(a, b, c, d):
        if _orientation(a, b, c) * _orientation(a, b, d) >= 0:
            return False
        return _orientation(c, d, a) * _orientation(c, d, b) < 0

    problems = reference_check_conforming(tri)
    leaves = sorted(tri.leaves)
    for i, s in enumerate(leaves):
        ts = forest.tarray(s)
        s_edges = [(*map(pool.point, sorted(e)), e) for e in ts.edges()]
        for t in leaves[i + 1 :]:
            tt = forest.tarray(t)
            shared = set(ts.vertex_ids) & set(tt.vertex_ids)
            for pa, pb, ea in s_edges:
                if ea <= shared:
                    continue
                for et in tt.edges():
                    if et <= shared:
                        continue
                    if cross(pa, pb, *map(pool.point, sorted(et))):
                        problems.append(
                            f"leaves {s} and {t}: edges {ea} and {et} "
                            "cross outside a common subsimplex"
                        )
    return problems


def plain_mesh(coords, cells):
    pool = VertexPool()
    ids = [pool.id_of(point(*c)) for c in coords]
    return Triangulation.from_cells(
        pool, [TaggedSimplex(tuple(ids[i] for i in c), ()) for c in cells]
    )


def conformity_corpus(seed):
    """Seeded meshes: conforming refinements for n = 2, 3, 4, each followed
    by a copy with three leaves bisected without closure (hanging nodes),
    then, at a dyadic shift, the overlapping plane pair (0,1,2)/(0,1,3) and
    a row of three overlapping triangles."""
    rng = random.Random(seed)
    out = []
    for n, rounds in ((2, 14), (3, 6), (4, 2)):
        tri = kuhn_square() if n == 2 else kuhn_cube_mesh(n)
        for _ in range(rounds):
            refine(tri, rng.choice(sorted(tri.leaves)))
        out.append(tri)
        hanging = tri.copy()
        for _ in range(3):
            hanging.bisect_leaf(rng.choice(sorted(hanging.leaves)))
        out.append(hanging)
    shift = [Fraction(rng.randrange(-8, 9), 8) for _ in range(2)]

    def moved(coords):
        return [[Fraction(x) + s for x, s in zip(c, shift)] for c in coords]

    square = moved(((0, 0), (1, 0), (1, 1), (0, 1)))
    out.append(plain_mesh(square, [(0, 1, 2), (0, 1, 3)]))
    # three overlapping triangles, the rightmost first, so the cell ids
    # run against the x order of the sweep
    row = moved([(2 * k + x, y) for k in (2, 1, 0) for x, y in ((0, 0), (4, 0), (2, 3))])
    out.append(plain_mesh(row, [(0, 1, 2), (3, 4, 5), (6, 7, 8)]))
    return out


class TestConformityScansMatchReference:
    @pytest.mark.parametrize("seed", range(4))
    def test_check_conforming(self, seed):
        for tri in conformity_corpus(seed):
            assert check_conforming(tri) == reference_check_conforming(tri)

    @pytest.mark.parametrize("seed", range(4))
    def test_check_conforming_2d_exact(self, seed):
        for tri in conformity_corpus(seed):
            if tri.forest.pool.point(0).dim == 2:
                got = check_conforming_2d_exact(tri)
                assert got == reference_check_conforming_2d_exact(tri)

    def test_corpus_has_both_verdicts(self):
        found = [check_conforming_2d_exact(t) if t.forest.pool.point(0).dim == 2
                 else check_conforming(t) for t in conformity_corpus(0)]
        assert [bool(p) for p in found] == [False, True] * 3 + [True, True]


def mesh_copy(tri, shift, extra_coords=(), extra_cells=()):
    """The leaves of ``tri`` as a fresh mesh, every vertex moved by
    ``shift``, with ``extra_coords`` (moved too) and ``extra_cells``
    appended; cell ``k`` of ``extra_cells`` indexes the vertices as
    ``tri``'s leaf vertices in id order, then the extra ones."""
    pool = tri.forest.pool
    order = sorted(tri.vertex_index)
    at = {v: k for k, v in enumerate(order)}
    coords = [fractions_of(pool.point(v)) for v in order] + list(extra_coords)
    cells = [tuple(at[v] for v in tri.forest.tarray(leaf).vertex_ids) for leaf in tri.leaves]
    moved = [[Fraction(x) + s for x, s in zip(c, shift)] for c in coords]
    return plain_mesh(moved, cells + list(extra_cells))


class TestConformityUnderDeepShifts:
    """Both conformity checks read every verdict on the points it is about,
    so moving a mesh by a dyadic offset at an exponent up to 4096 changes
    no report, whether the mesh conforms, holds an unclosed bisection or
    an extra pair of crossing triangles."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, 1 << 16),
        st.sampled_from(["conforming", "unclosed", "crossing"]),
        st.lists(st.integers(-(1 << 20), 1 << 20), min_size=2, max_size=2),
        st.lists(st.integers(0, 4096), min_size=2, max_size=2),
    )
    def test_reports_do_not_move(self, seed, kind, nums, exps):
        rng = random.Random(seed)
        tri = kuhn_square()
        for _ in range(rng.randrange(4, 12)):
            refine(tri, rng.choice(sorted(tri.leaves)))
        extra_coords, extra_cells = [], []
        if kind == "unclosed":
            tri.bisect_leaf(rng.choice(sorted(tri.leaves)))
        elif kind == "crossing":
            # a six-pointed star at a random spot near the square
            x, y = (Fraction(rng.randrange(-8, 9), 4) for _ in range(2))
            star = [(0, 0), (2, 0), (1, 2), (0, 1), (2, 1), (1, -1)]
            extra_coords = [(x + a, y + b) for a, b in star]
            v = len(tri.vertex_index)
            extra_cells = [(v, v + 1, v + 2), (v + 3, v + 4, v + 5)]
        shift = [Fraction(n, 1 << e) for n, e in zip(nums, exps)]
        here = mesh_copy(tri, [0, 0], extra_coords, extra_cells)
        there = mesh_copy(tri, shift, extra_coords, extra_cells)
        found = check_conforming_2d_exact(here)
        assert check_conforming_2d_exact(there) == found
        assert check_conforming(there) == check_conforming(here)
        if kind == "conforming":
            assert found == []
        elif kind == "crossing":
            assert any("cross outside" in p for p in found)


class TestConformityScan1D:
    """On a line the leaf box is its x-range alone: no further coordinate
    filters the candidates before the solve."""

    def test_refined_row_has_no_hanging_vertex(self):
        rng = random.Random(1)
        tri = plain_mesh([(Fraction(k, 4) - 3,) for k in range(5)], [(k, k + 1) for k in range(4)])
        for _ in range(12):
            refine(tri, rng.choice(sorted(tri.leaves)))
        assert check_conforming(tri) == reference_check_conforming(tri) == []

    def test_overlapping_intervals_hang(self):
        """[0, 4] and [1, 7], as given and refined: each holds a vertex of
        the other."""
        rng = random.Random(2)
        tri = plain_mesh([(0,), (4,), (1,), (7,)], [(0, 1), (2, 3)])
        for _ in range(5):
            found = check_conforming(tri)
            assert found == reference_check_conforming(tri)
            assert len(found) >= 2
            refine(tri, rng.choice(sorted(tri.leaves)))


def _counted_solves(monkeypatch):
    """Patch the conformity scans' point location with a call counter; the
    returned list gets one entry per call, the number of points asked."""
    module = importlib.import_module("bisectmesh.refine")
    calls, real = [], module._locate

    def counted(simplex, pts):
        calls.append(len(pts))
        return real(simplex, pts)

    monkeypatch.setattr(module, "_locate", counted)
    return calls


class TestSlabFilter:
    """The scans filter on slabs across the planes ``x_i = c`` and
    ``x_i ± x_j = c``, on which every facet of a Kuhn-cube refinement lies,
    so there no candidate but a true hit reaches the exact solve."""

    @pytest.mark.parametrize("n, rounds", [(2, 30), (3, 10), (4, 3)])
    def test_only_true_hits_are_solved(self, monkeypatch, n, rounds):
        rng = random.Random(n)
        base = kuhn_square() if n == 2 else kuhn_cube_mesh(n)
        a, b = base.copy(), base.copy()
        for tri in (a, b):
            for _ in range(rounds):
                refine(tri, rng.choice(sorted(tri.leaves)))
        solves = _counted_solves(monkeypatch)
        for tri in (a, b, overlay(a, b), underlay(a, b)):
            assert check_conforming(tri) == []
            if n == 2:
                assert check_conforming_2d_exact(tri) == []
        assert solves == []
        # one unclosed bisection of a leaf whose refinement edge has other
        # sharers: each leaf solved is a leaf the report names
        leaf = next(
            s for s in sorted(a.leaves)
            if len(a.edge_sharers(refinement_edge(a.forest.tarray(s)))) > 1
        )
        a.bisect_leaf(leaf)
        found = check_conforming(a)
        assert found
        assert len(solves) == len(set(re.findall(r"in leaf (\d+)", "\n".join(found))))

    def test_deep_kuhn_grid_is_solved_nowhere(self, monkeypatch):
        """The frame keeps the mesh's exact largest exponent, so the slabs
        of the 32x32 grid scaled by 2**-600 are as tight as at scale 1."""
        tri = kuhn_grid(2, 32, Fraction(1, 1 << 600))
        solves = _counted_solves(monkeypatch)
        assert check_conforming(tri) == []
        assert solves == []

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["sum", "difference"])
    def test_vertex_on_a_diagonal_facet_hangs(self, n, kind):
        """A vertex on a facet ``x_k - x_{k+1} = 0`` of the Kuhn simplex
        ``4 >= x_0 >= ... >= x_{n-1} >= 0`` (or, with ``x_k`` flipped to
        ``4 - x_k``, on a facet ``x_k + x_{k+1} = 4``) takes that slab's
        bound exactly, so it is found only by closed comparisons."""
        k = n - 2
        corners = [[4] * m + [0] * (n - m) for m in range(n + 1)]
        facet = [c for m, c in enumerate(corners) if m != k + 1]  # x_k = x_{k+1}
        weights = [Fraction(1, 2 ** (i + 1)) for i in range(n - 1)]
        weights.append(1 - sum(weights))
        hanging = [sum(w * c[d] for w, c in zip(weights, facet)) for d in range(n)]
        # a cell on the other side of the facet, with the hanging vertex as
        # its only point on the facet's plane
        out = [int(d == k + 1) - int(d == k) for d in range(n)]
        beyond = [[x + 8 * o + (d == i) for d, (x, o) in enumerate(zip(hanging, out))]
                  for i in range(n)]
        coords = corners + [hanging] + beyond
        if kind == "sum":
            coords = [[4 - x if d == k else x for d, x in enumerate(c)] for c in coords]
        tri = plain_mesh(coords, [tuple(range(n + 1)), tuple(range(n + 1, 2 * n + 2))])
        cell = tri.forest.roots[0]
        want = [f"hanging node: vertex {n + 1} lies in leaf {cell} without being one of its vertices"]
        assert check_conforming(tri) == reference_check_conforming(tri) == want

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 1 << 16),
        st.sampled_from([2, 3]),
        st.integers(0, 4096),
        st.integers(0, 4096),
    )
    def test_generic_meshes_match_reference(self, seed, n, scale_exp, jitter_exp):
        """Cells on random points, with facets in any direction, and cells
        with a vertex on a face of an earlier cell: both scans report as
        the all-pairs references do."""
        rng = random.Random(seed)
        coords = []
        for _ in range(rng.randrange(n + 2, 9)):
            c = [Fraction(rng.randrange(-6, 7)) for _ in range(n)]
            if rng.random() < 0.3:
                c = [x + Fraction(rng.randrange(-3, 4), 1 << jitter_exp) for x in c]
            coords.append(c)
        cells, seen = [], set()

        def add(cell):
            key = frozenset(tuple(coords[i]) for i in cell)
            edges = [[x - y for x, y in zip(coords[i], coords[cell[0]])] for i in cell[1:]]
            if len(key) == n + 1 and key not in seen and frac_det(edges):
                seen.add(key)
                cells.append(cell)

        for _ in range(rng.randrange(2, 8)):
            add(tuple(rng.sample(range(len(coords)), n + 1)))
        for _ in range(rng.randrange(0, 4) if cells else 0):
            # a point of a face (edge included) of a cell, at dyadic weights,
            # as a vertex of a new cell
            face = rng.sample(rng.choice(cells), rng.randrange(2, n + 1))
            cuts = [0, *sorted(rng.sample(range(1, 8), len(face) - 1)), 8]
            weights = [Fraction(b - a, 8) for a, b in zip(cuts, cuts[1:])]
            coords.append([
                sum(w * coords[i][d] for w, i in zip(weights, face)) for d in range(n)
            ])
            add((len(coords) - 1, *rng.sample(range(len(coords) - 1), n)))
        assume(cells)
        scale = Fraction(1, 1 << scale_exp)
        tri = plain_mesh([[x * scale for x in c] for c in coords], cells)
        assert check_conforming(tri) == reference_check_conforming(tri)
        if n == 2:
            assert check_conforming_2d_exact(tri) == reference_check_conforming_2d_exact(tri)


def _counted_filters(monkeypatch):
    """Patch the hanging-node scan's slab filter with a call counter; the
    returned list gets one entry per filter run."""
    module = importlib.import_module("bisectmesh.refine")
    calls, real = [], module._in_slabs

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, "_in_slabs", counted)
    return calls


def _sibling(tri, leaf):
    """The other child of ``leaf``'s parent, or None for a root."""
    parent = tri.forest.nodes[leaf].parent
    if parent is None:
        return None
    c1, c2 = tri.forest.nodes[parent].children
    return c2 if leaf == c1 else c1


def _filters_wanted(tri):
    """One filter per sibling pair of leaves and per other leaf."""
    paired = sum(_sibling(tri, leaf) in tri.leaves for leaf in tri.leaves)
    return paired // 2 + len(tri.leaves) - paired


def _start_mesh(n):
    """A conforming mesh to refine in n dimensions: four intervals of a
    line, the Kuhn square or the Kuhn n-cube."""
    if n == 1:
        return plain_mesh([(Fraction(k, 4),) for k in range(5)], [(k, k + 1) for k in range(4)])
    return kuhn_square() if n == 2 else kuhn_cube_mesh(n)


class TestSiblingPairs:
    """Two sibling leaves are filtered once, in their parent's slabs, and
    certified together when only their own vertices survive; otherwise
    each is filtered again from the parent's survivors."""

    @pytest.mark.parametrize("n, times", [(2, 8), (3, 5), (4, 3)])
    def test_uniform_refinements_run_one_filter_per_pair(self, monkeypatch, n, times):
        tri = _start_mesh(n)
        filters, solves = _counted_filters(monkeypatch), _counted_solves(monkeypatch)
        for _ in range(times):
            uniform_refine(tri)
            filters.clear()
            assert check_conforming(tri) == []
            assert len(filters) == len(tri.leaves) // 2
        assert solves == []

    @pytest.mark.parametrize("n, rounds", [(2, 40), (3, 12), (4, 4)])
    def test_random_refinements_run_fewer_filters_than_leaves(self, monkeypatch, n, rounds):
        rng = random.Random(n)
        tri = _start_mesh(n)
        for _ in range(rounds):
            refine(tri, rng.choice(sorted(tri.leaves)))
        filters, solves = _counted_filters(monkeypatch), _counted_solves(monkeypatch)
        assert check_conforming(tri) == []
        assert len(filters) == _filters_wanted(tri) < len(tri.leaves)
        assert solves == []

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_unclosed_bisection_hangs_in_a_pair(self, n):
        """The new vertex lies in a leaf whose sibling is a leaf too, so the
        pair's filter cannot certify it and each child is filtered again."""
        if n == 1:
            # [0, 4] and [1, 5] overlap; bisecting both makes two pairs,
            # and 3, the midpoint of [1, 5], lies in [2, 4]
            tri = plain_mesh([(0,), (4,), (1,), (5,)], [(0, 1), (2, 3)])
            tri.bisect_leaf(0)
            tri.bisect_leaf(1)
        else:
            tri = _start_mesh(n)
            for _ in range(2):  # on the Kuhn square, one leaves no shared refinement edge
                uniform_refine(tri)
            leaf = next(
                s for s in sorted(tri.leaves)
                if tri.edge_sharers(refinement_edge(tri.forest.tarray(s))) - {s, _sibling(tri, s)}
            )
            tri.bisect_leaf(leaf)
        found = check_conforming(tri)
        assert found == reference_check_conforming(tri)
        reported = {int(s) for s in re.findall(r"in leaf (\d+)", "\n".join(found))}
        assert any(_sibling(tri, s) in tri.leaves for s in reported)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_refined_copy_of_a_root_hangs_in_the_root(self, n):
        """A root and a copy of it refined in memory: every vertex of the
        copy's leaves but the root's own lies in the coarse root, while the
        copy's pairs are certified."""
        base = single_kuhn(n)
        pool, (cell,) = base.forest.pool, base.cells()
        tri = Triangulation.from_cells(pool, [cell, cell])
        for _ in range(n + 2):
            for leaf in sorted(tri.leaves - {0}):
                tri.bisect_leaf(leaf)
        found = check_conforming(tri)
        assert found == reference_check_conforming(tri)
        inside = set(tri.vertex_index) - set(cell.vertex_ids)
        assert found == [
            f"hanging node: vertex {v} lies in leaf 0 without being one of its vertices"
            for v in sorted(inside)
        ]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 1 << 16), st.sampled_from([1, 2, 3, 4]))
    def test_random_refinement_and_one_unclosed_bisection(self, seed, n):
        rng = random.Random(seed)
        tri = _start_mesh(n)
        for _ in range(rng.randrange({1: 12, 2: 12, 3: 6, 4: 2}[n] + 1)):
            refine(tri, rng.choice(sorted(tri.leaves)))
        tri.bisect_leaf(rng.choice(sorted(tri.leaves)))
        assert check_conforming(tri) == reference_check_conforming(tri)


plane_coordinates = st.builds(
    lambda n, e: Fraction(n, 1 << e),
    st.integers(-4, 4) | st.integers(-(1 << 70), 1 << 70),
    st.integers(0, 80),
)
plane_points = st.lists(plane_coordinates, min_size=2, max_size=2).map(DyadicPoint)


def frac_orient(a, b, c):
    """Sign of det(b - a, c - a) for plane points, by the Fraction
    determinant."""
    det = frac_det([frac_offset(b, a), frac_offset(c, a)])
    return (det > 0) - (det < 0)


class TestPlanePredicates:
    """The 2D oracle's proper-crossing test against the signs of Fraction
    determinants."""

    @given(plane_points, plane_points, plane_points, plane_points)
    def test_segments_cross(self, a, b, c, d):
        want = frac_orient(a, b, c) * frac_orient(a, b, d) < 0 and (
            frac_orient(c, d, a) * frac_orient(c, d, b) < 0
        )
        assert _segments_cross(a, b, c, d) == want

    def test_examples(self):
        o, e = point(0, 0), Fraction(1, 1 << 80)
        assert _segments_cross(o, point(2, 2), point(0, 2), point(2, 0))  # an X
        assert _segments_cross(o, point(e, e), point(0, e), point(e, 0))  # a deep X
        assert not _segments_cross(o, point(2, 0), point(1, 0), point(1, 2))  # a T
        assert not _segments_cross(o, point(2, 0), point(1, 0), point(3, 0))  # collinear overlap
        assert not _segments_cross(o, point(1, 0), point(2, -1), point(2, 1))  # apart


class TestUniform:
    def test_square(self, square):
        uniform_refine(square)
        assert len(square.leaves) == 4
        assert {square.forest.tarray(x).level for x in square.leaves} == {1}
        assert check_conforming(square) == []

    def test_sic_preserved_through_levels(self, square):
        from bisectmesh.inittags import check_sic

        for _ in range(3):
            uniform_refine(square)
            assert check_conforming(square) == []
        assert len(square.leaves) == 2 * 2**3
        assert check_sic(Triangulation(square.forest, square.leaves)) == []

    def test_kuhn_cube_3d(self):
        tri = kuhn_cube_mesh(3)
        uniform_refine(tri)
        assert len(tri.leaves) == 12
        assert check_conforming(tri) == []

    def test_mismatch_detected(self):
        pool = VertexPool()
        a = pool.id_of(point(0, 0))
        b = pool.id_of(point(1, 0))
        c = pool.id_of(point(1, 1))
        d = pool.id_of(point(0, 1))
        tri = Triangulation.from_cells(
            pool,
            [TaggedSimplex((a, b, c), ()), TaggedSimplex((c, a, d), ())],
        )
        with pytest.raises(RefinementError):
            uniform_refine(tri)


class TestHyperlevelUniform:
    def make_agk(self):
        pool = VertexPool()
        a = pool.id_of(point(0, 0))
        b = pool.id_of(point(1, 0))
        c = pool.id_of(point(1, 1))
        d = pool.id_of(point(0, 1))
        cells = [(a, b, c), (a, c, d)]
        verts = frozenset({a, b, c, d})
        return agk_init(pool, cells, VertexPartition(frozenset(), verts))

    def test_sweep_to_next_hyperlevel(self):
        tri = self.make_agk()
        hyperlevel_uniform_refine(tri, 1)
        assert all(
            tri.forest.tarray(x).edge_hyperlevel == 2 for x in tri.leaves
        )
        assert check_conforming(tri) == []

    def test_cell_count_scales_by_2_pow_n(self):
        tri = self.make_agk()
        before = len(tri.leaves)
        hyperlevel_uniform_refine(tri, 1)
        assert len(tri.leaves) == before * 4

    def test_idempotent(self):
        tri = self.make_agk()
        hyperlevel_uniform_refine(tri, 1)
        leaves = set(tri.leaves)
        hyperlevel_uniform_refine(tri, 1)
        assert set(tri.leaves) == leaves


class TestQuasiUniform:
    def test_square_levels(self, square):
        assert check_retaco(square) == []
        quasi_uniform_refine(square)
        levels = {square.forest.tarray(x).level for x in square.leaves}
        assert levels <= {2, 3}
        assert check_conforming(square) == []
        assert len(square.leaves) == 8

    def test_type1_mesh_n2(self):
        pool, cells, _ = tripled_triangle_pair()
        tri = initial_division(pool, cells)
        quasi_uniform_refine(tri)
        forest = tri.forest
        levels = {forest.tarray(x).level for x in tri.leaves}
        assert levels <= {2, 3}
        hs = {
            forest.tarray(x).hyperlevel
            for x in tri.leaves
            if forest.tarray(x).type < 2
        }
        assert hs == {1}
        assert check_conforming(tri) == []

    def test_type1_mesh_n3(self):
        pool, cells = tripled_tet()
        tri = initial_division(pool, cells)
        quasi_uniform_refine(tri)
        forest = tri.forest
        levels = {forest.tarray(x).level for x in tri.leaves}
        assert levels <= {3, 4, 5}
        hs = {
            forest.tarray(x).hyperlevel
            for x in tri.leaves
            if forest.tarray(x).type < 3
        }
        assert hs == {1}
        assert check_conforming(tri) == []

    def test_strictly_finer_than_every_input_cell(self, square):
        inputs = {
            leaf: square.forest.tarray(leaf).level for leaf in square.leaves
        }
        quasi_uniform_refine(square)
        for leaf in square.leaves:
            node = leaf
            while node not in inputs and node is not None:
                node = square.forest.nodes[node].parent
            assert node is not None
            assert square.forest.tarray(leaf).level > inputs[node]


def test_sweeps_give_up_after_guard_rounds(monkeypatch):
    """Both sweeps take more than one round on the Kuhn square, so with a
    one-round budget each raises its own message."""
    monkeypatch.setattr(importlib.import_module("bisectmesh.refine"), "_GUARD_ROUNDS", 1)
    with pytest.raises(RefinementError, match="^hyperlevel-uniform sweep did not settle$"):
        hyperlevel_uniform_refine(kuhn_square(), 1)
    with pytest.raises(RefinementError, match="^quasi-uniform sweep did not settle; input"):
        quasi_uniform_refine(kuhn_square())


class TestGss:
    def test_compatible_patch_jump_one(self, square):
        log = refine(square, min(square.leaves))
        assert max_jump(square.forest, log) == 1

    def test_staircase_jump_stays_at_two(self):
        tri = staircase_mesh(10)
        deep = max(
            tri.leaves, key=lambda nid: (tri.forest.tarray(nid).level, -nid)
        )
        log = refine(tri, deep)
        assert max_jump(tri.forest, log) <= 4  # 2n

    def test_chain_of_four_in_3d(self):
        """Bisecting the vertical edge (c, d) of (a b; c; d), as a neighbour
        sharing that edge would demand, takes four successive bisections."""
        pool = VertexPool()
        a = pool.id_of(point(0, 0, 0))
        b = pool.id_of(point(2, 0, 0))
        c = pool.id_of(point(0, 2, 0))
        d = pool.id_of(point(0, 0, 2))
        frontier = [TaggedSimplex((a, b), (c, d))]
        from bisectmesh.tarray import refinement_edge, bisect

        target = frozenset((c, d))
        split_level = None
        for _ in range(8):
            nxt = []
            for s in frontier:
                if refinement_edge(s) == target:
                    split_level = s.level + 1
                    break
                for child in bisect(s, pool)[:2]:
                    if target <= set(child.vertex_ids):
                        nxt.append(child)
            if split_level is not None:
                break
            frontier = nxt
        assert split_level == 4

    @pytest.mark.parametrize(
        "mesh, n, rounds",
        [(kuhn_square, 2, 40), (lambda: kuhn_cube_mesh(3), 3, 20), (lambda: single_kuhn(4), 4, 12)],
        ids=["square", "kuhn-3-cube", "kuhn-4-simplex"],
    )
    def test_jump_is_the_largest_level_gap_to_the_input_leaf(self, mesh, n, rounds):
        """Oracle for the depth walk: each new leaf climbs ``parent`` to the
        leaf of the mesh before the round it lies in, and the largest level
        difference found is the round's jump.  A logged node whose parent was
        logged in the same round comes after that parent."""
        tri = mesh()
        forest = tri.forest
        rng = random.Random(7)
        jumps = []
        for _ in range(rounds):
            before = set(tri.leaves)
            log = refine(tri, rng.choice(sorted(before)))
            gaps = []
            for leaf in tri.leaves - before:
                up = leaf
                while up not in before:
                    up = forest.nodes[up].parent
                gaps.append(forest.tarray(leaf).level - forest.tarray(up).level)
            jumps.append(max(gaps))
            assert max_jump(forest, log) == jumps[-1] <= 2 * n
            at = {nid: k for k, nid in enumerate(log)}
            for k, nid in enumerate(log):
                assert at.get(forest.nodes[nid].parent, -1) < k
        assert max(jumps) > 1  # some round bisects below a new node

    def test_random_suite_jump_bounded(self):
        rng = random.Random(13)
        for n, rounds in ((2, 25), (3, 12), (4, 6)):
            tri = kuhn_square() if n == 2 else kuhn_cube_mesh(n)
            worst = 0
            for _ in range(rounds):
                log = refine(tri, rng.choice(sorted(tri.leaves)))
                worst = max(worst, max_jump(tri.forest, log))
            assert worst <= 2 * n


def test_bisect_all_numbers_new_nodes_in_leaf_id_order():
    """A sweep bisects in leaf-id order, whatever order the leaf set holds:
    of the leaves {4, 8}, node 4 is bisected first and gets the next two
    ids."""
    tri = kuhn_square()
    for _ in range(3):
        refine(tri, min(tri.leaves))
    assert {4, 8} <= tri.leaves and len(tri.forest.nodes) == 10
    _bisect_all(Triangulation(tri.forest, [4, 8]))
    assert tri.forest.nodes[4].children == (10, 11)
    assert tri.forest.nodes[8].children == (12, 13)
