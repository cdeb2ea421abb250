import math
import random
import re
from fractions import Fraction

import pytest

from bisectmesh import Triangulation, VertexPool
from bisectmesh.inittags import (
    MarkingError,
    _barycentre,
    VertexPartition,
    _cell_pairs,
    agk_init,
    check_isocochange,
    check_pc,
    check_retaco,
    check_retahyco,
    check_sic,
    initial_division,
    resolve_marking,
)
from bisectmesh.refine import check_conforming, refine
from bisectmesh.tarray import TaggedSimplex

from conftest import (
    fractions_of,
    point,
    kuhn_cube_cells,
    kuhn_grid,
    kuhn_square,
    leaf_volume,
    one_sided_square,
    tripled_tet,
    tripled_triangle_pair,
)


class TestInitialDivision:
    def test_two_triangle_worked_example(self):
        pool, cells, (p1, p2, p3, p4) = tripled_triangle_pair()
        q1, q2 = point(3, 1), point(6, 2)
        tri = initial_division(pool, cells, {2: [q1, q2]})
        q1i, q2i = pool.id_of(q1), pool.id_of(q2)
        got = sorted(
            (tuple(sorted(c.horizontal)), c.vertical) for c in tri.cells()
        )
        expected = sorted(
            [
                ((p2, p3), (q1i,)),
                ((p1, p3), (q1i,)),
                ((p1, p2), (q1i,)),
                ((p3, p4), (q2i,)),
                ((p2, p4), (q2i,)),
                ((p2, p3), (q2i,)),
            ]
        )
        assert got == expected
        assert check_sic(tri) == []

    def test_barycentre_division_counts(self):
        pool, cells, _ = tripled_triangle_pair()
        tri = initial_division(pool, cells)
        assert len(tri.leaves) == 2 * math.factorial(3) // 2
        assert {c.type for c in tri.cells()} == {1}
        assert check_sic(tri) == []

        pool3, cells3 = tripled_tet()
        tri3 = initial_division(pool3, cells3)
        assert len(tri3.leaves) == math.factorial(4) // 2
        assert check_sic(tri3) == []
        assert leaf_volume(tri3) == Fraction(27, 6)

    def test_vertex_marking_tags_without_division(self):
        pool = VertexPool()
        a = pool.id_of(point(0, 0))
        b = pool.id_of(point(1, 0))
        c = pool.id_of(point(1, 1))
        tri = initial_division(pool, [(a, b, c)], {2: [point(0, 0)]})
        assert len(tri.leaves) == 1
        cell = tri.cells()[0]
        assert cell.type == 1
        assert cell.vertical == (a,)

    def test_non_dyadic_barycentre_rejected(self):
        pool = VertexPool()
        ids = [pool.id_of(p) for p in (point(0, 0), point(1, 0), point(1, 1))]
        with pytest.raises(MarkingError):
            initial_division(pool, [tuple(ids)])

    def test_marking_validation(self):
        pool, cells, _ = tripled_triangle_pair()
        with pytest.raises(MarkingError):  # missing point for one triangle
            resolve_marking(pool, cells, {2: [point(3, 1)]})
        with pytest.raises(MarkingError):  # two points in one triangle
            resolve_marking(pool, cells, {2: [point(3, 1), point(2, 1), point(6, 2)]})
        with pytest.raises(MarkingError):  # point outside every cell
            resolve_marking(pool, cells, {2: [point(3, 1), point(6, 2), point(50, 50)]})

    def test_first_marking_error_names_the_lowest_subsimplex(self):
        """Free subsimplices are walked in sorted id order, so of the two
        empty triangles the error names [0, 1, 2], not [1, 2, 3]."""
        pool = VertexPool()
        ids = [pool.id_of(point(*q)) for q in [(0, 0), (4, 0), (0, 4), (4, 4)]]
        assert ids == [0, 1, 2, 3]
        message = "type-2 marking gives 0 points in subsimplex [0, 1, 2]; need exactly one"
        with pytest.raises(MarkingError, match=re.escape(message)):
            resolve_marking(pool, [(0, 1, 2), (1, 2, 3)], {2: []})

    def test_marking_type_outside_range_rejected(self):
        """A type-7 point on a triangle mesh has no 7-subsimplex to divide;
        it is named, not ignored."""
        pool, cells, _ = tripled_triangle_pair()
        marking = {2: [point(3, 1), point(6, 2)], 7: [point(1, 0)], -1: []}
        with pytest.raises(MarkingError, match=re.escape("marking.-1, marking.7: ")):
            initial_division(pool, cells, marking)
        with pytest.raises(MarkingError, match=re.escape("must lie in 2..2")):
            resolve_marking(pool, cells, {1: []})

    def test_cells_of_two_dimensions_rejected(self):
        pool, cells, _ = tripled_triangle_pair()
        message = "^all cells must be n-simplices of one dimension$"
        with pytest.raises(MarkingError, match=message):
            initial_division(pool, [cells[0], cells[1][:2]])

    @pytest.mark.parametrize("seed", range(4))
    def test_barycentre_matches_fraction_mean(self, seed):
        """The integer barycentre equals the mean of the points as
        Fractions, and is rejected exactly when that mean is not dyadic."""
        rng = random.Random(seed)
        for k in range(1, 9):
            pool = VertexPool()
            pts = []
            while len(pts) < k:
                q = point(*(Fraction(rng.randrange(-40, 40), 2 ** rng.randrange(3)) for _ in range(3)))
                if q not in pts:
                    pts.append(q)
            ids = [pool.id_of(q) for q in pts]
            mean = [sum(col) / k for col in zip(*(fractions_of(q) for q in pts))]
            if all(c.denominator & (c.denominator - 1) == 0 for c in mean):
                assert _barycentre(pool, ids) == point(*mean)
            else:
                with pytest.raises(MarkingError, match="not dyadic"):
                    _barycentre(pool, ids)

    def test_kuhn_cube_face_centre_marking_is_plain_bisection(self):
        """Centres of the cube's faces as typed points: the division steps
        are standard bisections, giving n! 2^(n-2) cells for n = 2."""
        pool, cells = kuhn_cube_cells(2)
        cells = [tuple(c) for c in cells]
        marking = {2: [point(Fraction(1, 2), Fraction(1, 2))]}
        tri = initial_division(pool, cells, marking)
        assert len(tri.leaves) == 4
        assert check_sic(tri) == []


class TestAgkInit:
    def make(self, v0_ids=frozenset()):
        pool = VertexPool()
        a = pool.id_of(point(0, 0))
        b = pool.id_of(point(1, 0))
        c = pool.id_of(point(1, 1))
        d = pool.id_of(point(0, 1))
        cells = [(a, b, c), (a, c, d)]
        verts = frozenset({a, b, c, d})
        part = VertexPartition(v0=frozenset(v0_ids), v1=verts - frozenset(v0_ids))
        return agk_init(pool, cells, part)

    def test_all_v1_gives_full_type_hyperlevel_1(self):
        tri = self.make()
        assert all(c.type == 2 and c.hyperlevel == 1 for c in tri.cells())
        assert check_retahyco(tri) == []

    def test_all_v0_gives_full_type_hyperlevel_0(self):
        tri = self.make(frozenset({0, 1, 2, 3}))
        assert all(c.type == 2 and c.hyperlevel == 0 for c in tri.cells())
        assert check_retahyco(tri) == []

    def test_mixed_partitions_pass_checks(self):
        rng = random.Random(77)
        for _ in range(25):
            v0 = frozenset(v for v in range(4) if rng.random() < 0.5)
            tri = self.make(v0)
            assert check_retahyco(tri) == []
            assert check_isocochange(tri) == []

    def test_custom_orders_respected(self):
        pool = VertexPool()
        a = pool.id_of(point(0, 0))
        b = pool.id_of(point(1, 0))
        c = pool.id_of(point(1, 1))
        part = VertexPartition(
            v0=frozenset({a, b, c}), v1=frozenset(), order0=[c, a, b]
        )
        tri = agk_init(pool, [(a, b, c)], part)
        assert tri.cells()[0].horizontal == (c, a, b)

    def test_invalid_partition_rejected(self):
        pool = VertexPool()
        a = pool.id_of(point(0, 0))
        b = pool.id_of(point(1, 0))
        c = pool.id_of(point(1, 1))
        with pytest.raises(MarkingError):
            agk_init(pool, [(a, b, c)], VertexPartition(frozenset({a}), frozenset({a, b, c})))


class TestCheckSic:
    def test_mismatched_edges_fail(self):
        pool = VertexPool()
        a = pool.id_of(point(0, 0))
        b = pool.id_of(point(1, 0))
        c = pool.id_of(point(1, 1))
        d = pool.id_of(point(0, 1))
        tri = Triangulation.from_cells(
            pool, [TaggedSimplex((a, b, c), ()), TaggedSimplex((c, a, d), ())]
        )
        assert check_sic(tri) != []

    def test_mixed_types_fail(self):
        pool = VertexPool()
        a = pool.id_of(point(0, 0))
        b = pool.id_of(point(1, 0))
        c = pool.id_of(point(1, 1))
        d = pool.id_of(point(0, 1))
        tri = Triangulation.from_cells(
            pool, [TaggedSimplex((a, b, c), ()), TaggedSimplex((a, c), (d,))]
        )
        assert any("types" in p for p in check_sic(tri))

    def test_kuhn_cube_passes(self):
        pool, cells = kuhn_cube_cells(3)
        tri = Triangulation.from_cells(
            pool, [TaggedSimplex(c, ()) for c in cells]
        )
        assert check_sic(tri) == []

    def test_depth_below_one_rejected(self):
        """Depth 0 would skip every edge-consistency stage and pass a mesh
        whose shared edge is the refinement edge of one sharer only."""
        tri = one_sided_square()
        assert check_sic(tri, 1) != []
        for depth in (0, -1):
            with pytest.raises(ValueError, match="at least 1"):
                check_sic(tri, depth)


class TestCheckRetaco:
    def test_sic_implies_retaco(self, square):
        assert check_retaco(square) == []

    def test_inherited_by_refinements(self):
        rng = random.Random(4)
        tri = kuhn_square()
        for _ in range(12):
            refine(tri, rng.choice(sorted(tri.leaves)))
            assert check_retaco(tri) == []

    def test_plane_meshes_always_pass(self):
        """Restrictions to an edge or a vertex are all identified, so every
        regular tagging of a 2D mesh has coinciding restrictions, even one
        with incompatible refinement edges."""
        pool = VertexPool()
        a = pool.id_of(point(0, 0))
        b = pool.id_of(point(1, 0))
        c = pool.id_of(point(1, 1))
        d = pool.id_of(point(0, 1))
        tri = Triangulation.from_cells(
            pool, [TaggedSimplex((a, b, c), ()), TaggedSimplex((c, a), (d,))]
        )
        assert check_retaco(tri) == []

    def test_inconsistent_restrictions_fail(self):
        """Tetrahedra sharing a 2-face whose restricted arrays split the
        face differently between horizontal and vertical parts."""
        pool = VertexPool()
        a = pool.id_of(point(0, 0, 0))
        b = pool.id_of(point(2, 0, 0))
        c = pool.id_of(point(0, 2, 0))
        d = pool.id_of(point(0, 0, 2))
        e = pool.id_of(point(0, 0, -2))
        t1 = TaggedSimplex((a, b, c, d), ())  # face abc restricts to (a b c)
        t2 = TaggedSimplex((a, c), (b, e))  # face abc restricts to (a c; b)
        tri = Triangulation.from_cells(pool, [t1, t2])
        assert check_retaco(tri) != []


class TestCheckPcIsoCoChange:
    def test_2d_full_type_always_isocochange(self):
        rng = random.Random(12)
        pool = VertexPool()
        a = pool.id_of(point(0, 0))
        b = pool.id_of(point(1, 0))
        c = pool.id_of(point(1, 1))
        d = pool.id_of(point(0, 1))
        for _ in range(10):
            cells = []
            for tri_ids in ((a, b, c), (a, c, d)):
                perm = list(tri_ids)
                rng.shuffle(perm)
                cells.append(TaggedSimplex(tuple(perm), (), 0, 0))
            tri = Triangulation.from_cells(pool, cells)
            assert check_isocochange(tri) == []

    def test_isocochange_violation_detected(self):
        """Both cells restrict to the row (a c) on the diagonal, so retaco
        passes; but the second restriction keeps no horizontal vertex and
        is transposed to hyperlevel 1, so its lattice steps by c - a where
        the first's, refined to width 1, steps by (c - a) / 2."""
        pool = VertexPool()
        a = pool.id_of(point(0, 0))
        b = pool.id_of(point(1, 0))
        c = pool.id_of(point(1, 1))
        d = pool.id_of(point(0, 1))
        tri = Triangulation.from_cells(
            pool, [TaggedSimplex((a, b, c), ()), TaggedSimplex((d,), (a, c))]
        )
        assert check_retaco(tri) == []
        assert check_isocochange(tri) == [
            "cells 0 and 1: intersection sublattices differ on [0, 2]"
        ]

    def test_pc_violation_detected(self):
        pool = VertexPool()
        a = pool.id_of(point(0, 0, 0))
        b = pool.id_of(point(2, 0, 0))
        c = pool.id_of(point(0, 2, 0))
        d = pool.id_of(point(0, 0, 2))
        e = pool.id_of(point(-2, 0, 0))
        t1 = TaggedSimplex((a, b), (c, d))
        t2 = TaggedSimplex((a, c), (b, e))
        tri = Triangulation.from_cells(pool, [t1, t2])
        assert check_pc(tri) != []

    def test_retahyco_implies_isocochange_on_random_meshes(self):
        rng = random.Random(9)
        pool, cells = kuhn_cube_cells(3)
        cells = [tuple(c) for c in cells]
        verts = sorted({v for c in cells for v in c})
        for _ in range(10):
            v0 = frozenset(v for v in verts if rng.random() < 0.4)
            tri = agk_init(
                pool, cells, VertexPartition(v0, frozenset(verts) - v0)
            )
            assert check_retahyco(tri) == []
            assert check_isocochange(tri) == []

    def test_agk_on_random_grid_meshes(self):
        """Grid triangulations with random diagonals and random partitions."""
        rng = random.Random(14)
        for _ in range(8):
            pool = VertexPool()
            grid = {
                (x, y): pool.id_of(point(x, y))
                for x in range(3)
                for y in range(3)
            }
            cells = []
            for x in range(2):
                for y in range(2):
                    a, b = grid[(x, y)], grid[(x + 1, y)]
                    c, d = grid[(x + 1, y + 1)], grid[(x, y + 1)]
                    if rng.random() < 0.5:
                        cells += [(a, b, c), (a, c, d)]
                    else:
                        cells += [(a, b, d), (b, c, d)]
            verts = sorted({v for cell in cells for v in cell})
            v0 = frozenset(v for v in verts if rng.random() < 0.5)
            tri = agk_init(
                pool, cells, VertexPartition(v0, frozenset(verts) - v0)
            )
            assert check_retahyco(tri) == []
            assert check_isocochange(tri) == []

    @pytest.mark.parametrize(
        "tags, message",
        [
            # vertex 0 horizontal at hyperlevel 0 and at hyperlevel 1
            ([((0, 1, 2), ()), ((0, 2, 3), (), 1)], "vertex 0: inconsistent hyperlevel assignment"),
            # vertex 2 horizontal (hyperlevel 0), then vertical (hyperlevel 1)
            ([((0, 1, 2), ()), ((0, 3), (2,))], "vertex 2: inconsistent hyperlevel assignment"),
            (
                [((0, 1, 2), ()), ((0, 2, 3), (), 1)],
                "cells 0 and 1: restriction hyperlevels 0 != 1",
            ),
            (
                [((0, 1, 2), ()), ((0, 3), (2,))],
                "cells 0 and 1: restrictions to [0, 2] do not coincide up to reflexion",
            ),
        ],
    )
    def test_retahyco_names_each_mismatch(self, tags, message):
        """The unit square cut along its diagonal {0, 2}, tagged to break
        the clause that ``message`` names; the mesh itself is conforming."""
        pool = VertexPool()
        assert [pool.id_of(point(*q)) for q in [(0, 0), (1, 0), (1, 1), (0, 1)]] == [0, 1, 2, 3]
        cells = [TaggedSimplex(hor, ver, 0, *h) for hor, ver, *h in tags]
        tri = Triangulation.from_cells(pool, cells)
        assert check_conforming(tri) == []
        assert message in check_retahyco(tri)

    def test_retahyco_rejects_bad_hyperlevels(self):
        pool = VertexPool()
        a = pool.id_of(point(0, 0))
        b = pool.id_of(point(1, 0))
        c = pool.id_of(point(1, 1))
        tri = Triangulation.from_cells(
            pool, [TaggedSimplex((a, b, c), (), 0, 2)]
        )
        assert check_retahyco(tri) != []
        tri2 = Triangulation.from_cells(
            pool, [TaggedSimplex((a, b), (c,), 0, 1)]
        )
        assert check_retahyco(tri2) != []


def test_cell_pairs_come_in_pair_order():
    """The pair verifiers report in the order of ``_cell_pairs``: every
    pair of leaves with a common vertex once, sorted by ``(a, b)``, not in
    the order of the vertex stars."""
    tri = kuhn_grid(2, 2)
    forest = tri.forest
    leaves = sorted(tri.leaves)
    want = [
        (a, b)
        for i, a in enumerate(leaves)
        for b in leaves[i + 1 :]
        if set(forest.tarray(a).vertex_ids) & set(forest.tarray(b).vertex_ids)
    ]
    got = [(a, b) for a, b, *_ in _cell_pairs(tri)]
    assert got == want
