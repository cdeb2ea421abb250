import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from bisectmesh import Triangulation, VertexPool, kuhn, refinement_edge
from bisectmesh.exactgeom import DyadicPoint
from bisectmesh.forest import finer, overlay, underlay
from bisectmesh.harness import STRATEGIES, run_sequence
from bisectmesh.meshio import mesh_hash, read_mesh, write_mesh
from bisectmesh.refine import (
    check_conforming, check_conforming_2d_exact, hyperlevel_uniform_refine,
    quasi_uniform_refine, refine, uniform_refine,
)
from conftest import kuhn_cube_mesh, kuhn_square, leaf_volume, single_kuhn, staircase_mesh
from lemmas import closure01, forest_size_identity, tower, verify_forest_characterisation


class TestCountingIdentity:
    def test_initial(self, square):
        assert forest_size_identity(square) == (0, 0, 0)

    def test_one_bisection(self, square):
        square.bisect_leaf(next(iter(square.leaves)))
        assert forest_size_identity(square) == (1, 1, 1)

    def test_random_runs_against_recount(self):
        rng = random.Random(5)
        tri = kuhn_square()
        for _ in range(40):
            refine(tri, rng.choice(sorted(tri.leaves)))
            a, b, c = forest_size_identity(tri)
            assert a == b == c
            # independent recount straight from the definition
            nodes = tri.node_set()
            roots = set(tri.forest.roots)
            leaves = tri.leaves
            assert a == len(leaves) - len(roots)
            assert b == sum(1 for x in nodes if x not in leaves)
            assert c == len(nodes - roots) / 2

    def test_odd_nonroot_count_is_minus_one(self, square):
        """A leaf set holding one child of a root but not its sibling has an
        odd number of non-root nodes, which no refinement gives."""
        root, other = square.forest.roots
        child, _ = square.forest.ensure_children(root)
        assert forest_size_identity(Triangulation(square.forest, [child, other])) == (0, 1, -1)

    def test_bisect_leaf_rejects_a_non_leaf(self, square):
        root = min(square.leaves)
        square.bisect_leaf(root)
        with pytest.raises(ValueError, match=f"^node {root} is not a leaf of this triangulation$"):
            square.bisect_leaf(root)


class TestFiner:
    def test_reflexive(self, square):
        assert finer(square, square)

    def test_refined_is_finer(self, square):
        refined = square.copy()
        refine(refined, min(refined.leaves))
        assert finer(refined, square)
        assert not finer(square, refined)

    def test_incomparable_single_bisections(self):
        tri = kuhn_square()
        a = tri.copy()
        b = tri.copy()
        la, lb = sorted(tri.leaves)
        a.bisect_leaf(la)
        b.bisect_leaf(lb)
        assert not finer(a, b)
        assert not finer(b, a)

    def test_root_mismatch_rejected(self):
        p, q = kuhn_square(), kuhn_square()
        with pytest.raises(ValueError):
            finer(p, q)


class TestOverlayUnderlay:
    def test_identity_laws(self, square):
        assert overlay(square, square).leaves == square.leaves
        assert underlay(square, square).leaves == square.leaves

    def test_overlay_with_initial(self, square):
        refined = square.copy()
        refine(refined, min(refined.leaves))
        assert overlay(square, refined).leaves == refined.leaves
        assert underlay(square, refined).leaves == square.leaves

    def test_lattice_absorption(self):
        rng = random.Random(11)
        base = kuhn_square()
        p = base.copy()
        q = base.copy()
        for _ in range(5):
            refine(p, rng.choice(sorted(p.leaves)))
            refine(q, rng.choice(sorted(q.leaves)))
        assert overlay(p, underlay(p, q)).leaves == p.leaves
        ov = overlay(p, q)
        assert finer(ov, p) and finer(ov, q)
        grown = lambda t: len(t.leaves) - 2
        assert grown(ov) <= grown(p) + grown(q)

    def test_volume_conserved(self):
        rng = random.Random(3)
        p = kuhn_square()
        q = p.copy()
        for _ in range(4):
            refine(p, rng.choice(sorted(p.leaves)))
            refine(q, rng.choice(sorted(q.leaves)))
        assert leaf_volume(overlay(p, q)) == 1
        assert leaf_volume(underlay(p, q)) == 1


class TestDemands:
    def test_siblings_demand_each_other(self, square):
        leaf = min(square.leaves)
        c1, c2 = square.forest.ensure_children(leaf)
        assert c2 in closure01(square.forest, [c1])
        assert c1 in closure01(square.forest, [c2])

    def test_child_demands_parent_class(self):
        tri = kuhn_square()
        forest = tri.forest
        leaf = min(tri.leaves)
        c1, _ = forest.ensure_children(leaf)
        # leaf is a root, so its children have no ->1 targets; go one deeper
        g1, _ = forest.ensure_children(c1)
        assert c1 in closure01(forest, [g1])

    def test_closure_equals_tower(self):
        rng = random.Random(17)
        tri = kuhn_square()
        for _ in range(25):
            refine(tri, rng.choice(sorted(tri.leaves)))
        for leaf in sorted(tri.leaves)[:10]:
            child, _ = tri.forest.ensure_children(leaf)
            tw = tower(tri, child)
            cl = closure01(tri.forest, [child]) - tri.node_set()
            assert cl == tw


class TestTower:
    def test_compatible_patch(self, square):
        leaf = min(square.leaves)
        child, _ = square.forest.ensure_children(leaf)
        tw = tower(square, child)
        # both sharers of the diagonal bisect: 4 new nodes
        assert len(tw) == 4

    def test_sibling_towers_coincide(self, square):
        leaf = min(square.leaves)
        c1, c2 = square.forest.ensure_children(leaf)
        assert tower(square, c1) == tower(square, c2)

    def test_staircase_tower_grows_linearly(self):
        """The worst tower of a graded staircase grows with its length;
        values frozen from the hanging-node repair oracle (4 per stair)."""
        sizes = []
        for steps in (4, 8, 12):
            tri = staircase_mesh(steps)
            worst = 0
            for leaf in sorted(tri.leaves):
                child, _ = tri.forest.ensure_children(leaf)
                worst = max(worst, len(tower(tri, child)))
            sizes.append(worst)
        assert sizes == [10, 26, 42]

    def test_requires_child_of_leaf(self, square):
        with pytest.raises(ValueError):
            tower(square, min(square.leaves))


class TestArenaLinks:
    def test_parent_child_links_consistent(self):
        rng = random.Random(2)
        tri = kuhn_square()
        for _ in range(20):
            refine(tri, rng.choice(sorted(tri.leaves)))
        forest = tri.forest
        for nid, node in enumerate(forest.nodes):
            if node.children is not None:
                for c in node.children:
                    assert forest.nodes[c].parent == nid
            if node.parent is not None:
                assert nid in forest.nodes[node.parent].children
                assert nid > node.parent  # acyclic by construction


def scanned_sharers(tri, edge):
    """Independent oracle: the leaves holding both ends of ``edge``."""
    return {leaf for leaf in tri.leaves if edge <= set(tri.forest.tarray(leaf).vertex_ids)}


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([2, 3]),
    seed=st.integers(0, 2**32 - 1),
    rounds=st.integers(0, 8),
    unclosed=st.integers(0, 4),
)
def test_edge_sharers_match_leaf_scan(n, seed, rounds, unclosed):
    """``edge_sharers`` reads the vertex stars; after closed refinement,
    unclosed bisections (hanging nodes), ``copy`` and overlay/underlay it
    must equal a scan of the leaves, for every leaf edge and for every
    bisected edge, and hand out a set the caller may change."""
    rng = random.Random(seed)
    p = kuhn_square() if n == 2 else kuhn_cube_mesh(3)
    q = p.copy()
    for _ in range(rounds):
        refine(p, rng.choice(sorted(p.leaves)))
        refine(q, rng.choice(sorted(q.leaves)))
    for _ in range(unclosed):
        p.bisect_leaf(rng.choice(sorted(p.leaves)))
    forest = p.forest
    bisected = {refinement_edge(node.tarray) for node in forest.nodes if node.children}
    for tri in (p, q, p.copy(), overlay(p, q), underlay(p, q)):
        leaf_edges = {e for leaf in tri.leaves for e in forest.tarray(leaf).edges()}
        for edge in leaf_edges | bisected:
            want = scanned_sharers(tri, edge)
            got = tri.edge_sharers(edge)
            assert got == want
            got.add(-1)
            assert tri.edge_sharers(edge) == want


def assert_stars_fresh(tri):
    """The stars kept through bisection are those a fresh index of the leaves
    builds, compared as an unordered map, and none is empty."""
    assert tri.vertex_index == Triangulation(tri.forest, tri.leaves).vertex_index
    assert all(tri.vertex_index.values())


STAR_MESHES = {
    "square": (kuhn_square, 4, 6),
    "cube-3": (lambda: kuhn_cube_mesh(3), 1, 3),
    "kuhn-4-simplex": (lambda: single_kuhn(4), 1, 2),
}


@pytest.mark.parametrize("name", sorted(STAR_MESHES))
class TestKeptStars:
    """:meth:`Triangulation.bisect_leaf` discards a bisected leaf from its
    stars and never deletes a key, so no star may stay behind empty or
    differ from a fresh index, after any way of refining."""

    def test_refine_rounds(self, name):
        make = STAR_MESHES[name][0]
        for seed in range(3):
            rng = random.Random(seed)
            tri = make()
            for _ in range(12):
                refine(tri, rng.choice(sorted(tri.leaves)))
                assert_stars_fresh(tri)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_run_sequence(self, name, strategy):
        tri = STAR_MESHES[name][0]()
        run_sequence(tri, strategy, 15, seed=3)
        assert_stars_fresh(tri)

    def test_sweeps(self, name):
        make, j, uniform_rounds = STAR_MESHES[name]
        sweeps = [
            lambda tri: hyperlevel_uniform_refine(tri, j),
            lambda tri: [uniform_refine(tri) for _ in range(uniform_rounds)],
            quasi_uniform_refine,
        ]
        for sweep in sweeps:
            tri = make()
            sweep(tri)
            assert len(tri.leaves) > len(tri.forest.roots)
            assert_stars_fresh(tri)


class TestStarsOnFirstUse:
    """The stars are built the first time ``vertex_index`` is read."""

    def test_copy_of_built_stars(self):
        """A copy takes one new set per star, equal to a fresh index, and
        bisecting the copy leaves the source's stars and leaves as they
        were."""
        rng = random.Random(8)
        tri = kuhn_cube_mesh(3)
        for _ in range(6):
            refine(tri, rng.choice(sorted(tri.leaves)))
        leaves = set(tri.leaves)
        stars = {v: set(star) for v, star in tri.vertex_index.items()}
        twin = tri.copy()
        assert twin._stars is not None
        assert twin.vertex_index == Triangulation(tri.forest, tri.leaves).vertex_index
        assert all(twin.vertex_index[v] is not star for v, star in tri.vertex_index.items())
        for _ in range(6):
            refine(twin, rng.choice(sorted(twin.leaves)))
        twin.bisect_leaf(min(twin.leaves))
        assert tri.leaves == leaves and tri.vertex_index == stars
        assert_stars_fresh(twin)

    def test_copy_of_unbuilt_stars_stays_lazy(self):
        tri = kuhn_square()
        twin = tri.copy()
        assert twin._stars is None
        twin.bisect_leaf(min(twin.leaves))
        assert twin._stars is None and tri._stars is None
        assert_stars_fresh(twin)

    def test_loads_hashes_overlays_and_scans_build_none(self, tmp_path, monkeypatch):
        """``read_mesh``, ``mesh_hash``, ``overlay``, ``underlay`` and both
        conformity scans take their vertices from the leaves."""
        rng = random.Random(3)
        p = kuhn_square()
        q = Triangulation(p.forest, p.forest.roots)
        cube = kuhn_cube_mesh(3)
        for _ in range(10):
            refine(p, rng.choice(sorted(p.leaves)))
            refine(q, rng.choice(sorted(q.leaves)))
            refine(cube, rng.choice(sorted(cube.leaves)))
        write_mesh(tmp_path / "p.json", p)
        write_mesh(tmp_path / "cube.json", cube)
        calls = []
        index_leaf = Triangulation._index_leaf

        def counted(self, nid):
            calls.append(nid)
            index_leaf(self, nid)

        monkeypatch.setattr(Triangulation, "_index_leaf", counted)
        plane = [read_mesh(tmp_path / "p.json")[0], overlay(p, q), underlay(p, q)]
        for tri in plane:
            mesh_hash(tri)
            assert check_conforming(tri) == []
            assert check_conforming_2d_exact(tri) == []
        loaded = read_mesh(tmp_path / "cube.json")[0]
        mesh_hash(loaded)
        assert check_conforming(loaded) == []
        assert calls == []
        assert all(tri._stars is None for tri in [*plane, loaded])


class TestCharacterisation:
    def test_initial_passes(self, square):
        assert verify_forest_characterisation(square) == []

    def test_refined_passes(self):
        rng = random.Random(23)
        for n_rounds in (5, 15):
            tri = kuhn_square()
            for _ in range(n_rounds):
                refine(tri, rng.choice(sorted(tri.leaves)))
            assert verify_forest_characterisation(tri) == []

    def test_removed_pair_fails(self):
        rng = random.Random(29)
        tri = kuhn_square()
        for _ in range(10):
            refine(tri, rng.choice(sorted(tri.leaves)))
        forest = tri.forest
        nodes = tri.node_set()
        # drop a leaf pair whose new vertex also created other cells: the
        # remaining classmates expose the hole
        for u in sorted(nodes):
            ch = forest.nodes[u].children
            if ch is None or not set(ch) <= tri.leaves:
                continue
            vn = forest.nodes[ch[0]].v_new
            classmates = [
                wid
                for wid, w in enumerate(forest.nodes)
                if w.v_new == vn and wid not in ch and wid in nodes
            ]
            if classmates:
                broken = Triangulation(forest, (tri.leaves - set(ch)) | {u})
                assert verify_forest_characterisation(broken) != []
                return
        pytest.fail("no removable sibling pair with classmates found")


def offset_cube(n, rng):
    """The Kuhn n-cube translated by a seeded offset in halves, so that
    refinement soon leaves vertices over several exponents."""
    pool = VertexPool()
    offset = DyadicPoint([Fraction(rng.randrange(-64, 65), 2) for _ in range(n)])
    cells = [
        kuhn(list(perm), [1] * n, pool, offset=offset)
        for perm in permutations(range(1, n + 1))
    ]
    return Triangulation.from_cells(pool, cells)


def refined(tri, rounds, rng):
    for _ in range(rounds):
        refine(tri, rng.choice(sorted(tri.leaves)))
    return tri


class TestTotalVolume:
    """The leaves of a refined offset unit cube, over different exponents,
    fill the cube: their exact volumes add up to 1."""

    @staticmethod
    def check(tri):
        pool = tri.forest.pool
        exps = {max(p.exp for p in t.vertices(pool)) for t in tri.cells()}
        assert len(exps) > 1  # the leaves' rows are over different exponents
        assert leaf_volume(tri) == 1

    @pytest.mark.parametrize("n, rounds", [(2, 40), (3, 25), (4, 20)])
    def test_offset_cubes(self, n, rounds):
        rng = random.Random(n)
        self.check(refined(offset_cube(n, rng), rounds, rng))

    def test_overlay(self):
        rng = random.Random(5)
        p = offset_cube(3, rng)
        q = refined(Triangulation(p.forest, p.forest.roots), 15, rng)
        refined(p, 15, rng)
        self.check(overlay(p, q))
