import dataclasses
import hashlib
import importlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bisectmesh import Triangulation, VertexPool, kuhn
from bisectmesh import exactgeom, forest as forest_mod, harness, meshio, tarray
from bisectmesh.exactgeom import DyadicPoint, midpoint, simplex_volume
from bisectmesh.harness import (
    SequenceError,
    ShapeCensus,
    Trace,
    compute_constants,
    c_iso,
    c_sic,
    run_sequence,
    shape_census,
    unit_ball_volume,
    verify_bdv,
)
from bisectmesh.cli import main
from bisectmesh.inittags import VertexPartition, agk_init
from bisectmesh.meshio import write_mesh
from bisectmesh.refine import check_conforming, refine
from bisectmesh.tarray import TaggedSimplex, refinement_edge

from conftest import (
    agk_cube,
    frac_diam_sq,
    frac_offset,
    frac_sq_dist,
    fractions_of,
    kuhn_cube_mesh,
    kuhn_square,
    point,
    scaled_point,
    single_kuhn,
)
from lemmas import hyperlevel_ancestor_vertices, tower, tower_patch_spotcheck


def half_kuhn_mesh(n):
    """One half-scaled Kuhn simplex of full type and hyperlevel 1."""
    pool = VertexPool()
    k = kuhn(list(range(1, n + 1)), [1] * n, pool)
    half_ids = tuple(pool.id_of(scaled_point(pool.point(v), Fraction(1, 2))) for v in k.vertex_ids)
    return Triangulation.from_cells(pool, [TaggedSimplex(half_ids, (), 0, 1)])


class TestVolumeFloors:
    def test_d_examples(self):
        assert compute_constants(single_kuhn(2)).d == Fraction(1, 2)
        assert compute_constants(single_kuhn(3)).d == Fraction(1, 6)
        assert compute_constants(single_kuhn(4)).d == Fraction(1, 24)

    def test_d_scales_with_mesh(self):
        pool = VertexPool()
        ids = [
            pool.id_of(point(0, 0)),
            pool.id_of(point(3, 0)),
            pool.id_of(point(3, 3)),
        ]
        tri = Triangulation.from_cells(pool, [TaggedSimplex(tuple(ids), ())])
        assert compute_constants(tri).d == Fraction(9, 2)  # 3^n times the unit value

    def test_d_invariant_under_refinement(self):
        tri = kuhn_square()
        d0 = compute_constants(tri).d
        rng = random.Random(1)
        for _ in range(10):
            refine(tri, rng.choice(sorted(tri.leaves)))
        assert compute_constants(tri).d == d0

    def test_d_iso_invariant_along_tree(self):
        pool = VertexPool()
        s = kuhn([1, 2, 3], [1, 1, 1], pool)
        from bisectmesh.tarray import bisect
        from bisectmesh.exactgeom import simplex_volume

        def value(t):
            n = t.dim
            return (
                Fraction(2) ** (n * t.hyperlevel + n - t.type)
                * simplex_volume(t.vertices(pool))
            )

        base = value(s)
        cur = s
        for _ in range(7):
            cur, other, _ = bisect(cur, pool)
            assert value(cur) == base
            assert value(other) == base


class TestDistanceCeilings:
    def test_census_sic_values(self):
        for n, expected_sq in ((2, 1), (3, 2), (4, 3)):
            tri = single_kuhn(n)
            consts = compute_constants(tri)
            assert consts.settled
            assert consts.D_squared == expected_sq

    def test_census_iso_values(self):
        for n, expected_sq in ((2, 2), (3, 3), (4, 4)):
            tri = half_kuhn_mesh(n)
            consts = compute_constants(tri)
            assert consts.D_iso_squared == expected_sq

    def test_settling_generations(self):
        """Frozen from the closure enumeration: the class set of one Kuhn
        simplex stops growing after these breadth-first generations."""
        got = {}
        for n in (2, 3, 4):
            tri = single_kuhn(n)
            census = shape_census(
                tri.forest.tarray(tri.forest.roots[0]), tri.forest.pool, {}
            )
            assert census.settled
            got[n] = census.generations
        assert got == {2: 6, 3: 11, 4: 16}

    def test_census_on_skewed_cell(self):
        pool = VertexPool()
        ids = [
            pool.id_of(point(0, 0)),
            pool.id_of(point(4, 0)),
            pool.id_of(point(3, 2)),
        ]
        tri = Triangulation.from_cells(pool, [TaggedSimplex(tuple(ids), ())])
        consts = compute_constants(tri)
        assert consts.settled
        # ceiling must dominate the value observed on sampled descendants
        rng = random.Random(3)
        from bisectmesh.tarray import bisect

        cur = tri.forest.tarray(tri.forest.roots[0])
        for _ in range(12):
            c1, c2, vnew = bisect(cur, pool)
            cur = c1 if rng.random() < 0.5 else c2
            far = max(frac_sq_dist(pool.point(vnew), p) for p in cur.vertices(pool))
            v_2n = (Fraction(2) ** (2 * cur.level)) * far**2
            assert v_2n <= consts.D_pow_2n


def exact_nth_root(value: Fraction, k: int):
    """The k-th root of ``value >= 0`` if it is rational, else None."""

    def iroot(x: int):
        if x < 2:
            return x
        # Integer Newton iteration from above ends at floor(x ** (1/k)).
        r = 1 << ((x.bit_length() + k - 1) // k)
        while True:
            nr = ((k - 1) * r + x // r ** (k - 1)) // k
            if nr >= r:
                break
            r = nr
        return r if r**k == x else None

    num, den = iroot(value.numerator), iroot(value.denominator)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def reference_shape_census(root, pool, max_generations=400, max_classes=500_000):
    """Reference census on points: values every child of every generation,
    also when its class is already seen, with ``c0`` and the hyperlevel
    scale in each child's value.  Shapes are point tuples, bisected by
    midpoints and keyed by their offsets from the first point; distances
    are Fraction sums.  D^2 is the exact rational n-th root of the best
    value, where there is one."""
    n = root.dim
    pts = [pool.point(v) for v in root.vertex_ids]
    volume = simplex_volume(pts)
    c0 = Fraction(2) ** root.level * volume if n else Fraction(0)
    iso_scale_sq = Fraction(4) ** root.hyperlevel
    best_iso = iso_scale_sq * frac_diam_sq(pts)
    best_v = Fraction(0)
    seen = {(root.type, tuple(frac_offset(p, pts[0]) for p in pts[1:]))}
    frontier = [(root.type, tuple(pts))]
    generations = 0
    while frontier and generations < max_generations and len(seen) < max_classes:
        generations += 1
        next_frontier = []
        for t, shape in frontier:
            if t == 0:
                shape = tuple(scaled_point(p, 2) for p in shape)
                t = n
            new = midpoint(shape[0], shape[t])
            rest = (new, *shape[t + 1 :])
            for child in (shape[1 : t + 1] + rest, shape[:t] + rest):
                d_sq = max(frac_sq_dist(new, p) for p in child)
                vol = simplex_volume(child)
                value = c0**2 * d_sq**n / vol**2
                if value > best_v:
                    best_v = value
                iso = iso_scale_sq * max(
                    frac_sq_dist(a, b) for i, a in enumerate(child) for b in child[i + 1 :]
                )
                if iso > best_iso:
                    best_iso = iso
                key = (t - 1, tuple(frac_offset(p, child[0]) for p in child[1:]))
                if key not in seen:
                    seen.add(key)
                    next_frontier.append((t - 1, child))
        frontier = next_frontier
    return ShapeCensus(
        classes=len(seen),
        generations=generations,
        settled=not frontier,
        volume=volume,
        max_v_pow_2n=best_v,
        max_d_sq=exact_nth_root(best_v, n),
        max_iso_sq=best_iso,
    )


def offset_square(seed):
    """The Kuhn square translated by a seeded dyadic offset."""
    rng = random.Random(seed)
    pool = VertexPool()
    offset = DyadicPoint(
        [Fraction(rng.randrange(-64, 65), 1 << rng.randrange(0, 12)) for _ in range(2)]
    )
    cells = [kuhn(perm, [1, 1], pool, offset=offset) for perm in ([1, 2], [2, 1])]
    return Triangulation.from_cells(pool, cells)


def skewed_cell():
    pool = VertexPool()
    ids = [pool.id_of(point(0, 0)), pool.id_of(point(4, 0)), pool.id_of(point(3, 2))]
    return Triangulation.from_cells(pool, [TaggedSimplex(tuple(ids), ())])


def uneven_pair():
    """A unit right triangle and, sharing its hypotenuse, a larger obtuse
    one: the roots differ in volume and shape, and the second root sets
    the distance ceiling."""
    pool = VertexPool()
    a, b, c, d = (pool.id_of(point(*q)) for q in ((0, 0), (1, 0), (0, 1), (4, 0)))
    cells = [TaggedSimplex((a, b, c), ()), TaggedSimplex((b, d, c), ())]
    return Triangulation.from_cells(pool, cells)


def refined_square_roots():
    """The leaves of a graded Kuhn square as the roots of a new mesh, so
    that roots of one mesh carry different levels."""
    tri = kuhn_square()
    rng = random.Random(4)
    for _ in range(6):
        refine(tri, rng.choice(sorted(tri.leaves)))
    forest = tri.forest
    cells = [forest.tarray(leaf) for leaf in sorted(tri.leaves)]
    return Triangulation.from_cells(forest.pool, cells)


def seeded_root(n, t, seed=None):
    """A seeded root of dimension ``n`` and type ``t`` with small integer and
    dyadic vertices (numerators -6..6 over 1, 2 or 4), in a pool of its own.
    Its hyperlevel ``t % 3`` and level ``(n + t) % 4`` cover 0-2 and 0-3
    over the types of n = 2, 3, 4; the seed defaults to ``100 n + t``."""
    rng = random.Random(100 * n + t if seed is None else seed)
    while True:
        pts = [
            DyadicPoint([Fraction(rng.randrange(-6, 7), 1 << rng.randrange(3)) for _ in range(n)])
            for _ in range(n + 1)
        ]
        if simplex_volume(pts):
            break
    pool = VertexPool()
    ids = tuple(pool.id_of(p) for p in pts)
    return TaggedSimplex(ids[: t + 1], ids[t + 1 :], (n + t) % 4, t % 3), pool


# Seeds 2-5 give agk cubes with type-0 roots (2, 3, 4) and hyperlevel-1
# roots (4, 5), beside type-1/2/3 roots of hyperlevel 0.
CENSUS_CORPUS = (
    [(f"kuhn-{n}", lambda n=n: single_kuhn(n)) for n in (1, 2, 3, 4)]
    + [(f"cube-{n}", lambda n=n: kuhn_cube_mesh(n)) for n in (2, 3)]
    + [(f"agk-{s}", lambda s=s: agk_cube(s)) for s in (2, 3, 4, 5)]
    + [("offset-square", lambda: offset_square(7)), ("skewed", skewed_cell)]
    + [("uneven-pair", uneven_pair), ("graded-square", refined_square_roots)]
)


class TestCensusOracle:
    @pytest.mark.parametrize("name, make", CENSUS_CORPUS)
    def test_census_and_constants_match_reference(self, name, make, monkeypatch):
        tri = make()
        forest = tri.forest
        roots = [forest.tarray(r) for r in forest.roots]
        refs = [reference_shape_census(root, forest.pool) for root in roots]
        assert [shape_census(root, forest.pool, {}) for root in roots] == refs
        got = compute_constants(tri)
        assert got.D_pow_2n == max(c.max_v_pow_2n for c in refs)
        assert got.D_iso_squared == max(c.max_iso_sq for c in refs)
        assert got.classes == sum(c.classes for c in refs)
        monkeypatch.setattr(
            harness,
            "shape_census",
            lambda root, pool, memo: reference_shape_census(root, pool),
        )
        assert got == compute_constants(tri)

    def test_agk_corpus_covers_type0_and_hyperlevel1_roots(self):
        kinds = set()
        for seed in (2, 3, 4, 5):
            forest = agk_cube(seed).forest
            kinds |= {
                (forest.tarray(r).type == 0, forest.tarray(r).hyperlevel)
                for r in forest.roots
            }
        assert (True, 0) in kinds and (False, 1) in kinds

    @pytest.mark.parametrize("n, t", [(n, t) for n in (2, 3, 4) for t in range(n + 1)])
    def test_seeded_roots_match_reference(self, n, t):
        """Roots that are no Kuhn simplex, of every type, level and
        hyperlevel: a key left unreduced adds classes.  A settled walk
        reaches each maximum through several classes, so the terms of a
        single parent show only in the capped case below."""
        root, pool = seeded_root(n, t)
        got = shape_census(root, pool, {})
        assert got.settled
        assert got == reference_shape_census(root, pool)

    @pytest.mark.parametrize(
        "make, caps",
        [
            (lambda: single_kuhn(4), {"max_generations": 5}),
            (lambda: single_kuhn(3), {"max_classes": 20}),
            (lambda: agk_cube(4), {"max_generations": 3}),
            (lambda: agk_cube(5), {"max_classes": 30}),
        ],
    )
    def test_capped_certificates_match_reference(self, make, caps, monkeypatch):
        for name, cap in caps.items():
            monkeypatch.setattr(harness, f"_{name.upper()}", cap)
        forest = make().forest
        for r in forest.roots:
            root = forest.tarray(r)
            got = shape_census(root, forest.pool, {})
            assert not got.settled
            assert got == reference_shape_census(root, forest.pool, **caps)

    @pytest.mark.parametrize("seed", [0, 16])
    def test_capped_seeded_roots_match_reference(self, seed, monkeypatch):
        """One generation of a type-0 triangle: its children are valued
        before any later class ties their maxima, so the far distance to
        the refinement edge's ends and the diameter pairs through a kept
        edge end show (seed 0 has its diameter through vertex 0, seed 16
        through vertex n)."""
        monkeypatch.setattr(harness, "_MAX_GENERATIONS", 1)
        root, pool = seeded_root(2, 0, seed)
        got = shape_census(root, pool, {})
        assert not got.settled
        assert got == reference_shape_census(root, pool, max_generations=1)


KEYED_ROOTS = [(f"kuhn-{n}", lambda n=n: single_kuhn(n)) for n in (2, 3, 4)] + [
    (f"agk-{s}", lambda s=s: agk_cube(s)) for s in (2, 3, 4, 5)
]
_root_censuses = {}


def _keyed_root(name, index):
    """Root ``index`` (modulo the root count) of a ``KEYED_ROOTS`` mesh and
    its census, computed once per root."""
    if (name, index) not in _root_censuses:
        forest = dict(KEYED_ROOTS)[name]().forest
        r = forest.roots[index % len(forest.roots)]
        root = forest.tarray(r)
        census = shape_census(root, forest.pool, {})
        _root_censuses[name, index] = (root, forest.pool, census)
    return _root_censuses[name, index]


def _moved(root, pool, k, shift):
    """``root`` with every vertex scaled by ``2**k`` and then translated by
    ``shift``, in a pool of its own."""
    moved_pool = VertexPool()
    ids = [moved_pool.id_of(scaled_point(pool.point(v), 2**k, shift)) for v in root.vertex_ids]
    h = len(root.horizontal)
    return (
        TaggedSimplex(tuple(ids[:h]), tuple(ids[h:]), root.level, root.hyperlevel),
        moved_pool,
    )


DYADIC_OFFSETS = st.lists(
    st.builds(
        lambda num, e: Fraction(num, 1 << e),
        st.integers(-(2**12), 2**12),
        st.integers(0, 12),
    ),
    min_size=4,
    max_size=4,
)


class TestCensusKey:
    """The census keys a class by its offsets over a power of two: a
    translate of a root has the same census, a stretched root the same
    classes with every value scaled."""

    @settings(max_examples=15, deadline=None)
    @given(
        st.sampled_from([name for name, _ in KEYED_ROOTS]),
        st.integers(0, 5),
        DYADIC_OFFSETS,
        st.integers(1, 3),
    )
    def test_translation_leaves_census_equal(self, name, index, offset, k):
        root, pool, base = _keyed_root(name, index)
        n = root.dim
        shift = offset[:n]
        assert shape_census(*_moved(root, pool, 0, shift), {}) == base
        stretched = shape_census(*_moved(root, pool, k, shift), {})
        assert (stretched.classes, stretched.generations, stretched.settled) == (
            base.classes,
            base.generations,
            base.settled,
        )
        assert stretched.max_iso_sq == 4**k * base.max_iso_sq
        assert stretched.max_v_pow_2n == 4 ** (k * n) * base.max_v_pow_2n

    @settings(max_examples=15, deadline=None)
    @given(
        st.sampled_from([name for name, _ in KEYED_ROOTS]),
        st.integers(0, 5),
        st.permutations(range(4)),
        st.lists(st.sampled_from([1, -1]), min_size=4, max_size=4),
        DYADIC_OFFSETS,
    )
    def test_signed_permutation_leaves_census_equal(
        self, name, index, order, signs, offset
    ):
        """The lemma behind the memo of ``compute_constants``: a root moved
        by a signed coordinate permutation and a dyadic translation has an
        equal census."""
        root, pool, base = _keyed_root(name, index)
        n = root.dim
        perm = [i for i in order if i < n]
        shift = offset[:n]
        moved_pool = VertexPool()
        ids = []
        for v in root.vertex_ids:
            coords = fractions_of(pool.point(v))
            image = DyadicPoint([s * coords[i] for s, i in zip(signs, perm)])
            ids.append(moved_pool.id_of(scaled_point(image, 1, shift)))
        h = len(root.horizontal)
        moved = TaggedSimplex(tuple(ids[:h]), tuple(ids[h:]), root.level, root.hyperlevel)
        assert shape_census(moved, moved_pool, {}) == base


class TestCensusMemo:
    def test_kuhn_4_cube_roots_share_one_census(self):
        forest = kuhn_cube_mesh(4).forest
        roots = [forest.tarray(r) for r in forest.roots]
        memo = {}
        censuses = [shape_census(root, forest.pool, memo=memo) for root in roots]
        assert len(roots) == 24 and len(memo) == 1
        assert censuses == [shape_census(roots[0], forest.pool, {})] * 24

    # agk seeds 2-5 are compared with unmemoized reference censuses in
    # TestCensusOracle
    @pytest.mark.parametrize("seed", [0, 1, 6, 7])
    def test_memo_leaves_constants_equal(self, seed, monkeypatch):
        tri = agk_cube(seed)
        got = compute_constants(tri)
        unmemoized = shape_census
        monkeypatch.setattr(
            harness,
            "shape_census",
            lambda root, pool, memo: unmemoized(root, pool, {}),
        )
        assert got == compute_constants(tri)

    def test_key_separates_what_the_census_depends_on(self):
        """Changing the type, level, hyperlevel or exponent of a root gives a
        new memo entry with the unmemoized census; a reflected copy shares
        the entry."""
        pool = VertexPool()
        root = kuhn([1, 2, 3], [1, 1, 1], pool)
        ids = root.vertex_ids
        pts = [pool.point(v) for v in ids]
        mirrored = tuple(pool.id_of(DyadicPoint([-p.nums[0], *p.nums[1:]])) for p in pts)
        halved = tuple(pool.id_of(scaled_point(p, Fraction(1, 2))) for p in pts)
        variants = [
            (TaggedSimplex(mirrored, ()), 1),
            (TaggedSimplex(ids[:3], ids[3:]), 2),
            (TaggedSimplex(ids, (), 1, 0), 3),
            (TaggedSimplex(ids, (), 0, 1), 4),
            (TaggedSimplex(halved, ()), 5),
        ]
        memo = {}
        assert shape_census(root, pool, memo=memo) == shape_census(root, pool, {})
        for variant, entries in variants:
            assert shape_census(variant, pool, memo=memo) == shape_census(variant, pool, {})
            assert len(memo) == entries


class TestCensusMeasures:
    """The census reports the root's volume and D^2, which
    :func:`compute_constants` reads instead of measuring them again."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_volume_and_d_squared_on_seeded_roots(self, n):
        """Seeded roots of every type at seeded levels and hyperlevels.  The
        n-th root of ``far**n * 2**e`` is rational exactly when n divides e;
        for n <= 2 it always is, for n = 3 and 4 both kinds occur."""
        rng = random.Random(n)
        kinds = set()
        for _ in range(12):
            root, pool = seeded_root(n, rng.randrange(n + 1), rng.randrange(10**6))
            root = TaggedSimplex(root.horizontal, root.vertical, rng.randrange(8), rng.randrange(4))
            got = shape_census(root, pool, {})
            assert got.volume == simplex_volume(root.vertices(pool))
            assert got.max_d_sq == exact_nth_root(got.max_v_pow_2n, n)
            kinds.add(got.max_d_sq is None)
        assert kinds == ({False} if n <= 2 else {False, True})

    @pytest.mark.parametrize(
        "make",
        [kuhn_square, lambda: kuhn_cube_mesh(3), lambda: agk_cube(2)],
        ids=["kuhn-square", "kuhn-cube-3", "agk-2"],
    )
    def test_one_volume_per_census_class(self, make, monkeypatch):
        """``compute_constants`` takes one determinant per memo entry, the
        census's zero test, and none of its own; congruent roots share it."""
        calls = []
        monkeypatch.setattr(
            harness, "simplex_volume", lambda pts: calls.append(pts) or simplex_volume(pts)
        )
        memos = []
        census = harness.shape_census
        monkeypatch.setattr(
            harness,
            "shape_census",
            lambda root, pool, memo: memos.append(memo) or census(root, pool, memo),
        )
        tri = make()
        compute_constants(tri)
        assert len(calls) == len(memos[0]) < len(tri.forest.roots)


def test_zero_volume_root_is_rejected():
    pool = VertexPool()
    ids = tuple(pool.id_of(point(*q)) for q in ((0, 0), (1, 1), (2, 2)))
    memo = {}
    with pytest.raises(ValueError, match="zero volume"):
        shape_census(TaggedSimplex(ids, ()), pool, memo=memo)
    assert not memo


class TestExactNthRoot:
    """The oracle behind the census's D^2."""

    @given(st.integers(0, 10**40), st.integers(1, 4))
    def test_recovers_exact_roots(self, q, k):
        assert exact_nth_root(Fraction(q**k), k) == q
        if k >= 2 and q >= 1:
            assert exact_nth_root(Fraction(q**k + 1), k) is None

    @given(st.integers(0, 10**30), st.integers(1, 10**30), st.integers(2, 4))
    def test_recovers_fraction_roots(self, p, q, k):
        assert exact_nth_root(Fraction(p, q) ** k, k) == Fraction(p, q)

    def test_large_square_keeps_exact_d_squared(self):
        assert exact_nth_root(Fraction(3**80, 25), 2) == Fraction(3**40, 5)


class TestConstants:
    def test_sic_table(self):
        rows = {
            2: (37, 36.6),
            3: (4100, 4.1e3),
            4: (840_000, 8.4e5),
        }
        for n, (ceiling, approx) in rows.items():
            consts = compute_constants(single_kuhn(n))
            assert consts.C_sic <= ceiling
            assert abs(consts.C_sic - approx) <= 0.02 * approx

    def test_iso_table(self):
        rows = {
            2: (64, 1.8e4),
            3: (512, 5.9e6),
            4: (65_536, 4.1e10),
        }
        for n, (factor, approx) in rows.items():
            consts = compute_constants(half_kuhn_mesh(n))
            assert consts.first_summand_factor == factor
            assert abs(consts.C_iso - approx) <= 0.05 * approx

    def test_monotonicity_in_d_and_D(self):
        base = c_sic(Fraction(1, 2), 1.0, 2)
        assert c_sic(Fraction(1, 2), 1.1, 2) > base
        assert c_sic(Fraction(1, 4), 1.0, 2) > base
        ci, _ = c_iso(Fraction(1, 2), 1.0, 2)
        assert c_iso(Fraction(1, 2), 1.2, 2)[0] > ci
        assert c_iso(Fraction(1, 8), 1.0, 2)[0] > ci

    def test_c_iso_overflowing_power_is_inf(self):
        """Float ``**`` raises OverflowError where ``*`` and ``/`` give inf;
        D_iso^3 overflows here although D_iso^3 / d_iso would not."""
        with pytest.raises(OverflowError):
            (2.0**400) ** 3
        assert c_iso(Fraction(2**200), 2.0**400, 3) == (math.inf, 512)

    def test_closure_owns_the_mode_rule(self):
        consts = compute_constants(kuhn_square())
        assert harness.MODES == ("sic", "iso")
        assert consts.closure("sic") == (consts.C_sic, 1)
        assert consts.closure("iso") == (consts.C_iso, consts.first_summand_factor)
        with pytest.raises(ValueError, match="^unknown mode 'nonsense'$"):
            consts.closure("nonsense")

    def test_unit_ball_volumes(self):
        assert unit_ball_volume(2) == pytest.approx(math.pi)
        assert unit_ball_volume(3) == pytest.approx(4 / 3 * math.pi)
        assert unit_ball_volume(4) == pytest.approx(math.pi**2 / 2)


class TestRunSequence:
    def test_single_mark_on_compatible_patch(self, square):
        trace = run_sequence(square, "max-level-leaf", 1, seed=0)
        assert trace.rows[0][2] == 2  # both diagonal sharers bisect

    def test_every_strategy_produces_valid_traces(self, square):
        for strategy in (
            "random-leaf",
            "max-level-leaf",
            "staircase-adversary",
            "quasitower-adversary",
        ):
            tri = kuhn_square()
            trace = run_sequence(tri, strategy, 25, seed=5)
            assert trace.rounds == 25
            assert trace.max_jump <= 4
            counts = [row[3] for row in trace.rows]
            assert counts == sorted(counts)

    def test_trace_csv(self, square):
        trace = run_sequence(square, "random-leaf", 5, seed=1)
        lines = trace.csv_lines(36.7)
        assert lines[0].startswith("round,marked_cell,")
        assert len(lines) == 6

    def test_verify_bdv_modes(self):
        tri = kuhn_square()
        consts = compute_constants(tri)
        trace = run_sequence(tri, "random-leaf", 60, seed=2)
        assert verify_bdv(trace, consts, "sic") == []
        with pytest.raises(ValueError):
            verify_bdv(trace, consts, "nonsense")

    def test_unknown_strategy_is_refused(self, square):
        with pytest.raises(ValueError, match="^unknown strategy 'nonsense'$"):
            run_sequence(square, "nonsense", 3)
        assert len(square.leaves) == 2

    def test_per_round_growth_equals_tower_size(self):
        """Cross-check a sample of rounds against the tower of the marked
        cell's child: cells added = half the tower's node count."""
        rng = random.Random(10)
        tri = kuhn_square()
        for rnd in range(40):
            marked = rng.choice(sorted(tri.leaves))
            expected = None
            if rnd % 7 == 0:
                child, _ = tri.forest.ensure_children(marked)
                expected = len(tower(tri, child)) // 2
            before = len(tri.leaves)
            refine(tri, marked)
            if expected is not None:
                assert len(tri.leaves) - before == expected

    @pytest.mark.parametrize("mode", ["sic", "iso"])
    def test_verify_bdv_bound_never_rounds_down(self, mode):
        """Round k's bound is ceil(C (1 + 10**-9) k), never below C k: 367
        for C = 36.62 at k = 10 and 8 for C = 1.0 at k = 7, above the iso
        first summand."""
        consts = compute_constants(kuhn_square())
        first = 0 if mode == "sic" else (consts.first_summand_factor - 1) * 2
        for constant, k, bound in ((36.62, 10, 367), (1.0, 7, 8)):
            consts = dataclasses.replace(consts, C_sic=constant, C_iso=constant)
            for grown in (first + bound, first + bound + 1):
                trace = Trace(2)
                trace.rows = [(k, 0, grown, 2 + grown, 2 * grown)]
                report = verify_bdv(trace, consts, mode)
                if grown == first + bound:
                    assert report == []
                else:
                    assert report == [
                        f"round {k}: {grown} cells added exceeds bound {first + bound}"
                    ]

    def test_verify_bdv_flags_inflated_trace(self):
        tri = kuhn_square()
        consts = compute_constants(tri)
        trace = run_sequence(tri, "random-leaf", 10, seed=3)
        forged = Trace(trace.initial_cells)
        forged.rows = [list(r) for r in trace.rows]
        forged.rows[4] = tuple(
            [5, 0, 10**6, trace.initial_cells + 10**6, 2 * 10**6]
        )
        report = verify_bdv(forged, consts, "sic")
        assert report and "round 5" in report[0]


def _scan_pick(tri, strategy, done, last_created):
    """The pick after ``done`` rounds, by a scan of every leaf: the
    reference for the heap picks."""
    forest = tri.forest

    def deep(nid):
        return (forest.tarray(nid).level, -nid)

    def shallow(nid):
        return (forest.tarray(nid).level, nid)

    if strategy == "max-level-leaf":
        return max(tri.leaves, key=deep)
    if strategy == "quasitower-adversary":
        return min(tri.leaves, key=shallow) if done % 4 == 3 else max(tri.leaves, key=deep)
    cand = {
        nid
        for c in last_created
        for v in forest.tarray(c).vertex_ids
        for nid in tri.vertex_index.get(v, ())
    } & tri.leaves
    return min(cand or tri.leaves, key=shallow)


# sha256 of `bdv-run -N 60 --seed 3` CSVs, as written when every pick still
# scanned the leaves and the volume check summed one volume per leaf
BDV_CSV_SHA256 = {
    ("square", "random-leaf"): "1f711970bfc48282e035171136020af3393d021df4e89d30fb7e319ed7bc59ea",
    ("square", "max-level-leaf"): "72364f95481bd7cd7246669649dd38cd4722540727461f5f50dfd89f8b9d2e14",
    ("square", "staircase-adversary"): "8476a4b4cb6162126776967cf41fdd9e71e991d605bee99c331c0a15c25ad059",
    ("square", "quasitower-adversary"): "7999e6e50cb45f69b4ca297a6332e68f0c7aab5faae66547f8d24cf082c255eb",
    ("cube", "random-leaf"): "f5be0193ce54052851ddd81ecf7bee5653f196f58fd2f4eff2c4adfe9e40f0ef",
    ("cube", "max-level-leaf"): "508d22aba2b06378bc30152295619b7a7e7e6d72c980e4bf04cc4d57ba6e3bd3",
    ("cube", "staircase-adversary"): "d2bbc1b7fa6253519080d12b93279ba8a87c26a0a787363da925ae76c640ff3d",
    ("cube", "quasitower-adversary"): "925f453021e46b854935e1d2deb0b7dec42375163c4eb4fb011bce04bc0584ea",
}
FIXTURES = {"square": kuhn_square, "cube": lambda: kuhn_cube_mesh(3)}


class _CountingSet(set):
    """A set that counts the calls of its ``__iter__``."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


class TestPicks:
    """The deep and shallow picks read two heaps; they must mark the cell a
    scan of all leaves marks, since the CSVs are a contract, without
    scanning the leaves themselves."""

    @pytest.mark.parametrize(
        "strategy", ["max-level-leaf", "quasitower-adversary", "staircase-adversary"]
    )
    @pytest.mark.parametrize("mesh", sorted(FIXTURES))
    def test_pick_equals_scan(self, mesh, strategy, monkeypatch):
        tri = FIXTURES[mesh]()
        rounds = []
        last_created = []

        def checked_refine(t, marked):
            nonlocal last_created
            assert t is tri
            assert marked == _scan_pick(tri, strategy, len(rounds), last_created)
            log = refine(t, marked)
            rounds.append(marked)
            last_created = [c for nid in log for c in tri.forest.nodes[nid].children]
            return log

        monkeypatch.setattr(harness, "refine", checked_refine)
        trace = run_sequence(tri, strategy, 60, seed=3)
        assert [row[1] for row in trace.rows] == rounds and len(rounds) == 60

    @pytest.mark.parametrize("strategy", harness.STRATEGIES)
    @pytest.mark.parametrize("mesh", sorted(FIXTURES))
    def test_no_pick_scans_the_leaves(self, mesh, strategy):
        """A run iterates the leaves a fixed number of times, however many
        rounds it has."""

        def iterations(rounds):
            tri = FIXTURES[mesh]()
            tri.leaves = _CountingSet(tri.leaves)
            run_sequence(tri, strategy, rounds, seed=3)
            return tri.leaves.iterations

        assert iterations(10) == iterations(40)

    @pytest.mark.parametrize("strategy", harness.STRATEGIES)
    @pytest.mark.parametrize("mesh", sorted(FIXTURES))
    def test_bdv_run_csv_digest(self, mesh, strategy, tmp_path, capsys):
        src, out = tmp_path / "mesh.json", tmp_path / "run.csv"
        write_mesh(src, FIXTURES[mesh]())
        argv = ["bdv-run", "--mesh", str(src), "--strategy", strategy, "-N", "60",
                "--seed", "3", "--out", str(out)]
        assert main(argv) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == BDV_CSV_SHA256[mesh, strategy]


def _corrupted_bisect(kind, s, pool):
    """A broken bisection of ``s``: children and new vertex as ``bisect``
    returns them."""
    c1, c2, m = tarray.bisect(s, pool)
    edge = refinement_edge(s)
    if kind == "duplicated-half":
        return c1, c1, m
    if kind == "other-edge":
        c, d = sorted(next(e for e in s.edges() if e != edge))
        rest = tuple(v for v in s.vertex_ids if v not in (c, d))
        return tarray.bisect(TaggedSimplex((c, d), rest, s.level, s.hyperlevel), pool)
    if kind == "quarter-point":
        bad = pool.midpoint_id(min(edge), m)
    else:  # off-edge: halfway from the midpoint to a vertex off the edge
        bad = pool.midpoint_id(m, next(v for v in s.vertex_ids if v not in edge))

    def moved(t):
        h, v = ([bad if x == m else x for x in p] for p in (t.horizontal, t.vertical))
        return TaggedSimplex(tuple(h), tuple(v), t.level, t.hyperlevel)

    return moved(c1), moved(c2), bad


class TestCorruptedBisection:
    """``run_sequence`` rejects a bisection that breaks the rule, including
    the ones whose children's volumes still sum to the parent's."""

    @pytest.mark.parametrize("call", [1, 10])
    @pytest.mark.parametrize(
        "mesh", [kuhn_square, lambda: kuhn_cube_mesh(3)], ids=["square", "cube"]
    )
    @pytest.mark.parametrize(
        "kind", ["off-edge", "quarter-point", "duplicated-half", "other-edge"]
    )
    def test_raises(self, kind, mesh, call, monkeypatch):
        calls = []

        def bisect(s, pool):
            calls.append(s)
            if len(calls) == call:
                return _corrupted_bisect(kind, s, pool)
            return tarray.bisect(s, pool)

        monkeypatch.setattr(forest_mod, "bisect", bisect)
        with pytest.raises(SequenceError, match="children do not partition cell"):
            run_sequence(mesh(), "random-leaf", 20, seed=0)
        assert len(calls) >= call


class TestSequenceInvariants:
    """Each of ``run_sequence``'s other checks fires on the fault it names."""

    def test_unclosed_bisection_is_a_hanging_node(self, monkeypatch):
        def unclosed(tri, target):
            tri.bisect_leaf(target)
            return [target]

        monkeypatch.setattr(harness, "refine", unclosed)
        with pytest.raises(SequenceError, match=r"^round 1: bisected edge .* \(hanging node\)$"):
            run_sequence(kuhn_square(), "random-leaf", 3, seed=0)

    def test_unlogged_bisection_breaks_the_round_identity(self, monkeypatch):
        monkeypatch.setattr(harness, "refine", lambda tri, target: refine(tri, target)[:-1])
        with pytest.raises(SequenceError, match="^round 1: counting identity broken$"):
            run_sequence(kuhn_square(), "random-leaf", 3, seed=0)

    def test_run_from_a_refined_leaf_set_is_refused(self, monkeypatch):
        """The audit accounts for every bisection from the roots, so a run
        that starts from a refined mesh is refused before its first round."""
        tri = kuhn_square()
        refine(tri, min(tri.leaves))
        monkeypatch.setattr(harness, "refine", None)
        with pytest.raises(ValueError, match="^a run starts from the roots: the leaves are not "
                           "the forest's roots$"):
            run_sequence(tri, "max-level-leaf", 2)

    def test_undone_bisection_and_unlogged_split_are_named(self, monkeypatch):
        """In the last round, logged node 57 is merged back into a leaf and
        leaf 39 is split unlogged: every count holds and the leaves are
        those of a full subforest, but the mesh has hanging nodes."""
        logs = []

        def faulty_refine(tri, target):
            logs.append(refine(tri, target))
            if len(logs) == 30:
                for child in tri.forest.nodes[57].children:
                    tri.leaves.remove(child)
                    tri._unindex_leaf(child)
                tri.leaves.add(57)
                tri._index_leaf(57)
                tri.bisect_leaf(39)
            return logs[-1]

        monkeypatch.setattr(harness, "refine", faulty_refine)
        tri = kuhn_square()
        with pytest.raises(SequenceError, match=TestLeafSetAudit.MESSAGE.format(39)):
            run_sequence(tri, "random-leaf", 30, seed=5)
        assert 57 in {nid for log in logs[:-1] for nid in log}
        assert len(check_conforming(tri)) == 2


class TestFaultyMidpoint:
    """``_bisects`` tests ``2 m == a + b`` itself, so a fault in
    ``midpoint``, which the bisection calls, cannot pass the check too."""

    @pytest.mark.parametrize(
        "mesh", [kuhn_square, lambda: single_kuhn(4)], ids=["square", "kuhn-4-simplex"]
    )
    def test_quarter_point_is_rejected(self, mesh, monkeypatch):
        """The faulty midpoint is the point a quarter of the way from the
        lexicographically smaller end: symmetric, so the mesh stays
        conforming, and on the edge, so the volume is kept."""

        def quarter(a, b):
            lo, hi = sorted((a, b), key=fractions_of)
            return midpoint(lo, midpoint(lo, hi))

        monkeypatch.setattr(tarray, "midpoint", quarter)
        # a harness that compared against midpoint() would see the same fault
        monkeypatch.setattr(harness, "midpoint", quarter, raising=False)
        with pytest.raises(SequenceError, match="children do not partition cell"):
            run_sequence(mesh(), "random-leaf", 40, seed=3)


def seeded_square():
    """The Kuhn square after 30 seeded ``refine`` calls, and the set of
    nodes they bisected."""
    tri = kuhn_square()
    rng = random.Random(5)
    bisected = set()
    for _ in range(30):
        bisected.update(refine(tri, rng.choice(sorted(tri.leaves))))
    return tri, bisected


def first_child(tri, nid):
    return tri.forest.ensure_children(nid)[0]


class TestLeafSetAudit:
    """The end-of-run audit: the leaves must be those of a full subforest
    over all roots whose inner nodes are the logged bisections.  Leaf 64 of the seeded square and the first child of
    leaf 57 are both at level 6, so swapping them keeps every count and
    the total volume."""

    MESSAGE = r"^leaves are not those of a full subforest at node {}$"

    @pytest.mark.parametrize("fault", ["swap-same-depth", "swap-other-depth", "lost-leaf"])
    def test_names_a_node(self, fault):
        tri, bisected = seeded_square()
        harness._full_invariants(tri, bisected)
        forest = tri.forest
        level = lambda nid: forest.tarray(nid).level
        if fault == "swap-same-depth":
            new = first_child(tri, 57)
            assert level(new) == level(64)
        elif fault == "swap-other-depth":
            new = first_child(tri, min(nid for nid in tri.leaves if level(nid) == 7))
            assert level(new) == level(64) + 2
        else:
            new = None
        tri.leaves.remove(64)
        parents = [forest.nodes[64].parent]
        if new is not None:
            tri.leaves.add(new)
            parents.append(forest.nodes[new].parent)
        with pytest.raises(SequenceError, match=self.MESSAGE.format(min(parents))):
            harness._full_invariants(tri, bisected)

    def test_swapped_leaf_fails_the_run(self, monkeypatch):
        """The same-depth swap after the last round of a run, whose rounds
        refine the seeded square's leaves: every per-round check passes."""
        rng = random.Random(5)
        logs = []

        def seeded_refine(tri, target):
            logs.append(refine(tri, rng.choice(sorted(tri.leaves))))
            if len(logs) == 30:
                tri.leaves.remove(64)
                tri.leaves.add(first_child(tri, 57))
            return logs[-1]

        want = min(57, seeded_square()[0].forest.nodes[64].parent)
        monkeypatch.setattr(harness, "refine", seeded_refine)
        with pytest.raises(SequenceError, match=self.MESSAGE.format(want)):
            run_sequence(kuhn_square(), "random-leaf", 30, seed=0)
        assert len(logs) == 30


audited_runs = pytest.mark.parametrize(
    "mesh",
    [lambda: kuhn_cube_mesh(3), lambda: single_kuhn(4)],
    ids=["kuhn-cube-3", "kuhn-4-simplex"],
)


@audited_runs
def test_run_takes_no_determinant(mesh, monkeypatch):
    """``run_sequence`` audits by structure alone: no ``_cell_dets`` call
    through any module that binds it."""
    tri = mesh()
    calls = []
    cell_dets = exactgeom._cell_dets

    def counted(simplices):
        calls.append(simplices)
        return cell_dets(simplices)

    for module in (exactgeom, meshio, importlib.import_module("bisectmesh.refine")):
        monkeypatch.setattr(module, "_cell_dets", counted)
    run_sequence(tri, "random-leaf", 40, seed=0)
    assert calls == []
    simplex_volume(tri.cells()[0].vertices(tri.forest.pool))
    assert len(calls) == 1  # the counter sees a call


@audited_runs
def test_run_walks_the_forest_once(mesh, monkeypatch):
    """The end-of-run audit reads fo(P) in one ``node_set`` walk."""
    calls = []
    node_set = Triangulation.node_set

    def counted(tri):
        calls.append(tri)
        return node_set(tri)

    monkeypatch.setattr(Triangulation, "node_set", counted)
    tri = mesh()
    run_sequence(tri, "random-leaf", 40, seed=0)
    assert calls == [tri]


def reference_ancestor_vertices(forest, nid, h_target):
    """Reference walk in two cases: a type-0 node of hyperlevel
    ``h_target - 1`` (its transposed) on the way up, else a full-type root
    of hyperlevel ``h_target``."""
    while True:
        t = forest.tarray(nid)
        if t.type == 0 and t.hyperlevel == h_target - 1:
            return t.vertex_ids
        parent = forest.nodes[nid].parent
        if parent is None:
            if t.type == t.dim and t.hyperlevel == h_target:
                return t.vertex_ids
            return None
        nid = parent


@pytest.mark.parametrize(
    "make",
    [kuhn_square, lambda: kuhn_cube_mesh(3), lambda: agk_cube(2), lambda: agk_cube(5)],
    ids=["kuhn-square", "kuhn-cube-3", "agk-2", "agk-5"],
)
def test_ancestor_walk_matches_reference(make):
    """Every node and every target hyperlevel from 0 to two above the
    largest, after 150 seeded refine rounds."""
    tri = make()
    rng = random.Random(150)
    for _ in range(150):
        refine(tri, rng.choice(sorted(tri.leaves)))
    forest = tri.forest
    top = max(forest.tarray(nid).edge_hyperlevel for nid in range(len(forest.nodes)))
    found = set()
    for nid in range(len(forest.nodes)):
        for h in range(top + 3):
            want = reference_ancestor_vertices(forest, nid, h)
            assert hyperlevel_ancestor_vertices(forest, nid, h) == want
            found.add(want is None)
    assert found == {True, False}


class TestTowerPatchSpotcheck:
    def test_shallow_mesh_vacuous(self):
        pool = VertexPool()
        a = pool.id_of(point(0, 0))
        b = pool.id_of(point(1, 0))
        c = pool.id_of(point(1, 1))
        d = pool.id_of(point(0, 1))
        tri = agk_init(
            pool,
            [(a, b, c), (a, c, d)],
            VertexPartition(frozenset(), frozenset({a, b, c, d})),
        )
        report = tower_patch_spotcheck(tri, samples=5, seed=0)
        assert report["sampled"] == 0
        assert report["failures"] == []

    def test_deep_layers_inside_patches(self):
        pool = VertexPool()
        a = pool.id_of(point(0, 0))
        b = pool.id_of(point(1, 0))
        c = pool.id_of(point(1, 1))
        d = pool.id_of(point(0, 1))
        tri = agk_init(
            pool,
            [(a, b, c), (a, c, d)],
            VertexPartition(frozenset(), frozenset({a, b, c, d})),
        )
        rng = random.Random(21)
        for _ in range(260):
            leaf = max(
                tri.leaves,
                key=lambda nid: (tri.forest.tarray(nid).hyperlevel, rng.random()),
            )
            refine(tri, leaf)
        report = tower_patch_spotcheck(tri, samples=25, seed=1)
        assert report["sampled"] > 0
        assert report["layers_checked"] > 0
        assert report["failures"] == []
        assert report["worst_diameter_ratio"] <= 2.0
