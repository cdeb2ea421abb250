import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from bisectmesh import (
    VertexPool, bisect, kuhn, refinement_edge, midpoint, simplex_volume,
)
from bisectmesh import inittags
from bisectmesh.exactgeom import DyadicPoint
from bisectmesh.inittags import VertexPartition, agk_init, initial_division
from bisectmesh.refine import refine
from bisectmesh.tarray import (
    TaggedSimplex,
    canonicalize,
    lattice_of,
    restrict,
    same_lattice,
)

from conftest import (
    agk_cube,
    frac_offset,
    frac_solve,
    fractions_of,
    kuhn_cube_cells,
    kuhn_cube_mesh,
    point,
    tripled_tet,
    tripled_triangle_pair,
)


def transpose(s: TaggedSimplex) -> TaggedSimplex:
    """Transposition oracle: turn a type-0 column into the full-type row;
    hyperlevel increments.  ``bisect`` builds a type-0 array's children
    from that row directly."""
    if s.type != 0:
        raise ValueError("only type-0 arrays can be transposed")
    return TaggedSimplex(
        s.horizontal + s.vertical, (), level=s.level, hyperlevel=s.hyperlevel + 1
    )


@pytest.fixture
def pool2():
    pool = VertexPool()
    for x, y in [(0, 0), (1, 0), (1, 1), (0, 1)]:
        pool.id_of(point(x, y))
    return pool


class TestBisect:
    def test_nvb_children(self, pool2):
        a, b, c = 0, 1, 2
        s = TaggedSimplex((a, b, c), ())
        c1, c2, vnew = bisect(s, pool2)
        assert pool2.point(vnew) == point(Fraction(1, 2), Fraction(1, 2))
        assert (c1.horizontal, c1.vertical) == ((b, c), (vnew,))
        assert (c2.horizontal, c2.vertical) == ((a, b), (vnew,))
        assert c1.level == c2.level == 1
        assert c1.type == c2.type == 1

    def test_volume_halves_and_level_increments(self, pool2):
        s = TaggedSimplex((0, 1, 2), ())
        c1, c2, _ = bisect(s, pool2)
        v1, v2, v = (simplex_volume(t.vertices(pool2)) for t in (c1, c2, s))
        assert v1 == v2 == v / 2
        assert c1.level == s.level + 1

    def test_children_share_hyperface_through_new_vertex(self, pool2):
        s = TaggedSimplex((0, 1, 2), ())
        c1, c2, vnew = bisect(s, pool2)
        shared = set(c1.vertex_ids) & set(c2.vertex_ids)
        assert vnew in shared
        assert len(shared) == s.dim  # a hyperface of both children

    def test_type_zero_transposes_in_one_step(self, pool2):
        s = TaggedSimplex((0,), (1, 2), level=3, hyperlevel=1)
        c1, c2, _ = bisect(s, pool2)
        assert c1.hyperlevel == c2.hyperlevel == 2
        assert c1.level == c2.level == 4
        assert c1.type == c2.type == 1

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_type_zero_bisects_as_its_transposed(self, data):
        """On a type-0 array, ``bisect`` gives what bisecting the transposed
        array gives: the children, with their levels and hyperlevels, and
        the new vertex id, each side in its own copy of one pool."""
        n = data.draw(st.integers(1, 4))
        coords = data.draw(
            st.lists(
                st.tuples(*[st.integers(-8, 8)] * n), min_size=n + 1, max_size=n + 1,
                unique=True,
            )
        )
        extra = data.draw(st.integers(0, 3))
        pools = []
        for _ in range(2):
            pool = VertexPool()
            for q in coords:
                pool.id_of(point(*q))
            for q in range(extra):
                pool.id_of(point(*[Fraction(2 * q + 1, 4)] * n))
            pools.append(pool)
        ids = data.draw(st.permutations(range(n + 1)))
        s = TaggedSimplex(
            (ids[0],),
            tuple(ids[1:]),
            level=data.draw(st.integers(0, 9)),
            hyperlevel=data.draw(st.integers(0, 5)),
        )
        direct = bisect(s, pools[0])
        assert direct == bisect(transpose(s), pools[1])
        assert direct[0].hyperlevel == s.hyperlevel + 1
        assert direct[0].level == s.level + 1
        assert pools[0].points == pools[1].points

    def test_four_bisection_chain_n3(self):
        """The recursive path that removes the vertical edge (c, d) from
        (a b; c; d) takes exactly four bisections."""
        pool = VertexPool()
        a = pool.id_of(point(0, 0, 0))
        b = pool.id_of(point(2, 0, 0))
        c = pool.id_of(point(0, 2, 0))
        d = pool.id_of(point(0, 0, 2))
        s = TaggedSimplex((a, b), (c, d))
        _, s1, _ = bisect(s, pool)  # keep (a; (a+b)/2; c; d)
        s2, _, _ = bisect(s1, pool)  # ((a+b)/2 c d; (a+d)/2)
        s3, _, _ = bisect(s2, pool)  # (c d; (a+b)/4 + d/2; (a+d)/2)
        s4, _, _ = bisect(s3, pool)
        ab2 = pool.id_of(midpoint(pool.point(a), pool.point(b)))
        ad2 = pool.id_of(midpoint(pool.point(a), pool.point(d)))
        cd2 = pool.id_of(midpoint(pool.point(c), pool.point(d)))
        mid_ab2_d = pool.id_of(midpoint(pool.point(ab2), pool.point(d)))
        assert s4.type == 0
        assert s4.level == 4
        assert s4.vertex_ids == (d, cd2, mid_ab2_d, ad2)


class TestTranspose:
    def test_geometry_unchanged_hyperlevel_up(self, pool2):
        s = TaggedSimplex((0,), (1, 2), hyperlevel=2)
        t = transpose(s)
        assert t.vertex_ids == s.vertex_ids
        assert t.type == 2
        assert t.hyperlevel == 3
        assert t.level == s.level

    def test_requires_type_zero(self, pool2):
        with pytest.raises(ValueError):
            transpose(TaggedSimplex((0, 1), (2,)))


class TestRefinementEdge:
    def test_horizontal_ends(self, pool2):
        s = TaggedSimplex((0, 1, 2), (), hyperlevel=1)
        assert refinement_edge(s) == frozenset((0, 2))
        assert s.edge_hyperlevel == 1

    def test_type_zero_uses_transposed(self, pool2):
        s = TaggedSimplex((0,), (1, 2), hyperlevel=1)
        assert refinement_edge(s) == frozenset((0, 2))
        assert s.edge_hyperlevel == 2

    def test_edge_normalises_order(self):
        # 3 and 11 share a hash slot, so the text of a pair depends on the
        # order its ids are inserted in; edges insert the lower id first.
        assert repr(frozenset((3, 11))) != repr(frozenset((11, 3)))
        fwd = TaggedSimplex((11, 5, 3), ())
        rev = TaggedSimplex((3,), (5, 11))
        assert refinement_edge(fwd) == refinement_edge(rev) == frozenset((3, 11))
        assert repr(refinement_edge(fwd)) == repr(frozenset((3, 11)))
        assert repr(refinement_edge(rev)) == repr(frozenset((3, 11)))
        assert set(map(repr, fwd.edges())) == set(map(repr, rev.edges()))

    def test_zero_dimensional_array_is_refused(self, pool2):
        point_array = TaggedSimplex((0,), ())
        with pytest.raises(ValueError, match="^0-dimensional array has no refinement edge$"):
            refinement_edge(point_array)
        with pytest.raises(ValueError, match="^cannot bisect a 0-dimensional simplex$"):
            bisect(point_array, pool2)


class TestReflectCanonicalize:
    def test_reflect_and_canonical_equal(self, pool2):
        s = TaggedSimplex((2, 0, 1), ())
        assert canonicalize(s) == canonicalize(TaggedSimplex((1, 0, 2), ()))

    def test_chain_identifications(self, pool2):
        col = TaggedSimplex((0,), (1, 2))
        row = TaggedSimplex((0, 1, 2), ())
        row_r = TaggedSimplex((2, 1, 0), ())
        col_r = TaggedSimplex((2,), (1, 0))
        keys = {canonicalize(x) for x in (col, row, row_r, col_r)}
        assert len(keys) == 1

    def test_idempotent(self, pool2):
        s = TaggedSimplex((2, 1), (0, 3))
        assert canonicalize(canonicalize(s)) == canonicalize(s)

    def test_children_reflect(self, pool2):
        s = TaggedSimplex((0, 1, 2), ())
        r = TaggedSimplex(tuple(reversed(s.horizontal)), s.vertical)
        c1, c2, _ = bisect(s, pool2)
        r1, r2, _ = bisect(r, pool2)
        assert canonicalize(c1) == canonicalize(r2)
        assert canonicalize(c2) == canonicalize(r1)


def legacy_restrict(s, subset):
    """Reference for the former restriction rule: a restriction without any
    horizontal vertex becomes the untransposed column (type 0) and keeps
    the hyperlevel."""
    subset = set(subset)
    if not subset:
        raise ValueError("empty restriction")
    extra = subset - set(s.vertex_ids)
    if extra:
        raise ValueError(f"vertices {sorted(extra)} not in the T-array")
    hor = tuple(v for v in s.horizontal if v in subset)
    ver = tuple(v for v in s.vertical if v in subset)
    if hor:
        return TaggedSimplex(hor, ver, 0, s.hyperlevel)
    return TaggedSimplex(ver[:1], ver[1:], 0, s.hyperlevel)


class TestRestrict:
    def setup_method(self):
        self.t = TaggedSimplex((0, 1, 2, 3), (4, 5), hyperlevel=1)

    def test_worked_examples(self):
        r1 = restrict(self.t, {1, 3, 5})
        assert (r1.horizontal, r1.vertical) == ((1, 3), (5,))
        r2 = legacy_restrict(self.t, {4, 5})
        assert (r2.horizontal, r2.vertical) == ((4,), (5,))
        assert r2.hyperlevel == 1

    def test_hyper_rule_transposes_vertical_only(self):
        r = restrict(self.t, {4, 5})
        assert (r.horizontal, r.vertical) == ((4, 5), ())
        assert r.hyperlevel == 2
        r2 = restrict(self.t, {0, 5})
        assert r2.hyperlevel == 1

    def test_identity(self):
        r = restrict(self.t, set(self.t.vertex_ids))
        assert (r.horizontal, r.vertical) == (self.t.horizontal, self.t.vertical)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            restrict(self.t, set())

    def test_foreign_vertices_rejected(self):
        with pytest.raises(ValueError, match=r"^vertices \[6, 9\] not in the T-array$"):
            restrict(self.t, {9, 1, 6})

    @settings(max_examples=300)
    @given(st.data())
    def test_legacy_rule_agrees_up_to_canonical_form(self, data):
        """Where the two rules differ (no horizontal vertex survives) the
        former gives the column and the current one its transposition: one
        class under canonicalize, and of type 1 for both or neither unless
        two vertices remain (a segment, type 0 as a column, full type 1 as
        a row).  The quasi-uniform sweep restricts to triples only."""
        n = data.draw(st.integers(1, 4))
        ids = data.draw(
            st.lists(st.integers(0, 40), min_size=n + 1, max_size=n + 1, unique=True)
        )
        k = data.draw(st.integers(0, n))
        s = TaggedSimplex(
            tuple(ids[: k + 1]),
            tuple(ids[k + 1 :]),
            level=data.draw(st.integers(0, 9)),
            hyperlevel=data.draw(st.integers(0, 5)),
        )
        subset = data.draw(st.sets(st.sampled_from(ids), min_size=1))
        old, new = legacy_restrict(s, subset), restrict(s, subset)
        if subset.isdisjoint(s.horizontal):
            assert new == transpose(old)
        else:
            assert new == old
        assert canonicalize(old) == canonicalize(new)
        if len(subset) != 2:
            assert (old.type == 1) == (new.type == 1)

    @settings(max_examples=60)
    @given(st.data())
    def test_restriction_commutes_with_children(self, data):
        """When the refinement edge survives the restriction, restricting the
        children gives the children of the restriction; otherwise one child
        restricts to the same array."""
        n = data.draw(st.integers(2, 4))
        k = data.draw(st.integers(1, n))
        pool = VertexPool()
        s = kuhn(list(range(1, n + 1)), [1] * n, pool)
        parent = TaggedSimplex(s.horizontal[: k + 1], s.horizontal[k + 1 :])
        ids = parent.vertex_ids
        subset = frozenset(
            data.draw(
                st.sets(st.sampled_from(ids), min_size=1, max_size=len(ids))
            )
        )
        sub = restrict(parent, subset)
        c1, c2, _ = bisect(parent, pool)
        e = refinement_edge(parent)
        if e <= subset:
            mid = pool.midpoint_id(*sorted(e))
            r1 = restrict(c1, (subset | {mid}) & set(c1.vertex_ids))
            r2 = restrict(c2, (subset | {mid}) & set(c2.vertex_ids))
            s1, s2, _ = bisect(sub, pool)
            assert {canonicalize(r1), canonicalize(r2)} == {
                canonicalize(s1),
                canonicalize(s2),
            }
        else:
            kept = [
                c
                for c in (c1, c2)
                if subset <= set(c.vertex_ids)
                and canonicalize(restrict(c, subset)) == canonicalize(sub)
            ]
            assert kept, "one child must restrict to the same array"


class TestKuhn:
    def test_identity_permutation(self):
        pool = VertexPool()
        s = kuhn([1, 2], [1, 1], pool)
        assert [pool.point(v) for v in s.vertex_ids] == [
            point(0, 0),
            point(1, 0),
            point(1, 1),
        ]

    def test_volume_and_type(self):
        pool = VertexPool()
        s = kuhn([2, 3, 1], [1, -1, 1], pool)
        assert simplex_volume(s.vertices(pool)) == Fraction(1, 6)
        assert s.type == s.dim == 3

    def test_chebyshev_distances_of_horizontal(self):
        pool = VertexPool()
        s = kuhn([3, 1, 2], [1, 1, -1], pool)
        pts = [fractions_of(pool.point(v)) for v in s.vertex_ids]
        for i in range(4):
            for j in range(i + 1, 4):
                cheb = max(abs(a - b) for a, b in zip(pts[i], pts[j]))
                assert cheb == 1

    def test_dyadic_offsets_match_fractions(self):
        """Each vertex is the previous one plus a signed unit step, over
        Fractions, in canonical form; no offset is the zero offset."""
        rng = random.Random(5)
        for n in range(1, 5):
            for _ in range(12):
                perm = rng.sample(range(1, n + 1), n)
                signs = [rng.choice((1, -1)) for _ in range(n)]
                offset = [Fraction(rng.randrange(-64, 65), 1 << rng.randrange(12)) for _ in range(n)]
                want = [tuple(offset)]
                for axis, sign in zip(perm, signs):
                    step = [0] * n
                    step[axis - 1] = sign
                    want.append(tuple(x + y for x, y in zip(want[-1], step)))
                pool = VertexPool()
                got = kuhn(perm, signs, pool, offset=DyadicPoint(offset)).vertices(pool)
                assert [fractions_of(p) for p in got] == want
                assert got == [DyadicPoint(w) for w in want]
                plain = VertexPool()
                zero = VertexPool()
                assert kuhn(perm, signs, plain).vertices(plain) == kuhn(
                    perm, signs, zero, offset=DyadicPoint([0] * n)
                ).vertices(zero)

    def test_validation(self):
        pool = VertexPool()
        with pytest.raises(ValueError):
            kuhn([1, 1], [1, 1], pool)
        with pytest.raises(ValueError):
            kuhn([1, 2], [1, 2], pool)


def _coefficients(basis, vector):
    """Exact coefficients of the Fraction vector ``vector`` in the
    independent DyadicPoints ``basis``, or None off their span."""
    sol = frac_solve([fractions_of(b) for b in basis], vector)
    assert sol != "degenerate"
    return sol


def signed_permutation_equal(a, b) -> bool:
    """Reference lattice equality, independent of :func:`same_lattice`:
    every basis vector of ``b`` has coefficients in ``a``'s basis forming a
    signed permutation (the only unimodular max-norm isometries), and the
    origins differ by an integer combination of ``a``'s basis."""
    (oa, ba), (ob, bb) = a, b
    if len(ba) != len(bb):
        return False
    used = set()
    for v in bb:
        coeff = _coefficients(ba, fractions_of(v))
        if coeff is None:
            return False
        nonzero = [(i, c) for i, c in enumerate(coeff) if c != 0]
        if len(nonzero) != 1 or abs(nonzero[0][1]) != 1 or nonzero[0][0] in used:
            return False
        used.add(nonzero[0][0])
    shift = _coefficients(ba, frac_offset(ob, oa))
    return shift is not None and all(c.denominator == 1 for c in shift)


def frac_lattice(s, pool, width):
    """Reference :func:`lattice_of` over Fractions: ``(origin, basis)`` as
    Fraction tuples, or None for a degenerate T-array.  Horizontal edges are
    successive differences; each vertical vertex adds twice its offset from
    the centre of the cube spanned so far, the origin plus half the sum of
    the edges."""
    origin, *pts = [fractions_of(p) for p in s.vertices(pool)]
    edges = []
    for j, q in enumerate(pts):
        if j < s.type:
            prev = pts[j - 1] if j else origin
            edges.append(tuple(x - y for x, y in zip(q, prev)))
        else:
            centre = [o + sum(e[d] for e in edges) / 2 for d, o in enumerate(origin)]
            edges.append(tuple(2 * (x - c) for x, c in zip(q, centre)))
    if frac_solve(edges, [0] * len(origin)) == "degenerate":
        return None
    scale = Fraction(2) ** (s.hyperlevel - width)
    return origin, [tuple(scale * x for x in e) for e in edges]


class TestLattice:
    def test_matches_fraction_oracle(self):
        """Seeded T-arrays of every type in n = 1..4, at hyperlevels 0-2,
        and their restrictions down to single vertices (as the isocochange
        check builds for cells sharing one vertex), at widths 0-3; some are
        degenerate and must raise ValueError."""
        rng = random.Random(17)
        seen = set()
        for n in range(1, 5):
            for draw in range(6):
                pool = VertexPool()
                ids = set()
                while len(ids) < n + 1:
                    ids.add(pool.id_of(DyadicPoint(
                        Fraction(rng.randrange(-6, 7), 1 << rng.randrange(4)) for _ in range(n)
                    )))
                    if draw == 0 and len(ids) == n > 1:  # flat: the midpoint of two
                        a, b = sorted(ids)[:2]
                        ids.add(pool.midpoint_id(a, b))
                ids = rng.sample(sorted(ids), n + 1)
                for k in range(n + 1):
                    for h in range(3):
                        s = TaggedSimplex(tuple(ids[: k + 1]), tuple(ids[k + 1 :]), 0, h)
                        subsets = [rng.sample(ids, rng.randrange(1, n + 1)) for _ in range(2)]
                        for t in [s, *(restrict(s, sub) for sub in subsets), restrict(s, ids[-1:])]:
                            for width in range(4):
                                want = frac_lattice(t, pool, width)
                                seen.add((t.dim, want is None))
                                if want is None:
                                    with pytest.raises(ValueError):
                                        lattice_of(t, pool, width)
                                    continue
                                origin, basis = lattice_of(t, pool, width)
                                assert fractions_of(origin) == want[0]
                                assert [fractions_of(v) for v in basis] == want[1]
        assert {(0, False), (4, False), (2, True), (4, True)} <= seen

    def test_kuhn_lattice_is_unit(self):
        pool = VertexPool()
        s = kuhn([1, 2], [1, 1], pool)
        origin, basis = lattice_of(s, pool, 0)
        assert origin == point(0, 0)
        assert basis == [point(1, 0), point(0, 1)]
        assert lattice_of(s, pool, 2)[1] == [point(Fraction(1, 4), 0), point(0, Fraction(1, 4))]

    def test_preserved_by_bisect_halved_by_transpose(self):
        pool = VertexPool()
        s = kuhn([1, 2, 3], [1, 1, 1], pool)
        lat = lattice_of(s, pool, 0)
        cur = s
        while cur.type > 0:
            cur, _, _ = bisect(cur, pool)
            assert same_lattice(lattice_of(cur, pool, 0), lat)
        t = transpose(cur)
        lat2 = lattice_of(t, pool, 1)
        assert same_lattice(lat2, lattice_of(s, pool, 1))
        assert not same_lattice(lat2, lat)

    def test_refinement_edge_length_in_root_lattice(self):
        """Chebyshev length of any descendant's refinement edge in the root
        lattice is 2^-(edge hyperlevel)."""
        pool = VertexPool()
        root = kuhn([2, 1, 3], [1, 1, 1], pool)
        _, basis = lattice_of(root, pool, 0)
        frontier = [root]
        for _ in range(7):
            nxt = []
            for s in frontier:
                c1, c2, _ = bisect(s, pool)
                nxt.extend((c1, c2))
            frontier = nxt[:6]
            for s in frontier:
                a, b = sorted(refinement_edge(s))
                vec = frac_offset(pool.point(b), pool.point(a))
                cheb = max(abs(c) for c in _coefficients(basis, vec))
                assert cheb == Fraction(1, 2**s.edge_hyperlevel)

    def test_signed_permutation_needed_for_equality(self):
        base = (point(0, 0), [point(1, 0), point(0, 1)])
        sheared = (point(0, 0), [point(1, 0), point(1, 1)])
        flipped = (point(3, 2), [point(0, -1), point(1, 0)])
        shifted = (point(Fraction(1, 2), 0), [point(1, 0), point(0, 1)])
        assert not same_lattice(base, sheared)  # same point set, other max-norm
        assert same_lattice(base, flipped)
        assert not same_lattice(base, shifted)  # origin off the lattice
        for a in (base, sheared, flipped, shifted):
            for b in (base, sheared, flipped, shifted):
                assert same_lattice(a, b) == signed_permutation_equal(a, b)

    def test_degenerate_rejected(self):
        pool = VertexPool()
        for q in (point(0, 0), point(1, 1), point(2, 2)):
            pool.id_of(q)
        with pytest.raises(ValueError):
            lattice_of(TaggedSimplex((0, 1, 2), ()), pool, 0)

    def test_agrees_with_signed_permutation_rule(self):
        """On seeded random taggings of the Kuhn n-cubes (n = 2..4), the
        lattices of every restricted cell pair compare equal under
        :func:`same_lattice` exactly when the reference rule says so; both
        outcomes occur."""
        rng = random.Random(2024)
        outcomes = set()
        for n in (2, 3, 4):
            pool = VertexPool()
            cells = [
                kuhn(list(perm), [1] * n, pool).vertex_ids
                for perm in permutations(range(1, n + 1))
            ]
            for _ in range(20 if n < 4 else 8):
                tagged = []
                for cell in cells:
                    ids = list(cell)
                    rng.shuffle(ids)
                    k = rng.randrange(1, n + 2)
                    tagged.append(TaggedSimplex(tuple(ids[:k]), tuple(ids[k:]), 0, rng.randrange(2)))
                for sa, sb in combinations(tagged, 2):
                    shared = set(sa.vertex_ids) & set(sb.vertex_ids)
                    if not shared:
                        continue
                    ra, rb = restrict(sa, shared), restrict(sb, shared)
                    alpha = max(ra.hyperlevel, rb.hyperlevel)
                    la, lb = lattice_of(ra, pool, alpha), lattice_of(rb, pool, alpha)
                    expected = signed_permutation_equal(la, lb)
                    assert same_lattice(la, lb) == expected
                    outcomes.add(expected)
        assert outcomes == {True, False}


class TestInvariants:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 4), st.lists(st.booleans(), min_size=8, max_size=8))
    def test_level_volume_invariant_and_hyperlevel_count(self, n, path):
        """2^level |S| stays constant along any path, and the hyperlevel
        counts the type wraps."""
        pool = VertexPool()
        s = kuhn(list(range(1, n + 1)), [1] * n, pool)
        root_vol = simplex_volume(s.vertices(pool))
        wraps = 0
        cur = s
        for take_first in path:
            if cur.type == 0:
                wraps += 1
            c1, c2, _ = bisect(cur, pool)
            cur = c1 if take_first else c2
            assert Fraction(2) ** cur.level * simplex_volume(cur.vertices(pool)) == root_vol
            assert cur.hyperlevel == wraps


def assert_well_formed(arrays):
    """The invariant ``TaggedSimplex`` leaves to its makers: a non-empty
    horizontal row and distinct vertex ids."""
    for s in arrays:
        ids = s.vertex_ids
        assert s.horizontal and len(set(ids)) == len(ids), s


def refined_meshes():
    """Kuhn 2-, 3- and 4-cubes and agk cubes after seeded refine rounds."""
    rng = random.Random(7)
    meshes = []
    for make, rounds in (
        (lambda: kuhn_cube_mesh(2), 40),
        (lambda: kuhn_cube_mesh(3), 25),
        (lambda: kuhn_cube_mesh(4), 8),
        (lambda: agk_cube(1), 25),
        (lambda: agk_cube(2), 25),
    ):
        tri = make()
        for _ in range(rounds):
            refine(tri, rng.choice(sorted(tri.leaves)))
        meshes.append(tri)
    return meshes


class TestMadeTArraysWellFormed:
    """Every T-array the engine builds keeps the invariant that
    ``TaggedSimplex`` does not check."""

    def test_refined_children(self):
        for tri in refined_meshes():
            assert len(tri.forest.nodes) > len(tri.forest.roots)
            assert_well_formed(node.tarray for node in tri.forest.nodes)

    def test_restrictions_and_canonical_forms_in_the_verifiers(self, monkeypatch):
        """Each restriction and canonical form the five verifiers make of
        the T-arrays of cell pairs, on refined, agk-tagged and divided
        meshes."""
        made = []

        def recording(fn):
            def wrapper(*args):
                made.append(fn(*args))
                return made[-1]
            return wrapper

        monkeypatch.setattr(inittags, "restrict", recording(restrict))
        monkeypatch.setattr(inittags, "canonicalize", recording(canonicalize))
        meshes = [
            *refined_meshes(), kuhn_cube_mesh(2), agk_cube(1), agk_cube(2),
            initial_division(*tripled_tet()),
        ]
        for tri in meshes:
            for check in (
                inittags.check_sic, inittags.check_retaco, inittags.check_retahyco,
                inittags.check_pc, inittags.check_isocochange,
            ):
                check(tri)
        assert {s.type for s in made} >= {0, 1, 2}
        assert_well_formed(made)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_kuhn_simplex(self, n):
        pool = VertexPool()
        assert_well_formed(
            kuhn(list(perm), signs, pool)
            for perm in permutations(range(1, n + 1))
            for signs in product((1, -1), repeat=n)
        )

    def test_initialiser_outputs(self):
        rng = random.Random(11)
        for n in (2, 3):
            pool, cells = kuhn_cube_cells(n)
            verts = sorted({v for c in cells for v in c})
            for _ in range(12):
                rng.shuffle(verts)
                k = rng.randrange(len(verts) + 1)
                part = VertexPartition(frozenset(verts[:k]), frozenset(verts[k:]))
                assert_well_formed(agk_init(pool, cells, part).cells())
        for pool, cells in (tripled_triangle_pair()[:2], tripled_tet()):
            assert_well_formed(initial_division(pool, cells).cells())
        # marked points on a vertex, on an edge and inside the triangle
        for q in ((0, 0), (2, 0), (1, 1)):
            pool = VertexPool()
            cell = tuple(pool.id_of(point(*p)) for p in ((0, 0), (4, 0), (0, 4)))
            assert_well_formed(initial_division(pool, [cell], {2: [point(*q)]}).cells())
