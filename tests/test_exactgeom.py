import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bisectmesh.cli import _exact
from bisectmesh.exactgeom import (
    _cell_dets,
    _eliminate,
    _locate,
    _max_gap_sq,
    _rows,
    _solve_all,
    DyadicPoint,
    midpoint,
    simplex_volume,
)
from bisectmesh.meshio import MeshFormatError, mesh_from_dict

from conftest import (
    frac_det,
    frac_solve,
    frac_sq_dist,
    fractions_of,
    leaf_volume,
    point,
    scaled_point,
)


def volumes(simplices):
    """Exact total volume of ``simplices``, one ``simplex_volume`` each."""
    return sum((simplex_volume(s) for s in simplices), Fraction(0))


def dyadic_fractions(lo, hi, max_exp):
    """Fractions ``n / 2**e`` with ``lo <= n <= hi`` and ``0 <= e <= max_exp``."""
    return st.builds(
        lambda n, e: Fraction(n, 1 << e), st.integers(lo, hi), st.integers(0, max_exp)
    )


coordinates = st.lists(dyadic_fractions(-500, 500, 8), min_size=1, max_size=4)


def repr_oracle(fracs):
    """The repr rule: each coordinate in lowest terms as ``n`` or ``n/2^e``."""
    parts = []
    for f in fracs:
        e = f.denominator.bit_length() - 1
        parts.append(f"{f.numerator}/2^{e}" if e else str(f.numerator))
    return "DyadicPoint(" + ", ".join(parts) + ")"


class TestDyadic:
    """Dyadic-rational coordinates: points built from ints and Fractions."""

    def test_canonical_form(self):
        p = DyadicPoint([Fraction(4, 4), Fraction(6, 2), Fraction(0, 128), Fraction(-8, 8)])
        assert (p.nums, p.exp) == ((1, 3, 0, -1), 0)
        p = DyadicPoint([Fraction(3, 8), Fraction(1, 2), 5])
        assert (p.nums, p.exp) == ((3, 4, 40), 3)
        assert DyadicPoint._of([4, 6], 2) == DyadicPoint._of([2, 3], 1)
        assert DyadicPoint._of([0, 0], 7) == DyadicPoint([0, 0])

    @given(coordinates)
    def test_canonicalisation_fixed_point(self, fracs):
        p = DyadicPoint(fracs)
        assert p.exp == 0 or any(x % 2 for x in p.nums)
        again = DyadicPoint._of(p.nums, p.exp)
        assert (again.nums, again.exp) == (p.nums, p.exp)

    @given(coordinates)
    def test_fractions_round_trip(self, fracs):
        assert fractions_of(DyadicPoint(fracs)) == tuple(fracs)

    @given(coordinates)
    def test_repr_matches_oracle(self, fracs):
        assert repr(DyadicPoint(fracs)) == repr_oracle(fracs)

    def test_repr_examples(self):
        assert repr(point(0, Fraction(-3, 8), 4)) == "DyadicPoint(0, -3/2^3, 4)"
        assert repr(point(Fraction(1, 4), 1)) == "DyadicPoint(1/2^2, 1)"

    @given(coordinates, st.integers(-8, 8))
    def test_of_matches_fractions(self, fracs, k):
        """``_of`` takes any integer vector over any exponent, negative ones
        included, to the canonical point of the same Fraction values."""
        p = DyadicPoint(fracs)
        scale = Fraction(1, 2) ** k
        q = DyadicPoint._of(p.nums, p.exp + k)
        assert fractions_of(q) == tuple(x * scale for x in fracs)
        assert q == DyadicPoint(x * scale for x in fracs)

    def test_dyadic_coercion(self):
        assert DyadicPoint([Fraction(3, 8)]) == DyadicPoint._of([3], 3)
        with pytest.raises(ValueError):
            DyadicPoint([Fraction(1, 3)])
        with pytest.raises(TypeError):
            DyadicPoint([0.5])

    @given(
        st.lists(
            st.builds(Fraction, st.integers(-50, 50), st.integers(3, 64)).filter(
                lambda f: f.denominator & (f.denominator - 1)
            ),
            min_size=1,
            max_size=3,
        ),
        coordinates,
    )
    def test_non_dyadic_fraction_raises_value_error(self, bad, good):
        with pytest.raises(ValueError):
            DyadicPoint(good + bad)

    @given(
        st.one_of(st.floats(allow_nan=False), st.text(max_size=3), st.none()),
        coordinates,
    )
    def test_other_types_raise_type_error(self, bad, good):
        with pytest.raises(TypeError):
            DyadicPoint([*good, bad])


class TestMidpoint:
    def test_examples(self):
        half = Fraction(1, 2)
        assert midpoint(point(0, 0), point(1, 1)) == point(half, half)
        assert midpoint(point(half, 0), point(half, 1)) == point(half, half)
        assert midpoint(
            point(Fraction(1, 4), Fraction(3, 8)), point(Fraction(3, 4), Fraction(5, 8))
        ) == point(half, half)

    def test_symmetry_and_dim_check(self):
        a, b = point(1, 2), point(3, 5)
        assert midpoint(a, b) == midpoint(b, a)
        with pytest.raises(ValueError):
            midpoint(point(0, 0), point(0, 0, 0))


class TestVolume:
    def test_kuhn_triangle(self):
        assert simplex_volume([point(0, 0), point(1, 0), point(1, 1)]) == Fraction(1, 2)

    def test_kuhn_tet(self):
        verts = [point(0, 0, 0), point(1, 0, 0), point(1, 1, 0), point(1, 1, 1)]
        assert simplex_volume(verts) == Fraction(1, 6)

    def test_degenerate_is_zero(self):
        assert simplex_volume([point(0, 0), point(1, 1), point(2, 2)]) == 0

    @given(st.permutations(range(4)))
    def test_permutation_invariance(self, perm):
        verts = [point(0, 0, 0), point(3, 0, 1), point(1, 2, 0), point(0, 1, 5)]
        base = simplex_volume(verts)
        assert simplex_volume([verts[i] for i in perm]) == base

    def test_translation_invariance(self):
        verts = [point(0, 0), point(2, 1), point(1, 3)]
        moved = [scaled_point(p, 1, (7, -4)) for p in verts]
        assert simplex_volume(verts) == simplex_volume(moved)


class TestVolumeSum:
    """Volumes of simplices over different exponents add up exactly, one
    :func:`simplex_volume` each."""

    def test_mixed_exponents(self):
        """Leaves over 2**0, 2**3 and 2**-1 grids."""
        e = Fraction(1, 8)
        simplices = [
            [point(0, 0), point(1, 0), point(0, 1)],
            [point(0, 0), point(e, 0), point(e, 3 * e)],
            [point(1, 1), point(5, 1), point(Fraction(5, 2), Fraction(7, 2))],
        ]
        assert volumes(simplices) == Fraction(1, 2) + Fraction(3, 128) + 5

    def test_degenerate_and_empty(self):
        assert volumes([[point(0, 0), point(1, 1), point(2, 2)]]) == 0
        assert volumes([]) == 0

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            volumes([[point(0, 0), point(1, 0), point(0, 1, 0)]])

    def test_point_count_mismatch_raises(self):
        triangle, edge = [point(0, 0), point(1, 0), point(0, 1)], [point(0, 0), point(1, 0)]
        for simplices in ([triangle, edge], [edge, triangle]):
            with pytest.raises(ValueError, match="^need n\\+1 points of dimension n$"):
                volumes(simplices)


class TestDecimalText:
    """``cli._exact``, the one printer of exact values, must print what
    ``str`` prints with the interpreter's digit limit lifted, at any length,
    and leave that limit as it found it."""

    @staticmethod
    def unlimited_str(q):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(q)
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize(
        "x",
        [0, 1, -1, 10**4299, 10**4300, 10**6000 + 7, -(10**9000) + 1, 2**16385,
         -(3**20000), 10**20000 - 1],
        ids=lambda x: f"{'-' if x < 0 else ''}{x.bit_length()}-bit",
    )
    def test_examples(self, x):
        limit = sys.get_int_max_str_digits()
        for q in (Fraction(x), Fraction(x, 3), Fraction(7, 2 * x + 1)):
            assert _exact(q) == self.unlimited_str(q)
        assert sys.get_int_max_str_digits() == limit

    def test_random_lengths(self):
        rng = random.Random(7)
        for _ in range(100):
            x = rng.getrandbits(rng.randrange(1, 70_000)) * rng.choice((1, -1))
            q = Fraction(x, rng.choice((1, 3, 2 ** rng.randrange(1, 70_000))))
            assert _exact(q) == self.unlimited_str(q)

    def test_short_is_str(self):
        for q in (Fraction(0), Fraction(-5), Fraction(2**64, 3), Fraction(-(10**1000))):
            assert _exact(q) == str(q)


class TestBarycentric:
    tri = [point(0, 0), point(3, 0), point(0, 3)]

    def test_centroid(self):
        third = Fraction(1, 3)
        assert located_fractions(self.tri, [point(1, 1)]) == [[third, third, third]]

    def test_vertex_is_basis_vector(self):
        coords = located_fractions(self.tri, self.tri)
        assert coords == [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]

    def test_outside(self):
        assert _locate(self.tri, [point(2, 2), point(-1, 0)]) == [None, None]

    def test_lower_dimensional_simplex(self):
        edge = [point(0, 0), point(2, 2)]
        half = Fraction(1, 2)
        assert located_fractions(edge, [point(1, 1), point(1, 0)]) == [[half, half], None]

    def test_degenerate_raises(self):
        with pytest.raises(ValueError):
            _locate([point(0, 0), point(1, 1), point(2, 2)], [point(0, 0)])

    def test_no_points_no_elimination(self):
        assert _locate([point(0, 0), point(1, 1), point(2, 2)], []) == []


class TestDistances:
    @given(
        st.lists(st.integers(0, 16), min_size=6, max_size=6),
        st.integers(0, 4),
        st.integers(0, 4),
    )
    def test_max_attained_at_vertex(self, coords, wa, wb):
        """Brute-force oracle: the distance from any interior sample point to
        a fixed target never beats the best vertex, so the shape census may
        take the largest distance to a simplex over its vertices."""
        verts = [
            DyadicPoint(coords[0:2]),
            DyadicPoint(coords[2:4]),
            DyadicPoint(coords[4:6]),
        ]
        target = point(coords[1], coords[4])
        best_vertex = max(frac_sq_dist(target, v) for v in verts)
        # dyadic convex samples with weights (wa, wb, 16 - wa - wb) / 16
        wc = 16 - wa - wb
        sample_fr = [
            sum(
                Fraction(w, 16) * fractions_of(v)[d]
                for w, v in zip((wa, wb, wc), verts)
            )
            for d in range(2)
        ]
        sample = DyadicPoint(sample_fr)
        assert frac_sq_dist(target, sample) <= best_vertex


# --- the integer kernel against a Fraction oracle ------------------------------

small_fractions = dyadic_fractions(-6, 6, 3)


def points(n):
    return st.lists(small_fractions, min_size=n, max_size=n).map(DyadicPoint)


class TestPointKernel:
    @given(st.integers(1, 4).flatmap(points))
    def test_coords_round_trip(self, p):
        assert DyadicPoint(fractions_of(p)) == p
        assert repr(DyadicPoint(fractions_of(p))) == repr(p)

    @given(st.integers(1, 4).flatmap(points), st.integers(1, 5))
    def test_equal_points_from_other_exponents_hash_alike(self, p, k):
        wide = DyadicPoint._of([x << k for x in p.nums], p.exp + k)
        assert wide == p and hash(wide) == hash(p)
        assert (wide.nums, wide.exp) == (p.nums, p.exp)
        up = DyadicPoint._of(p.nums, p.exp - k)
        assert DyadicPoint._of(up.nums, up.exp + k) == p
        assert midpoint(p, p) == p

    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(points(n), points(n))))
    def test_midpoint_is_canonical_and_exact(self, ab):
        a, b = ab
        m = midpoint(a, b)
        assert m.exp == 0 or any(x % 2 for x in m.nums)
        assert fractions_of(m) == tuple(
            (x + y) / 2 for x, y in zip(fractions_of(a), fractions_of(b))
        )


def _oracle_barycentric(pt, simplex):
    """Barycentric coordinates by :func:`frac_solve`; "degenerate" for a
    dependent simplex."""
    p0 = fractions_of(simplex[0])
    basis = [[x - y for x, y in zip(fractions_of(v), p0)] for v in simplex[1:]]
    t = [x - y for x, y in zip(fractions_of(pt), p0)]
    sol = frac_solve(basis, t)
    if sol is None or sol == "degenerate":
        return sol
    coords = [1 - sum(sol), *sol]
    return coords if all(c >= 0 for c in coords) else None


@st.composite
def simplex_and_points(draw, full=False, most=1):
    """A random dyadic k-simplex in n-space (often degenerate) and one to
    ``most`` points, each drawn half the time as a dyadic convex
    combination of the vertices."""
    n = draw(st.integers(1, 3))
    k = n if full else draw(st.integers(0, n))
    simplex = draw(st.lists(points(n), min_size=k + 1, max_size=k + 1))
    pts = []
    for _ in range(draw(st.integers(1, most))):
        if draw(st.booleans()):
            weights = draw(st.lists(st.integers(0, 4), min_size=k + 1, max_size=k + 1))
            total = sum(weights)
            scale = 1 << total.bit_length()  # keep the weights dyadic
            weights[0] += scale - total
            pts.append(DyadicPoint(
                sum(Fraction(w, scale) * fractions_of(v)[d] for w, v in zip(weights, simplex))
                for d in range(n)
            ))
        else:
            pts.append(draw(points(n)))
    return simplex, pts


def located_fractions(simplex, pts):
    """``_locate``'s verdicts, each point's numerators over their sum, after
    checking that the sum is one positive denominator for all points."""
    located = _locate(simplex, pts)
    assert len({sum(c) for c in located if c is not None}) <= 1
    assert all(sum(c) > 0 for c in located if c is not None)
    return [None if c is None else [Fraction(x, sum(c)) for x in c] for c in located]


class TestKernelOracle:
    @given(simplex_and_points(most=3))
    def test_barycentric(self, case):
        """All points of a draw in one call: each verdict is the oracle's."""
        simplex, pts = case
        want = [_oracle_barycentric(pt, simplex) for pt in pts]
        if "degenerate" in want:
            with pytest.raises(ValueError):
                _locate(simplex, pts)
        else:
            assert located_fractions(simplex, pts) == want

    @given(simplex_and_points(full=True))
    def test_volume_and_orientation(self, case):
        simplex, _ = case
        p0 = fractions_of(simplex[0])
        det = frac_det(
            [[x - y for x, y in zip(fractions_of(v), p0)] for v in simplex[1:]]
        )
        n = len(simplex) - 1
        assert simplex_volume(simplex) == abs(det) / math.factorial(n)
        ((got, _),) = _cell_dets([simplex])
        assert (got > 0) - (got < 0) == (det > 0) - (det < 0)

    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(st.lists(points(n), min_size=n + 1, max_size=n + 1), max_size=5)
        )
    )
    def test_volume_sum_over_mixed_exponents(self, simplices):
        """Each simplex's edge rows come down to its own exponent before
        its determinant; the sum over all of them stays exact."""
        want = Fraction(0)
        for simplex in simplices:
            p0 = fractions_of(simplex[0])
            det = frac_det(
                [[x - y for x, y in zip(fractions_of(v), p0)] for v in simplex[1:]]
            )
            want += abs(det) / math.factorial(len(simplex) - 1)
        assert volumes(simplices) == want

    @given(st.integers(1, 4).flatmap(lambda n: st.lists(points(n), max_size=5)))
    def test_distances(self, pts):
        pairs = [frac_sq_dist(a, b) for i, a in enumerate(pts) for b in pts[i + 1 :]]
        rows, e = _rows(pts)
        assert Fraction(_max_gap_sq(rows), 1 << (2 * e)) == max(pairs, default=0)


def _oracle_det(simplex):
    p0 = fractions_of(simplex[0])
    return frac_det([[x - y for x, y in zip(fractions_of(v), p0)] for v in simplex[1:]])


def spread_simplices(rng, n, tops):
    """One n-simplex per exponent in ``tops``, the largest exponent among its
    vertices; each other vertex takes an exponent in ``0..top``.  A
    coordinate is a small integer plus an odd numerator over ``2**e``, so a
    vertex's own exponent is exactly its ``e``."""

    def vertex(e):
        odd = lambda: 2 * rng.randrange(-(1 << 16), 1 << 16) + 1
        return DyadicPoint(rng.randrange(-4, 5) + Fraction(odd(), 1 << e) for _ in range(n))

    return [
        [vertex(top)] + [vertex(rng.randrange(top + 1)) for _ in range(n)]
        for top in tops
    ]


def _degenerate(simplex):
    """The simplex with its last vertex moved to the midpoint of its first
    two, so that its volume is 0."""
    return [*simplex[:-1], midpoint(simplex[0], simplex[1])]


def _pair(c: Fraction) -> list:
    num, den = c.as_integer_ratio()
    return [str(num), str(den.bit_length() - 1)]


class TestOwnExponentDeterminants:
    """``_cell_dets`` takes each simplex at its own largest exponent;
    ``simplex_volume`` and the loader's zero-volume test run on it.  Checked
    against Fraction determinants, with vertex exponents from 0 to 2**12."""

    TOPS = [0, 1, 2, 3, 5, 8, 13, 64, 65, 700, 1000, 2047, 4095, 4096]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 4))
    def test_dets_volume_sum_and_orientation(self, seed, n):
        rng = random.Random(seed)
        simplices = spread_simplices(rng, n, self.TOPS)
        if n > 1:
            simplices.insert(rng.randrange(len(simplices)), _degenerate(simplices[0]))
        dets = list(_cell_dets(simplices))
        for simplex, (det, exp) in zip(simplices, dets):
            want = _oracle_det(simplex)
            assert exp == max(p.exp for p in simplex)
            assert Fraction(det, 1 << (n * exp)) == want
        assert len({exp for _, exp in dets}) >= len(self.TOPS)
        want = sum(abs(_oracle_det(s)) for s in simplices) / math.factorial(n)
        assert volumes(simplices) == want

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32), st.integers(2, 3), st.booleans())
    def test_loader_names_the_first_degenerate_cell(self, seed, n, flat):
        rng = random.Random(seed)
        simplices = spread_simplices(rng, n, self.TOPS)
        if flat:
            at = rng.randrange(len(simplices))
            simplices[at] = _degenerate(simplices[at])
        ids: dict = {}
        for simplex in simplices:
            for p in simplex:
                ids.setdefault(p, len(ids))
        doc = {
            "dim": n,
            "vertices": [[_pair(c) for c in fractions_of(p)] for p in ids],
            "cells": [
                {"horizontal": [ids[p] for p in simplex], "vertical": []}
                for simplex in simplices
            ],
        }
        degenerate = [i for i, s in enumerate(simplices) if not _oracle_det(s)]
        assert bool(degenerate) == flat
        if flat:
            want = rf"cells\[{degenerate[0]}\]: zero volume"
            with pytest.raises(MeshFormatError, match=want):
                mesh_from_dict(doc)
        else:
            tri, _, _ = mesh_from_dict(doc)
            assert leaf_volume(tri) == sum(
                abs(_oracle_det(s)) for s in simplices
            ) / math.factorial(n)


@st.composite
def placed_point(draw):
    """A random dyadic n-simplex in n-space (sometimes degenerate) and a
    point at one of its vertices, on a facet, inside, or anywhere."""
    n = draw(st.integers(1, 4))
    simplex = draw(st.lists(points(n), min_size=n + 1, max_size=n + 1))
    kind = draw(st.sampled_from(["vertex", "facet", "inside", "anywhere"]))
    if kind == "anywhere":
        return simplex, draw(points(n))
    weights = draw(st.lists(st.integers(1, 4), min_size=n + 1, max_size=n + 1))
    j = draw(st.integers(0, n))
    if kind == "vertex":
        weights = [int(i == j) for i in range(n + 1)]
    elif kind == "facet":
        weights[j] = 0
    total = sum(weights)
    scale = 1 << (total - 1).bit_length()  # keep the weights dyadic
    weights[next(i for i, w in enumerate(weights) if w)] += scale - total
    pt = DyadicPoint(
        sum(Fraction(w, scale) * fractions_of(v)[d] for w, v in zip(weights, simplex))
        for d in range(n)
    )
    return simplex, pt


@given(placed_point())
def test_containment_sign_test_matches_oracle(case):
    """The sign test of ``_locate``, which every containment verdict uses,
    on points at a vertex, on a facet, inside or anywhere: a point lies in
    the closed n-simplex iff every numerator is nonnegative."""
    simplex, pt = case
    want = _oracle_barycentric(pt, simplex)
    if want == "degenerate":
        with pytest.raises(ValueError):
            _locate(simplex, [pt])
    else:
        assert located_fractions(simplex, [pt]) == [want]


@st.composite
def basis_and_target(draw):
    """k <= n + 1 integer rows in n-space, n <= 4, and a target drawn in
    their span, anywhere, or against rows made dependent on purpose."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(0, n + 1))
    entries = st.integers(-6, 6) | st.integers(-(1 << 70), 1 << 70)
    basis = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=k, max_size=k))
    kind = draw(st.sampled_from(["span", "anywhere", "dependent"]))
    if kind == "dependent" and k >= 1:
        ws = draw(st.lists(st.integers(-3, 3), min_size=k - 1, max_size=k - 1))
        basis[-1] = [sum(w * u[d] for w, u in zip(ws, basis)) for d in range(n)]
    if kind == "span":
        ws = draw(st.lists(st.integers(-5, 5), min_size=k, max_size=k))
        target = [sum(w * u[d] for w, u in zip(ws, basis)) for d in range(n)]
    else:
        target = draw(st.lists(entries, min_size=n, max_size=n))
    return basis, target


@given(basis_and_target())
def test_solve_matches_gram_oracle(case):
    basis, target = case
    want = frac_solve(basis, target)
    if want == "degenerate":
        with pytest.raises(ValueError):
            _solve_all(basis, [target])
    elif want is None:
        assert _solve_all(basis, [target])[0] == [None]
    else:
        (nums,), den = _solve_all(basis, [target])
        assert den > 0
        assert [sum(c * u[d] for c, u in zip(nums, basis)) for d in range(len(target))] == [
            den * t for t in target
        ]
        assert [Fraction(c, den) for c in nums] == want


@given(st.integers(0, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-3, 3) | st.integers(-(1 << 70), 1 << 70), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
))
def test_det_matches_fraction_elimination(rows):
    """The determinant of a square matrix is the swap sign times the last
    pivot of its elimination (1 for the empty matrix)."""
    sign, pivot = _eliminate([list(r) for r in rows], len(rows))
    assert sign * pivot == frac_det(rows)


@st.composite
def basis_and_targets(draw):
    """k <= n + 1 integer rows in n-space, n <= 4, sometimes made dependent
    on purpose, and up to four targets, each drawn in their span or
    anywhere (off the span, almost surely, when k < n)."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(0, n + 1))
    entries = st.integers(-6, 6) | st.integers(-(1 << 70), 1 << 70)
    basis = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=k, max_size=k))
    if k >= 1 and draw(st.booleans()):
        ws = draw(st.lists(st.integers(-3, 3), min_size=k - 1, max_size=k - 1))
        basis[-1] = [sum(w * u[d] for w, u in zip(ws, basis)) for d in range(n)]
    targets = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            ws = draw(st.lists(st.integers(-5, 5), min_size=k, max_size=k))
            targets.append([sum(w * u[d] for w, u in zip(ws, basis)) for d in range(n)])
        else:
            targets.append(draw(st.lists(entries, min_size=n, max_size=n)))
    return basis, targets


@given(basis_and_targets())
def test_multi_target_solve_matches_gram_oracle_per_column(case):
    """One elimination of ``[basis^T | t_1 ... t_m]`` answers each column
    as the oracle answers it alone, over one shared denominator."""
    basis, targets = case
    if frac_solve(basis, []) == "degenerate":  # a property of the rows alone
        with pytest.raises(ValueError):
            _solve_all(basis, targets)
        return
    sols, den = _solve_all(basis, targets)
    assert den > 0 and len(sols) == len(targets)
    for target, nums in zip(targets, sols):
        want = frac_solve(basis, target)
        if want is None:
            assert nums is None
        else:
            assert [Fraction(c, den) for c in nums] == want
