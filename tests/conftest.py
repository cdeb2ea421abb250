"""Shared mesh factories and independent test oracles."""

import json
import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from bisectmesh import DyadicPoint, VertexPool, Triangulation, kuhn
from bisectmesh.exactgeom import _rows, _solve_all, simplex_volume
from bisectmesh.inittags import VertexPartition, agk_init
from bisectmesh.meshio import mesh_to_dict
from bisectmesh.tarray import TaggedSimplex


def point(*coords):
    """Convenience constructor: ``point(0, Fraction(1, 2))``."""
    return DyadicPoint(coords)


def fractions_of(p):
    """Independent oracle: the coordinates of a DyadicPoint as Fractions."""
    return tuple(Fraction(x, 1 << p.exp) for x in p.nums)


def dyadic_text(p):
    """A DyadicPoint as document coordinates, ``["num", "exp"]`` in lowest
    terms, computed over Fractions."""
    return [[str(q.numerator), str(q.denominator.bit_length() - 1)] for q in fractions_of(p)]


def marked_text(tri, marking, partition=None):
    """A mesh file with a ``{type: points}`` marking, which the writer does
    not emit: the document of ``tri`` and ``partition`` with ``marking``
    before ``partition``, laid out as ``write_mesh`` lays out a document,
    ``json.dumps(doc, indent=1)`` plus a newline."""
    doc = mesh_to_dict(tri, partition)
    part = doc.pop("partition", None)
    doc["marking"] = {str(m): [dyadic_text(p) for p in pts] for m, pts in marking.items()}
    if part is not None:
        doc["partition"] = part
    return json.dumps(doc, indent=1) + "\n"


def barycentric(pt, simplex):
    """Exact barycentric coordinates of ``pt`` in a non-degenerate simplex,
    as Fractions, or None when it lies outside (off the affine hull too).
    A reference for the scans below: one kernel solve per point and its
    own sign test, not the package's point location."""
    rows, _ = _rows([*simplex[1:], pt], simplex[0])
    (nums,), den = _solve_all(rows[:-1], rows[-1:])
    if nums is None:
        return None
    coords = [den - sum(nums), *nums]
    if any(c < 0 for c in coords):
        return None
    return [Fraction(c, den) for c in coords]


def leaf_volume(tri):
    """Exact total volume of the leaves of ``tri``, one simplex at a time."""
    return sum((simplex_volume(t.vertices(tri.forest.pool)) for t in tri.cells()), Fraction(0))


def frac_sq_dist(a, b):
    """Squared distance of two DyadicPoints, computed over Fractions."""
    return sum((x - y) ** 2 for x, y in zip(fractions_of(a), fractions_of(b)))


def frac_diam_sq(pts):
    """Squared diameter of DyadicPoints over Fractions (0 for fewer than two)."""
    return max((frac_sq_dist(a, b) for a, b in combinations(pts, 2)), default=0)


def frac_offset(p, origin):
    """``p - origin`` for two DyadicPoints, as a tuple of Fractions."""
    return tuple(x - y for x, y in zip(fractions_of(p), fractions_of(origin)))


def scaled_point(p, scale, shift=None):
    """The DyadicPoint ``scale * p + shift``, computed over Fractions; no
    ``shift`` is the zero vector."""
    shift = shift or [0] * p.dim
    return DyadicPoint(scale * x + s for x, s in zip(fractions_of(p), shift))


def frac_det(rows):
    """Determinant by Gaussian elimination over Fractions."""
    m = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for col in range(len(m)):
        pivot = next((r for r in range(col, len(m)) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, len(m)):
            f = m[r][col] / m[col][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


def frac_solve(basis, t):
    """Cramer's rule over Fractions on the Gram system: the coefficients of
    ``t`` in the rows ``basis``, None off their span, "degenerate" for
    dependent rows."""
    dot = lambda u, v: sum(x * y for x, y in zip(u, v))
    gram = [[dot(u, v) for v in basis] for u in basis]
    rhs = [dot(u, t) for u in basis]
    den = frac_det(gram)
    if den == 0:
        return "degenerate"
    sol = [
        frac_det([row[:i] + [r] + row[i + 1 :] for row, r in zip(gram, rhs)]) / den
        for i in range(len(basis))
    ]
    if [sum(c * u[d] for c, u in zip(sol, basis)) for d in range(len(t))] != list(t):
        return None
    return sol


def kuhn_square():
    """Unit square split along the diagonal; both refinement edges on it."""
    pool = VertexPool()
    a = pool.id_of(point(0, 0))
    b = pool.id_of(point(1, 0))
    c = pool.id_of(point(1, 1))
    d = pool.id_of(point(0, 1))
    cells = [TaggedSimplex((a, b, c), ()), TaggedSimplex((a, d, c), ())]
    return Triangulation.from_cells(pool, cells)


def one_sided_square():
    """Unit square split along the diagonal {1, 2} into the T-arrays
    (1 2|0) and (1 3|2): the diagonal is the refinement edge of the first
    triangle only, so the mesh breaks the strong initial conditions."""
    pool = VertexPool()
    ids = [pool.id_of(point(*q)) for q in [(0, 0), (1, 0), (0, 1), (1, 1)]]
    assert ids == [0, 1, 2, 3]
    cells = [TaggedSimplex((1, 2), (0,)), TaggedSimplex((1, 3), (2,))]
    return Triangulation.from_cells(pool, cells)


def kuhn_cube_cells(n, pool=None):
    """The n! full-type simplices triangulating the unit n-cube."""
    pool = pool or VertexPool()
    cells = [
        kuhn(list(perm), [1] * n, pool).vertex_ids
        for perm in permutations(range(1, n + 1))
    ]
    return pool, cells


def kuhn_cube_mesh(n):
    pool, cells = kuhn_cube_cells(n)
    return Triangulation.from_cells(pool, [TaggedSimplex(c, ()) for c in cells])


def kuhn_grid(n, k, side=1):
    """The ``k**n`` cubes of edge ``side / k`` filling ``[0, side]**n``
    (``k`` a power of two), each cut into its n! Kuhn simplices, which walk
    from the cube's low corner to its high one, one axis at a time.  Vertex
    ids run over the grid points in lexicographic order; in the plane, the
    cells of square (i, j) come lower-right first."""
    pool = VertexPool()
    ids = {
        c: pool.id_of(DyadicPoint([Fraction(x * side, k) for x in c]))
        for c in product(range(k + 1), repeat=n)
    }
    cells = []
    for corner in product(range(k), repeat=n):
        for perm in permutations(range(n)):
            walk = [corner]
            for axis in perm:
                walk.append(tuple(x + (i == axis) for i, x in enumerate(walk[-1])))
            cells.append(TaggedSimplex(tuple(map(ids.__getitem__, walk)), ()))
    return Triangulation.from_cells(pool, cells)


def agk_cube(seed):
    """The unit 3-cube tagged by ``agk_init`` from a seeded vertex partition
    with seeded block orders."""
    rng = random.Random(seed)
    pool, cells = kuhn_cube_cells(3)
    verts = sorted({v for c in cells for v in c})
    rng.shuffle(verts)
    k = rng.randrange(len(verts) + 1)
    part = VertexPartition(
        frozenset(verts[:k]), frozenset(verts[k:]), verts[:k], verts[k:]
    )
    return agk_init(pool, cells, part)


def single_kuhn(n):
    pool = VertexPool()
    return Triangulation.from_cells(pool, [kuhn(list(range(1, n + 1)), [1] * n, pool)])


def tripled_triangle_pair():
    """Two triangles scaled by 3 so that all barycentres are dyadic."""
    pool = VertexPool()
    p1 = pool.id_of(point(0, 0))
    p2 = pool.id_of(point(6, 0))
    p3 = pool.id_of(point(3, 3))
    p4 = pool.id_of(point(9, 3))
    return pool, [(p1, p2, p3), (p2, p3, p4)], (p1, p2, p3, p4)


def tripled_tet():
    pool = VertexPool()
    vs = tuple(
        pool.id_of(point(*q)) for q in [(0, 0, 0), (3, 0, 0), (3, 3, 0), (3, 3, 3)]
    )
    return pool, [vs]


def find_hanging(tri):
    """Independent hanging-node scan: (vertex id, leaf id) pairs."""
    forest = tri.forest
    pool = forest.pool
    out = []
    leaf_pts = {
        leaf: forest.tarray(leaf).vertices(pool) for leaf in tri.leaves
    }
    for vid in tri.vertex_index:
        p = pool.point(vid)
        for leaf, pts in leaf_pts.items():
            if vid in forest.tarray(leaf).vertex_ids:
                continue
            if barycentric(p, pts) is not None:
                out.append((vid, leaf))
    return out


def naive_repair_oracle(tri, marked):
    """Bisect the marked leaf, then repeatedly bisect any leaf carrying a
    hanging vertex.  Every step is forced, so the result is the coarsest
    conforming refinement strictly finer than the marked cell."""
    tri.bisect_leaf(marked)
    for _ in range(100_000):
        hanging = find_hanging(tri)
        if not hanging:
            return tri
        tri.bisect_leaf(hanging[0][1])
    raise AssertionError("naive repair did not terminate")


def staircase_mesh(steps):
    """Kuhn triangle graded towards its right-angle corner: bisecting the
    smallest cell forces a cascade through every stair."""
    from bisectmesh.refine import refine

    tri = single_kuhn(2)
    forest = tri.forest
    pool = forest.pool
    corner = point(1, 0)
    for _ in range(steps):
        containing = [
            leaf
            for leaf in tri.leaves
            if barycentric(corner, forest.tarray(leaf).vertices(pool)) is not None
        ]
        deepest = max(containing, key=lambda nid: (forest.tarray(nid).level, -nid))
        refine(tri, deepest)
    return tri


@pytest.fixture
def square():
    return kuhn_square()
