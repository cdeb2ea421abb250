"""Tagged simplices (T-arrays) and the operations the bisection rule needs.

A T-array arranges the vertices of a simplex into an ordered horizontal row
``(p0 ... pk)`` and a vertical column ``(p_{k+1} ... p_m)``.  The type is
``k``; bisection decrements it, transposition of a type-0 array resets it to
full and increments the hyperlevel.  Vertices are ids into a global
:class:`VertexPool` keyed by exact coordinates, so identity checks on new
vertices are id comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import sub
from typing import Iterable, Optional, Sequence

from .exactgeom import (
    DyadicPoint,
    midpoint,
    _eliminate,
    _rows,
    _solve_all,
    _unsigned,
)


class VertexPool:
    """Interns exact points; equal coordinates always map to the same id."""

    def __init__(self):
        self.points: list[DyadicPoint] = []
        self._index: dict[DyadicPoint, int] = {}

    def id_of(self, p: DyadicPoint) -> int:
        vid = self._index.get(p)
        if vid is None:
            vid = len(self.points)
            self.points.append(p)
            self._index[p] = vid
        return vid

    @classmethod
    def _numbered(cls, points: list) -> Optional["VertexPool"]:
        """The pool whose id ``i`` is ``points[i]``, or None when two of
        the points are equal."""
        pool = cls()
        pool._index = dict(zip(points, range(len(points))))
        if len(pool._index) != len(points):
            return None
        pool.points = points
        return pool

    def point(self, vid: int) -> DyadicPoint:
        return self.points[vid]

    def midpoint_id(self, a: int, b: int) -> int:
        return self.id_of(midpoint(self.points[a], self.points[b]))

    def __len__(self):
        return len(self.points)


def _edge(a: int, b: int) -> frozenset:
    """An edge: the frozenset of its two vertex ids, built low id first so
    that its text depends on the pair alone, not on the order given."""
    return frozenset((a, b) if a < b else (b, a))


@dataclass(frozen=True, slots=True)
class TaggedSimplex:
    """A T-array: a non-empty horizontal row and a vertical column of
    distinct vertex ids.  Its makers keep this invariant; the class does
    not check it.  The mesh loader rejects an empty row and repeated ids,
    naming the JSON path.  :func:`bisect` drops one end of a row of two or
    more ids and adds the midpoint of an edge, which in a non-degenerate
    simplex is not a vertex.  :func:`restrict` keeps a subsequence, moved
    to the row when the row would be empty; :func:`canonicalize` reorders
    the ids; :func:`kuhn` steps along distinct axes; ``inittags.agk_init``
    splits a cell's ids between row and column; ``initial_division`` adds
    each marked point (one per type) to a face it does not lie on."""

    horizontal: tuple[int, ...]
    vertical: tuple[int, ...]
    level: int = 0
    hyperlevel: int = 0

    @property
    def type(self) -> int:
        return len(self.horizontal) - 1

    @property
    def dim(self) -> int:
        return len(self.horizontal) + len(self.vertical) - 1

    @property
    def vertex_ids(self) -> tuple[int, ...]:
        return self.horizontal + self.vertical

    def vertices(self, pool: VertexPool) -> list[DyadicPoint]:
        """The cell's points, in ``vertex_ids`` order."""
        points = pool.points
        return [points[v] for v in self.vertex_ids]

    @property
    def edge_hyperlevel(self) -> int:
        """Hyperlevel of the refinement edge: that of the array in the
        full-type convention (a type-0 array counts as its transposed)."""
        return self.hyperlevel + 1 if self.type == 0 else self.hyperlevel

    def edges(self) -> list[frozenset]:
        return [_edge(a, b) for a, b in combinations(self.vertex_ids, 2)]


def bisect(
    s: TaggedSimplex, pool: VertexPool
) -> tuple[TaggedSimplex, TaggedSimplex, int]:
    """Bisect a tagged simplex, implicitly transposing type-0 input first.

    Returns the two children and the id of the new vertex (the midpoint of
    the refinement edge).  Level increments by one; the hyperlevel increments
    exactly when the implicit transposition happens.  A type-0 array's
    children are built straight from its transposed row, the full-type row
    ``horizontal + vertical`` one hyperlevel up, with no array in between.
    """
    if s.dim < 1:
        raise ValueError("cannot bisect a 0-dimensional simplex")
    row, vertical, hyperlevel = s.horizontal, s.vertical, s.hyperlevel
    if len(row) == 1:
        row, vertical, hyperlevel = row + vertical, (), hyperlevel + 1
    new_id = pool.midpoint_id(row[0], row[-1])
    vert = (new_id, *vertical)
    level = s.level + 1
    return (
        TaggedSimplex(row[1:], vert, level, hyperlevel),
        TaggedSimplex(row[:-1], vert, level, hyperlevel),
        new_id,
    )


def refinement_edge(s: TaggedSimplex) -> frozenset:
    """The edge that bisection splits: (p0, pk), for type 0 that of the
    transposed array.  Its hyperlevel is :attr:`TaggedSimplex.edge_hyperlevel`.
    """
    if s.type >= 1:
        return _edge(s.horizontal[0], s.horizontal[-1])
    if s.dim == 0:
        raise ValueError("0-dimensional array has no refinement edge")
    return _edge(s.horizontal[0], s.vertical[-1])


def canonicalize(s: TaggedSimplex) -> TaggedSimplex:
    """Unique representative of the class of ``s`` under reflexion and
    transposition.

    Mid-type arrays are identified with their reflexion only; type-0 and
    full-type arrays of the same vertex chain are all identified and stored
    untransposed (type 0).  The representative carries no level or hyperlevel
    data (both zeroed); coincidence predicates that care about hyperlevels
    compare them separately.
    """
    if 0 < s.type < s.dim:
        h = min(s.horizontal, tuple(reversed(s.horizontal)))
        return TaggedSimplex(h, s.vertical, 0, 0)
    chain = s.vertex_ids
    chain = min(chain, tuple(reversed(chain)))
    return TaggedSimplex(chain[:1], chain[1:], 0, 0)


def restrict(s: TaggedSimplex, subset: Iterable[int]) -> TaggedSimplex:
    """Restrict a T-array to a subset of its vertices.

    Remaining entries are pushed together preserving order.  A restriction
    without any horizontal vertex is transposed: its vertical vertices form
    a full-type row and its hyperlevel is incremented.
    """
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
    return TaggedSimplex(ver, (), 0, s.hyperlevel + 1)


def kuhn(
    permutation: Sequence[int],
    signs: Sequence[int],
    pool: VertexPool,
    offset: Optional[DyadicPoint] = None,
) -> TaggedSimplex:
    """Full-type Kuhn simplex: successive vertex differences are signed
    canonical unit vectors ``eps_j * e_{sigma(j)}``."""
    n = len(permutation)
    if sorted(permutation) != list(range(1, n + 1)):
        raise ValueError("permutation must reorder 1..n")
    if len(signs) != n or any(e not in (1, -1) for e in signs):
        raise ValueError("signs must be +-1 of length n")
    if offset is None:
        offset = DyadicPoint([0] * n)
    nums, exp = list(offset.nums), offset.exp
    pts = [offset]
    for axis, sign in zip(permutation, signs):
        nums[axis - 1] += sign << exp
        pts.append(DyadicPoint._of(nums, exp))
    return TaggedSimplex(tuple(pool.id_of(p) for p in pts), ())


def lattice_of(s: TaggedSimplex, pool: VertexPool, width: int):
    """The Chebyshev lattice of a T-array, the unique scaled integer lattice
    in which it is a reference simplex, as ``(origin, basis)``: its points
    are ``origin`` plus Z-combinations of ``basis``.

    The cube of the horizontal part is spanned by its successive differences;
    each vertical vertex extends the cube to the next dimension with itself
    as the new centre: on offset rows from ``origin`` its edge is twice its
    row minus the sum of the edges so far, which is the previous row.  The
    final cube's edge vectors, one step of length ``2**-hyperlevel``, are
    scaled to step ``2**-width``.
    """
    pts = s.vertices(pool)
    rows, e = _rows(pts[1:], pts[0])
    edges, total = [], [0] * pts[0].dim
    for j, row in enumerate(rows):
        if j >= s.type:
            row = [2 * x for x in row]
        edges.append(list(map(sub, row, total)))
        total = row
    if not _eliminate([list(col) for col in zip(*edges)], len(edges))[1]:
        raise ValueError("degenerate T-array has no lattice")
    return pts[0], [DyadicPoint._of(edge, e + width - s.hyperlevel) for edge in edges]


def same_lattice(a: tuple, b: tuple) -> bool:
    """Exact equality of two ``(origin, basis)`` lattices, max-norms included.

    The bases must agree up to a signed permutation (the only unimodular
    max-norm isometries); an independent basis has no two parallel vectors,
    so that is equality of the sign-normalised vector sets.  The origins
    must differ by a lattice vector.
    """
    (oa, ba), (ob, bb) = a, b
    if {(_unsigned(v.nums), v.exp) for v in ba} != {(_unsigned(v.nums), v.exp) for v in bb}:
        return False
    *rows, rb, ra = _rows([*ba, ob, oa])[0]
    (nums,), den = _solve_all(rows, [list(map(sub, rb, ra))])
    return nums is not None and all(x % den == 0 for x in nums)
