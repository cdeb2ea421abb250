"""Exact dyadic-rational arithmetic and the geometric predicates of the mesh engine.

Every vertex produced by edge bisection is a dyadic midpoint, so coordinates
are dyadic rationals (integer numerator over a power of two) and vertex
equality is bit-exact.  The one exact value type, :class:`DyadicPoint`, is an
integer vector over one shared power of two, built from ints and dyadic
``Fraction``s; every predicate (volume, orientation, barycentric coordinates,
squared distance) is integer arithmetic on such vectors: one fraction-free
Bareiss determinant, one Gram/Cramer solve and, for full-dimensional
containment, Cramer sign tests on the same determinant.  Results that leave
the dyadics (volumes, barycentric coordinates) are returned as
``fractions.Fraction``; floats appear only in reporting.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence


def Dyadic(num: int, exp: int = 0) -> Fraction:
    """``num / 2**exp`` as a Fraction; kept for the benchmark's input
    builders, not called by the package."""
    return Fraction(num, 1 << exp)


def _reduced(num: int, exp: int) -> tuple[int, int]:
    """``num / 2**exp`` in lowest terms: an odd numerator over ``2**exp``,
    or exponent 0 (zero is ``(0, 0)``)."""
    if not num:
        return 0, 0
    shift = min((num & -num).bit_length() - 1, exp)
    return num >> shift, exp - shift


class DyadicPoint:
    """A point with exact dyadic coordinates ``nums[d] / 2**exp``.

    Canonical form: the exponent is 0 or some numerator is odd, so equal
    points have equal ``(nums, exp)`` and every operation is integer-vector
    arithmetic.  Build one from ints and ``Fraction``s with power-of-two
    denominators.
    """

    __slots__ = ("nums", "exp")

    def __init__(self, coords: Iterable):
        ratios = []
        for c in coords:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"cannot interpret {c!r} as a dyadic rational")
            num, den = c.as_integer_ratio()
            if den & (den - 1):
                raise ValueError(f"{c} is not a dyadic rational")
            ratios.append((num, den))
        # reduced fractions: the largest denominator is the common one, and
        # its numerator is odd, so the point is canonical
        den = max((d for _, d in ratios), default=1)
        self.exp = den.bit_length() - 1
        self.nums = tuple(num * (den // d) for num, d in ratios)

    @classmethod
    def _of(cls, nums, exp: int) -> "DyadicPoint":
        """Canonical point ``nums / 2**exp`` for any integer vector and exponent."""
        if exp < 0:
            nums, exp = [x << -exp for x in nums], 0
        elif exp:
            bits = 0
            for x in nums:
                bits |= x
            shift = min((bits & -bits).bit_length() - 1, exp) if bits else exp
            if shift:
                nums, exp = [x >> shift for x in nums], exp - shift
        p = object.__new__(cls)
        p.nums = tuple(nums)
        p.exp = exp
        return p

    @property
    def dim(self) -> int:
        return len(self.nums)

    def at_exp(self, exp: int) -> list:
        """Numerators over ``2**exp``, for any ``exp >= self.exp``."""
        return [x << (exp - self.exp) for x in self.nums]

    def __add__(self, other: "DyadicPoint") -> "DyadicPoint":
        e = max(self.exp, other.exp)
        return DyadicPoint._of([x + y for x, y in zip(self.at_exp(e), other.at_exp(e))], e)

    def __sub__(self, other: "DyadicPoint") -> "DyadicPoint":
        e = max(self.exp, other.exp)
        return DyadicPoint._of([x - y for x, y in zip(self.at_exp(e), other.at_exp(e))], e)

    def half(self) -> "DyadicPoint":
        return DyadicPoint._of(self.nums, self.exp + 1)

    def scale_pow2(self, k: int) -> "DyadicPoint":
        """Return self * 2**k (k may be negative)."""
        return DyadicPoint._of(self.nums, self.exp - k)

    def as_fractions(self) -> tuple:
        return tuple(Fraction(x, 1 << self.exp) for x in self.nums)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DyadicPoint)
            and self.exp == other.exp
            and self.nums == other.nums
        )

    def __hash__(self):
        return hash((self.nums, self.exp))

    def __repr__(self):
        parts = []
        for x in self.nums:
            num, exp = _reduced(x, self.exp)
            parts.append(f"{num}/2^{exp}" if exp else str(num))
        return "DyadicPoint(" + ", ".join(parts) + ")"


def point(*coords) -> DyadicPoint:
    """Convenience constructor: ``point(0, Fraction(1, 2))``."""
    return DyadicPoint(coords)


def midpoint(a: DyadicPoint, b: DyadicPoint) -> DyadicPoint:
    """Exact midpoint (a + b) / 2 of two points of equal dimension."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} != {b.dim}")
    e = max(a.exp, b.exp)
    return DyadicPoint._of([x + y for x, y in zip(a.at_exp(e), b.at_exp(e))], e + 1)


# --- the integer kernel -------------------------------------------------------


def _rows(pts: Sequence[DyadicPoint], origin: Optional[DyadicPoint] = None):
    """Integer rows of ``p - origin`` (of ``p`` without an origin) for each
    point, all over one ``2**exp``; returns ``(rows, exp)``."""
    e = max([p.exp for p in pts] + ([] if origin is None else [origin.exp]), default=0)
    if origin is None:
        return [p.at_exp(e) for p in pts], e
    o = origin.at_exp(e)
    return [[x - y for x, y in zip(p.at_exp(e), o)] for p in pts], e


def _det(rows: list) -> int:
    """Determinant of a square integer matrix by fraction-free Bareiss
    elimination; 1 for the empty matrix."""
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _dot(u: list, v: list) -> int:
    return sum(x * y for x, y in zip(u, v))


def _gram(basis: list) -> list:
    """Gram matrix of integer rows; its determinant is positive iff the rows
    are independent."""
    return [[_dot(u, v) for v in basis] for u in basis]


def _gram_solve(basis: list, target: list):
    """Exact coordinates of the integer vector ``target`` in the independent
    integer rows ``basis``, by Cramer's rule on the Gram system.

    Returns ``(nums, den)`` with ``den > 0`` and
    ``sum(nums[i] * basis[i]) == den * target``, or None when ``target`` is
    off the span.  Raises ValueError when the rows are dependent.
    """
    gram = _gram(basis)
    rhs = [_dot(u, target) for u in basis]
    den = _det(gram)
    if den == 0:
        raise ValueError("dependent basis vectors (degenerate simplex)")
    nums = [
        _det([row[:i] + [r] + row[i + 1 :] for row, r in zip(gram, rhs)])
        for i in range(len(basis))
    ]
    for d, t in enumerate(target):
        if sum(c * u[d] for c, u in zip(nums, basis)) != den * t:
            return None
    return nums, den


def _cramer_contains(edges: list, det: int, offset: list) -> bool:
    """True iff the integer vector ``offset`` lies in the closed simplex
    spanned from the origin by the n square integer rows ``edges``, where
    ``det == _det(edges)``.

    By Cramer's rule the i-th barycentric coordinate is ``num_i / det``,
    ``num_i`` being the determinant of ``edges`` with row i replaced by
    ``offset``; the scan stops at the first numerator whose sign opposes
    ``det`` and ends with ``det - sum(num_i)``, the origin's numerator.
    Raises ValueError when ``det`` is 0 (degenerate simplex).
    """
    if det == 0:
        raise ValueError("dependent basis vectors (degenerate simplex)")
    neg = det < 0
    rest = det
    for i in range(len(edges)):
        num = _det(edges[:i] + [offset] + edges[i + 1 :])
        if num and (num < 0) != neg:
            return False
        rest -= num
    return not rest or (rest < 0) == neg


# --- predicates ---------------------------------------------------------------


def _edge_rows(vertices: Sequence[DyadicPoint]) -> tuple[list, int]:
    n = len(vertices) - 1
    if any(v.dim != n for v in vertices):
        raise ValueError("need n+1 points of dimension n")
    return _rows(vertices[1:], vertices[0])


def simplex_volume(vertices: Sequence[DyadicPoint]) -> Fraction:
    """Exact volume |det(p1-p0, ..., pn-p0)| / n! of an n-simplex.

    A degenerate simplex yields volume 0; that is a valid return value.
    """
    n = len(vertices) - 1
    if n == 0:
        return Fraction(0)
    rows, e = _edge_rows(vertices)
    return Fraction(abs(_det(rows)), (1 << (n * e)) * math.factorial(n))


def orientation(vertices: Sequence[DyadicPoint]) -> int:
    """Sign (1, 0 or -1) of det(p1-p0, ..., pn-p0) for n+1 points of
    dimension n; 0 exactly when they are affinely dependent."""
    det = _det(_edge_rows(vertices)[0])
    return (det > 0) - (det < 0)


def barycentric(pt: DyadicPoint, simplex: Sequence[DyadicPoint]):
    """Exact barycentric coordinates of ``pt`` w.r.t. a non-degenerate simplex.

    Returns the list of Fractions (all >= 0, summing to 1) when the point lies
    in the simplex, or None when it lies outside.  Works for a k-simplex
    embedded in n-space; a point off the affine hull counts as outside.
    """
    rows, _ = _rows([*simplex[1:], pt], simplex[0])
    target = rows.pop()
    sol = _gram_solve(rows, target)
    if sol is None:
        return None
    nums, den = sol
    coords = [den - sum(nums), *nums]
    if any(c < 0 for c in coords):
        return None
    return [Fraction(c, den) for c in coords]


def sq_dist(a: DyadicPoint, b: DyadicPoint) -> Fraction:
    """Exact squared Euclidean distance."""
    (row,), e = _rows([a], b)
    return Fraction(_dot(row, row), 1 << (2 * e))


def _max_gap_sq(rows: list) -> int:
    """Largest squared distance between two of the integer rows (or 0)."""
    best = 0
    for i, u in enumerate(rows):
        for v in rows[i + 1 :]:
            d = sum((x - y) * (x - y) for x, y in zip(u, v))
            if d > best:
                best = d
    return best


def diam_sq(pts: Sequence[DyadicPoint]) -> Fraction:
    """Exact squared diameter: the largest squared distance between two of
    the points (0 for fewer than two)."""
    rows, e = _rows(pts)
    return Fraction(_max_gap_sq(rows), 1 << (2 * e))
