"""Exact dyadic-rational arithmetic and the geometric predicates of the mesh engine.

Every vertex produced by edge bisection is a dyadic midpoint, so coordinates
are dyadic rationals (integer numerator over a power of two) and vertex
equality is bit-exact.  The one exact value type, :class:`DyadicPoint`, is an
integer vector over one power of two, built from ints and dyadic
``Fraction``s; :func:`midpoint` is its one operation.  All other arithmetic
runs on integer rows, the points of one question (a simplex, a basis and its
targets) at the largest exponent among them.  One fraction-free Bareiss
elimination serves every linear-algebra question: determinants, the solve
of any number of vectors in the span of k rows (off-span and dependence
tests included) and, through its signs, point location (:func:`_locate`).
Volumes are returned as ``Fraction``s; floats appear only in reporting.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, mul, sub
from typing import Iterable, Iterator, Optional, Sequence


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


def _canonical(nums, exp: int) -> tuple[tuple, int]:
    """The integer vector ``nums / 2**exp`` in canonical form ``(nums, exp)``:
    the exponent is 0 or some numerator is odd."""
    if exp < 0:
        return tuple([x << -exp for x in nums]), 0
    if exp:
        bits = 0
        for x in nums:
            bits |= x
        shift = min((bits & -bits).bit_length() - 1, exp) if bits else exp
        if shift:
            return tuple([x >> shift for x in nums]), exp - shift
    return tuple(nums), exp


def _unsigned(nums: tuple) -> tuple:
    """``nums`` or its negation, whichever has a positive first nonzero
    entry."""
    if next((x for x in nums if x), 0) < 0:
        return tuple([-x for x in nums])
    return nums


class DyadicPoint:
    """A point with exact dyadic coordinates ``nums[d] / 2**exp``.

    Canonical form: the exponent is 0 or some numerator is odd, so equal
    points have equal ``(nums, exp)``.  Build one from ints and ``Fraction``s
    with power-of-two denominators, or by :meth:`_of`; arithmetic runs on
    integer rows (:func:`_rows`), not on points.
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
        p = object.__new__(cls)
        p.nums, p.exp = _canonical(nums, exp)
        return p

    @classmethod
    def _of_canonical(cls, nums: tuple, exp: int) -> "DyadicPoint":
        """The point ``nums / 2**exp`` for a tuple already in canonical form."""
        p = object.__new__(cls)
        p.nums, p.exp = nums, exp
        return p

    @property
    def dim(self) -> int:
        return len(self.nums)

    def at_exp(self, exp: int) -> list:
        """Numerators over ``2**exp``, for any ``exp >= self.exp``."""
        return [x << (exp - self.exp) for x in self.nums]

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


def midpoint(a: DyadicPoint, b: DyadicPoint) -> DyadicPoint:
    """Exact midpoint (a + b) / 2 of two points of equal dimension.

    It shifts the point of smaller exponent itself: through :func:`_rows` a
    midpoint took 2.61 us against 1.27 us (CPython 3.11, 2-vCPU Xeon)."""
    if len(a.nums) != len(b.nums):
        raise ValueError(f"dimension mismatch: {a.dim} != {b.dim}")
    if a.exp < b.exp:
        a, b = b, a
    shift = a.exp - b.exp
    if shift:
        nums = [x + (y << shift) for x, y in zip(a.nums, b.nums)]
    else:
        nums = list(map(add, a.nums, b.nums))
    return DyadicPoint._of(nums, a.exp + 1)


# --- the integer kernel -------------------------------------------------------


def _rows(pts: Sequence[DyadicPoint], origin: Optional[DyadicPoint] = None):
    """Integer rows of ``p - origin`` (of ``p`` without an origin) for each
    point, all over one ``2**exp``; returns ``(rows, exp)``.  A point
    already at ``exp`` lends its own numerators, so rows are read-only."""
    e = max([p.exp for p in pts] + ([] if origin is None else [origin.exp]), default=0)
    rows = [p.nums if p.exp == e else p.at_exp(e) for p in pts]
    if origin is None:
        return rows, e
    o = origin.nums if origin.exp == e else origin.at_exp(e)
    return [list(map(sub, r, o)) for r in rows], e


def _eliminate(m: list, k: int) -> tuple[int, int]:
    """Fraction-free Bareiss elimination, in place, over the first ``k``
    columns of the integer rows ``m``, with row pivoting.

    Returns ``(sign, pivot)``: the sign of the row swaps and the last pivot,
    or pivot 0 when the first ``k`` columns have rank below ``k``.  Row
    ``i < k`` then holds, from column ``i`` on, the order-``i + 1`` minors on
    the pivot rows; a row ``i >= k`` holds, from column ``k`` on, the
    order-``k + 1`` minors bordering the leading ones.  Entries left of the
    diagonal are stale, not zeroed.
    """
    sign = prev = 1
    rows = len(m)
    for c in range(k):
        piv = m[c][c] if c < rows else 0
        if not piv:
            for i in range(c + 1, rows):
                if m[i][c]:
                    m[c], m[i] = m[i], m[c]
                    sign = -sign
                    piv = m[c][c]
                    break
            else:
                return sign, 0
        top = m[c]
        for i in range(c + 1, rows):
            row = m[i]
            f = row[c]
            for j in range(c + 1, len(row)):
                row[j] = (row[j] * piv - f * top[j]) // prev
        prev = piv
    return sign, prev


def _solve_all(basis: list, targets: list) -> tuple[list, int]:
    """Exact coordinates of each integer vector in ``targets`` in the
    independent integer rows ``basis``, by one elimination on
    ``[basis^T | t_1 ... t_m]``.

    Returns ``(sols, den)`` with ``den > 0``: ``sols[j]`` is the list
    ``nums`` with ``sum(nums[i] * basis[i]) == den * targets[j]``, or None
    when ``targets[j]`` is off the span.  Raises ValueError when the rows
    are dependent.  ``den`` is the leading minor and back substitution is
    fraction-free: by Cramer's rule every ``nums[i]`` is an integer, so each
    division is exact.
    """
    k = len(basis)
    m = [list(r) for r in zip(*basis, *targets)]
    _, den = _eliminate(m, k)
    if not den:
        raise ValueError("dependent basis vectors (degenerate simplex)")
    sols = []
    for j in range(k, k + len(targets)):
        if any(row[j] for row in m[k:]):
            sols.append(None)
            continue
        nums = [0] * k
        if k:  # the last pivot is den itself, so that unknown is the entry
            nums[k - 1] = m[k - 1][j]
        for i in range(k - 2, -1, -1):
            row = m[i]
            nums[i] = (den * row[j] - sum(map(mul, row[i + 1 : k], nums[i + 1 :]))) // row[i]
        sols.append(nums if den > 0 else [-x for x in nums])
    return sols, abs(den)


# --- predicates ---------------------------------------------------------------


def _cell_dets(simplices: Iterable[Sequence[DyadicPoint]]) -> Iterator[tuple[int, int]]:
    """``(det, exp)`` for each n-simplex, given by n+1 points of dimension
    n: ``det`` is det(p1-p0, ..., pn-p0) times ``2**(n * exp)``, for ``exp``
    the largest exponent among the simplex's own points.

    There is no common frame: each simplex's points are shifted to its own
    ``exp``, so one vertex with a huge exponent lengthens only the
    determinants of the simplices that hold it.  The determinants are
    computed as they are taken, so a caller may stop at any of them: the
    loader's zero-volume test takes one per cell of every mesh it reads,
    :func:`~bisectmesh.refine._segments_cross` up to four orientation signs
    and :func:`simplex_volume` one.  The loop shifts points itself, not
    through :func:`_rows`, for the loader: through :func:`_rows` it took
    2-8% longer on the leaves of seeded refinements (5.07 against 5.49 ms
    for 1510 triangles, 10.44 against 10.78 ms for 2028 tetrahedra, 58.39
    against 59.79 ms for 7770 4-simplices; CPython 3.11 on a 2-vCPU Xeon).
    """
    for pts in simplices:
        exp = max([p.exp for p in pts])
        rows = [p.nums if p.exp == exp else [x << (exp - p.exp) for x in p.nums] for p in pts]
        p0 = rows.pop(0)
        n = len(p0)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("need n+1 points of dimension n")
        sign, piv = _eliminate([list(map(sub, r, p0)) for r in rows], n)
        yield sign * piv, exp


def simplex_volume(vertices: Sequence[DyadicPoint]) -> Fraction:
    """Exact volume |det(p1-p0, ..., pn-p0)| / n! of an n-simplex.

    A degenerate simplex yields volume 0; that is a valid return value.
    """
    ((det, exp),) = _cell_dets([vertices])
    n = len(vertices) - 1
    return Fraction(abs(det), (1 << (n * exp)) * math.factorial(n))


def _locate(simplex: Sequence[DyadicPoint], pts: Sequence[DyadicPoint]) -> list:
    """Which of ``pts`` lie in the closed ``simplex``, by one elimination
    for all of them (none for no points): per point, its barycentric
    coordinates as integer numerators over one positive denominator, their
    sum, or None outside, off the affine hull of a k-simplex in n-space
    included.  A degenerate simplex raises ValueError."""
    if not pts:
        return []
    rows, _ = _rows([*simplex[1:], *pts], simplex[0])
    sols, den = _solve_all(rows[: len(simplex) - 1], rows[len(simplex) - 1 :])
    out = []
    for nums in sols:
        inside = nums is not None and min(nums, default=0) >= 0 and sum(nums) <= den
        out.append([den - sum(nums), *nums] if inside else None)
    return out


def _max_gap_sq(rows: list) -> int:
    """Largest squared distance between two of the integer rows (or 0)."""
    best = 0
    for i, u in enumerate(rows):
        for v in rows[i + 1 :]:
            d = sum((x - y) * (x - y) for x, y in zip(u, v))
            if d > best:
                best = d
    return best

