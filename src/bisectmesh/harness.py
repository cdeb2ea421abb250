"""Closure-bound constants, refinement-sequence driver, and bound checks.

The volume floor d is exact (it is invariant under bisection).  The distance
ceiling D is certified by enumerating the finitely many shape classes of
descendants: shapes are normalised by the hyperlevel scaling, under which
the class set is closed, so the breadth-first closure terminates exactly.
All bound comparisons pit exact integers against upward-rounded products,
so a reported violation is never a rounding artefact.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, mul, sub
from typing import Optional

from .exactgeom import _canonical, _max_gap_sq, _rows, _unsigned, simplex_volume
from .tarray import TaggedSimplex, refinement_edge
from .forest import Triangulation
from .refine import max_jump, refine


def unit_ball_volume(m: int) -> float:
    return math.pi ** (m / 2) / math.gamma(m / 2 + 1)


@dataclass(frozen=True)
class ShapeCensus:
    """Certificate of the shape-class enumeration of one root, with its volume
    and ceilings (frozen: the memo of :func:`compute_constants` hands one
    census to congruent roots, which have equal volumes)."""

    classes: int
    generations: int
    settled: bool
    volume: Fraction  # of the root
    max_v_pow_2n: Fraction  # sup over descendants of (2^(l/n) dist(V_new))^(2n)
    max_d_sq: Optional[Fraction]  # its n-th root if that is rational, else None
    max_iso_sq: Fraction  # sup over the tree of (2^h diam)^2


# generations and classes after which a census stops unsettled
_MAX_GENERATIONS = 400
_MAX_CLASSES = 500_000


def shape_census(root: TaggedSimplex, pool, memo: dict) -> ShapeCensus:
    """Walk all descendant shape classes of one root.

    A class is a T-array modulo translation after scaling by ``2**(h - h_root)``;
    bisection maps classes to classes and transposition doubles the scale, so
    the class set is finite and the walk stops when a full generation brings
    nothing new.  Every class the walk expands is valued once, through the
    one value its two children share; the values are those of the classes
    reached as children, so the root's class counts only if a descendant
    falls in it.

    The walk carries only class keys ``(type, offsets, exp)``: the offsets of
    vertices 1..n from vertex 0, one flat integer vector over ``2**exp`` in
    the canonical form of :class:`~bisectmesh.exactgeom.DyadicPoint`.
    Bisection doubles the vector (exponent + 1), so the new vertex m, the
    midpoint of vertex 0 (the origin) and vertex t, is the undoubled row t.
    The second child, which drops vertex t, is the doubled vector with row t
    replaced by m; the first, which drops vertex 0, is rows 2..t, m and rows
    t+1..n of the doubled vector less its row 1, rebased at vertex 1.
    Transposing a type-0 key doubles it, so its children keep its exponent.

    Four lemmas keep the values to O(n) integer work per expanded class:

    * Volume by type.  Bisection halves the volume and transposition, which
      takes type 0 to type n, multiplies it by ``2**n``; so at the walk's
      scale a class of type t has volume ``|root| * 2**(t - t_root)``, and
      ``(2**(l/n) dist)**(2n) == 4**(level + t_root) * far**n /
      2**(2t + 2n exp)``, with ``far`` the largest squared distance from the
      new vertex in units of ``2**-exp``.  No determinant is needed, and the
      candidates are compared as integers shifted by powers of two.
    * One ``far`` per parent.  Let the parent be ``x0 .. xn`` with
      refinement edge ``{x0, xt}``.  The first child is the parent without
      ``x0`` plus m, the second the parent without ``xt`` plus m, and m is
      the midpoint of ``x0`` and ``xt``, so ``|m - x0| == |m - xt|``.  The
      distances from m to the other vertices of the two children are
      therefore the same numbers, both children have type t - 1 and the
      same exponent, and so the same value.  A value depends only on the
      class key, so the largest value over the classes reached as children
      is the largest over the expanded parents of this shared value, and no
      record of the classes already valued is needed.
    * Diameter monotone under inclusion.  A child lies inside its parent at
      the same scale, so only a child of a transposed parent can have a
      larger diameter than its parent; diameters are computed for those
      children alone, and by induction over the walk every class is bounded
      by the root or by one of them.
    * Shared diameter pairs.  A transposed parent has t = n, and its
      children are ``S + {xn}`` and ``S + {x0}`` with ``S = {x1 .. x(n-1),
      m}``.  A diameter is the largest distance over pairs of vertices, so
      the larger of the two children's is the largest of the distances
      within S, taken once for both, from ``xn`` to S and from ``x0`` to S.
      The pair ``{x0, xn}``, the parent's refinement edge, lies in neither
      child.  In the second child's frame, ``x0`` is the origin, the rows
      of the second child are S and ``xn`` is the last doubled row.

    The root's volume is the determinant its zero test takes.  The best
    value is ``far**n * 2**e``, ``e = 2 (level + t_root) - 2t - 2n exp``,
    so its n-th root, the ceiling ``D**2 == far * 2**(e/n)`` with ``far`` a
    positive integer, is rational exactly when n divides e (else None).

    ``memo``, a dict that lives for one :func:`compute_constants` call, maps
    ``(type, level, hyperlevel, exp, columns)`` to a census, where the
    columns of the root's canonical offset rows are sign-flipped to a
    positive first nonzero entry and sorted.  That is a complete invariant
    under signed coordinate permutations, isometries that map dyadic points
    to dyadic points and commute with bisection and with the power-of-two
    canonicalisation, so congruent roots share one census.  The function is
    still called once per root, so the calls' ``classes`` add up to
    ``Constants.classes``.  Raises ValueError for a root of zero volume.
    """
    n = root.dim
    pts = root.vertices(pool)
    w = len(pts[0].nums)
    rows, e = _rows(pts[1:], pts[0])
    offsets, e = _canonical([x for r in rows for x in r], e)
    rows = [offsets[i : i + w] for i in range(0, n * w, w)]
    columns = tuple(sorted(map(_unsigned, zip(*rows))))
    memo_key = (root.type, root.level, root.hyperlevel, e, columns)
    if memo_key in memo:
        return memo[memo_key]
    if not (volume := simplex_volume(pts)):
        raise ValueError("root simplex has zero volume")
    nm = n * w
    spans = range(0, nm, w)
    # the best value is v_far**n / 2**v_shift, the best diameter d_num / 2**d_shift
    v_num = v_far = v_shift = 0
    d_num, d_shift = _max_gap_sq([(0,) * w, *rows]), 2 * e
    root_key = (root.type, offsets, e)
    seen = {root_key}
    frontier = [root_key]
    generations = 0
    while frontier and generations < _MAX_GENERATIONS and len(seen) < _MAX_CLASSES:
        generations += 1
        next_frontier = []
        for t, offsets, exp in frontier:
            transposed = not t
            if transposed:
                t = n
            else:
                exp += 1
            t -= 1
            lo = t * w
            hi = lo + w
            new = offsets[lo:hi]
            doubled = [x << 1 for x in offsets]
            second = doubled[:]
            second[lo:hi] = new
            first = list(map(sub, doubled[w:hi] + [*new] + doubled[hi:], doubled[:w] * n))
            # squared distances from the new vertex to the origin and to each
            # row of the second child: those of either child (one far per parent)
            gaps = list(map(sub, second, new * n))
            gaps = list(map(mul, gaps, gaps))
            far = sum(map(mul, new, new))
            for i in spans:
                s = sum(gaps[i : i + w])
                if s > far:
                    far = s
            value, shift = far**n, 2 * t + 2 * n * exp
            if value << v_shift > v_num << shift:
                v_num, v_far, v_shift = value, far, shift
            if transposed:
                shared = [second[i : i + w] for i in spans]
                end = doubled[nm - w :]
                diam = max(
                    _max_gap_sq(shared),
                    *[sum(map(mul, r, r)) for r in shared],
                    *[sum((x - y) * (x - y) for x, y in zip(r, end)) for r in shared],
                )
                if diam << d_shift > d_num << (2 * exp):
                    d_num, d_shift = diam, 2 * exp
            for key in (t, *_canonical(first, exp)), (t, *_canonical(second, exp)):
                if key not in seen:
                    seen.add(key)
                    next_frontier.append(key)
        frontier = next_frontier
    e = 2 * (root.level + root.type) - v_shift
    census = ShapeCensus(
        classes=len(seen),
        generations=generations,
        settled=not frontier,
        volume=volume,
        max_v_pow_2n=v_num * Fraction(2) ** e,
        max_d_sq=v_far * Fraction(2) ** (e // n) if e % n == 0 else None,
        max_iso_sq=Fraction(d_num << 2 * root.hyperlevel, 1 << d_shift),
    )
    memo[memo_key] = census
    return census


def c_sic(d: Fraction, D: float, n: int) -> float:
    """Closure-estimate constant: D^n V_n / (2 (1 - 2^(-1/n))^n d)."""
    v_n = unit_ball_volume(n)
    return D**n * v_n / (2 * (1 - 2 ** (-1 / n)) ** n * float(d))


def _h0(n: int) -> int:
    """h0 = 2 + floor(log2 n), exactly, for the hyperlevel estimates."""
    return n.bit_length() + 1


def c_iso(d: Fraction, D: float, n: int) -> tuple[float, int]:
    """Hyperlevel closure constant and the initial-layer factor 2^(n h0).

    2C = (D^n / d) (2^n - 1) 2^(n h0 + 1) ((n + 2^n) V_n + 2 V_{n-1}),
    h0 = 2 + floor(log2 n); the bound reads
    #T_N <= 2^(n h0) #T_0 + C N.
    """
    h0 = _h0(n)
    try:
        ratio = D**n / float(d)
    except OverflowError:  # float ** raises where * and / give inf
        ratio = math.inf
    two_c = (
        ratio
        * (2**n - 1)
        * 2 ** (n * h0 + 1)
        * ((n + 2**n) * unit_ball_volume(n) + 2 * unit_ball_volume(n - 1))
    )
    return two_c / 2, 2 ** (n * h0)


MODES = ("sic", "iso")


@dataclass
class Constants:
    n: int
    d: Fraction
    D: float
    D_squared: Optional[Fraction]
    D_pow_2n: Fraction
    C_sic: float
    d_iso: Fraction
    D_iso: float
    D_iso_squared: Fraction
    C_iso: float
    first_summand_factor: int
    h0: int
    settled: bool
    classes: int
    generations: int

    def closure(self, mode: str) -> tuple[float, int]:
        """``(C, factor)`` of the bound #T_k <= factor #T_0 + C k in a mode of
        :data:`MODES`: ``sic`` (factor 1), or ``iso`` (factor 2^(n h0))."""
        if mode == "sic":
            return self.C_sic, 1
        if mode == "iso":
            return self.C_iso, self.first_summand_factor
        raise ValueError(f"unknown mode {mode!r}")


def _require_float(what: str, value, cells: list) -> None:
    """Raise ValueError naming ``cells`` unless ``value`` is a finite nonzero float."""
    try:
        ok = 0 < abs(float(value)) < math.inf
    except OverflowError:
        ok = False
    if not ok:
        where = " and ".join(f"cells[{i}]" for i in sorted(set(cells)))
        raise ValueError(f"{where}: {what} is outside the float range")


def compute_constants(tri: Triangulation) -> Constants:
    """Exact floors and ceilings of ``tri`` and the float constants built from
    them.  Raises ValueError naming the initial cell that attains a floor or
    ceiling (the two behind a constant) when it leaves the float range."""
    forest = tri.forest
    roots = [forest.tarray(r) for r in forest.roots]
    n = roots[0].dim
    memo: dict = {}
    censuses = [shape_census(t, forest.pool, memo=memo) for t in roots]
    # 2^level |S| is invariant under bisection and 2^(n h + n - t) |S| also
    # under transposition: their minima over the initial cells are d, d_iso
    floors = [Fraction(2) ** t.level * c.volume for t, c in zip(roots, censuses)]
    iso_floors = [
        Fraction(2) ** (n * t.hyperlevel + n - t.type) * c.volume
        for t, c in zip(roots, censuses)
    ]
    cells = range(len(roots))
    d_at = min(cells, key=floors.__getitem__)
    d_iso_at = min(cells, key=iso_floors.__getitem__)
    v_at = max(cells, key=lambda i: censuses[i].max_v_pow_2n)
    iso_at = max(cells, key=lambda i: censuses[i].max_iso_sq)
    d, d_iso = floors[d_at], iso_floors[d_iso_at]
    v2n, iso_sq = censuses[v_at].max_v_pow_2n, censuses[iso_at].max_iso_sq
    _require_float("volume floor d", d, [d_at])
    _require_float("volume floor d_iso", d_iso, [d_iso_at])
    _require_float("distance ceiling D^(2n)", v2n, [v_at])
    _require_float("distance ceiling D_iso^2", iso_sq, [iso_at])
    D = float(v2n) ** (1 / (2 * n))
    D_iso = math.sqrt(float(iso_sq))
    C = c_sic(d, D, n)
    Ci, factor = c_iso(d_iso, D_iso, n)
    _require_float("C_sic", C, [d_at, v_at])
    _require_float("C_iso", Ci, [d_iso_at, iso_at])
    return Constants(
        n=n,
        d=d,
        D=D,
        D_squared=censuses[v_at].max_d_sq,
        D_pow_2n=v2n,
        C_sic=C,
        d_iso=d_iso,
        D_iso=D_iso,
        D_iso_squared=iso_sq,
        C_iso=Ci,
        first_summand_factor=factor,
        h0=_h0(n),
        settled=all(c.settled for c in censuses),
        classes=sum(c.classes for c in censuses),
        generations=max(c.generations for c in censuses),
    )


# --- refinement sequences -----------------------------------------------------


@dataclass
class Trace:
    initial_cells: int
    rows: list = field(default_factory=list)
    # row: (round, marked_cell, cells_added, cells_total, forest_nonroot)
    max_jump: int = 0  # the largest refine.max_jump of any round

    @property
    def rounds(self) -> int:
        return len(self.rows)

    @property
    def final_cells(self) -> int:
        return self.rows[-1][3] if self.rows else self.initial_cells

    def csv_lines(self, bound_per_round: float) -> list[str]:
        lines = ["round,marked_cell,cells_added,cells_total,forest_nonroot,bound,ratio"]
        for rnd, cell, added, total, nonroot in self.rows:
            bound = bound_per_round * rnd
            grown = total - self.initial_cells
            ratio = grown / bound if bound else 0.0
            lines.append(
                f"{rnd},{cell},{added},{total},{nonroot},{bound:.6g},{ratio:.6g}"
            )
        return lines


STRATEGIES = ("random-leaf", "max-level-leaf", "staircase-adversary", "quasitower-adversary")


class SequenceError(AssertionError):
    """An invariant broke during a run: a bisection's rule, a round's count
    of cells against the logged bisections, conformity, or at the end the
    leaf set's structure and its inner nodes against the logged
    bisections."""


def _top(heap: list, leaves: set) -> int:
    """The least ``nid`` of a ``(key, nid)`` heap that is still a leaf."""
    while heap[0][1] not in leaves:
        heapq.heappop(heap)
    return heap[0][1]


def run_sequence(
    tri: Triangulation,
    strategy: str,
    n_rounds: int,
    seed: Optional[int] = None,
) -> Trace:
    """Drive N single-marking refinement rounds from the roots, asserting
    the bisection rule, the count of logged bisections, and conformity
    after every round, and the leaf set's structure at the end.

    Raises ``ValueError`` for an unknown strategy, and up front when
    ``tri``'s leaves are not its forest's roots: the audit below accounts
    for every bisection from the roots, and the constants
    (:func:`compute_constants`, #T_0 in :func:`verify_bdv`) describe them.

    Each bisection of a parent with vertex-id set ``P`` and refinement edge
    ``{a, b}`` must create a vertex ``m`` outside ``P`` with ``2 m == a + b``
    on the three points' integer rows (not through ``midpoint``, which the
    bisection calls), and children with vertex-id sets exactly ``P - a + m``
    and ``P - b + m``.  For a non-degenerate parent this implies volume
    conservation: the hyperplane through ``m`` and ``P - {a, b}`` cuts the
    parent into the two children, and moving ``a`` (or ``b``) to ``m`` halves
    its height over the opposite facet.  Unlike a volume sum, it rejects an
    off-centre point on the edge, a duplicated half, and a correct bisection
    of another edge.

    At the end, one walk of fo(P)
    (:meth:`~bisectmesh.forest.Triangulation.node_set`) checks two things.
    Every node of fo(P) but a leaf holds both children in it and no leaf
    holds a child, so the leaves are those of a full subforest over all
    roots.  And its inner nodes, fo(P) minus the leaves, are exactly the
    set of nodes the run logged as bisected, each checked by the rule
    above.  By induction from the roots the leaves then fill the roots with
    their total volume, so the audit takes no determinant; and #cells -
    #roots, the inner nodes and half the non-roots all equal the logged
    bisections, so the counting identity holds.  The audit rejects a lost
    leaf, a leaf kept beside its descendant, a leaf swapped for a node of
    the same depth elsewhere, and a logged bisection undone while a leaf is
    split unlogged; the last two keep every count and the volume.  Out of
    scope is geometry that no bisection made: the roots (the loader rejects
    a root of zero volume).

    The conformity assertion is exact and cheap: starting from a conforming
    mesh, the only hanging candidates after a round are the new midpoints,
    and a midpoint hangs exactly when its bisected edge still has a leaf
    sharer (:meth:`~bisectmesh.forest.Triangulation.edge_sharers`).

    Strategies: ``random-leaf``, ``max-level-leaf`` (deepest leaf),
    ``staircase-adversary`` (lowest-level neighbour of the previous round's
    new cells; the lowest-level leaf when there are none),
    ``quasitower-adversary`` (deepest leaf, and the lowest-level leaf every
    fourth round); :data:`STRATEGIES` lists them.  Ties go to the lowest
    node id, and this order is part of the CSV contract.

    A round costs its own bisections and checks, plus O(log) for the pick:
    the deep and shallow picks read two heaps over the leaves, keyed
    ``(-level, nid)`` and ``(level, nid)``, with lazy deletion and fed from
    the bisection log; ``random-leaf`` reads a list of the leaves it has
    seen, and the staircase pick scans only the previous round's
    neighbours.  No pick scans the mesh.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    forest = tri.forest
    leaves = tri.leaves
    if leaves != set(forest.roots):
        raise ValueError("a run starts from the roots: the leaves are not the forest's roots")
    rng = random.Random(seed)
    trace = Trace(len(leaves))
    last_created: list[int] = []
    if strategy == "random-leaf":
        seen = sorted(leaves)
        born = seen.append
    else:  # a sorted list is a heap
        deep = sorted((-forest.tarray(nid).level, nid) for nid in leaves)
        shallow = sorted((-key, nid) for key, nid in deep)

        def born(nid: int):
            level = forest.tarray(nid).level
            heapq.heappush(deep, (-level, nid))
            heapq.heappush(shallow, (level, nid))

    def random_leaf() -> int:
        while True:  # swap-and-pop the ids that stopped being leaves
            i = rng.randrange(len(seen))
            if seen[i] in leaves:
                return seen[i]
            seen[i] = seen[-1]
            seen.pop()

    def staircase() -> int:
        cand = set()
        for nid in last_created:
            for v in forest.tarray(nid).vertex_ids:
                cand.update(tri.vertex_index.get(v, ()))
        cand &= leaves
        if not cand:
            return _top(shallow, leaves)
        return min(cand, key=lambda nid: (forest.tarray(nid).level, nid))

    pick = {
        "random-leaf": random_leaf,
        "max-level-leaf": lambda: _top(deep, leaves),
        "staircase-adversary": staircase,
        "quasitower-adversary": lambda: _top(
            shallow if trace.rounds % 4 == 3 else deep, leaves
        ),
    }[strategy]
    bisected: set[int] = set()
    for rnd in range(1, n_rounds + 1):
        marked = pick()
        log = refine(tri, marked)
        last_created = []
        # bisections first: a broken one can leave a hanging node behind
        for node_id in log:
            if not _bisects(forest, node_id):
                raise SequenceError(f"round {rnd}: children do not partition cell {node_id}")
        for node_id in log:
            c1, c2 = forest.nodes[node_id].children
            edge = refinement_edge(forest.tarray(node_id))
            if tri.edge_sharers(edge):
                raise SequenceError(
                    f"round {rnd}: bisected edge {set(edge)} still carried "
                    "by a leaf (hanging node)"
                )
            born(c1)
            born(c2)
            last_created.extend((c1, c2))
        bisected.update(log)
        cells_total = len(tri.leaves)
        if cells_total - trace.initial_cells != len(bisected):
            raise SequenceError(f"round {rnd}: counting identity broken")
        trace.rows.append((rnd, marked, len(log), cells_total, 2 * len(bisected)))
        trace.max_jump = max(trace.max_jump, max_jump(forest, log))
    _full_invariants(tri, bisected)
    return trace


def _bisects(forest, node_id: int) -> bool:
    """True iff the node's children obey the bisection rule; see run_sequence."""
    node = forest.nodes[node_id]
    m = forest.nodes[node.children[0]].v_new
    p = set(node.tarray.vertex_ids)
    a, b = refinement_edge(node.tarray)
    kids = {frozenset(forest.tarray(c).vertex_ids) for c in node.children}
    pts = forest.pool.points
    (rm, ra, rb), _ = _rows([pts[m], pts[a], pts[b]])
    return (
        m not in p
        and kids == {frozenset(p - {a} | {m}), frozenset(p - {b} | {m})}
        and [x << 1 for x in rm] == list(map(add, ra, rb))
    )


def _full_invariants(tri: Triangulation, bisected: set[int]):
    """The end-of-run audit of the leaf set; see run_sequence."""
    nodes, leaves = tri.forest.nodes, tri.leaves
    fo = tri.node_set()
    broken = list((fo - leaves) ^ bisected)  # inner nodes are the logged ones
    for nid in fo:  # an inner node holds both children in fo, a leaf neither
        ch = nodes[nid].children
        held = 0 if ch is None else (ch[0] in fo) + (ch[1] in fo)
        if held != (0 if nid in leaves else 2):
            broken.append(nid)
    if broken:
        raise SequenceError(f"leaves are not those of a full subforest at node {min(broken)}")


def verify_bdv(trace: Trace, constants: Constants, mode: str) -> list[str]:
    """Check the closure estimate of ``mode`` for every prefix of the trace:
    #T_k - #T_0 <= (factor - 1) #T_0 + C k, with ``(C, factor)`` from
    :meth:`Constants.closure`.  Returns violations (empty = pass).

    The constant C is rounded up once, to the exact ``C (1 + 10**-9)``, and
    each round's bound is the integer ``ceil(C (1 + 10**-9) k)``, so an
    exact count comparing <= against it can never be falsely flagged.
    """
    constant, factor = constants.closure(mode)
    first = (factor - 1) * trace.initial_cells
    num, den = (Fraction(constant) * (1 + Fraction(1, 10**9))).as_integer_ratio()
    problems = []
    for rnd, _, _, total, _ in trace.rows:
        grown = total - trace.initial_cells
        bound = first - (-num * rnd // den)  # first + ceil(num rnd / den)
        if grown > bound:
            problems.append(
                f"round {rnd}: {grown} cells added exceeds bound {bound}"
            )
            break
    return problems
