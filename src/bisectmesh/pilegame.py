"""The one-dimensional closure toy model: bricks on a basement.

A level-l brick occupies ``2**-l * [index, index+1]``.  Every brick above
the basement demands the brick directly underneath and the one touching it
at the corner of its off-centre half; a round chooses one new child brick
and adds the demand closure.  The interest is in the total number of bricks
added after N rounds, which never exceeds 4N.

The basement is unbounded, and no game ever leaves its middle: a demanded
brick touches the brick demanding it, so a demand chain from a level-l
brick drifts less than ``2**-1 + ... + 2**-(l-1) < 1`` basement cell, and
every brick :func:`play` chooses lies over cells -1..1.  So every brick of
every game lies over cells -2..2, ``-2 <= index >> level <= 2``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal


Brick = tuple[int, int]  # (level, index)

# the games :func:`play` plays, by name
STRATEGIES = ("tower", "quasitower", "random")

# Decimal arithmetic that never rounds and never overflows
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)
# Rows shorter than this print with str(): on CPython 3.11, str() of a
# 768-bit int took 1.1 us against 1.5 us for one exact doubling and its
# print, and at 1024 bits 1.7 us against 1.4 us
_SHORT_BITS = 1024


def brick_children(brick: Brick) -> tuple[Brick, Brick]:
    level, index = brick
    return (level + 1, 2 * index), (level + 1, 2 * index + 1)


def _add_brick(bricks: set, chosen: Brick) -> int:
    """Add a chosen child brick and its demand closure to the pile
    ``bricks``; returns the number of bricks added this round.

    A pile is the set of its bricks of level >= 1; every basement brick
    ``(0, i)`` is implicit.  ``chosen`` must be a new child of the pile
    (level >= 1, not in it, over a brick in it); the move generators of
    :func:`play` ensure this, and it is not tested."""
    # A brick joins the pile when it is pushed, so each is tested once.
    # A level-l brick demands the level-(l-1) brick below it and the
    # corner neighbour on the side of its off-centre half; a level-1
    # brick demands only basement bricks, which are always there.
    bricks.add(chosen)
    added = 1
    stack = [chosen]
    while stack:
        level, index = stack.pop()
        if level > 1:
            below = index >> 1
            for dem in (
                (level - 1, below),
                (level - 1, below + 1 if index & 1 else below - 1),
            ):
                if dem not in bricks:
                    bricks.add(dem)
                    added += 1
                    stack.append(dem)
    return added


@dataclass
class PileTrace:
    rounds: list = field(default_factory=list)  # (round, level, index, added, cumulative)

    @property
    def total_added(self) -> int:
        return self.rounds[-1][4] if self.rounds else 0

    def csv_lines(self) -> list[str]:
        """The trace as CSV, every index printed in full at any length.

        ``str()`` of an n-digit int takes time quadratic in n, and a
        tower's index gains a bit per round.  So a long index that is a
        child of the previous row's (``idx >> 1 == prev``) is derived from
        that row's exact ``Decimal`` by one doubling plus ``idx & 1``, in
        time linear in its digits; any other long index is converted from
        scratch, and a short one is printed by ``str()``.
        """
        lines = ["round,chosen_level,chosen_index,added,cumulative,bound_4N"]
        prev = value = None
        for r, lvl, idx, added, cum in self.rounds:
            if idx.bit_length() < _SHORT_BITS:
                text, value = str(idx), None
            else:
                if value is not None and idx >> 1 == prev:
                    value = _EXACT.fma(value, 2, idx & 1)
                else:
                    value = Decimal(idx)
                text, prev = str(value), idx
            lines.append(f"{r},{lvl},{text},{added},{cum},{4 * r}")
        return lines


def _tower_moves(n_rounds: int):
    """Always choose a child of a top brick, alternating sides."""
    top = (0, 0)
    for j in range(n_rounds):
        left, right = brick_children(top)
        top = left if j % 2 == 0 else right
        yield top


def _quasitower_moves(n_rounds: int):
    """Climb a thin tower, then trigger one full-height cascade on each side.

    The first ``m = N - 3`` rounds climb (two bricks each); the choices of
    rounds m+1 and m+3 each demand a staircase of m-1 bricks reaching down
    the whole pile, pushing the bricks-per-round ratio towards 4.
    """
    m = max(1, n_rounds - 3)
    for j in range(1, m + 1):
        yield (j, -1)
    if n_rounds >= m + 1:
        yield (m, -2)
    if n_rounds >= m + 2:
        yield (m, 0)
    if n_rounds >= m + 3:
        yield (m, 1)


def _random_moves(bricks: set, n_rounds: int, rng: random.Random):
    """Draw a supply brick and one of its children until the child is new.

    The supply is three basement bricks and every chosen brick: all are in
    the pile, so a child of one is legal exactly when it is not in the pile
    yet.

    Each draw is the one ``rng.choice(seq)`` makes, inlined: ``k =
    len(seq).bit_length()`` bits from ``rng.getrandbits``, redrawn while
    they reach ``len(seq)``; so a supply brick takes ``k`` bits and a side
    two.  ``TestRandomDraws`` in the tests pins this stream against the
    ``rng.choice`` generator.
    """
    produced = 0
    supply = [(0, 0), (0, -1), (0, 1)]
    size = len(supply)
    width = size.bit_length()
    bits = rng.getrandbits
    while produced < n_rounds:
        r = bits(width)
        while r >= size:
            r = bits(width)
        level, index = supply[r]
        side = bits(2)
        while side >= 2:
            side = bits(2)
        child = (level + 1, 2 * index + side)
        if child not in bricks:
            supply.append(child)
            size += 1
            width = size.bit_length()
            produced += 1
            yield child


def play(strategy: str, n_rounds: int, seed: int | None = None) -> PileTrace:
    """Run an N-round game of :data:`STRATEGIES` on a pile held as the set
    of its bricks, and record the per-round trace."""
    if n_rounds < 1:
        raise ValueError("need at least one round")
    bricks: set = set()
    trace = PileTrace()
    if strategy == "tower":
        moves = _tower_moves(n_rounds)
    elif strategy == "quasitower":
        moves = _quasitower_moves(n_rounds)
    elif strategy == "random":
        moves = _random_moves(bricks, n_rounds, random.Random(seed))
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    cumulative = 0
    for rnd, chosen in enumerate(moves, start=1):
        added = _add_brick(bricks, chosen)
        cumulative += added
        trace.rounds.append((rnd, chosen[0], chosen[1], added, cumulative))
    return trace
