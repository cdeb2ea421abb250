import hashlib
import random
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from bisectmesh.pilegame import (
    STRATEGIES,
    Brick,
    PileTrace,
    brick_children,
    play,
    _add_brick,
    _random_moves,
    _tower_moves,
)


def brick_demands(brick: Brick) -> tuple[Brick, Brick]:
    """Demand oracle: the two level-(l-1) bricks a brick rests on, directly
    below, and the corner neighbour on the side of its off-centre half.
    ``_add_brick`` works them out inline."""
    level, index = brick
    if level < 1:
        raise ValueError("basement bricks demand nothing")
    below = index >> 1
    side = below - 1 if index % 2 == 0 else below + 1
    return (level - 1, below), (level - 1, side)


def in_pile(pile: set, brick: Brick) -> bool:
    """Membership oracle: basement bricks are always there."""
    return brick[0] == 0 or brick in pile


def is_legal_child(pile: set, brick: Brick) -> bool:
    """Legality oracle for ``_add_brick``'s precondition: a brick of
    level >= 1, not in the pile yet, over a brick that is."""
    level, index = brick
    return level >= 1 and brick not in pile and in_pile(pile, (level - 1, index >> 1))


def choice_moves(pile: set, n_rounds: int, rng: random.Random):
    """Reference for ``_random_moves``: the same game drawn by ``rng.choice``."""
    produced = 0
    supply = [(0, 0), (0, -1), (0, 1)]
    while produced < n_rounds:
        level, index = rng.choice(supply)
        child = (level + 1, 2 * index + rng.choice((0, 1)))
        if child not in pile:
            supply.append(child)
            produced += 1
            yield child


class TestBrickDemands:
    def test_example_over_basement(self):
        assert brick_demands((1, 0)) == ((0, 0), (0, -1))
        assert brick_demands((1, 1)) == ((0, 0), (0, 1))

    def test_basement_has_no_demands(self):
        with pytest.raises(ValueError):
            brick_demands((0, 3))

    @given(st.integers(1, 12), st.integers(-1000, 1000))
    def test_demands_are_the_touching_bricks(self, level, index):
        """Geometric oracle: the demanded bricks are exactly the level-1-down
        bricks whose closed interval touches the brick's closed interval."""
        brick = (level, index)
        lo = Fraction(index, 2**level)
        hi = Fraction(index + 1, 2**level)
        touching = set()
        for k in range(index // 2 - 2, index // 2 + 3):
            klo = Fraction(k, 2 ** (level - 1))
            khi = Fraction(k + 1, 2 ** (level - 1))
            if klo <= hi and lo <= khi:
                touching.add((level - 1, k))
        assert set(brick_demands(brick)) == touching


def test_play_refuses_no_rounds_and_unknown_strategies():
    with pytest.raises(ValueError, match="^need at least one round$"):
        play("random", 0)
    with pytest.raises(ValueError, match="^unknown strategy 'staircase'$"):
        play("staircase", 5)


class TestPile:
    def test_closure_after_every_round(self):
        rng = random.Random(0)
        pile = set()
        added = _add_brick(pile, (1, 0))
        assert added == 1
        for _ in range(50):
            base = rng.choice(sorted(pile))
            child = brick_children(base)[rng.randrange(2)]
            if is_legal_child(pile, child):
                _add_brick(pile, child)
            for b in pile:
                for dem in brick_demands(b):
                    assert in_pile(pile, dem)

    def test_add_brick_matches_pop_then_test_closure(self):
        """Reference: the closure that tests each brick when it is popped."""

        def closure(pile, chosen):
            new, stack = set(), [chosen]
            while stack:
                b = stack.pop()
                if in_pile(pile, b) or b in new:
                    continue
                new.add(b)
                stack.extend(d for d in brick_demands(b) if d[0] >= 1)
            return new

        rng = random.Random(5)
        pile = set()
        for _ in range(400):
            base = rng.choice([(0, rng.randrange(-6, 6))] + sorted(pile))
            child = brick_children(base)[rng.randrange(2)]
            if is_legal_child(pile, child):
                new = closure(pile, child)
                want = pile | new
                assert _add_brick(pile, child) == len(new)
                assert pile == want
        assert len(pile) > 100

    def test_level_one_brick_adds_exactly_one(self):
        assert _add_brick(set(), (1, 5)) == 1

    def test_four_brick_row_is_demand_stable(self):
        """Four bricks demand four subjacent bricks and nothing more."""
        row = [(2, i) for i in (-2, -1, 0, 1)]
        demanded = set()
        for b in row:
            demanded.update(brick_demands(b))
        assert demanded == {(1, i) for i in (-2, -1, 0, 1)}


def short_games(test):
    """Every strategy at N = 1..5, where quasitower plays its short forms."""
    for strategy in STRATEGIES:
        for n_rounds in range(1, 6):
            test = example(strategy, n_rounds, 0)(test)
    return test


class TestMovesAreLegal:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(STRATEGIES),
        st.integers(1, 300),
        st.integers(0, 2**64),
    )
    @short_games
    def test_play_applies_only_new_children(self, strategy, n_rounds, seed):
        """``add_brick`` does not test its precondition, so ``play`` must
        only apply moves the legality oracle accepts."""
        from bisectmesh import pilegame

        applied = []

        def checked(pile, chosen):
            assert is_legal_child(pile, chosen), (strategy, applied, chosen)
            applied.append(chosen)
            return _add_brick(pile, chosen)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pilegame, "_add_brick", checked)
            trace = play(strategy, n_rounds, seed)
        assert len(applied) == len(trace.rounds) == n_rounds


class TestRandomDraws:
    @staticmethod
    def game(moves, n_rounds, seed):
        """The moves a generator makes, each added to its pile, and the
        generator's state afterwards."""
        pile, rng = set(), random.Random(seed)
        chosen = []
        for move in moves(pile, n_rounds, rng):
            _add_brick(pile, move)
            chosen.append(move)
        return chosen, rng.getstate()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**64), st.integers(1, 700))
    def test_inlined_draws_match_choice(self, seed, n_rounds):
        """Up to 700 rounds the supply (3 bricks plus one per round) passes
        every power of two from 4 to 512, where the draw's bit width grows;
        the moves and the number of bits taken must match ``rng.choice``."""
        assert self.game(_random_moves, n_rounds, seed) == self.game(
            choice_moves, n_rounds, seed
        )


class TestStrategies:
    def test_tower_bounds(self):
        for n_rounds in (10, 100, 500):
            trace = play("tower", n_rounds)
            assert trace.total_added <= 3 * n_rounds
        pile = set()
        total = sum(_add_brick(pile, m) for m in _tower_moves(200))
        assert max(Counter(level for level, _ in pile).values()) <= 3

    def test_any_strategy_bound(self):
        for seed in range(30):
            n_rounds = random.Random(seed).randint(1, 400)
            trace = play("random", n_rounds, seed=seed)
            assert trace.total_added <= 4 * n_rounds

    def test_quasitower_approaches_four(self):
        ratios = {}
        for n_rounds in (16, 64, 256, 1024):
            trace = play("quasitower", n_rounds)
            assert trace.total_added <= 4 * n_rounds
            ratios[n_rounds] = trace.total_added / n_rounds
        assert ratios[64] >= 3.5
        assert ratios[1024] > ratios[64] > ratios[16]

    def test_quasitower_cascade_rounds(self):
        """The two cascade choices each demand m-1 bricks (m+... added with
        the chosen one makes m)."""
        n_rounds = 20
        m = n_rounds - 3
        trace = play("quasitower", n_rounds)
        added = {r: a for r, _, _, a, _ in trace.rounds}
        assert added[m + 1] == m
        assert added[m + 3] == m

    @pytest.mark.parametrize(
        "strategy, n_rounds, seed",
        [("tower", 8000, None), ("quasitower", 24500, None), ("random", 33500, 1)],
    )
    def test_bench_games_stay_over_cells_minus_two_to_two(self, strategy, n_rounds, seed):
        """The lemma of the module docstring on the bench's games: replayed
        round by round, every brick lies over basement cells -2..2."""
        pile = set()
        for _, level, index, added, _ in play(strategy, n_rounds, seed).rounds:
            assert _add_brick(pile, (level, index)) == added
        assert {index >> level for level, index in pile} <= {-2, -1, 0, 1, 2}

    def test_trace_csv_shape(self):
        trace = play("tower", 5)
        lines = trace.csv_lines()
        assert lines[0] == "round,chosen_level,chosen_index,added,cumulative,bound_4N"
        assert len(lines) == 6

    def test_tower_csv_bytes(self):
        """The 8000-round tower CSV, as written before indices past the
        interpreter's digit limit for ``str`` could be printed."""
        text = "\n".join(play("tower", 8000).csv_lines()) + "\n"
        assert (
            hashlib.sha256(text.encode()).hexdigest()
            == "ff7d4c865e036f6e8ee3e32ed05530af7cc2f5ddf18807f6d948417b9ab8eba8"
        )

    def test_tower_converts_one_long_index_from_scratch(self, monkeypatch):
        """A 3000-round tower CSV derives each long index from the row
        before it.  With the digit limit for ``str`` at its 640-digit
        minimum, converting any of the indices past 640 digits (about the
        last 870 rows) to text by an int route raises; the ``Decimal``
        wrapper counts the from-scratch conversions of long indices, of
        which at most one is allowed."""
        from bisectmesh import pilegame

        assert pilegame._SHORT_BITS <= 1024
        long_args = []

        def counting(x, *args):
            if isinstance(x, int) and x.bit_length() >= pilegame._SHORT_BITS:
                long_args.append(x)
            return Decimal(x, *args)

        monkeypatch.setattr(pilegame, "Decimal", counting)
        trace = play("tower", 3000)
        assert Decimal(trace.rounds[-1][2]).adjusted() + 1 > 640
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            lines = trace.csv_lines()
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(long_args) <= 1
        assert lines[1:] == [
            f"{r},{lvl},{Decimal(idx)},{added},{cum},{4 * r}"
            for r, lvl, idx, added, cum in trace.rounds
        ]

    def test_csv_index_past_str_limit(self):
        """A tower passes the limit after about 14 000 rounds; its index is
        still printed in full."""
        index = 2**15000 + 1
        trace = PileTrace([(15000, 15000, index, 1, 1)])
        assert trace.csv_lines()[1] == f"15000,15000,{Decimal(index)},1,1,60000"


class TestExhaustive:
    def test_all_strategies_small(self):
        """Every legal play sequence of six rounds respects the 4N bound.

        Depth-first search over all move sequences on a width-32 basement,
        deduplicating piles reached in the same number of rounds.  Chosen
        bricks are confined to an 8-cell window around the origin: a cluster
        further away cannot interact within six rounds (cascades reach at
        most two basement cells sideways), so distant configurations
        decompose into independent smaller games.
        """
        max_rounds = 6
        basement = 16  # level-0 indices -16..15

        def legal_children(bricks):
            out = set()
            supports = [(0, i) for i in range(-4, 4)] + sorted(bricks)
            for level, index in supports:
                for child in brick_children((level, index)):
                    if child not in bricks and abs(child[1]) < basement * 2**child[0]:
                        out.add(child)
            return out

        def closure(bricks, chosen):
            new = set()
            stack = [chosen]
            while stack:
                b = stack.pop()
                if b in bricks or b in new or b[0] == 0:
                    continue
                new.add(b)
                for dem in brick_demands(b):
                    if dem[0] >= 1 and dem not in bricks and dem not in new:
                        stack.append(dem)
            return new

        seen = set()
        worst = {k: 0 for k in range(max_rounds + 1)}

        def walk(bricks, rounds_done):
            worst[rounds_done] = max(worst[rounds_done], len(bricks))
            if rounds_done == max_rounds:
                return
            for child in legal_children(bricks):
                grown = frozenset(bricks | closure(bricks, child))
                key = (grown, rounds_done + 1)
                if key in seen:
                    continue
                seen.add(key)
                walk(grown, rounds_done + 1)

        walk(frozenset(), 0)
        assert worst == {0: 0, 1: 1, 2: 3, 3: 6, 4: 9, 5: 12, 6: 16}
        assert all(count <= 4 * r for r, count in worst.items())
