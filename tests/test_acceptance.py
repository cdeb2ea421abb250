"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s``); run the
whole module with ``pytest tests/test_acceptance.py -s -v``.
"""

import math
import random
import time
from collections import Counter
from fractions import Fraction

from bisectmesh import Triangulation, VertexPool, kuhn
from bisectmesh.forest import overlay, underlay
from bisectmesh.harness import compute_constants, run_sequence, verify_bdv
from bisectmesh.inittags import (
    VertexPartition,
    agk_init,
    check_isocochange,
    check_retahyco,
    check_sic,
    initial_division,
)
from bisectmesh.pilegame import _add_brick, _tower_moves, play
from bisectmesh.refine import (
    check_conforming,
    check_conforming_2d_exact,
    max_jump,
    quasi_uniform_refine,
    refine,
)
from bisectmesh.tarray import TaggedSimplex, bisect, refinement_edge

from conftest import (
    kuhn_cube_cells,
    kuhn_cube_mesh,
    kuhn_square,
    point,
    scaled_point,
    single_kuhn,
    tripled_tet,
    tripled_triangle_pair,
)
from lemmas import closure01, tower, verify_forest_characterisation


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def test_c01_pile_game_bounds():
    t0 = time.time()
    rng = random.Random(20_240_801)
    games = violations = 0
    while games < 10_000:
        if games < 20:
            n_rounds = 1000
        else:
            n_rounds = min(1000, 1 + int(2 ** (rng.random() * 8)))
        trace = play("random", n_rounds, seed=rng.randrange(2**31))
        if trace.total_added > 4 * n_rounds:
            violations += 1
        games += 1
    pile = set()
    tower_total = sum(_add_brick(pile, m) for m in _tower_moves(1000))
    per_level_ok = max(Counter(level for level, _ in pile).values()) <= 3
    elapsed = time.time() - t0
    ok = violations == 0 and tower_total <= 3000 and per_level_ok and elapsed < 10
    report(
        1,
        ok,
        f"10,000 random games, {violations} violations of 4N; tower "
        f"{tower_total} <= 3000, per-level <= 3: {per_level_ok}; {elapsed:.1f}s",
    )


def test_c02_constants_table_sic():
    rows = {2: (37, 36.6), 3: (4100, 4.1e3), 4: (840_000, 8.4e5)}
    results = []
    ok = True
    for n, (ceiling, approx) in rows.items():
        consts = compute_constants(single_kuhn(n))
        good = (
            consts.settled
            and consts.C_sic <= ceiling
            and abs(consts.C_sic - approx) <= 0.02 * approx
        )
        ok &= good
        results.append(f"n={n}: C={consts.C_sic:.4g} (<= {ceiling})")
    report(2, ok, "; ".join(results))


def test_c03_constants_table_isocochange():
    rows = {2: (64, 1.8e4), 3: (512, 5.9e6), 4: (65_536, 4.1e10)}
    results = []
    ok = True
    for n, (factor, approx) in rows.items():
        pool = VertexPool()
        k = kuhn(list(range(1, n + 1)), [1] * n, pool)
        half = tuple(pool.id_of(scaled_point(pool.point(v), Fraction(1, 2))) for v in k.vertex_ids)
        tri = Triangulation.from_cells(pool, [TaggedSimplex(half, (), 0, 1)])
        consts = compute_constants(tri)
        good = (
            consts.first_summand_factor == factor
            and abs(consts.C_iso - approx) <= 0.05 * approx
        )
        ok &= good
        results.append(f"n={n}: {factor}#T0 + {consts.C_iso:.3g}N")
    report(3, ok, "; ".join(results))


def test_c04_closure_estimate_sic():
    t0 = time.time()
    makers = (kuhn_square, lambda: single_kuhn(2))
    consts = [compute_constants(m()) for m in makers]
    rng = random.Random(41)
    violations = 0
    sequences = 0
    while sequences < 1000:
        which = sequences % 2
        tri = makers[which]()
        if sequences < 5:
            n_rounds = 200
        else:
            n_rounds = min(200, 1 + int(2 ** (rng.random() * 7.0)))
        trace = run_sequence(tri, "random-leaf", n_rounds, seed=rng.randrange(2**31))
        if verify_bdv(trace, consts[which], "sic"):
            violations += 1
        sequences += 1
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < 60
    report(
        4,
        ok,
        f"1000 sequences (n=2, N<=200), {violations} bound violations; "
        f"bisection rule, cells against logged bisections, and conformity "
        f"asserted every round, and the leaf-set audit, which proves the "
        f"volume kept, at the end; {elapsed:.1f}s",
    )


def _agk_mesh(n, v0, order_seed=None):
    if n == 2:
        pool = VertexPool()
        ids = [
            pool.id_of(point(*c)) for c in [(0, 0), (1, 0), (1, 1), (0, 1)]
        ]
        cells = [(ids[0], ids[1], ids[2]), (ids[0], ids[2], ids[3])]
    else:
        pool, cells = kuhn_cube_cells(n)
        cells = [tuple(c) for c in cells]
    verts = sorted({v for c in cells for v in c})
    v0 = frozenset(v0) & frozenset(verts)
    part = VertexPartition(v0, frozenset(verts) - v0)
    return agk_init(pool, cells, part), verts


def test_c05_closure_estimate_agk():
    t0 = time.time()
    rng = random.Random(43)
    jobs = []
    for n, n_parts, seqs_each, max_rounds in ((2, 10, 25, 100), (3, 10, 25, 60)):
        _, verts = _agk_mesh(n, ())
        for _ in range(n_parts):
            v0 = frozenset(v for v in verts if rng.random() < 0.4)
            tri, _ = _agk_mesh(n, v0)
            consts = compute_constants(tri)
            jobs.append((n, v0, consts, seqs_each, max_rounds))
    violations = sequences = 0
    for n, v0, consts, seqs_each, max_rounds in jobs:
        for _ in range(seqs_each):
            tri, _ = _agk_mesh(n, v0)
            n_rounds = min(max_rounds, 1 + int(2 ** (rng.random() * 6.0)))
            trace = run_sequence(
                tri, "random-leaf", n_rounds, seed=rng.randrange(2**31)
            )
            if verify_bdv(trace, consts, "iso"):
                violations += 1
            sequences += 1
    elapsed = time.time() - t0
    ok = violations == 0 and sequences == 500 and elapsed < 120
    report(
        5,
        ok,
        f"{sequences} sequences on AGK meshes (n=2,3), {violations} violations "
        f"of (2^(n h0)-1)#T0 + C_iso N; {elapsed:.1f}s",
    )


def test_c06_conformity_suite():
    rng = random.Random(47)
    hanging_total = 0
    exact_total = 0
    outputs = exact_runs = 0
    for n, seqs, rounds in ((2, 10, 20), (3, 6, 12), (4, 3, 6)):
        for s in range(seqs):
            tri = kuhn_square() if n == 2 else kuhn_cube_mesh(n)
            for r in range(rounds):
                refine(tri, rng.choice(sorted(tri.leaves)))
                outputs += 1
                hanging_total += len(check_conforming(tri))
                if n == 2:
                    exact_total += len(check_conforming_2d_exact(tri))
                    exact_runs += 1
    ok = hanging_total == 0 and exact_total == 0
    report(
        6,
        ok,
        f"{outputs} refine outputs: {hanging_total} hanging nodes; exact 2D "
        f"pairwise oracle on {exact_runs} outputs: {exact_total} violations",
    )


def test_c07_forest_characterisation():
    rng = random.Random(53)
    char_failures = 0
    outputs = 0
    tower_mismatches = 0
    samples = 0
    for n in (2, 3):
        tri = kuhn_square() if n == 2 else kuhn_cube_mesh(n)
        for _ in range(30):
            refine(tri, rng.choice(sorted(tri.leaves)))
            outputs += 1
            if verify_forest_characterisation(tri):
                char_failures += 1
        leaves = sorted(tri.leaves)
        rng.shuffle(leaves)
        for leaf in leaves[:50]:
            child, _ = tri.forest.ensure_children(leaf)
            via_refine = tower(tri, child)
            via_closure = closure01(tri.forest, [child]) - tri.node_set()
            if via_refine != via_closure:
                tower_mismatches += 1
            samples += 1
    ok = char_failures == 0 and tower_mismatches == 0 and samples == 100
    report(
        7,
        ok,
        f"{outputs} outputs characterised, {char_failures} failures; "
        f"{samples} towers vs demand closure, {tower_mismatches} mismatches",
    )


def test_c08_quasi_uniform():
    t0 = time.time()
    details = []
    ok = True
    for n, make in (
        (2, lambda: initial_division(*tripled_triangle_pair()[:2])),
        (3, lambda: initial_division(*tripled_tet())),
    ):
        tri = make()
        input_levels = {
            leaf: tri.forest.tarray(leaf).level for leaf in tri.leaves
        }
        input_h = {tri.forest.tarray(leaf).hyperlevel for leaf in tri.leaves}
        quasi_uniform_refine(tri)
        good = check_conforming(tri) == []
        for leaf in tri.leaves:
            t = tri.forest.tarray(leaf)
            good &= n <= t.level <= 2 * n - 1
            if t.type < n:
                good &= t.hyperlevel == min(input_h) + 1
        ok &= good
        details.append(f"n={n}: {len(tri.leaves)} leaves checked")
    elapsed = time.time() - t0
    ok &= elapsed < 10
    report(8, ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_c09_gss_bound():
    rng = random.Random(59)
    worst = {}
    for n, seqs, rounds in ((2, 10, 30), (3, 5, 15), (4, 3, 8)):
        worst[n] = 0
        for _ in range(seqs):
            tri = kuhn_square() if n == 2 else kuhn_cube_mesh(n)
            for _ in range(rounds):
                log = refine(tri, rng.choice(sorted(tri.leaves)))
                worst[n] = max(worst[n], max_jump(tri.forest, log))
    bounded = all(worst[n] <= 2 * n for n in worst)

    # the four-bisection chain: terminal array frozen from the bisection rule
    pool = VertexPool()
    a = pool.id_of(point(0, 0, 0))
    b = pool.id_of(point(2, 0, 0))
    c = pool.id_of(point(0, 2, 0))
    d = pool.id_of(point(0, 0, 2))
    s = TaggedSimplex((a, b), (c, d))
    _, s1, _ = bisect(s, pool)
    s2, _, _ = bisect(s1, pool)
    s3, _, _ = bisect(s2, pool)
    assert refinement_edge(s3) == frozenset((c, d))
    s4, _, _ = bisect(s3, pool)
    from bisectmesh.exactgeom import midpoint

    m_ab = pool.id_of(midpoint(pool.point(a), pool.point(b)))
    m_cd = pool.id_of(midpoint(pool.point(c), pool.point(d)))
    m_ad = pool.id_of(midpoint(pool.point(a), pool.point(d)))
    m_abd = pool.id_of(midpoint(pool.point(m_ab), pool.point(d)))
    expected = (d, m_cd, m_abd, m_ad)
    chain_ok = s4.vertex_ids == expected and s4.level == 4 and s4.type == 0
    ok = bounded and chain_ok
    report(
        9,
        ok,
        f"max jumps {worst} all <= 2n; four-bisection chain exact: {chain_ok}",
    )


def test_c10_initialisers():
    pool2, cells2, (p1, p2, p3, p4) = tripled_triangle_pair()
    q1, q2 = point(3, 1), point(6, 2)
    worked = initial_division(pool2, cells2, {2: [q1, q2]})
    q1i, q2i = pool2.id_of(q1), pool2.id_of(q2)
    got = sorted((tuple(sorted(c.horizontal)), c.vertical) for c in worked.cells())
    expected = sorted(
        [
            ((p2, p3), (q1i,)),
            ((p1, p3), (q1i,)),
            ((p1, p2), (q1i,)),
            ((p3, p4), (q2i,)),
            ((p2, p4), (q2i,)),
            ((p2, p3), (q2i,)),
        ]
    )
    worked_ok = got == expected

    division_ok = True
    for n, make in ((2, tripled_triangle_pair()[:2]), (3, tripled_tet())):
        pool, cells = make
        tri = initial_division(pool, cells)
        division_ok &= len(tri.leaves) == len(cells) * math.factorial(n + 1) // 2
        division_ok &= check_sic(tri) == []

    rng = random.Random(61)
    partition_failures = 0
    for i in range(200):
        n = 2 if i % 2 == 0 else 3
        _, verts = _agk_mesh(n, ())
        v0 = frozenset(v for v in verts if rng.random() < 0.5)
        tri, _ = _agk_mesh(n, v0)
        if check_retahyco(tri) or check_isocochange(tri):
            partition_failures += 1
    ok = worked_ok and division_ok and partition_failures == 0
    report(
        10,
        ok,
        f"worked example: {worked_ok}; divisions (n+1)!/2 + SIC: {division_ok}; "
        f"200 AGK partitions, {partition_failures} failures",
    )


def test_c11_overlay_lattice():
    t0 = time.time()
    tri = kuhn_square()
    forest = tri.forest
    max_level = 4
    # materialise every node down to the level cap so the demand closure
    # sees all classmates (demands never point to deeper levels)
    todo = list(forest.roots)
    while todo:
        nid = todo.pop()
        if forest.tarray(nid).level <= max_level:
            todo.extend(forest.ensure_children(nid))
    initial = tri.node_set()
    seen = {initial}
    frontier = [initial]
    while frontier:
        nxt = []
        for w in frontier:
            for leaf in forest.leaves_of(w):
                if forest.tarray(leaf).level >= max_level:
                    continue
                c1, _ = forest.ensure_children(leaf)
                grown = w | closure01(forest, [c1])
                if any(forest.tarray(x).level > max_level for x in grown):
                    continue
                if grown not in seen:
                    seen.add(grown)
                    nxt.append(grown)
        frontier = nxt
    forests = sorted(seen, key=lambda w: (len(w), sorted(w)))

    rng = random.Random(67)
    pair_failures = 0
    checked_pairs = 0
    for _ in range(4000):
        wa, wb = rng.choice(forests), rng.choice(forests)
        union, inter = wa | wb, wa & wb
        ta = Triangulation(forest, forest.leaves_of(wa))
        tb = Triangulation(forest, forest.leaves_of(wb))
        ov = overlay(ta, tb)
        un = underlay(ta, tb)
        good = (
            union in seen
            and inter in seen
            and ov.node_set() == union
            and un.node_set() == inter
            and ov.leaves == forest.leaves_of(union)
            and un.leaves == forest.leaves_of(inter)
        )
        if not good:
            pair_failures += 1
        checked_pairs += 1

    # direct minimality/maximality oracle on a smaller sample: scan the
    # whole enumeration for competitors
    scan_failures = 0
    for _ in range(50):
        wa, wb = rng.choice(forests), rng.choice(forests)
        union, inter = wa | wb, wa & wb
        for w in forests:
            if w >= wa and w >= wb and not w >= union:
                scan_failures += 1
                break
            if w <= wa and w <= wb and not w <= inter:
                scan_failures += 1
                break
    elapsed = time.time() - t0
    ok = pair_failures == 0 and scan_failures == 0
    report(
        11,
        ok,
        f"{len(forests)} admissible forests enumerated to depth {max_level}; "
        f"{checked_pairs} sampled pairs, {pair_failures} failures; "
        f"minimality scan failures: {scan_failures}; {elapsed:.1f}s",
    )
