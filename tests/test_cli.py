import dataclasses
import hashlib
import io
import json
import os
import random
import re
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bisectmesh import cli, exactgeom
from bisectmesh.cli import main
from bisectmesh.forest import Forest, overlay
from bisectmesh.meshio import mesh_hash, mesh_to_dict, read_mesh, write_mesh
from bisectmesh.pilegame import play

from make_cli_manifest import FAILING_DOCS, INTERVAL_TEXT, deep_interval_text
from conftest import (
    agk_cube,
    fractions_of,
    kuhn_cube_cells,
    kuhn_cube_mesh,
    kuhn_square,
    marked_text,
    one_sided_square,
    point,
    single_kuhn,
    tripled_triangle_pair,
)
from bisectmesh import Triangulation, VertexPool, kuhn, refine
from bisectmesh.inittags import VertexPartition
from bisectmesh.tarray import TaggedSimplex, refinement_edge


@pytest.fixture
def square_path(tmp_path):
    path = tmp_path / "square.json"
    write_mesh(path, kuhn_square())
    return str(path)


def test_constants_output(square_path, capsys):
    assert main(["constants", "--mesh", square_path]) == 0
    out = capsys.readouterr().out
    assert "d = 1/2" in out
    assert "D = 1 " in out
    assert "C_sic <= 36.62" in out


def test_check_pass_and_fail(square_path, tmp_path, capsys):
    assert main(["check", "sic", "--mesh", square_path]) == 0
    assert main(["check", "conforming", "--mesh", square_path]) == 0
    # break the mesh: bisect one cell without closure
    tri, _, _ = read_mesh(square_path)
    tri.bisect_leaf(min(tri.leaves))
    broken = tmp_path / "broken.json"
    write_mesh(broken, tri)
    assert main(["check", "conforming", "--mesh", str(broken)]) == 2
    out = capsys.readouterr().out
    assert "hanging" in out


def test_refine_and_overlay(square_path, tmp_path, capsys):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["refine", "--mesh", square_path, "--cell", "0", "--out", str(out_a)]) == 0
    assert main(["refine", "--mesh", square_path, "--cell", "1", "--out", str(out_b)]) == 0
    ov = tmp_path / "ov.json"
    assert main(["overlay", "--mesh", str(out_a), "--mesh2", str(out_b), "--out", str(ov)]) == 0
    tri, _, _ = read_mesh(ov)
    assert len(tri.leaves) == 4


def test_uniform_and_quasi(square_path, tmp_path):
    out = tmp_path / "u.json"
    assert main(["uniform", "--mesh", square_path, "--out", str(out)]) == 0
    tri, _, _ = read_mesh(out)
    assert len(tri.leaves) == 4
    out2 = tmp_path / "q.json"
    assert main(["quasi-uniform", "--mesh", square_path, "--out", str(out2)]) == 0
    tri2, _, _ = read_mesh(out2)
    assert len(tri2.leaves) == 8


def test_init_division_and_agk(tmp_path):
    pool, cells, _ = tripled_triangle_pair()
    tri = Triangulation.from_cells(
        pool, [TaggedSimplex(c, ()) for c in cells]
    )
    src = tmp_path / "untagged.json"
    write_mesh(src, tri)
    out = tmp_path / "divided.json"
    assert main(["init-division", "--mesh", str(src), "--out", str(out)]) == 0
    divided, _, _ = read_mesh(out)
    assert len(divided.leaves) == 6
    out2 = tmp_path / "agk.json"
    assert main(["agk-init", "--mesh", str(src), "--out", str(out2)]) == 0
    agk, _, _ = read_mesh(out2)
    assert all(c.hyperlevel == 1 for c in agk.cells())


def test_agk_uses_partition_section(tmp_path):
    pool, cells, ids = tripled_triangle_pair()
    tri = Triangulation.from_cells(pool, [TaggedSimplex(c, ()) for c in cells])
    src = tmp_path / "untagged.json"
    partition = VertexPartition(frozenset(ids[:1]), frozenset(ids[1:]))
    write_mesh(src, tri, partition=partition)
    out = tmp_path / "agk.json"
    assert main(["agk-init", "--mesh", str(src), "--out", str(out)]) == 0
    agk, _, _ = read_mesh(out)
    assert {c.hyperlevel for c in agk.cells()} == {0, 1}


def test_bdv_run_csv(square_path, tmp_path, capsys):
    csv = tmp_path / "run.csv"
    code = main([
        "bdv-run", "--mesh", square_path, "--strategy", "random-leaf",
        "--rounds", "15", "--seed", "4", "--mode", "sic", "--out", str(csv),
    ])
    assert code == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "round,marked_cell,cells_added,cells_total,forest_nonroot,bound,ratio"
    assert len(lines) == 16


def test_bdv_run_bound_violation_is_exit_2(square_path, monkeypatch, capsys):
    """A run that outgrows the bound prints the violation and exits 2."""
    real = cli.compute_constants
    monkeypatch.setattr(
        cli, "compute_constants", lambda tri: dataclasses.replace(real(tri), C_sic=0.5)
    )
    assert main(["bdv-run", "--mesh", square_path, "--rounds", "3"]) == 2
    out = capsys.readouterr().out
    assert out.endswith("mode=sic max_jump=1\nround 1: 2 cells added exceeds bound 1\n")


def test_bdv_run_deterministic(square_path, tmp_path):
    outs = []
    for name in ("r1.csv", "r2.csv"):
        csv = tmp_path / name
        main([
            "bdv-run", "--mesh", square_path, "--rounds", "10", "--seed", "9",
            "--out", str(csv),
        ])
        outs.append(csv.read_text())
    assert outs[0] == outs[1]


def test_pile_game_csv(tmp_path, capsys):
    csv = tmp_path / "pile.csv"
    assert main([
        "pile-game", "--strategy", "quasitower", "--rounds", "50",
        "--out", str(csv),
    ]) == 0
    lines = csv.read_text().strip().splitlines()
    assert len(lines) == 51
    last = lines[-1].split(",")
    assert int(last[4]) <= 4 * 50


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["--strategy", "quasitower", "-N", "24500"],
         "cb7304567bfb9c4762d0fb5d6ea08a638593b213cc72ade0614c86ef019bcb99"),
        (["--strategy", "random", "-N", "33500", "--seed", "7"],
         "910d5ed92e110b0c3a91fdbd0dbe589979e4967c834970fc3d7df510393dc281"),
    ],
    ids=["quasitower", "random"],
)
def test_pile_game_csv_bytes(argv, digest, tmp_path, capsys):
    """The bench's quasitower and random pile-game CSVs, byte for byte as
    written when every index was printed by ``str()``."""
    csv = tmp_path / "pile.csv"
    assert main(["pile-game", *argv, "--out", str(csv)]) == 0
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == digest


PILE_STRATEGIES = ("tower", "quasitower", "random")


@settings(max_examples=150, deadline=2000)
@given(
    strategy=st.sampled_from(PILE_STRATEGIES) | st.text(max_size=12),
    rounds=st.integers(-2, 3000),
    seed=st.integers(),
    to_file=st.booleans(),
)
def test_pile_game_property(strategy, rounds, seed, to_file):
    """Any pile-game argv exits with a documented code and no exception;
    on exit 0 the CSV is ``play()``'s trace with every index printed by
    ``Decimal``, which has no digit limit."""
    argv = ["pile-game", "--strategy", strategy, "-N", str(rounds), "--seed", str(seed)]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as folder:
        csv = os.path.join(folder, "pile.csv")
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv + ["--out", csv] if to_file else argv)
        assert code in (0, 1, 2, 3), err.getvalue()
        if code != 0:
            return
        text = Path(csv).read_text() if to_file else out.getvalue()
    assert strategy in PILE_STRATEGIES and rounds >= 1
    oracle = ["round,chosen_level,chosen_index,added,cumulative,bound_4N"] + [
        f"{r},{lvl},{Decimal(idx)},{added},{cum},{4 * r}"
        for r, lvl, idx, added, cum in play(strategy, rounds, seed).rounds
    ]
    assert text.splitlines()[: rounds + 1] == oracle
    assert to_file or text.startswith("\n".join(oracle) + "\n# total added ")


def test_invalid_mesh_is_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 2, "vertices": [], "cells": []}))
    assert main(["check", "sic", "--mesh", str(bad)]) == 1


def test_refinement_failure_is_exit_3(tmp_path, capsys):

    pool = VertexPool()
    a = pool.id_of(point(0, 0, 0))
    b = pool.id_of(point(2, 0, 0))
    c = pool.id_of(point(0, 2, 0))
    d = pool.id_of(point(0, 0, 2))
    e = pool.id_of(point(0, 0, -2))
    tri = Triangulation.from_cells(
        pool,
        [TaggedSimplex((a, b), (c, d)), TaggedSimplex((a, c), (b, e))],
    )
    src = tmp_path / "pcviolation.json"
    write_mesh(src, tri)
    assert main(["refine", "--mesh", str(src), "--cell", "0"]) == 3


def test_bdv_run_refinement_failure_is_exit_3(tmp_path, capsys):
    # Two full-type unit-cube simplices whose refinement edges 0-3 and 0-1
    # both lie in their common face: the closure cannot terminate.

    pool = VertexPool()
    ids = [
        pool.id_of(point(*p))
        for p in [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1)]
    ]
    assert ids == [0, 1, 2, 3, 4]
    tri = Triangulation.from_cells(
        pool, [TaggedSimplex((0, 1, 2, 3), ()), TaggedSimplex((0, 4, 3, 1), ())]
    )
    src = tmp_path / "notrefineable.json"
    write_mesh(src, tri)
    assert main(["refine", "--mesh", str(src), "--cell", "0"]) == 3
    capsys.readouterr()
    assert main(["bdv-run", "--mesh", str(src), "-N", "5"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("refinement failed: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["bdv-run", "--strategy", "nope"],
        ["bdv-run", "-N", "-2"],
        ["bdv-run", "-N", "two"],
        ["hyper-uniform", "--depth", "-5"],
        ["constants", "--depth", "-1"],
        ["check", "sic", "--depth", "-1"],
    ],
)
def test_out_of_contract_options_exit_1(square_path, argv, capsys):
    assert main([*argv, "--mesh", square_path]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["constants", "--depth", "3"], "unrecognized arguments: --depth 3"),
        (["check", "conforming", "--depth", "7"], "--depth applies to check sic only"),
        (["check", "pc", "--depth", "2"], "--depth applies to check sic only"),
    ],
)
def test_depth_outside_check_sic_exit_1(square_path, argv, message, capsys):
    """``--depth`` changes only ``check sic``; elsewhere it is refused, not
    silently ignored."""
    assert main([*argv, "--mesh", square_path]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "mesh, depth, shown",
    [(kuhn_square, [], 3), (kuhn_square, ["--depth", "2"], 2),
     (lambda: single_kuhn(3), [], 4), (lambda: single_kuhn(3), ["--depth", "1"], 1)],
    ids=["square", "square-depth-2", "kuhn-3-simplex", "kuhn-3-simplex-depth-1"],
)
def test_check_sic_pass_names_its_depth(mesh, depth, shown, tmp_path, capsys):
    """A ``PASS sic`` holds only up to the depth it tested, so the line
    names it: ``--depth`` when given, n + 1 otherwise."""
    path = tmp_path / "mesh.json"
    write_mesh(path, mesh())
    assert main(["check", "sic", "--mesh", str(path), *depth]) == 0
    assert capsys.readouterr().out == f"PASS sic (uniform refinements to depth {shown})\n"


# Two hanging vertices in leaf 0: vertex 3, the corner of the third cell,
# and vertex 4, the corner of the second.
TWO_HANGING = (
    '{"dim": 2,\n'
    ' "vertices": [[["0","0"],["0","0"]], [["8","0"],["0","0"]], [["0","0"],["8","0"]],\n'
    '              [["1","0"],["1","0"]], [["2","0"],["2","0"]], [["20","0"],["2","0"]],\n'
    '              [["2","0"],["20","0"]], [["-6","0"],["1","0"]], [["-6","0"],["2","0"]]],\n'
    ' "cells": [{"horizontal": [0, 1, 2]}, {"horizontal": [4, 5, 6]}, '
    '{"horizontal": [3, 7, 8]}]}\n'
)


def test_check_conforming_lists_hanging_nodes_by_vertex_id(tmp_path, capsys):
    """Problems come by vertex id, then leaf id, whatever order the loader
    or the stars hold the vertices in."""
    path = tmp_path / "two-hanging.json"
    path.write_text(TWO_HANGING)
    assert main(["check", "conforming", "--mesh", str(path)]) == 2
    assert capsys.readouterr().out.splitlines() == [
        "hanging node: vertex 3 lies in leaf 0 without being one of its vertices",
        "hanging node: vertex 4 lies in leaf 0 without being one of its vertices",
        "FAIL conforming: 2 problem(s)",
    ]


def test_check_sic_depth_0_exit_1(tmp_path, capsys):
    """Depth 0 checks no edge, so it must be refused, not read as the
    default or passed: the mesh fails at every depth from 1."""
    path = tmp_path / "one_sided.json"
    write_mesh(path, one_sided_square())
    assert main(["check", "sic", "--mesh", str(path), "--depth", "0"]) == 1
    assert "must be at least 1" in capsys.readouterr().err
    for depth in ([], ["--depth", "1"]):
        assert main(["check", "sic", "--mesh", str(path), *depth]) == 2
        assert "FAIL sic" in capsys.readouterr().out


def one_mismatch_cube(seed):
    """The Kuhn 3-cube with one seeded cell's horizontal row shuffled until
    its refinement edge moves off the cube diagonal."""
    rng = random.Random(seed)
    pool, cells = kuhn_cube_cells(3)
    tagged = [TaggedSimplex(c, ()) for c in cells]
    k = rng.randrange(len(cells))
    row = list(cells[k])
    while refinement_edge(TaggedSimplex(tuple(row), ())) == refinement_edge(tagged[k]):
        rng.shuffle(row)
    tagged[k] = TaggedSimplex(tuple(row), ())
    return Triangulation.from_cells(pool, tagged)


@pytest.mark.parametrize("seed", [None, 0, 1, 2, 3])
def test_check_sic_and_uniform_name_one_edge(seed, tmp_path, capsys):
    """Both commands read the one refinement-edge agreement rule, so they
    fail on the same edge: on the one-sided square (seed None) and on
    seeded one-cell mismatches of the Kuhn 3-cube."""
    path = tmp_path / "mismatch.json"
    write_mesh(path, one_sided_square() if seed is None else one_mismatch_cube(seed))
    assert main(["check", "sic", "--mesh", str(path)]) == 2
    out = capsys.readouterr().out
    assert main(["uniform", "--mesh", str(path)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    edge = re.search(r"edge (\{\d+, \d+\}) is the refinement edge of", out).group(1)
    assert f"on shared edge {edge}: leaves " in err
    if seed is None:
        assert out.splitlines()[0] == (
            "uniform refinement 0: edge {1, 2} is the refinement edge of 1 of 2 sharers"
        )
        assert err == (
            "refinement failed: mismatched refinement edges on shared edge {1, 2}: "
            "leaves 0 and 1\n"
        )


def test_duplicate_cell_is_exit_1(tmp_path, capsys):
    """Two copies of one triangle pass every conformity check and refine
    independently, so the loader refuses a cell whose vertex ids repeat an
    earlier cell's, in any order."""
    doc = {
        "dim": 2,
        "vertices": [[["0", "0"], ["0", "0"]], [["1", "0"], ["0", "0"]], [["0", "0"], ["1", "0"]]],
        "cells": [{"horizontal": [0, 1, 2]}, {"horizontal": [2, 0], "vertical": [1]}],
    }
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(doc))
    for argv in (["check", "conforming"], ["check", "sic"], ["bdv-run", "-N", "3"]):
        assert main([*argv, "--mesh", str(path)]) == 1
        err = capsys.readouterr().err
        assert "cells[1]: same vertices as cells[0]" in err
        assert "Traceback" not in err


def test_pile_game_zero_rounds_exit_1(capsys):
    assert main(["pile-game", "-N", "0"]) == 1
    assert "must be at least 1" in capsys.readouterr().err


def _canonical_hash(tri):
    """mesh_hash after renumbering vertices by coordinates and sorting the
    cells, so meshes built in different vertex orders compare by geometry."""
    pool = tri.forest.pool
    key = lambda vid: fractions_of(pool.point(vid))
    ordered = sorted({v for c in tri.cells() for v in c.vertex_ids}, key=key)
    new_pool = VertexPool()
    new_id = {v: new_pool.id_of(pool.point(v)) for v in ordered}
    cells = sorted(
        (
            TaggedSimplex(
                tuple(new_id[v] for v in c.horizontal),
                tuple(new_id[v] for v in c.vertical),
                c.level,
                c.hyperlevel,
            )
            for c in tri.cells()
        ),
        key=lambda c: (c.horizontal, c.vertical, c.level, c.hyperlevel),
    )
    return mesh_hash(Triangulation.from_cells(new_pool, cells))


def _overlay_case(case):
    """``(coarse, fine)`` refinements of one initial mesh: the Kuhn 3-cube
    refined at seeded random leaves, or the Kuhn square refined 120 times
    at its deepest leaf (1388 cells, levels up to 120)."""
    if case == "square-120":
        coarse = kuhn_square()
        fine = coarse.copy()
        level = lambda nid: fine.forest.tarray(nid).level
        for _ in range(120):
            refine(fine, max(sorted(fine.leaves), key=level))
        return coarse, fine
    pool = VertexPool()
    base = Triangulation.from_cells(
        pool, [kuhn(list(p), [1, 1, 1], pool) for p in permutations((1, 2, 3))]
    )
    rng = random.Random(int(case.removeprefix("cube-")))
    coarse = base.copy()
    for _ in range(4):
        refine(coarse, rng.choice(sorted(coarse.leaves)))
    fine = coarse.copy()
    for _ in range(6):
        refine(fine, rng.choice(sorted(fine.leaves)))
    return coarse, fine


@pytest.mark.parametrize("case", ["cube-1", "cube-5", "square-120"])
def test_overlay_matches_in_process_overlay(tmp_path, case, monkeypatch):
    """The CLI overlay equals the in-process one, and it locates each finer
    leaf by at most one elimination per cell of the coarser mesh, the roots
    of its forest as loaded: below its root the walk follows the bisection
    rule without solving."""
    coarse, fine = _overlay_case(case)
    a, b, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "ov.json"
    write_mesh(a, coarse)
    write_mesh(b, fine)
    solves = []
    solve_all = exactgeom._solve_all
    monkeypatch.setattr(
        exactgeom, "_solve_all", lambda *args: solves.append(1) or solve_all(*args)
    )
    assert main(["overlay", "--mesh", str(a), "--mesh2", str(b), "--out", str(out)]) == 0
    assert len(solves) <= len(fine.leaves) * len(coarse.leaves)
    result, _, _ = read_mesh(out)
    assert _canonical_hash(result) == _canonical_hash(overlay(coarse, fine))


def _cell_coordinates(tri):
    """The cells as sets of vertex coordinates, independent of numbering."""
    pool = tri.forest.pool
    return {
        frozenset(fractions_of(pool.point(v)) for v in c.vertex_ids)
        for c in tri.cells()
    }


def test_overlay_either_order_3d(tmp_path):
    """The finer mesh may come first: the CLI embeds whichever mesh
    refines the other."""
    coarse = kuhn_cube_mesh(3)
    rng = random.Random(3)
    for _ in range(3):
        refine(coarse, rng.choice(sorted(coarse.leaves)))
    fine = coarse.copy()
    for _ in range(5):
        refine(fine, rng.choice(sorted(fine.leaves)))
    a, b = tmp_path / "coarse.json", tmp_path / "fine.json"
    write_mesh(a, coarse)
    write_mesh(b, fine)
    results = []
    for first, second in ((a, b), (b, a)):
        out = tmp_path / f"ov-{first.stem}.json"
        argv = ["overlay", "--mesh", str(first), "--mesh2", str(second), "--out", str(out)]
        assert main(argv) == 0
        results.append(_cell_coordinates(read_mesh(out)[0]))
    assert results[0] == results[1] == _cell_coordinates(fine)


def test_overlay_descends_as_deep_as_the_cells(tmp_path):
    """The unit interval bisected 140 times at its deepest leaf, written
    without its optional levels: the embedding descends by geometry alone,
    so nothing bounds it by a level the file does not hold."""
    unit, deep, out = tmp_path / "unit.json", tmp_path / "deep.json", tmp_path / "ov.json"
    unit.write_text(INTERVAL_TEXT)
    deep.write_text(deep_interval_text())
    assert main(["overlay", "--mesh", str(unit), "--mesh2", str(deep), "--out", str(out)]) == 0
    assert _cell_coordinates(read_mesh(out)[0]) == _cell_coordinates(read_mesh(deep)[0])


def test_overlay_of_different_roots_exit_1(tmp_path, square_path, capsys):
    cube = tmp_path / "cube.json"
    write_mesh(cube, kuhn_cube_mesh(3))
    pool = VertexPool()
    shifted = Triangulation.from_cells(
        pool, [kuhn([1, 2, 3], [1, 1, 1], pool, offset=point(5, 0, 0))]
    )
    far = tmp_path / "far.json"
    write_mesh(far, shifted)
    for first, second in ((cube, far), (cube, square_path)):
        argv = ["overlay", "--mesh", str(first), "--mesh2", str(second)]
        assert main(argv) == 1
        assert "not refinements of one common initial mesh" in capsys.readouterr().err


def test_overlay_of_a_cell_across_a_bisection_exit_1(tmp_path, capsys, monkeypatch):
    """The fine triangle lies in the coarse one, but the coarse root's
    bisection line x + y = 1 splits it, so it is no node of the coarse
    forest: the walk below the root finds no child holding all its
    vertices, in either argument order."""
    paths = [tmp_path / name for name in ("straddle-coarse.json", "straddle-fine.json")]
    for path in paths:
        path.write_text(FAILING_DOCS[path.name][0])
    descents = []
    ensure = Forest.ensure_children
    monkeypatch.setattr(
        Forest, "ensure_children", lambda self, nid: descents.append(nid) or ensure(self, nid)
    )
    for first, second in (paths, paths[::-1]):
        descents.clear()
        assert main(["overlay", "--mesh", str(first), "--mesh2", str(second)]) == 1
        assert "not refinements of one common initial mesh" in capsys.readouterr().err
        assert descents == [0]


# `constants` stdout of Kuhn simplices, the Kuhn 4-cube and agk-tagged cubes,
# pinned as text.
CONSTANTS_GOLDEN = {
    "kuhn-2": (
        "n = 2\n"
        "d = 1/2\n"
        "D = 1 (D^2 = 1)\n"
        "C_sic <= 36.6210876741722\n"
        "d_iso = 1/2\n"
        "D_iso = 1.4142135623731 (D_iso^2 = 2)\n"
        "C_iso <= 17548.4589477418\n"
        "bound: #T_N <= 64 #T_0 + C_iso N (h0 = 3)\n"
        "certificate: 17 shape classes in 6 generations, settled = True\n"
    ),
    "kuhn-3": (
        "n = 3\n"
        "d = 1/6\n"
        "D = 1.41421356237309 (D^2 = 2)\n"
        "C_sic <= 4048.18634340362\n"
        "d_iso = 1/6\n"
        "D_iso = 1.73205080756888 (D_iso^2 = 3)\n"
        "C_iso <= 5850591.22927389\n"
        "bound: #T_N <= 512 #T_0 + C_iso N (h0 = 3)\n"
        "certificate: 145 shape classes in 11 generations, settled = True\n"
    ),
    "kuhn-4": (
        "n = 4\n"
        "d = 1/24\n"
        "D = 1.73205080756888 (D^2 = 3)\n"
        "C_sic <= 831713.299289971\n"
        "d_iso = 1/24\n"
        "D_iso = 2 (D_iso^2 = 4)\n"
        "C_iso <= 40418939808.1134\n"
        "bound: #T_N <= 65536 #T_0 + C_iso N (h0 = 4)\n"
        "certificate: 1537 shape classes in 16 generations, settled = True\n"
    ),
    "cube-4": (
        "n = 4\n"
        "d = 1/24\n"
        "D = 1.73205080756888 (D^2 = 3)\n"
        "C_sic <= 831713.299289971\n"
        "d_iso = 1/24\n"
        "D_iso = 2 (D_iso^2 = 4)\n"
        "C_iso <= 40418939808.1134\n"
        "bound: #T_N <= 65536 #T_0 + C_iso N (h0 = 4)\n"
        "certificate: 36888 shape classes in 16 generations, settled = True\n"
    ),
    "agk-2": (
        "n = 3\n"
        "d = 1/6\n"
        "D = 2.3811015779523 (D^(2n) = 729/4)\n"
        "C_sic <= 19321.8751007605\n"
        "d_iso = 1/3\n"
        "D_iso = 3.74165738677394 (D_iso^2 = 14)\n"
        "C_iso <= 29490350.3139026\n"
        "bound: #T_N <= 512 #T_0 + C_iso N (h0 = 3)\n"
        "certificate: 864 shape classes in 11 generations, settled = True\n"
    ),
    "agk-3": (
        "n = 3\n"
        "d = 1/6\n"
        "D = 2.44948974278318 (D^2 = 6)\n"
        "C_sic <= 21034.9932758446\n"
        "d_iso = 4/3\n"
        "D_iso = 4.89897948556636 (D_iso^2 = 24)\n"
        "C_iso <= 16547970.9286804\n"
        "bound: #T_N <= 512 #T_0 + C_iso N (h0 = 3)\n"
        "certificate: 864 shape classes in 11 generations, settled = True\n"
    ),
    "agk-4": (
        "n = 3\n"
        "d = 1/6\n"
        "D = 3 (D^2 = 9)\n"
        "C_sic <= 38643.7502015209\n"
        "d_iso = 4/3\n"
        "D_iso = 6 (D_iso^2 = 36)\n"
        "C_iso <= 30400563.7902577\n"
        "bound: #T_N <= 512 #T_0 + C_iso N (h0 = 3)\n"
        "certificate: 868 shape classes in 11 generations, settled = True\n"
    ),
    "agk-5": (
        "n = 3\n"
        "d = 1/6\n"
        "D = 3 (D^2 = 9)\n"
        "C_sic <= 38643.7502015209\n"
        "d_iso = 4/3\n"
        "D_iso = 6 (D_iso^2 = 36)\n"
        "C_iso <= 30400563.7902577\n"
        "bound: #T_N <= 512 #T_0 + C_iso N (h0 = 3)\n"
        "certificate: 870 shape classes in 11 generations, settled = True\n"
    ),
}


@pytest.mark.parametrize("name", sorted(CONSTANTS_GOLDEN))
def test_constants_golden(name, tmp_path, capsys):
    kind, arg = name.split("-")
    make = {"kuhn": single_kuhn, "cube": kuhn_cube_mesh, "agk": agk_cube}[kind]
    tri = make(int(arg))
    path = tmp_path / "mesh.json"
    write_mesh(path, tri)
    assert main(["constants", "--mesh", str(path)]) == 0
    assert capsys.readouterr().out == CONSTANTS_GOLDEN[name]


def flat_square(tmp_path, exp):
    """The unit square with its vertex (1, 1) moved to (1, 2**-exp): the
    cell (0, 1, 2) has volume 2**-(exp + 1)."""
    doc = {
        "dim": 2,
        "vertices": [
            [["0", "0"], ["0", "0"]],
            [["1", "0"], ["0", "0"]],
            [["1", "0"], ["1", str(exp)]],
            [["0", "0"], ["1", "0"]],
        ],
        "cells": [
            {"horizontal": [0, 1, 2], "vertical": [], "hyperlevel": 0},
            {"horizontal": [0, 3, 2], "vertical": [], "hyperlevel": 0},
        ],
    }
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [["constants"], ["bdv-run", "--mode", "sic"], ["bdv-run", "--mode", "iso"]],
    ids=["constants", "bdv-run-sic", "bdv-run-iso"],
)
@pytest.mark.parametrize(
    "exp, message",
    [
        # the volume floor underflows to 0.0
        (10_000, "cells[0]: volume floor d is outside the float range"),
        # d and D are floats, C_sic = D^2 V_2 / (2 (1 - 2^(-1/2))^2 d) is not
        (1_020, "cells[0] and cells[1]: C_sic is outside the float range"),
        # C_sic is a float, C_iso = (D_iso^2 / d_iso) 3 2^7 (...) is not
        (1_015, "cells[0] and cells[1]: C_iso is outside the float range"),
    ],
    ids=["floor", "c-sic", "c-iso"],
)
def test_constants_outside_float_range_exit_1(argv, exp, message, tmp_path, capsys):
    assert main([*argv, "--mesh", flat_square(tmp_path, exp)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [["constants"], ["bdv-run", "--mode", "sic"], ["bdv-run", "--mode", "iso"]],
    ids=["constants", "bdv-run-sic", "bdv-run-iso"],
)
@pytest.mark.parametrize(
    "name, message",
    [
        # float(d) raises OverflowError, where a tiny d underflows to 0.0
        ("huge.json", "cells[0]: volume floor d is outside the float range"),
        # d_iso and D_iso are floats, but D_iso**3 raises OverflowError
        ("thin-367.json", "cells[0]: C_iso is outside the float range"),
    ],
    ids=["huge-triangle", "thin-tetrahedron"],
)
def test_overflowing_intermediate_exit_1(argv, name, message, tmp_path, capsys):
    path = tmp_path / name
    path.write_text(FAILING_DOCS[name][0])
    assert main([*argv, "--mesh", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_thin_tetrahedron_in_range_exit_0(tmp_path, capsys):
    """C_iso does not depend on the hyperlevel: the thin tetrahedron at
    hyperlevel 340 has the constant whose D_iso**3 overflows at 367."""
    path = tmp_path / "thin-340.json"
    path.write_text(FAILING_DOCS[path.name][0])
    assert main(["constants", "--mesh", str(path)]) == 0
    assert "C_iso <= 4.03703424646159e+36\n" in capsys.readouterr().out
    for mode in ("sic", "iso"):
        assert main(["bdv-run", "--mode", mode, "-N", "3", "--mesh", str(path)]) == 0
        assert capsys.readouterr().out.endswith("# bound satisfied in every round\n")


def test_exponent_above_limit_exit_1_fast(tmp_path, capsys):
    """An exponent of 10**8 would make every vertex a 10**8-bit integer
    row; the loader refuses it before any shift."""
    path = flat_square(tmp_path, 10**8)
    for argv in (["check", "conforming"], ["constants"], ["bdv-run"]):
        start = time.perf_counter()
        assert main([*argv, "--mesh", path]) == 1
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err.startswith("error: vertices[2][1]: exponent ")


def _untagged_path(tmp_path):
    pool, cells, _ = tripled_triangle_pair()
    path = tmp_path / "untagged.json"
    write_mesh(path, Triangulation.from_cells(pool, [TaggedSimplex(c, ()) for c in cells]))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["refine", "--mesh", "SQUARE", "--cell", "0"],
        ["uniform", "--mesh", "SQUARE"],
        ["hyper-uniform", "--mesh", "SQUARE", "--depth", "1"],
        ["quasi-uniform", "--mesh", "SQUARE"],
        ["init-division", "--mesh", "UNTAGGED"],
        ["agk-init", "--mesh", "UNTAGGED"],
        ["overlay", "--mesh", "SQUARE", "--mesh2", "SQUARE"],
        ["bdv-run", "--mesh", "SQUARE", "-N", "3"],
        ["pile-game", "-N", "5"],
    ],
    ids=lambda argv: argv[0],
)
def test_out_in_missing_directory_exit_1(argv, square_path, tmp_path, capsys, monkeypatch):
    """The output path is checked before any work: neither the refinement
    run nor the pile game is reached."""

    def unreachable(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    monkeypatch.setattr(cli, "run_sequence", unreachable)
    monkeypatch.setattr(cli, "play", unreachable)
    paths = {"SQUARE": square_path, "UNTAGGED": _untagged_path(tmp_path)}
    argv = [paths.get(a, a) for a in argv]
    out = str(tmp_path / "missing" / "x")
    assert main([*argv, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out {out}: directory ")
    assert "does not exist" in err


@pytest.mark.parametrize("argv", [["bdv-run", "--mesh", "SQUARE"], ["pile-game"]])
def test_out_is_directory_exit_1(argv, square_path, tmp_path, capsys):
    argv = [square_path if a == "SQUARE" else a for a in argv]
    assert main([*argv, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: --out {tmp_path}: is a directory\n"


def thin_square(tmp_path):
    """The unit square with vertex (1, 0) moved to (1, 2**-16384): valid,
    with numerators past the interpreter's 4300-digit limit for ``str``
    after one uniform sweep."""
    path = Path(flat_square(tmp_path, 0))
    doc = json.loads(path.read_text())
    doc["vertices"][1] = [["1", "0"], ["1", "16384"]]
    path.write_text(json.dumps(doc))
    return path


def test_constants_longer_than_str_limit_exit_0(tmp_path, capsys):
    """The thin square's exact volume floor d = (2**16384 - 1) / 2**16385
    has a denominator past the 4300-digit limit; it is printed in full,
    checked against ``decimal``, which has no limit."""
    path = thin_square(tmp_path)
    assert main(["constants", "--mesh", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    num, den = (Decimal(x) for x in (2**16384 - 1, 2**16385))
    assert out[:2] == ["n = 2", f"d = {num}/{den}"]
    assert len(out) == 9 and out[-1].endswith("settled = True")


def test_unwritable_mesh_keeps_out_file(tmp_path, capsys):
    """A mesh that cannot be serialised exits 1 and leaves the --out file
    as it was, also when that file is the --mesh it was read from."""
    out = tmp_path / "u.json"
    assert main(["uniform", "--mesh", str(thin_square(tmp_path)), "--out", str(out)]) == 0
    before = out.read_bytes()
    assert main(["uniform", "--mesh", str(out), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "4300 digits" in err
    assert "vertices[" in err
    assert out.read_bytes() == before


def _fuzz_documents():
    """Mesh documents the CLI property mutates: tagged 2D squares (one
    meeting the strong initial conditions, one not), a Kuhn tetrahedron,
    and an untagged triangle pair carrying a marking and a partition."""
    pool, cells, ids = tripled_triangle_pair()
    untagged = Triangulation.from_cells(pool, [TaggedSimplex(c, ()) for c in cells])
    marking = {2: [point(3, 1), point(6, 2)]}
    partition = VertexPartition(frozenset(ids[:2]), frozenset(ids[2:]), ids[1::-1], None)
    docs = [mesh_to_dict(m) for m in (kuhn_square(), one_sided_square(), single_kuhn(3))]
    return [json.dumps(d) for d in docs] + [marked_text(untagged, marking, partition)]


FUZZ_DOCUMENTS = _fuzz_documents()
FUZZ_ARGV = [["check", what] for what in sorted(cli._CHECKS)] + [
    ["init-division"],
    ["agk-init"],
    ["uniform"],
    ["quasi-uniform"],
    ["hyper-uniform", "--depth", "1"],
    ["constants"],
    ["bdv-run", "-N", "5"],
]


# a coordinate as ``["num", "exp"]`` text: two draws in three canonical
_CANONICAL = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 4])).map(
    lambda q: [str(q.numerator), str(q.denominator.bit_length() - 1)]
)
_RAW = st.tuples(st.integers(-12, 12), st.integers(0, 2)).map(lambda t: [str(t[0]), str(t[1])])
DYADIC_TEXT = st.one_of(_CANONICAL, _CANONICAL, _RAW)


def _mutate_split(doc, data):
    cell = data.draw(st.sampled_from(doc["cells"]))
    ids = data.draw(st.permutations(cell["horizontal"] + cell["vertical"]))
    k = data.draw(st.integers(0, len(ids)))
    cell["horizontal"], cell["vertical"] = ids[:k], ids[k:]


def _mutate_hyperlevel(doc, data):
    cell = data.draw(st.sampled_from(doc["cells"]))
    cell["hyperlevel"] = data.draw(st.sampled_from([-1, 0, 1, 2, 7]))


def _mutate_partition(doc, data):
    ids = list(range(len(doc["vertices"])))
    v0 = data.draw(st.lists(st.sampled_from(ids), unique=True))
    v1 = [v for v in ids if v not in v0]
    if data.draw(st.booleans()):
        v1 = data.draw(st.lists(st.sampled_from(ids), unique=True))
    part = {"v0": v0, "v1": v1}
    for key, block in (("order0", v0), ("order1", v1)):
        if data.draw(st.booleans()):
            part[key] = data.draw(st.permutations(block))
    doc["partition"] = part


def _mutate_marking(doc, data):
    key = data.draw(st.sampled_from(["-1", "0", "1", "2", "3", "7"]))
    vertex = st.sampled_from(doc["vertices"])
    fresh = st.lists(DYADIC_TEXT, min_size=doc["dim"], max_size=doc["dim"])
    doc.setdefault("marking", {})[key] = data.draw(st.lists(vertex | fresh, max_size=3))


def _mutate_vertex(doc, data):
    vertex = data.draw(st.sampled_from(doc["vertices"]))
    vertex[data.draw(st.integers(0, doc["dim"] - 1))] = data.draw(DYADIC_TEXT)


MUTATIONS = [_mutate_split, _mutate_hyperlevel, _mutate_partition, _mutate_marking, _mutate_vertex]


@settings(max_examples=250, deadline=2000)
@given(data=st.data())
def test_mesh_document_property(data):
    """Any mutated fixture mesh under any mesh subcommand exits with a
    documented code and raises nothing."""
    doc = json.loads(data.draw(st.sampled_from(FUZZ_DOCUMENTS)))
    for mutate in data.draw(st.lists(st.sampled_from(MUTATIONS), max_size=3)):
        mutate(doc, data)
    argv = data.draw(st.sampled_from(FUZZ_ARGV))
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "mesh.json")
        Path(path).write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv + ["--mesh", path])
    assert code in (0, 1, 2, 3), err.getvalue()
