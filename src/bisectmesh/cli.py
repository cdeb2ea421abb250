"""Command-line front end.

Exit codes: 0 success, 1 invalid input, 2 verification failure,
3 refinement failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from decimal import Decimal
from fractions import Fraction

from .exactgeom import _locate
from .forest import Triangulation, overlay as overlay_tris
from .harness import MODES, STRATEGIES, compute_constants, run_sequence, verify_bdv
from .inittags import (
    VertexPartition,
    agk_init,
    check_isocochange,
    check_pc,
    check_retaco,
    check_retahyco,
    check_sic,
    initial_division,
)
from .meshio import read_mesh, write_mesh
from .pilegame import STRATEGIES as GAMES, play
from .refine import (
    RefinementError,
    check_conforming,
    hyperlevel_uniform_refine,
    quasi_uniform_refine,
    refine,
    uniform_refine,
)

EXIT_OK, EXIT_INVALID, EXIT_VERIFY, EXIT_REFINE = 0, 1, 2, 3


def _save(args, tri):
    if args.out:
        write_mesh(args.out, tri)
        print(f"wrote {args.out} ({len(tri.leaves)} cells)")
    else:
        print(f"result: {len(tri.leaves)} cells (no --out given, not saved)")


def _emit_csv(args, lines):
    """Write CSV ``lines`` one at a time to ``--out``, or print them."""
    if not args.out:
        sys.stdout.writelines(f"{line}\n" for line in lines)
        return
    with open(args.out, "w") as fh:
        fh.writelines(f"{line}\n" for line in lines)
    print(f"wrote {args.out}")


def _cmd_init_division(args):
    tri, marking, _ = read_mesh(args.mesh)
    cells = [t.vertex_ids for t in tri.cells()]
    _save(args, initial_division(tri.forest.pool, cells, marking))
    return EXIT_OK


def _cmd_agk_init(args):
    tri, _, partition = read_mesh(args.mesh)
    cells = [t.vertex_ids for t in tri.cells()]
    if partition is None:
        vertices = frozenset(v for c in cells for v in c)
        partition = VertexPartition(v0=frozenset(), v1=vertices)
    _save(args, agk_init(tri.forest.pool, cells, partition))
    return EXIT_OK


_CHECKS = {
    "sic": check_sic,
    "retaco": check_retaco,
    "retahyco": check_retahyco,
    "pc": check_pc,
    "isocochange": check_isocochange,
    "conforming": check_conforming,
}


def _cmd_check(args):
    if args.depth is not None and args.what != "sic":
        raise ValueError(f"--depth applies to check sic only, not {args.what}")
    tri, _, _ = read_mesh(args.mesh)
    checker = _CHECKS[args.what]
    problems = checker(tri, args.depth) if args.what == "sic" else checker(tri)
    if problems:
        for p in problems:
            print(p)
        print(f"FAIL {args.what}: {len(problems)} problem(s)")
        return EXIT_VERIFY
    what = args.what
    if what == "sic":  # --depth is at least 1; the default is n + 1
        what += f" (uniform refinements to depth {args.depth or tri.cells()[0].dim + 1})"
    print(f"PASS {what}")
    return EXIT_OK


def _cmd_refine(args):
    tri, _, _ = read_mesh(args.mesh)
    leaves = sorted(tri.leaves)
    if not 0 <= args.cell < len(leaves):
        raise ValueError(f"cell index {args.cell} out of range")
    refine(tri, leaves[args.cell])
    _save(args, tri)
    return EXIT_OK


def _cmd_sweep(args, fn, **kw):
    tri, _, _ = read_mesh(args.mesh)
    fn(tri, **kw)
    _save(args, tri)
    return EXIT_OK


def _exact(q: Fraction) -> str:
    """``str(q)``, of any length: ``Decimal`` prints integers with no digit
    limit, and the interpreter's limit for ``str`` is left alone."""
    num = str(Decimal(q.numerator))
    return num if q.denominator == 1 else f"{num}/{Decimal(q.denominator)}"


def _cmd_constants(args):
    consts = compute_constants(read_mesh(args.mesh)[0])
    if consts.D_squared is not None:
        ceiling = f"D = {consts.D:.15g} (D^2 = {_exact(consts.D_squared)})"
    else:
        ceiling = f"D = {consts.D:.15g} (D^(2n) = {_exact(consts.D_pow_2n)})"
    # the whole report is formatted before its first line is printed
    print("\n".join([
        f"n = {consts.n}",
        f"d = {_exact(consts.d)}",
        ceiling,
        f"C_sic <= {consts.C_sic:.15g}",
        f"d_iso = {_exact(consts.d_iso)}",
        f"D_iso = {consts.D_iso:.15g} (D_iso^2 = {_exact(consts.D_iso_squared)})",
        f"C_iso <= {consts.C_iso:.15g}",
        f"bound: #T_N <= {consts.first_summand_factor} #T_0 + C_iso N (h0 = {consts.h0})",
        f"certificate: {consts.classes} shape classes in {consts.generations} "
        f"generations, settled = {consts.settled}",
    ]))
    return EXIT_OK if consts.settled else EXIT_VERIFY


def _cmd_bdv_run(args):
    tri, _, _ = read_mesh(args.mesh)
    consts = compute_constants(tri)
    trace = run_sequence(tri, args.strategy, args.rounds, args.seed)
    problems = verify_bdv(trace, consts, args.mode)
    _emit_csv(args, trace.csv_lines(consts.closure(args.mode)[0]))
    grown = trace.final_cells - trace.initial_cells
    print(
        f"# strategy={args.strategy} rounds={trace.rounds} grown={grown} "
        f"mode={args.mode} max_jump={trace.max_jump}"
    )
    if problems:
        for p in problems:
            print(p)
        return EXIT_VERIFY
    print("# bound satisfied in every round")
    return EXIT_OK


def _cmd_pile_game(args):
    trace = play(args.strategy, args.rounds, args.seed)
    _emit_csv(args, trace.csv_lines())
    total, bound = trace.total_added, 4 * args.rounds
    print(f"# total added {total} <= 4N = {bound}: {total <= bound}")
    return EXIT_OK if total <= bound else EXIT_VERIFY


def _embed_refinement(base: Triangulation, other: Triangulation):
    """Map every leaf of ``other`` to a node of ``base``'s forest, or None
    unless both refine the same initial cells.

    A leaf's vertices are located once, as barycentric numerators ``lam``,
    in the first root that holds them all, and below it by the bisection
    rule alone: as ``a = 2m - b`` at ``m = (a + b) / 2``, a point
    ``lam[a] a + lam[b] b + ...`` is ``2 lam[a] m + (lam[b] - lam[a]) b +
    ...``, with the same sum, so the child without ``a`` holds exactly the
    points with ``lam[a] <= lam[b]``, at ``lam[m] = 2 lam[a]`` and
    ``lam[b] - lam[a]``; the other child mirrors this.  The walk ends when
    the cell's vertices are the node's: each step halves the volume, and a
    node holding the cell has at least its volume, equal only at the cell.
    """
    forest = base.forest
    if forest.pool.point(0).dim != other.forest.pool.point(0).dim:
        return None
    mapped = []
    for leaf in sorted(other.leaves):
        pts = other.forest.tarray(leaf).vertices(other.forest.pool)
        for node in forest.roots:
            ids = forest.tarray(node).vertex_ids
            located = _locate(forest.tarray(node).vertices(forest.pool), pts)
            if None not in located:
                break
        else:
            return None
        coords = [dict(zip(ids, c)) for c in located]
        den = sum(located[0])
        while not all(den in lam.values() for lam in coords):
            children = forest.ensure_children(node)
            drops = [(set(ids) - set(forest.tarray(c).vertex_ids)).pop() for c in children]
            for node, a, b in zip(children, drops, drops[::-1]):
                if all(lam[a] <= lam[b] for lam in coords):
                    break
            else:
                return None
            m = forest.nodes[node].v_new
            for lam in coords:
                lam[m] = 2 * lam[a]
                lam[b] -= lam.pop(a)
            ids = forest.tarray(node).vertex_ids
        mapped.append(node)
    return mapped


def _cmd_overlay(args):
    tri_a, _, _ = read_mesh(args.mesh)
    tri_b, _, _ = read_mesh(args.mesh2)
    # A loaded mesh's cells are the roots of its forest, so only the finer
    # mesh embeds into the coarser one: try both orders.
    mapped = _embed_refinement(tri_a, tri_b)
    if mapped is None:
        tri_a, tri_b = tri_b, tri_a
        mapped = _embed_refinement(tri_a, tri_b)
    if mapped is None:
        raise ValueError("meshes are not refinements of one common initial mesh")
    other = Triangulation(tri_a.forest, mapped)
    out = overlay_tris(tri_a, other)
    _save(args, out)
    return EXIT_OK


def _check_out(path: str):
    """Raise ValueError naming ``--out`` when ``path`` is a directory or its
    directory is missing or not writable; checked before any work is done."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise ValueError(f"--out {path}: is a directory")
    if not os.path.isdir(folder):
        raise ValueError(f"--out {path}: directory {folder} does not exist")
    if not os.access(folder, os.W_OK):
        raise ValueError(f"--out {path}: directory {folder} is not writable")


def _int_at_least(lo: int):
    """argparse type for an integer option with lower bound ``lo``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value

    return parse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bisectmesh",
        description="Conforming simplicial bisection refinement toolbox",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    mesh = argparse.ArgumentParser(add_help=False)
    mesh.add_argument("--mesh", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out")

    sub.add_parser("init-division", parents=[mesh, out]).set_defaults(fn=_cmd_init_division)
    sub.add_parser("agk-init", parents=[mesh, out]).set_defaults(fn=_cmd_agk_init)
    p = sub.add_parser("check", parents=[mesh])
    p.add_argument("what", choices=sorted(_CHECKS))
    p.add_argument("--depth", type=_int_at_least(1))
    p.set_defaults(fn=_cmd_check)
    p = sub.add_parser("refine", parents=[mesh, out])
    p.add_argument("--cell", type=int, required=True)
    p.set_defaults(fn=_cmd_refine)
    sub.add_parser("uniform", parents=[mesh, out]).set_defaults(
        fn=lambda a: _cmd_sweep(a, uniform_refine)
    )
    p = sub.add_parser("hyper-uniform", parents=[mesh, out])
    p.add_argument("--depth", type=_int_at_least(0), required=True)
    p.set_defaults(fn=lambda a: _cmd_sweep(a, hyperlevel_uniform_refine, j=a.depth))
    sub.add_parser("quasi-uniform", parents=[mesh, out]).set_defaults(
        fn=lambda a: _cmd_sweep(a, quasi_uniform_refine)
    )
    sub.add_parser("constants", parents=[mesh]).set_defaults(fn=_cmd_constants)
    p = sub.add_parser("bdv-run", parents=[mesh, out])
    p.add_argument("--strategy", default="random-leaf", choices=STRATEGIES)
    p.add_argument("--rounds", "-N", type=_int_at_least(1), default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=MODES, default="sic")
    p.set_defaults(fn=_cmd_bdv_run)
    p = sub.add_parser("pile-game", parents=[out])
    p.add_argument("--strategy", default="random", choices=GAMES)
    p.add_argument("--rounds", "-N", type=_int_at_least(1), default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_pile_game)
    p = sub.add_parser("overlay", parents=[mesh, out])
    p.add_argument("--mesh2", required=True)
    p.set_defaults(fn=_cmd_overlay)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if not exc.code else EXIT_INVALID
    # The one place that turns a failure into an exit code.  Anything else,
    # such as a SequenceError (an AssertionError), stays a traceback.
    try:
        if getattr(args, "out", None):
            _check_out(args.out)
        return args.fn(args)
    except RefinementError as exc:
        print(f"refinement failed: {exc}", file=sys.stderr)
        return EXIT_REFINE
    except (ValueError, OSError) as exc:
        # MeshFormatError, MarkingError and compute_constants' float-range
        # error are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
