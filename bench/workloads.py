"""The benchmark's three workloads: seeded inputs, timed jobs, answer checks.

Each workload builds its inputs from the seed in ``setup`` and exposes a
job stream.  A job's ``run`` is the timed part (a ``bisectmesh`` CLI call
or a library call); its ``check`` runs untimed afterwards and compares
every answer with what it must be.  The package is always reached through
module attributes, so that wrapped functions are the ones called when the
run is traced.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import itertools
import os
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from itertools import permutations
from typing import Callable

from bisectmesh.exactgeom import Dyadic, DyadicPoint
from bisectmesh.tarray import TaggedSimplex, VertexPool

# The package re-exports functions under its submodules' names
# (``bisectmesh.refine`` is the function), so take the modules themselves.
cli, fo, it, mio, rf, ta = (
    importlib.import_module(f"bisectmesh.{m}")
    for m in ("cli", "forest", "inittags", "meshio", "refine", "tarray")
)

# Known defect: check_conforming only looks for hanging vertices, so it
# passes two tetrahedra on the same side of a shared face.  The answer is
# counted as wrong; it does not make the run incorrect until it changes to
# some other wrong answer.
KNOWN_DEFECTS = ("same-side 3D overlap passes check_conforming",)


@dataclass
class Verdict:
    """Outcome of checking one job: operations, wrong answers, work done."""

    ops: int = 0
    wrong: list = field(default_factory=list)
    known: list = field(default_factory=list)
    bisections: int = 0
    bricks: int = 0
    cells_scanned: int = 0
    scan_s: float = 0.0  # time of the conformity checks that scanned them
    rounds: int = 0
    digest: list = field(default_factory=list)

    def expect(self, ok: bool, what: str):
        self.ops += 1
        if not ok:
            self.wrong.append(what)


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Verdict]


def bdv_argv(mesh, strategy, rounds, seed, mode, out):
    return ["bdv-run", "--mesh", mesh, "--strategy", strategy, "-N", str(rounds),
            "--seed", str(seed), "--mode", mode, "--out", out]


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


class FinalMesh:
    """Keeps the triangulation a ``bdv-run`` refined, for the answer check.

    Installed on the ``cli.run_sequence`` binding, over the span wrapper
    when the run is traced.
    """

    def __init__(self):
        self.tri = None
        self._orig = None

    def install(self):
        orig = self._orig = cli.run_sequence

        def keep(tri, *args, **kwargs):
            self.tri = tri
            return orig(tri, *args, **kwargs)

        cli.run_sequence = keep

    def uninstall(self):
        cli.run_sequence = self._orig


# --- mesh factories ---------------------------------------------------------


def cube_mesh(n: int, offset=None) -> fo.Triangulation:
    """The n! full-type Kuhn simplices of the unit n-cube."""
    pool = VertexPool()
    origin = DyadicPoint(offset) if offset else None
    cells = [
        ta.kuhn(list(perm), [1] * n, pool, offset=origin)
        for perm in permutations(range(1, n + 1))
    ]
    return fo.Triangulation.from_cells(pool, cells)


def kuhn_simplex(n: int) -> fo.Triangulation:
    pool = VertexPool()
    return fo.Triangulation.from_cells(pool, [ta.kuhn(list(range(1, n + 1)), [1] * n, pool)])


def plain_mesh(points, cells) -> fo.Triangulation:
    """Cells given as vertex-index tuples over explicit points, full type."""
    pool = VertexPool()
    ids = [pool.id_of(DyadicPoint(p)) for p in points]
    return fo.Triangulation.from_cells(
        pool, [TaggedSimplex(tuple(ids[v] for v in c), ()) for c in cells]
    )


def dyadic_offset(rng: random.Random, n: int) -> list:
    return [Dyadic(rng.randrange(-64, 65), rng.randrange(0, 12)) for _ in range(n)]


def shifted(corners, rng: random.Random) -> list:
    """The corner points translated by one seeded dyadic offset."""
    offset = dyadic_offset(rng, len(corners[0]))
    return [[Dyadic(c) + o for c, o in zip(q, offset)] for q in corners]


def random_partition(vertices, rng: random.Random):
    """A seeded two-block vertex partition with seeded block orders."""
    order = sorted(vertices)
    rng.shuffle(order)
    k = rng.randrange(len(order) + 1)
    return it.VertexPartition(
        frozenset(order[:k]), frozenset(order[k:]), order[:k], order[k:]
    )


def grow(tri, target: int, rng: random.Random) -> tuple[int, int]:
    """Refine seeded random leaves until ``tri`` has ``target`` leaves;
    returns ``(refine calls, bisections)``."""
    calls = 0
    before = len(tri.leaves)
    while len(tri.leaves) < target:
        rf.refine(tri, rng.choice(sorted(tri.leaves)))
        calls += 1
    return calls, len(tri.leaves) - before


def digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


# --- answer checks shared by the adapt workloads ------------------------------

BDV_HEADER = "round,marked_cell,cells_added,cells_total,forest_nonroot,bound,ratio"
PILE_HEADER = "round,chosen_level,chosen_index,added,cumulative,bound_4N"


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def remove(paths: list):
    """Delete the files and empty the list."""
    for path in paths:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass
    paths.clear()


def check_bdv(v: Verdict, label, res, csv_path, rounds, initial, final_tri, want_digest):
    rc, out, err = res
    v.expect(rc == 0, f"{label}: exit code {rc}: {err.strip()[:200]}")
    v.expect("# bound satisfied in every round" in out, f"{label}: bound not reported satisfied")
    text = _read(csv_path)
    lines = text.splitlines()
    v.expect(bool(lines) and lines[0] == BDV_HEADER, f"{label}: bad CSV header")
    rows = [line.split(",") for line in lines[1:]]
    ok = len(rows) == rounds
    total = initial
    added_sum = 0
    for i, row in enumerate(rows, start=1):
        rnd, _, added, cells, nonroot = (int(x) for x in row[:5])
        total += added
        added_sum += added
        ok &= rnd == i and added >= 1 and cells == total
        ok &= nonroot == 2 * (cells - initial)
    v.expect(ok, f"{label}: CSV breaks the counting invariants")
    final = len(final_tri.leaves) if final_tri is not None else -1
    v.expect(final == total, f"{label}: final mesh has {final} cells, CSV says {total}")
    v.bisections += added_sum
    v.rounds += len(rows)
    if want_digest and final_tri is not None:
        v.digest.append(digest(text, mio.mesh_hash(final_tri)))


def check_pile(v: Verdict, label, res, csv_path, rounds, want_digest):
    rc, out, err = res
    v.expect(rc == 0, f"{label}: exit code {rc}: {err.strip()[:200]}")
    text = _read(csv_path)
    lines = text.splitlines()
    v.expect(bool(lines) and lines[0] == PILE_HEADER, f"{label}: bad CSV header")
    # the chosen index has thousands of digits at deep levels; leave it a string
    rows = [line.split(",") for line in lines[1:]]
    ok = len(rows) == rounds
    cumulative = 0
    for i, row in enumerate(rows, start=1):
        rnd, added, cum, bound = (int(row[k]) for k in (0, 3, 4, 5))
        cumulative += added
        ok &= rnd == i and added >= 1 and cum == cumulative and bound == 4 * i
        ok &= cum <= bound
    v.expect(ok, f"{label}: CSV breaks the pile-game invariants or the 4N bound")
    v.expect(f"# total added {cumulative} <= 4N = {4 * rounds}: True" in out,
             f"{label}: summary line missing or wrong")
    v.bricks += cumulative
    if want_digest:
        v.digest.append(digest(text))


# --- workloads ----------------------------------------------------------------


class Workload:
    name = ""
    period = 1  # jobs per period; a run measures whole periods
    adaptive = False  # jobs refine; their CSV traces count the bisections

    def __init__(self, seed: int, workdir: str, digest_jobs: bool):
        self.seed = seed
        self.workdir = workdir
        self.digest_jobs = digest_jobs  # record output digests of the first period
        self.jobs: list[Job] = []
        self.final = FinalMesh()
        self.setup_refines = 0
        self.setup_bisections = 0
        self.inputs: list[str] = []  # files of the current set-up
        self.outputs: list[str] = []  # files of the current job
        self._serial = itertools.count()

    def fresh(self, name, into: list) -> str:
        """A path no earlier write used, listed in ``into`` for removal.

        Rewriting a file in place can make the file system flush it on
        close, which would time the disk instead of the program.
        """
        path = os.path.join(self.workdir, f"{next(self._serial)}-{name}")
        into.append(path)
        return path

    def setup(self):
        raise NotImplementedError


class AdaptWide(Workload):
    """random-leaf ``bdv-run`` jobs: four ``--mode iso`` runs on the
    agk-tagged unit 3-cube per ``--mode sic`` run on the Kuhn 4-simplex.

    The 4-simplex's shape census makes a sic run about three times as long
    as an iso run, so each mode gets about half of the time, while the
    median and the tail stay inside the population of iso runs instead of
    falling between the two.
    """

    name = "adapt-wide"
    period = 5
    adaptive = True
    ROUNDS = 40
    STREAM = 80

    def setup(self):
        rng = random.Random(self.seed)
        cube = cube_mesh(3)
        k4 = self.fresh("k4.json", self.inputs)
        mio.write_mesh(k4, kuhn_simplex(4))
        self.jobs = []
        for i in range(self.STREAM):
            run_seed = rng.randrange(1 << 30)
            if i % self.period == self.period - 1:
                self.jobs.append(self._job(i, "sic", k4, run_seed))
                continue
            src = self.fresh(f"cube-{i}.json", self.inputs)
            mio.write_mesh(src, cube, partition=random_partition(cube.vertex_index, rng))
            self.jobs.append(self._job(i, "iso", src, run_seed))

    def _job(self, i, mode, src, run_seed):
        """An iso job tags the cube with ``agk-init`` first."""

        def run():
            mesh, init = src, None
            if mode == "iso":
                mesh = self.fresh(f"iso-{i}.json", self.outputs)
                init = _run_cli(["agk-init", "--mesh", src, "--out", mesh])
            csv = self.fresh(f"{mode}-{i}.csv", self.outputs)
            argv = bdv_argv(mesh, "random-leaf", self.ROUNDS, run_seed, mode, csv)
            return init, _run_cli(argv), csv

        def check(results):
            init, res, csv = results
            v = Verdict()
            if init is not None:
                v.expect(init[0] == 0, f"agk-init {i}: exit code {init[0]}")
            check_bdv(v, f"{mode} {i}", res, csv, self.ROUNDS, 6 if mode == "iso" else 1,
                      self.final.tri, self.digest_jobs and i < self.period)
            return v

        return Job(mode, run, check)


class AdaptDeep(Workload):
    """Deep single-marking runs on the 2D Kuhn square plus pile games.

    Round counts are chosen so every job takes about the same time; the
    seed translates each square by a dyadic offset and orders the jobs.
    """

    name = "adapt-deep"
    BDV = (
        ("max-level-leaf", 235),
        ("quasitower-adversary", 280),
        ("staircase-adversary", 1800),
    )
    PILE = (("tower", 8000), ("quasitower", 24500), ("random", 33500))
    period = len(BDV) + len(PILE)
    adaptive = True
    PERIODS = 12

    def setup(self):
        rng = random.Random(self.seed)
        self.jobs = []
        kinds = [("bdv",) + k for k in self.BDV] + [("pile",) + k for k in self.PILE]
        for p in range(self.PERIODS):
            order = kinds[:]
            rng.shuffle(order)
            for kind, strategy, rounds in order:
                i = len(self.jobs)
                first = self.digest_jobs and p == 0
                if kind == "bdv":
                    points = shifted(((0, 0), (1, 0), (1, 1), (0, 1)), rng)
                    src = self.fresh(f"square-{i}.json", self.inputs)
                    mio.write_mesh(src, plain_mesh(points, [(0, 1, 2), (0, 3, 2)]))
                    self.jobs.append(self._bdv_job(i, src, strategy, rounds, first))
                else:
                    self.jobs.append(self._pile_job(
                        i, strategy, rounds, rng.randrange(1 << 30), first
                    ))

    def _bdv_job(self, i, src, strategy, rounds, want_digest):
        def run():
            csv = self.fresh(f"bdv-{i}.csv", self.outputs)
            return _run_cli(bdv_argv(src, strategy, rounds, self.seed, "sic", csv)), csv

        def check(results):
            res, csv = results
            v = Verdict()
            check_bdv(v, f"{strategy} {i}", res, csv, rounds, 2, self.final.tri, want_digest)
            return v

        return Job(strategy, run, check)

    def _pile_job(self, i, strategy, rounds, run_seed, want_digest):
        def run():
            csv = self.fresh(f"pile-{i}.csv", self.outputs)
            return _run_cli([
                "pile-game", "--strategy", strategy, "-N", str(rounds),
                "--seed", str(run_seed), "--out", csv,
            ]), csv

        def check(results):
            res, csv = results
            v = Verdict()
            check_pile(v, f"pile {strategy} {i}", res, csv, rounds, want_digest)
            return v

        return Job(f"pile-{strategy}", run, check)


class Verify(Workload):
    """Read-only verifiers over meshes built in set-up by seeded refinement.

    Sizes are chosen so each job takes a few tenths of a second: the
    conformity scan is O(vertices x leaves) and the exact plane oracle is
    quadratic in the leaves.
    """

    name = "verify"
    CONFORM_LEAVES = {2: 400, 3: 250, 4: 120}
    OVERLAY_LEAVES = 200
    EXACT_LEAVES = 30
    HANGING_LEAVES = 40
    VARIANTS = 2
    period = 7 * VARIANTS
    scan_s = 0.0  # conformity-check time of the current job

    def scan(self, check, tri):
        """Run one conformity check, timing it for ``verify_cells_per_s``."""
        t0 = time.perf_counter()
        try:
            return check(tri)
        finally:
            self.scan_s += time.perf_counter() - t0

    def scanned(self, v: Verdict, cells: int):
        """Credit the current job's scanned leaves and check time to ``v``."""
        v.cells_scanned += cells
        v.scan_s, self.scan_s = self.scan_s, 0.0

    def setup(self):
        rng = random.Random(self.seed)
        self.setup_refines = self.setup_bisections = 0
        self.jobs = []
        build = []
        for _ in range(self.VARIANTS):
            for n in (2, 3, 4):
                base = cube_mesh(n)
                a, b = base.copy(), base.copy()
                self._grow(a, self.CONFORM_LEAVES[n], rng)
                self._grow(b, self.CONFORM_LEAVES[n], rng)
                build.append(("conform", a, b))
            base = cube_mesh(3)
            c, d = base.copy(), base.copy()
            self._grow(c, self.OVERLAY_LEAVES, rng)
            self._grow(d, self.OVERLAY_LEAVES, rng)
            build.append(("overlay", c, d))
            plane = cube_mesh(2, offset=dyadic_offset(rng, 2))
            self._grow(plane, self.EXACT_LEAVES, rng)
            build.append(("exact2d", plane, None))
            build.append(("initial", *self._initial_meshes(rng)))
            build.append(("negative", self._negative_meshes(rng), None))
        for i, (kind, a, b) in enumerate(build):
            want = self.digest_jobs and i < self.period
            self.jobs.append(getattr(self, f"_{kind}_job")(i, a, b, want))

    def _grow(self, tri, target, rng):
        calls, bisections = grow(tri, target, rng)
        self.setup_refines += calls
        self.setup_bisections += bisections

    def _initial_meshes(self, rng):
        cube = cube_mesh(3)
        cells = [t.vertex_ids for t in cube.cells()]
        agk = it.agk_init(cube.forest.pool, cells, random_partition(cube.vertex_index, rng))
        # integer coordinates divisible by 3 keep every barycentre dyadic
        shift = [rng.randrange(-8, 9) for _ in range(3)]
        corners = [(0, 0, 0), (3, 0, 0), (3, 3, 0), (3, 3, 3)]
        pool = VertexPool()
        ids = tuple(
            pool.id_of(DyadicPoint([c + s for c, s in zip(q, shift)])) for q in corners
        )
        div = it.initial_division(pool, [ids])
        return agk, div

    def _negative_meshes(self, rng):
        """Meshes every conformity check must reject."""
        out = []
        for n in (2, 3, 4):
            tri = cube_mesh(n)
            self._grow(tri, self.HANGING_LEAVES, rng)
            shared = [
                leaf
                for leaf in sorted(tri.leaves)
                if len(tri.edge_sharers(ta.refinement_edge(tri.forest.tarray(leaf)))) > 1
            ]
            leaf = rng.choice(shared)
            c1, _ = tri.bisect_leaf(leaf)  # no closure: leaves a hanging vertex
            self.setup_bisections += 1
            out.append((f"hanging {n}D", tri, tri.forest.nodes[c1].v_new))
        square = shifted(((0, 0), (1, 0), (1, 1), (0, 1)), rng)
        out.append(("overlap 2D", plain_mesh(square, [(0, 1, 2), (0, 1, 3)]), None))
        tets = shifted(((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)), rng)
        out.append(("same-side 3D", plain_mesh(tets, [(0, 1, 2, 3), (0, 1, 2, 4)]), None))
        return out

    def _round_trip(self, tri, i):
        path = self.fresh(f"mesh-{i}.json", self.outputs)
        mio.write_mesh(path, tri)
        back, _, _ = mio.read_mesh(path)
        return mio.mesh_hash(back)

    @staticmethod
    def _hash_check(v, label, tri, got):
        v.expect(got == mio.mesh_hash(tri), f"{label}: round trip changed the mesh hash")

    def _conform_job(self, i, a, b, want):
        kind = f"conform-{a.forest.pool.point(0).dim}d"

        def run():
            problems = self.scan(rf.check_conforming, a)
            ov, un = fo.overlay(a, b), fo.underlay(a, b)
            return problems, fo.finer(ov, a), fo.finer(a, un), self._round_trip(a, i)

        def check(res):
            problems, ov_finer, un_coarser, h = res
            v = Verdict()
            label = f"{kind} {i}"
            v.expect(problems == [], f"{label}: conforming mesh rejected: {problems[:2]}")
            v.expect(ov_finer, f"{label}: overlay is not finer than its operand")
            v.expect(un_coarser, f"{label}: underlay is not coarser than its operand")
            self._hash_check(v, label, a, h)
            self.scanned(v, len(a.leaves))
            if want:
                v.digest.append(digest(h, problems))
            return v

        return Job(kind, run, check)

    def _overlay_job(self, i, c, d, want):
        def run():
            ov, un = fo.overlay(c, d), fo.underlay(c, d)
            p_ov, p_un = self.scan(rf.check_conforming, ov), self.scan(rf.check_conforming, un)
            return ov, un, p_ov, p_un, self._round_trip(ov, i)

        def check(res):
            ov, un, p_ov, p_un, h = res
            v = Verdict()
            label = f"overlay {i}"
            v.expect(p_ov == [], f"{label}: overlay rejected: {p_ov[:2]}")
            v.expect(p_un == [], f"{label}: underlay rejected: {p_un[:2]}")
            v.expect(len(un.leaves) <= min(len(c.leaves), len(d.leaves)) <= len(ov.leaves),
                     f"{label}: overlay/underlay leaf counts out of order")
            self._hash_check(v, label, ov, h)
            self.scanned(v, len(ov.leaves) + len(un.leaves))
            if want:
                v.digest.append(digest(h, len(ov.leaves), len(un.leaves)))
            return v

        return Job("overlay", run, check)

    def _exact2d_job(self, i, plane, _, want):
        def run():
            return self.scan(rf.check_conforming_2d_exact, plane), self._round_trip(plane, i)

        def check(res):
            problems, h = res
            v = Verdict()
            v.expect(problems == [], f"exact2d {i}: conforming mesh rejected: {problems[:2]}")
            self._hash_check(v, f"exact2d {i}", plane, h)
            self.scanned(v, len(plane.leaves))
            if want:
                v.digest.append(digest(h))
            return v

        return Job("exact2d", run, check)

    def _initial_job(self, i, agk, div, want):
        def run():
            return (
                it.check_retahyco(agk),
                it.check_isocochange(agk),
                it.check_sic(div),
                it.check_retaco(div),
                it.check_pc(div),
                self._round_trip(agk, i),
                self._round_trip(div, i),
            )

        def check(res):
            v = Verdict()
            names = ("retahyco", "isocochange", "sic", "retaco", "pc")
            for name, problems in zip(names, res[:5]):
                v.expect(problems == [], f"initial {i}: {name} rejected a valid tagging")
            self._hash_check(v, f"initial {i} agk", agk, res[5])
            self._hash_check(v, f"initial {i} division", div, res[6])
            if want:
                v.digest.append(digest(*res))
            return v

        return Job("initial", run, check)

    def _negative_job(self, i, cases, _, want):
        def run():
            out = []
            for label, tri, _ in cases:
                check = rf.check_conforming_2d_exact if label == "overlap 2D" else rf.check_conforming
                out.append(self.scan(check, tri))
            return out

        def check(res):
            v = Verdict()
            self.scanned(v, sum(len(tri.leaves) for _, tri, _ in cases))
            for (label, tri, vid), problems in zip(cases, res):
                if vid is not None:
                    ok = any(f"vertex {vid} " in p for p in problems)
                    v.expect(ok, f"negative {i}: {label} mesh not rejected for vertex {vid}")
                elif label == "overlap 2D":
                    ok = any("cross" in p for p in problems)
                    v.expect(ok, f"negative {i}: {label} pair not rejected by the exact oracle")
                else:
                    v.ops += 1
                    if not problems:
                        v.known.append(KNOWN_DEFECTS[0])
            if want:
                v.digest.append(digest(res))
            return v

        return Job("negative", run, check)


WORKLOADS = {w.name: w for w in (AdaptWide, AdaptDeep, Verify)}
