"""The CLI fingerprint: a deterministic corpus of inputs and argv forms, and
the script that records what ``bisectmesh`` does on it.

    PYTHONPATH=src python3 tests/make_cli_manifest.py

rewrites ``tests/cli_manifest.json``: for each case the argv, the exit code
and the sha256 of stdout, of stderr and of every ``--out`` file (None when
the run left no file there).  Every case runs through ``cli.main`` in one
process, inside a fresh working directory that holds the corpus, so every
path in an argv is relative.  ``test_cli_manifest.py`` replays the manifest,
so a change of behaviour shows up in the manifest's diff as a list of cases.

Some texts are the interpreter's, not the package's: argparse's usage and
error lines, and the messages of the JSON decoder, of a recursion error and
of an OS error.  They differ between CPython versions, so for those cases
(``exit_only``) only the exit code is recorded.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from bisectmesh import Triangulation, refine
from bisectmesh.cli import main
from bisectmesh.harness import STRATEGIES
from bisectmesh.inittags import VertexPartition
from bisectmesh.meshio import mesh_from_dict, mesh_to_dict, write_mesh
from bisectmesh.tarray import TaggedSimplex

from conftest import (
    agk_cube,
    kuhn_cube_mesh,
    kuhn_square,
    marked_text,
    one_sided_square,
    point,
    single_kuhn,
    staircase_mesh,
    tripled_tet,
    tripled_triangle_pair,
)

MANIFEST = Path(__file__).with_name("cli_manifest.json")

# The meshes of the CI workflow's console-script step, as it writes them.
CI_MESHES = {
    "pair.json": (
        '{"dim": 2,\n'
        ' "vertices": [[["0","0"], ["0","0"]], [["6","0"], ["0","0"]], '
        '[["3","0"], ["3","0"]], [["9","0"], ["3","0"]]],\n'
        ' "cells": [{"horizontal": [0, 1, 2]}, {"horizontal": [1, 2, 3]}]}\n'
    ),
    "marked.json": (
        '{"dim": 2,\n'
        ' "vertices": [[["0","0"], ["0","0"]], [["6","0"], ["0","0"]], '
        '[["3","0"], ["3","0"]], [["9","0"], ["3","0"]]],\n'
        ' "cells": [{"horizontal": [0, 1, 2]}, {"horizontal": [1, 2, 3]}],\n'
        ' "marking": {"2": [[["3","0"], ["1","0"]], [["6","0"], ["2","0"]]]}}\n'
    ),
    "outside.json": (
        '{"dim": 2,\n'
        ' "vertices": [[["0","0"], ["0","0"]], [["4","0"], ["0","0"]], '
        '[["0","0"], ["4","0"]]],\n'
        ' "cells": [{"horizontal": [0, 1, 2]}],\n'
        ' "marking": {"2": [[["2","0"], ["1","0"]]], "7": [[["1","0"], ["1","0"]]], '
        '"-1": []}}\n'
    ),
    "onesided.json": (
        '{"dim": 2,\n'
        ' "vertices": [[["0","0"], ["0","0"]], [["1","0"], ["0","0"]], '
        '[["0","0"], ["1","0"]], [["1","0"], ["1","0"]]],\n'
        ' "cells": [{"horizontal": [1, 2], "vertical": [0]}, '
        '{"horizontal": [1, 3], "vertical": [2]}]}\n'
    ),
    "twice.json": (
        '{"dim": 2,\n'
        ' "vertices": [[["0","0"], ["0","0"]], [["1","0"], ["0","0"]], '
        '[["0","0"], ["1","0"]]],\n'
        ' "cells": [{"horizontal": [0, 1, 2]}, {"horizontal": [2, 0], "vertical": [1]}]}\n'
    ),
}

# Inputs the loader must refuse before it reads a mesh; the decoder's and
# the interpreter's messages vary, so these cases record the exit code only.
BROKEN_TEXTS = {
    "truncated.json": '{"dim": 2, "vertices": [',
    "deep.json": "[" * 100_000,
    "empty.json": "",
}


def _doc(**fields) -> str:
    """The unit triangle's document with ``fields`` replaced (a None value
    drops the field)."""
    doc = {
        "dim": 2,
        "vertices": [[["0", "0"], ["0", "0"]], [["1", "0"], ["0", "0"]], [["0", "0"], ["1", "0"]]],
        "cells": [{"horizontal": [0, 1, 2]}],
        **fields,
    }
    return json.dumps({k: v for k, v in doc.items() if v is not None})


def _ints(*points) -> list:
    """Integer points as document coordinates."""
    return [[[str(x), "0"] for x in p] for p in points]


_CHECK = (["check", "conforming"],)
_CONSTANT_FORMS = (
    ["constants"], ["bdv-run", "--mode", "sic", "-N", "3"], ["bdv-run", "--mode", "iso", "-N", "3"],
)


def _thin_tetrahedron(hyperlevel: int) -> str:
    """The unit right tetrahedron with its apex moved to height 2**-100."""
    vertices = [*_ints((0, 0, 0), (1, 0, 0), (1, 1, 0)), [["1", "0"], ["1", "0"], ["1", "100"]]]
    return json.dumps({"dim": 3, "vertices": vertices,
                       "cells": [{"horizontal": [0, 1, 2, 3], "hyperlevel": hyperlevel}]})


# Documents that reach the CLI's failure branches, each with the argv forms
# (before ``--mesh``) that it is run with.  The loader refuses the first
# group; the rest load and fail later, except thin-340.json, the in-range
# twin of thin-367.json.
FAILING_DOCS = {
    "reject-top.json": ("[]", _CHECK),
    "reject-duplicate.json": (_doc(vertices=_ints((0, 0), (1, 0), (0, 0))), _CHECK),
    "reject-nocells.json": (_doc(cells=None), _CHECK),
    "reject-emptycells.json": (_doc(cells=[]), _CHECK),
    "reject-cellarray.json": (_doc(cells=[[0, 1, 2]]), _CHECK),
    "reject-vertical.json": (_doc(cells=[{"horizontal": [0, 1, 2], "vertical": 0}]), _CHECK),
    "reject-count.json": (_doc(cells=[{"horizontal": [0, 1]}]), _CHECK),
    "reject-repeat.json": (_doc(cells=[{"horizontal": [0, 1, 1]}]), _CHECK),
    "reject-level.json": (_doc(cells=[{"horizontal": [0, 1, 2], "level": -1}]), _CHECK),
    "reject-hyperlevel.json": (
        _doc(cells=[{"horizontal": [0, 1, 2], "hyperlevel": 1.5}]), _CHECK),
    "reject-flat.json": (_doc(vertices=_ints((0, 0), (1, 0), (2, 0))), _CHECK),
    "reject-marking.json": (_doc(marking=[]), _CHECK),
    "reject-markingpoints.json": (_doc(marking={"2": {}}), _CHECK),
    "reject-partition.json": (_doc(partition=[]), _CHECK),
    "reject-partitionids.json": (_doc(partition={"v0": [0], "v1": "12"}), _CHECK),
    "reject-order.json": (
        _doc(partition={"v0": [0, 1], "v1": [2], "order0": [0, 0]}), _CHECK),
    "reject-even.json": (_doc(vertices=[*_ints((0, 0), (1, 0)), [["0", "0"], ["2", "1"]]]),
                         _CHECK),
    # a type-2 point outside the triangle, beside the one inside it
    "extra-point.json": (
        _doc(vertices=_ints((0, 0), (4, 0), (0, 4)), marking={"2": _ints((1, 1), (5, 5))}),
        (["init-division"],)),
    "partition-overlap.json": (_doc(partition={"v0": [0, 1], "v1": [1, 2]}), (["agk-init"],)),
    # two tetrahedra whose refinement edges both lie in the shared face
    "pc-violation.json": (
        json.dumps({
            "dim": 3,
            "vertices": _ints((0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (0, 0, -2)),
            "cells": [{"horizontal": [0, 1], "vertical": [2, 3]},
                      {"horizontal": [0, 2], "vertical": [1, 4]}],
        }),
        (["check", "retaco"], ["check", "pc"], ["check", "sic"], ["refine", "--cell", "0"])),
    "hyperlevel-2.json": (_doc(cells=[{"horizontal": [0, 1, 2], "hyperlevel": 2}]),
                          (["check", "retahyco"],)),
    # the unit square's two triangles, one at hyperlevel 0 and one at 1
    "hyperlevel-mix.json": (
        _doc(vertices=_ints((0, 0), (1, 0), (1, 1), (0, 1)),
             cells=[{"horizontal": [0, 1, 2]}, {"horizontal": [0, 3, 2], "hyperlevel": 1}]),
        (["check", "retahyco"],)),
    # two triangles on the same side of their shared edge, which the
    # hanging-node scan passes; uniform refinement then leaves one hanging
    "same-side.json": (
        _doc(vertices=_ints((0, 0), (4, 0), (1, 4), (3, 4)),
             cells=[{"horizontal": [0], "vertical": [1, 2]},
                    {"horizontal": [0], "vertical": [1, 3]}]),
        (["check", "sic"],)),
    # legs of length 2**-600: the volume floor is below the float range
    "tiny.json": (_doc(vertices=[[["0", "0"], ["0", "0"]], [["1", "600"], ["0", "0"]],
                                 [["0", "0"], ["1", "600"]]]),
                  (["constants"], ["bdv-run", "-N", "2"])),
    # legs of length 2**600: the volume floor overflows the float range
    "huge.json": (_doc(vertices=_ints((0, 0), (2**600, 0), (0, 2**600))), _CONSTANT_FORMS),
    # a tetrahedron of height 2**-100 at hyperlevel 367: D_iso^3 overflows a
    # float although C_iso, which does not depend on the hyperlevel, would
    # not; at hyperlevel 340 every constant is in range and the runs pass
    **{f"thin-{h}.json": (_thin_tetrahedron(h), _CONSTANT_FORMS) for h in (367, 340)},
    # a triangle inside the coarse one that its bisection line x + y = 1
    # splits, so it is no node of the coarse forest: overlay in both orders
    "straddle-coarse.json": (_doc(vertices=_ints((0, 0), (1, 0), (1, 1))),
                             (["overlay", "--mesh2", "straddle-fine.json"],)),
    "straddle-fine.json": (_doc(vertices=[*_ints((0, 0), (1, 0)), [["3", "2"], ["1", "1"]]]),
                           (["overlay", "--mesh2", "straddle-coarse.json"],)),
}

# A numerator past the interpreter's digit limit; the message is the
# interpreter's, so only the exit code is recorded.
DIGITS_TEXT = _doc(vertices=[*_ints((0, 0), (1, 0)), [["0", "0"], ["1" * 5000, "0"]]])

INTERVAL_TEXT = _doc(dim=1, vertices=_ints((0,), (1,)), cells=[{"horizontal": [0, 1]}])


def deep_interval_text() -> str:
    """The unit interval bisected 140 times at its deepest leaf (141
    cells), written without the optional ``level`` fields."""
    tri, _, _ = mesh_from_dict(json.loads(INTERVAL_TEXT))
    for _ in range(140):
        refine(tri, max(tri.leaves, key=lambda t: (tri.forest.tarray(t).level, t)))
    doc = mesh_to_dict(tri)
    for cell in doc["cells"]:
        del cell["level"]
    return json.dumps(doc)


def refined(make, seed: int, rounds: int) -> Triangulation:
    """``make()`` refined at ``rounds`` leaves drawn by ``random.Random(seed)``."""
    tri = make()
    rng = random.Random(seed)
    for _ in range(rounds):
        refine(tri, rng.choice(sorted(tri.leaves)))
    return tri


def hanging_square() -> Triangulation:
    """The Kuhn square with one cell bisected without closure."""
    tri = kuhn_square()
    tri.bisect_leaf(min(tri.leaves))
    return tri


def untagged_pair():
    """The tripled triangle pair without tags, with a marking and a partition."""
    pool, cells, ids = tripled_triangle_pair()
    tri = Triangulation.from_cells(pool, [TaggedSimplex(c, ()) for c in cells])
    marking = {2: [point(3, 1), point(6, 2)]}
    partition = VertexPartition(frozenset(ids[:2]), frozenset(ids[2:]), ids[1::-1], None)
    return tri, marking, partition


def untagged_tet():
    pool, cells = tripled_tet()
    return Triangulation.from_cells(pool, [TaggedSimplex(c, ()) for c in cells])


def valid_meshes() -> dict:
    """``{name: (triangulation, marking, partition)}`` of the valid meshes."""
    meshes = {
        "square": kuhn_square(),
        "onesided": one_sided_square(),
        "kuhn3": single_kuhn(3),
        "kuhn4": single_kuhn(4),
        "cube3": kuhn_cube_mesh(3),
        "agk1": agk_cube(1),
        "agk2": agk_cube(2),
        "stair": staircase_mesh(4),
        "square-r1": refined(kuhn_square, 1, 4),
        "square-r2": refined(kuhn_square, 2, 6),
        "cube3-r1": refined(lambda: kuhn_cube_mesh(3), 1, 3),
        "cube3-r2": refined(lambda: kuhn_cube_mesh(3), 2, 2),
        "agk1-r1": refined(lambda: agk_cube(1), 1, 3),
        "stair-r1": refined(lambda: staircase_mesh(4), 1, 3),
        "hanging": hanging_square(),
        "tet": untagged_tet(),
    }
    out = {name: (tri, None, None) for name, tri in meshes.items()}
    out["untagged"] = untagged_pair()
    return out


def _drop_key(doc, rng):
    obj = rng.choice([doc, *doc.get("cells", [])])
    if obj:
        del obj[rng.choice(sorted(obj))]


def _split(doc, rng):
    cell = rng.choice(doc["cells"])
    ids = cell["horizontal"] + cell.get("vertical", [])
    rng.shuffle(ids)
    k = rng.randrange(len(ids) + 1)
    cell["horizontal"], cell["vertical"] = ids[:k], ids[k:]


def _tag_field(doc, rng):
    cell = rng.choice(doc["cells"])
    field = rng.choice(["hyperlevel", "level"])
    cell[field] = rng.choice([-1, 0, 1, 2, 7, True, "1", 1.5, 2**21])


def _vertex_id(doc, rng):
    cell = rng.choice(doc["cells"])
    row = cell["horizontal"]
    if row:
        row[rng.randrange(len(row))] = rng.choice([len(doc["vertices"]), -1, "0", 0, None])


def _coordinate(doc, rng):
    vertex = rng.choice(doc["vertices"])
    vertex[rng.randrange(len(vertex))] = rng.choice([
        ["2", "0"], ["1", "1"], ["-3", "2"], ["4", "1"], ["0", "1"], ["01", "0"],
        ["1", "-1"], ["1", "70000"], [1, 0], ["1"], "1",
    ])


def _marking(doc, rng):
    key = rng.choice(["-1", "0", "2", "3", "7"])
    pts = [rng.choice(doc["vertices"]) for _ in range(rng.randrange(3))]
    doc.setdefault("marking", {})[key] = pts


def _partition(doc, rng):
    ids = list(range(len(doc["vertices"])))
    rng.shuffle(ids)
    k = rng.randrange(len(ids) + 1)
    part = {"v0": ids[:k], "v1": ids[k:] if rng.random() < 0.7 else ids}
    if rng.random() < 0.5:
        part["order0"] = ids[:k][::-1]
    doc["partition"] = part


def _duplicate_cell(doc, rng):
    cell = dict(rng.choice(doc["cells"]))
    cell["horizontal"] = cell["horizontal"][::-1]
    doc["cells"].append(cell)


def _dimension(doc, rng):
    doc["dim"] = rng.choice([0, 1, 3, 4, "2", None])


MUTATIONS = (
    _drop_key, _split, _tag_field, _vertex_id, _coordinate, _marking, _partition,
    _duplicate_cell, _dimension,
)
MUTATED_BASES = ("square", "onesided", "kuhn3", "untagged", "square-r1", "cube3")
MUTANTS = 60


def mutated_documents(bases: dict) -> dict:
    """``{name: text}`` of ``MUTANTS`` seeded mutations of the base documents."""
    out = {}
    for seed in range(MUTANTS):
        rng = random.Random(seed)
        doc = json.loads(bases[MUTATED_BASES[seed % len(MUTATED_BASES)]])
        chosen = [rng.choice(MUTATIONS) for _ in range(1 + rng.randrange(3))]
        # a dropped key last, so that the other mutations find what they edit
        for mutate in sorted(chosen, key=lambda m: m is _drop_key):
            mutate(doc, rng)
        out[f"mutant{seed}.json"] = json.dumps(doc)
    return out


def build_corpus(folder: Path) -> dict:
    """Write every input file into ``folder``; returns ``{name: sha256}``."""
    bases = {}
    for name, (tri, marking, partition) in valid_meshes().items():
        path = folder / f"{name}.json"
        if marking is None:
            write_mesh(path, tri, partition)
        else:
            path.write_text(marked_text(tri, marking, partition))
        bases[name] = path.read_text()
    texts = {**CI_MESHES, **BROKEN_TEXTS, **mutated_documents(bases),
             **{name: text for name, (text, _) in FAILING_DOCS.items()},
             "reject-digits.json": DIGITS_TEXT, "interval.json": INTERVAL_TEXT,
             "interval-deep.json": deep_interval_text()}
    for name, text in texts.items():
        (folder / name).write_text(text)
    (folder / "outdir").mkdir()
    return {p.name: _sha(p.read_bytes()) for p in sorted(folder.iterdir()) if p.is_file()}


# label: argv after ``--mesh M``; ``{out}`` is replaced by an output name
MESH_FORMS = {
    **{f"check-{w}": ["check", w] for w in
       ("conforming", "isocochange", "pc", "retaco", "retahyco", "sic")},
    "check-sic-depth2": ["check", "sic", "--depth", "2"],
    "check-pc-depth1": ["check", "pc", "--depth", "1"],
    "refine-0": ["refine", "--cell", "0", "--out", "{out}.json"],
    "refine-last": ["refine", "--cell", "3"],
    "refine-range": ["refine", "--cell", "99"],
    "uniform": ["uniform", "--out", "{out}.json"],
    "uniform-print": ["uniform"],
    "quasi-uniform": ["quasi-uniform", "--out", "{out}.json"],
    "hyper-uniform-0": ["hyper-uniform", "--depth", "0"],
    "hyper-uniform-1": ["hyper-uniform", "--depth", "1", "--out", "{out}.json"],
    "init-division": ["init-division", "--out", "{out}.json"],
    "agk-init": ["agk-init", "--out", "{out}.json"],
    "agk-init-print": ["agk-init"],
    "constants": ["constants"],
    "bdv-run": ["bdv-run", "-N", "6", "--seed", "3", "--out", "{out}.csv"],
    **{f"bdv-run-{s}": ["bdv-run", "--strategy", s, "-N", "5", "--mode", "iso"]
       for s in STRATEGIES},
}

# forms for the mutants: every mesh subcommand, cheaply
MUTANT_FORMS = (
    ["check", "conforming"], ["check", "sic"], ["check", "isocochange"], ["check", "pc"],
    ["init-division", "--out", "{out}.json"], ["agk-init"], ["uniform"],
    ["hyper-uniform", "--depth", "1"], ["constants"], ["bdv-run", "-N", "4"],
    ["refine", "--cell", "1"],
)

OVERLAYS = (
    ("square-r1", "square-r2"), ("square", "square-r1"), ("square-r2", "square"),
    ("cube3-r1", "cube3-r2"), ("agk1", "agk1-r1"), ("stair-r1", "stair"),
    ("cube3", "square"), ("square", "onesided"), ("kuhn3", "cube3-r1"),
)


def cases() -> list[dict]:
    """Every case: ``{"argv": [...]}``, with ``"exit_only": True`` where
    the texts are the interpreter's."""
    out = []
    for name in valid_meshes():
        for label, form in MESH_FORMS.items():
            argv = [x.format(out=f"{name}.{label}") for x in form]
            out.append({"argv": [*argv, "--mesh", f"{name}.json"]})
    for name in CI_MESHES:
        for label in ("check-conforming", "check-sic", "check-isocochange", "init-division",
                      "uniform", "constants", "bdv-run"):
            argv = [x.format(out=f"{name}.{label}") for x in MESH_FORMS[label]]
            out.append({"argv": [*argv, "--mesh", name]})
    for seed in range(MUTANTS):
        rng = random.Random(seed)
        for form in rng.sample(MUTANT_FORMS, 3):
            argv = [x.format(out=f"mutant{seed}.{form[0]}") for x in form]
            out.append({"argv": [*argv, "--mesh", f"mutant{seed}.json"]})
    for a, b in OVERLAYS:
        out.append({"argv": ["overlay", "--mesh", f"{a}.json", "--mesh2", f"{b}.json",
                             "--out", f"overlay.{a}.{b}.json"]})
    for strategy, rounds in (("tower", 1500), ("quasitower", 300), ("random", 400)):
        for seed in (0, 5):
            out.append({"argv": ["pile-game", "--strategy", strategy, "-N", str(rounds),
                                 "--seed", str(seed), "--out", f"pile.{strategy}.{seed}.csv"]})
        out.append({"argv": ["pile-game", "--strategy", strategy, "-N", "40"]})
    out.append({"argv": ["pile-game"]})
    # --out refused before any work; the messages are the package's
    for form in (["uniform"], ["refine", "--cell", "0"], ["bdv-run", "-N", "2"]):
        for target in ("nodir/x.json", "outdir"):
            out.append({"argv": [*form, "--mesh", "square.json", "--out", target]})
    out.append({"argv": ["pile-game", "-N", "3", "--out", "nodir/x.csv"]})
    for name, (_, forms) in FAILING_DOCS.items():
        out.extend({"argv": [*form, "--mesh", name]} for form in forms)
    # a descent as deep as the cells, with no level to bound it
    out.append({"argv": ["overlay", "--mesh", "interval.json", "--mesh2", "interval-deep.json",
                         "--out", "overlay.interval.deep.json"]})
    exit_only = [
        [], ["--help"], ["nosuch"], ["check"], ["pile-game", "-N", "0"],
        ["pile-game", "--strategy", "nosuch"], ["check", "bogus", "--mesh", "square.json"],
        ["check", "sic", "--mesh", "square.json", "--depth", "0"],
        ["bdv-run", "--mesh", "square.json", "-N", "x"],
        ["bdv-run", "--mesh", "square.json", "--strategy", "nosuch"],
        ["refine", "--mesh", "square.json"],
        ["hyper-uniform", "--mesh", "square.json", "--depth", "-1"],
        ["overlay", "--mesh", "square.json"],
        ["check", "sic", "--mesh", "missing.json"],
        ["overlay", "--mesh", "square.json", "--mesh2", "missing.json"],
        ["check", "conforming", "--mesh", "reject-digits.json"],
        *[[cmd, "--help"] for cmd in ("init-division", "agk-init", "check", "refine",
                                      "uniform", "hyper-uniform", "quasi-uniform",
                                      "constants", "bdv-run", "pile-game", "overlay")],
        *[[*form, "--mesh", name] for name in BROKEN_TEXTS
          for form in (["check", "sic"], ["constants"])],
    ]
    out.extend({"argv": argv, "exit_only": True} for argv in exit_only)
    return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(case: dict) -> dict:
    """Run one case in the current directory; returns its manifest entry."""
    argv = case["argv"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    entry = {"argv": argv, "exit": code}
    if case.get("exit_only"):
        entry["exit_only"] = True
        return entry
    entry["stdout"] = _sha(out.getvalue().encode())
    entry["stderr"] = _sha(err.getvalue().encode())
    entry["out"] = {
        path: _sha(Path(path).read_bytes()) if Path(path).is_file() else None
        for flag, path in zip(argv, argv[1:])
        if flag == "--out"
    }
    return entry


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        here = os.getcwd()
        os.chdir(tmp)
        try:
            manifest = {"inputs": build_corpus(Path(tmp)), "cases": [run_case(c) for c in cases()]}
        finally:
            os.chdir(here)
    # one input and one case per line, so that a diff lists the changed cases
    inputs = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in manifest["inputs"].items())
    rows = ",\n".join(f"  {json.dumps(c)}" for c in manifest["cases"])
    MANIFEST.write_text(f'{{\n "inputs": {{\n{inputs}\n }},\n "cases": [\n{rows}\n ]\n}}\n')
    print(f"wrote {MANIFEST} ({len(manifest['cases'])} cases)", file=sys.stderr)
