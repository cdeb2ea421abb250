import hashlib
import json
import random
import re
import time
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from bisectmesh import Triangulation, VertexPool, kuhn, meshio
from bisectmesh.inittags import VertexPartition
from bisectmesh.meshio import (
    MeshFormatError,
    mesh_from_dict,
    mesh_hash,
    mesh_to_dict,
    read_mesh,
    write_mesh,
)
from bisectmesh.refine import check_conforming, check_conforming_2d_exact, refine
from bisectmesh.tarray import TaggedSimplex

from conftest import fractions_of, kuhn_grid, kuhn_square, leaf_volume, marked_text, point
from loader_oracle import load_verdict


def test_roundtrip_identity(tmp_path):
    tri = kuhn_square()
    rng = random.Random(6)
    for _ in range(7):
        refine(tri, rng.choice(sorted(tri.leaves)))
    path = tmp_path / "mesh.json"
    write_mesh(path, tri)
    tri2, marking, partition = read_mesh(path)
    assert marking is None and partition is None
    assert mesh_hash(tri) == mesh_hash(tri2)
    assert leaf_volume(tri) == leaf_volume(tri2)


def test_roundtrip_marking_and_partition(tmp_path):
    tri = kuhn_square()
    marking = {2: [point(1, 1)]}
    partition = VertexPartition(frozenset({0, 1}), frozenset({2, 3}), order0=[1, 0])
    path = tmp_path / "mesh.json"
    path.write_text(marked_text(tri, marking, partition))
    _, marking2, partition2 = read_mesh(path)
    assert marking2 == {2: [point(1, 1)]}
    assert partition2.v0 == frozenset({0, 1})
    assert partition2.order0 == [1, 0]


def test_repeated_vertex_rejected():
    doc = {
        "dim": 2,
        "vertices": [
            [["0", "0"], ["0", "0"]],
            [["1", "0"], ["0", "0"]],
            [["1", "0"], ["1", "0"]],
        ],
        "cells": [{"horizontal": [0, 1], "vertical": [1], "hyperlevel": 0}],
    }
    with pytest.raises(MeshFormatError, match="cells\\[0\\]"):
        mesh_from_dict(doc)


def test_noncanonical_dyadic_rejected():
    base = {
        "dim": 1,
        "vertices": [[["0", "0"]], [["2", "1"]]],
        "cells": [{"horizontal": [0, 1], "vertical": [], "hyperlevel": 0}],
    }
    with pytest.raises(MeshFormatError, match="even numerator"):
        mesh_from_dict(base)
    base["vertices"][1] = [["0", "4"]]
    with pytest.raises(MeshFormatError, match="zero"):
        mesh_from_dict(base)
    base["vertices"][1] = [["3", "-1"]]
    with pytest.raises(MeshFormatError, match="negative"):
        mesh_from_dict(base)


def test_bad_schema_messages_carry_paths():
    with pytest.raises(MeshFormatError, match="dim"):
        mesh_from_dict({"vertices": [], "cells": []})
    with pytest.raises(MeshFormatError, match="vertices\\[0\\]"):
        mesh_from_dict({"dim": 2, "vertices": [[["1"]]], "cells": []})
    doc = {
        "dim": 2,
        "vertices": [
            [["0", "0"], ["0", "0"]],
            [["1", "0"], ["0", "0"]],
            [["1", "0"], ["1", "0"]],
        ],
        "cells": [{"horizontal": [0, 9], "vertical": [2], "hyperlevel": 0}],
    }
    with pytest.raises(MeshFormatError, match="cells\\[0\\].horizontal"):
        mesh_from_dict(doc)


def test_duplicate_coordinates_rejected():
    doc = {
        "dim": 1,
        "vertices": [[["0", "0"]], [["0", "0"]]],
        "cells": [{"horizontal": [0, 1], "vertical": [], "hyperlevel": 0}],
    }
    with pytest.raises(MeshFormatError, match="duplicate"):
        mesh_from_dict(doc)


def test_levels_and_hyperlevels_survive():
    pool = VertexPool()
    a = pool.id_of(point(0, 0))
    b = pool.id_of(point(1, 0))
    c = pool.id_of(point(1, 1))
    tri = Triangulation.from_cells(pool, [TaggedSimplex((a, b, c), (), 2, 1)])
    doc = mesh_to_dict(tri)
    tri2, _, _ = mesh_from_dict(doc)
    cell = tri2.cells()[0]
    assert cell.level == 2 and cell.hyperlevel == 1


def test_hash_is_canonical_under_vertex_order():
    doc = mesh_to_dict(kuhn_square())
    tri_a, _, _ = mesh_from_dict(doc)
    doc2 = json.loads(json.dumps(doc))
    tri_b, _, _ = mesh_from_dict(doc2)
    assert mesh_hash(tri_a) == mesh_hash(tri_b)


def _long_triangle():
    """A triangle whose vertex 2 has the 4933-digit numerator 2**16384 + 1,
    past the interpreter's 4300-digit limit for ``str`` and ``int``."""
    pool = VertexPool()
    far = point(0, Fraction(2**16384 + 1, 2**16385))
    ids = tuple(pool.id_of(p) for p in (point(0, 0), point(1, 0), far))
    return Triangulation.from_cells(pool, [TaggedSimplex(ids, ())]), far


def test_numerator_past_digit_limit_names_its_path(tmp_path):
    """Writing and hashing fail with a ValueError naming the JSON path of
    the point, not with the interpreter's conversion message."""
    tri, far = _long_triangle()
    message = r"more than the 4300 digits the loader reads back$"
    with pytest.raises(ValueError, match=r"^vertices\[2\]: numerator has 4933 digits, " + message):
        mesh_hash(tri)
    with pytest.raises(ValueError, match=r"^vertices\[2\]: "):
        write_mesh(tmp_path / "m.json", tri)
    assert not (tmp_path / "m.json").exists()


def _unit_square_doc():
    return {
        "dim": 2,
        "vertices": [
            [["0", "0"], ["0", "0"]],
            [["1", "0"], ["0", "0"]],
            [["1", "0"], ["1", "0"]],
            [["0", "0"], ["1", "0"]],
        ],
        "cells": [
            {"horizontal": [0, 1, 2], "vertical": [], "hyperlevel": 0},
            {"horizontal": [0, 3, 2], "vertical": [], "hyperlevel": 0},
        ],
    }


def _exit_code_of(tmp_path, doc, argv):
    from bisectmesh.cli import main

    path = tmp_path / "mesh.json"
    path.write_text(json.dumps(doc))
    return main([*argv, "--mesh", str(path)])


@pytest.mark.parametrize(
    "field, text",
    [
        *(("num", t) for t in ("00", "-0", "+0", " 0", "0\n", "0_0", "\u0660")),
        *(("exp", t) for t in ("01", "+1", "1_0")),
    ],
)
def test_noncanonical_number_text_rejected(tmp_path, capsys, field, text):
    """Each text is one that ``int()`` accepts for the value the vertex
    (0, 1) already has, or for an odd numerator's exponent."""
    doc = _unit_square_doc()
    mesh_from_dict(doc)
    axis, pair = (0, [text, "0"]) if field == "num" else (1, ["1", text])
    doc["vertices"][3][axis] = pair
    path = f"vertices[3][{axis}]"
    with pytest.raises(MeshFormatError, match=re.escape(path) + ": non-canonical"):
        mesh_from_dict(doc)
    assert _exit_code_of(tmp_path, doc, ["uniform"]) == 1
    assert path in capsys.readouterr().err


def test_noncanonical_marking_type_rejected(tmp_path, capsys):
    """``"02"`` would name type 2 again and silently replace its points."""
    doc = _unit_square_doc()
    doc["marking"] = {"2": [[["1", "1"], ["1", "1"]]], "02": [[["1", "2"], ["1", "2"]]]}
    with pytest.raises(MeshFormatError, match=re.escape("marking.02: non-canonical")):
        mesh_from_dict(doc)
    assert _exit_code_of(tmp_path, doc, ["init-division"]) == 1
    assert "marking.02" in capsys.readouterr().err


def test_huge_exponent_loads_fast():
    """The zero-volume check is a sign test: no Fraction of a determinant
    at the largest accepted exponent, 2**16, is reduced."""
    doc = _unit_square_doc()
    doc["vertices"][2] = [["1", "0"], ["1", str(1 << 16)]]
    start = time.perf_counter()
    tri, _, _ = mesh_from_dict(doc)
    assert time.perf_counter() - start < 0.5
    assert len(tri.leaves) == 2


def _grid_doc(k):
    """A k-by-k grid of squares over the unit square, two cells each."""
    return mesh_to_dict(kuhn_grid(2, k))


def test_huge_exponent_vertex_loads_fast_in_a_large_mesh():
    """One vertex at the largest accepted exponent lengthens only the
    determinants of the cells that hold it: the zero-volume check brings
    each cell's edge rows down to the cell's own exponent.  With every
    determinant taken at exponent 2**16, this 2048-cell load took about
    1 s; it takes about 0.03 s on a 2-vCPU Xeon VM."""
    doc = _grid_doc(32)
    i = doc["vertices"].index([["1", "1"], ["0", "0"]])  # (1/2, 0)
    doc["vertices"][i] = [["1", "1"], ["-1", str(1 << 16)]]
    start = time.perf_counter()
    tri, _, _ = mesh_from_dict(doc)
    assert time.perf_counter() - start < 0.6
    assert len(tri.leaves) == 2048


def test_huge_exponent_vertex_scans_fast_in_a_large_mesh():
    """The conformity scan decides each leaf on rows brought down to the
    largest exponent among the leaf's vertices and its candidates, so one
    vertex at exponent 2**16 lengthens only the few eliminations it takes
    part in.  With every elimination at that exponent, this 2048-cell scan
    took about 100 s; it takes about 0.08 s on a 2-vCPU Xeon VM."""
    doc = _grid_doc(32)
    i = doc["vertices"].index([["1", "1"], ["0", "0"]])  # (1/2, 0)
    doc["vertices"][i] = [["1", "1"], ["-1", str(1 << 16)]]
    tri, _, _ = mesh_from_dict(doc)
    start = time.perf_counter()
    assert check_conforming(tri) == []
    assert time.perf_counter() - start < 1


def test_huge_exponent_vertex_stays_local_in_the_plane_oracle():
    """The same grid through the exact 2D oracle: every orientation sign is
    a kernel determinant on its own three points, so the deep vertex
    lengthens only the tests it takes part in.  With every orientation on
    the frame of the deepest vertex, this took about 19 s; it takes about
    0.5 s on a 2-vCPU Xeon VM."""
    doc = _grid_doc(32)
    i = doc["vertices"].index([["1", "1"], ["0", "0"]])  # (1/2, 0)
    doc["vertices"][i] = [["1", "1"], ["-1", str(1 << 16)]]
    tri, _, _ = mesh_from_dict(doc)
    start = time.perf_counter()
    assert check_conforming_2d_exact(tri) == []
    assert time.perf_counter() - start < 5


def test_huge_exponent_vertex_scans_fast_in_a_3d_grid():
    """The 8x8x8 Kuhn grid (3072 tetrahedra) with its vertex (1/2, 1/2, 0)
    moved down by 2**-65536.  The leaves around that vertex hold boundary
    vertices in their axis boxes, and each such box cost one elimination at
    that exponent: about 4.3 s.  On the slabs of the facet diagonals only
    true hits reach a solve, and here there are none: about 0.4 s on a
    2-vCPU Xeon VM."""
    doc = mesh_to_dict(kuhn_grid(3, 8))
    half = ["1", "1"]
    i = doc["vertices"].index([half, half, ["0", "0"]])
    doc["vertices"][i] = [half, half, ["-1", str(1 << 16)]]
    tri, _, _ = mesh_from_dict(doc)
    start = time.perf_counter()
    assert check_conforming(tri) == []
    assert time.perf_counter() - start < 1


def test_first_zero_volume_cell_named_among_mixed_exponents():
    """The zero-volume check runs cell by cell, each cell at the largest
    exponent among its own vertices; the first degenerate cell is the one
    named, though its exponent is above those of the cells before it."""
    doc = _grid_doc(4)
    zero, quarter, half = ["0", "0"], ["1", "2"], ["1", "1"]
    assert doc["vertices"][:3] == [[zero, zero], [zero, quarter], [zero, half]]
    doc["vertices"].append([["1", "3"], ["1", "3"]])  # (1/8, 1/8)
    doc["vertices"].append([["3", "4"], ["3", "4"]])  # (3/16, 3/16)
    new = len(doc["vertices"]) - 2
    doc["cells"] += [
        {"horizontal": [0, new, new + 1], "vertical": [], "hyperlevel": 0},
        {"horizontal": [0, 1, 2], "vertical": [], "hyperlevel": 0},
    ]
    with pytest.raises(MeshFormatError, match=re.escape("cells[32]: zero volume")):
        mesh_from_dict(doc)


@pytest.mark.parametrize("exp", [(1 << 16) + 1, 10**6])
def test_exponent_above_limit_rejected(exp):
    """Loading shifts numerators to a point's largest exponent, so the
    limit is checked on each pair before any shift."""
    doc = _unit_square_doc()
    doc["vertices"][2] = [["1", "0"], ["1", str(exp)]]
    with pytest.raises(MeshFormatError, match=re.escape(f"vertices[2][1]: exponent {exp}")):
        mesh_from_dict(doc)
    doc = _unit_square_doc()
    doc["marking"] = {"2": [[["1", "1"], ["1", str(exp)]]]}
    with pytest.raises(MeshFormatError, match=re.escape(f"marking.2[0][1]: exponent {exp}")):
        mesh_from_dict(doc)


def _triangle_doc(**cell):
    return {
        "dim": 2,
        "vertices": [
            [["0", "0"], ["0", "0"]],
            [["1", "0"], ["0", "0"]],
            [["1", "0"], ["1", "0"]],
        ],
        "cells": [{"horizontal": [0, 1, 2], "vertical": [], **cell}],
    }


@pytest.mark.parametrize("field", ["level", "hyperlevel"])
def test_huge_level_rejected_fast(tmp_path, capsys, field):
    """The constants build 2**level and 4**hyperlevel exactly, so a level
    of 10**9 would stall ``constants`` and ``bdv-run`` before any range
    check; the loader refuses levels above 2**20."""
    for argv in (["constants"], ["bdv-run", "-N", "1"]):
        start = time.perf_counter()
        assert _exit_code_of(tmp_path, _triangle_doc(**{field: 10**9}), argv) == 1
        assert time.perf_counter() - start < 1
        assert f"cells[0].{field}: " in capsys.readouterr().err
    mesh_from_dict(_triangle_doc(**{field: 1 << 20}))
    with pytest.raises(MeshFormatError, match=re.escape(f"cells[0].{field}: ")):
        mesh_from_dict(_triangle_doc(**{field: (1 << 20) + 1}))


def golden_mesh():
    """A Kuhn 3-cube shifted by a dyadic offset, refined to about 300
    leaves, with a partition."""
    pool = VertexPool()
    offset = point(Fraction(-37, 8), Fraction(5, 1024), 3)
    cells = [kuhn(list(p), [1, 1, 1], pool, offset=offset) for p in permutations((1, 2, 3))]
    tri = Triangulation.from_cells(pool, cells)
    rng = random.Random(7)
    while len(tri.leaves) < 300:
        refine(tri, rng.choice(sorted(tri.leaves)))
    verts = sorted(tri.vertex_index)
    partition = VertexPartition(
        frozenset(verts[::2]), frozenset(verts[1::2]), verts[::2][::-1], None
    )
    return tri, partition


def test_golden_json_text(tmp_path):
    """Pins the serialised bytes and the digest of a written corpus mesh."""
    tri, partition = golden_mesh()
    path = tmp_path / "mesh.json"
    write_mesh(path, tri, partition)
    data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == (
        "994ff0a96688f375826d3c561905e88ff51e4164aa6dea69bb42f254dd64031d"
    )
    assert mesh_hash(tri) == "5658d3490f84b689"
    tri2, marking2, partition2 = read_mesh(path)
    assert mesh_hash(tri2) == mesh_hash(tri)
    assert marking2 is None
    write_mesh(tmp_path / "again.json", tri2, partition2)
    assert (tmp_path / "again.json").read_bytes() == data


def test_zero_volume_cell_rejected(tmp_path, capsys):
    doc = _unit_square_doc()
    doc["vertices"][3] = [["1", "1"], ["1", "1"]]  # on the diagonal 0-2
    with pytest.raises(MeshFormatError, match="cells\\[1\\]: zero volume"):
        mesh_from_dict(doc)
    assert _exit_code_of(tmp_path, doc, ["constants"]) == 1
    assert "cells[1]: zero volume" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, order",
    [("order1", [0, 1, 2]), ("order1", [0, 1, 1, 3]), ("order0", [3]), ("order0", "x")],
)
def test_partition_order_must_permute_its_block(tmp_path, capsys, key, order):
    doc = _unit_square_doc()
    doc["partition"] = {"v0": [2], "v1": [0, 1, 3], key: order}
    with pytest.raises(MeshFormatError, match=f"partition.{key}"):
        mesh_from_dict(doc)
    assert _exit_code_of(tmp_path, doc, ["agk-init"]) == 1
    assert f"partition.{key}" in capsys.readouterr().err


def test_valid_partition_orders_accepted():
    doc = _unit_square_doc()
    doc["partition"] = {"v0": [2], "v1": [0, 1, 3], "order0": [2], "order1": [3, 0, 1]}
    _, _, partition = mesh_from_dict(doc)
    assert partition.order1 == [3, 0, 1]


def _unit_interval_doc():
    return {
        "dim": 1,
        "vertices": [[["0", "0"]], [["1", "0"]]],
        "cells": [{"horizontal": [0, 1], "vertical": [], "hyperlevel": 0}],
    }


@pytest.mark.parametrize(
    "path, edit",
    [
        ("dim", lambda doc: doc.update(dim=True)),
        ("cells[0].horizontal", lambda doc: doc["cells"][0].update(horizontal=[False, True])),
        ("cells[0].vertical", lambda doc: doc["cells"][0].update(horizontal=[0], vertical=[True])),
        ("cells[0].level", lambda doc: doc["cells"][0].update(level=True)),
        ("cells[0].hyperlevel", lambda doc: doc["cells"][0].update(hyperlevel=False)),
        ("partition.v1", lambda doc: doc.update(partition={"v0": [0], "v1": [True]})),
        (
            "partition.order0",
            lambda doc: doc.update(partition={"v0": [0], "v1": [1], "order0": [False]}),
        ),
    ],
)
def test_json_booleans_rejected_as_integers(tmp_path, capsys, path, edit):
    doc = _unit_interval_doc()
    mesh_from_dict(doc)
    edit(doc)
    with pytest.raises(MeshFormatError, match=re.escape(path)):
        mesh_from_dict(doc)
    assert _exit_code_of(tmp_path, doc, ["uniform"]) == 1
    assert path in capsys.readouterr().err


# message -> an edit of the unit square document that the loader rejects
MALFORMED = {
    "vertices[3][1]: Exceeds the limit (4300 digits)":
        lambda doc: doc["vertices"][3].__setitem__(1, ["1" * 5000, "0"]),
    'vertices[3][1]: expected a ["num","exp"] string pair':
        lambda doc: doc["vertices"][3].__setitem__(1, [1, 0]),
    "top level: expected an object": lambda doc: [doc],
    "cells: expected a non-empty list": lambda doc: doc.update(cells=[]),
    "cells[0]: expected an object": lambda doc: doc["cells"].__setitem__(0, [0, 1, 2]),
    "cells[0].horizontal: expected a non-empty list":
        lambda doc: doc["cells"][0].update(horizontal=[], vertical=[0, 1, 2]),
    "cells[0].vertical: expected a list": lambda doc: doc["cells"][0].update(vertical=2),
    "cells[0]: need dim+1 = 3 vertices": lambda doc: doc["cells"][0].update(horizontal=[0, 1]),
    "marking: expected an object": lambda doc: doc.update(marking=[]),
    "marking.2: expected a list of points": lambda doc: doc.update(marking={"2": 5}),
    "partition: expected an object": lambda doc: doc.update(partition=[]),
}


@pytest.mark.parametrize("message", list(MALFORMED))
def test_malformed_document_exit_1_names_its_path(tmp_path, capsys, message):
    """The loader's shape checks, each reached through the CLI: exit 1
    with the JSON path, not a traceback."""
    doc = _unit_square_doc()
    doc = MALFORMED[message](doc) or doc
    assert _exit_code_of(tmp_path, doc, ["check", "conforming"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


UNREADABLE = {
    "non-utf-8": b'{"dim": 2, "vertices": ["\xff"]}',
    "deep-nesting": b"[" * 200_000,
    "digit-limit": b'{"dim": 1' + b"0" * 4999 + b', "vertices": [], "cells": []}',
}


@pytest.mark.parametrize("kind", sorted(UNREADABLE))
def test_unreadable_file_is_malformed_json(tmp_path, capsys, kind):
    """The decoder's own failures are format errors like any other."""
    from bisectmesh.cli import main

    path = tmp_path / "mesh.json"
    path.write_bytes(UNREADABLE[kind])
    with pytest.raises(MeshFormatError, match="^malformed JSON: "):
        read_mesh(path)
    assert main(["check", "conforming", "--mesh", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: malformed JSON")


@st.composite
def written_meshes(draw):
    """A seeded refinement of the Kuhn n-cube, n = 1..4, moved by a dyadic
    offset that may be negative or have numerators above 2**64, with or
    without a partition.  Roots left unrefined keep an empty ``vertical``."""
    n = draw(st.integers(1, 4))
    nums = st.integers(-9, 9) | st.integers(-(1 << 80), 1 << 80)
    offset = point(*(Fraction(draw(nums), 1 << draw(st.integers(0, 6))) for _ in range(n)))
    pool = VertexPool()
    cells = [kuhn(list(p), [1] * n, pool, offset=offset) for p in permutations(range(1, n + 1))]
    tri = Triangulation.from_cells(pool, cells)
    rng = random.Random(draw(st.integers(0, 1 << 32)))
    for _ in range(draw(st.integers(0, 12 // n))):
        refine(tri, rng.choice(sorted(tri.leaves)))
    verts = sorted(tri.vertex_index)
    partition = None
    if draw(st.booleans()):
        k = draw(st.integers(0, len(verts)))
        v0, v1 = verts[:k], verts[k:]
        partition = VertexPartition(
            frozenset(v0),
            frozenset(v1),
            v0[::-1] if draw(st.booleans()) else None,
            v1 if draw(st.booleans()) else None,
        )
    return tri, partition


@settings(max_examples=60, deadline=None)
@given(written_meshes())
def test_written_text_is_json_dumps_indent_1(tmp_path_factory, case):
    """``write_mesh`` lays the text out itself; the interpreter's encoder
    stays the oracle for every byte."""
    tri, partition = case
    path = tmp_path_factory.mktemp("written") / "mesh.json"
    write_mesh(path, tri, partition)
    want = json.dumps(mesh_to_dict(tri, partition), indent=1) + "\n"
    assert path.read_bytes() == want.encode()


# the leaf counts of the verify workload's conformity meshes
BENCH_LEAVES = {2: 400, 3: 250, 4: 120}


@lru_cache(maxsize=None)
def bench_text(n):
    """A seeded bench-size document as JSON text: the Kuhn n-cube moved by
    a dyadic offset, refined at random leaves to at least
    ``BENCH_LEAVES[n]`` leaves, with a marking of three of its vertices."""
    pool = VertexPool()
    offset = point(*[Fraction(-37, 8), Fraction(5, 1024), 3, Fraction(-1, 2)][:n])
    cells = [kuhn(list(p), [1] * n, pool, offset=offset) for p in permutations(range(1, n + 1))]
    tri = Triangulation.from_cells(pool, cells)
    rng = random.Random(n)
    while len(tri.leaves) < BENCH_LEAVES[n]:
        refine(tri, rng.choice(sorted(tri.leaves)))
    doc = mesh_to_dict(tri)
    doc["marking"] = {"2": doc["vertices"][1:4]}
    return json.dumps(doc)


def _loaded(doc):
    """``(message, None)`` when the loader rejects ``doc``, else ``(None,
    (points, cells, marked points))``, the points as Fraction tuples."""
    try:
        tri, marking, _ = mesh_from_dict(doc)
    except MeshFormatError as exc:
        return str(exc), None
    cells = [(c.horizontal, c.vertical, c.level, c.hyperlevel) for c in tri.cells()]
    marked = {m: [fractions_of(p) for p in pts] for m, pts in (marking or {}).items()}
    return None, ([fractions_of(p) for p in tri.forest.pool.points], cells, marked)


_BAD_TEXTS = [
    "", " ", "00", "-0", "+1", " 1", "1 ", "1 0", "0 0", "01", "1_0", "0x1", "\u0660", "1.0",
    "2", "-4", "1" * 5000, "3" * 4301, "65536", "65537", "99999", "100000", str(10**6),
]
_NOT_TEXTS = [1, 0, True, False, None, 1.5, [], ["1"], {"1": 0}]
_IDS_AND_LEVELS = [-1, 0, 1, 2, 3, True, False, 1.0, "1", None, [], 1 << 20, (1 << 20) + 1]


def _texts():
    return (
        st.sampled_from(_BAD_TEXTS)
        | st.sampled_from(_NOT_TEXTS)
        | st.text(alphabet="0123456789- ", max_size=6)
    )


def _mutate(doc, data):
    """Replace one field of ``doc``: a number text, a pair, a point, a cell
    id, a level, a whole cell or a marking entry, by a drawn value, or by a
    copy of another vertex, coordinate or cell (the same cell's ids
    permuted)."""
    verts, cells = doc["vertices"], doc["cells"]
    vert = st.integers(0, len(verts) - 1)
    cell = st.integers(0, len(cells) - 1)
    kind = data.draw(st.sampled_from([
        "none", "text", "exp", "digits", "pair", "point", "same-point", "move", "id",
        "id-in-cell", "level", "cell", "same-cell", "marking",
    ]))
    if kind == "text":
        i, j, k = data.draw(vert), data.draw(st.integers(0, doc["dim"] - 1)), data.draw(st.integers(0, 1))
        verts[i][j][k] = data.draw(_texts())
    elif kind == "exp":
        i, j = data.draw(vert), data.draw(st.integers(0, doc["dim"] - 1))
        exp = data.draw(st.sampled_from([1, 3, 65535, 65536, 65537, 99999, 100000, 10**6]))
        verts[i][j] = [data.draw(st.sampled_from(["1", "-3", "5", "2", "0"])), str(exp)]
    elif kind == "digits":
        i, j = data.draw(vert), data.draw(st.integers(0, doc["dim"] - 1))
        num = data.draw(st.sampled_from(["1" * 5000, "-" + "3" * 4301, "7" * 4300]))
        verts[i][j] = [num, data.draw(st.sampled_from(["0", "1", "3"]))]
    elif kind == "move":  # a coordinate of another vertex: duplicates, flat cells
        i, j = data.draw(vert), data.draw(vert)
        k = data.draw(st.integers(0, doc["dim"] - 1))
        verts[i][k] = list(verts[j][k])
    elif kind == "pair":
        i, j = data.draw(vert), data.draw(st.integers(0, doc["dim"] - 1))
        verts[i][j] = data.draw(st.sampled_from(
            [[], ["1"], ["1", "0", "0"], 5, "1 0", None, {"1": "0"}, ["1", 0], [True, "0"], ("1", "0")]
        ))
    elif kind == "point":
        i = data.draw(vert)
        verts[i] = data.draw(st.sampled_from(
            [[], verts[i][:-1], verts[i] + [["0", "0"]], "x", None, 3, [verts[i]]]
        ))
    elif kind == "same-point":
        i, j = data.draw(vert), data.draw(vert)
        verts[i] = json.loads(json.dumps(verts[j]))
    elif kind in ("id", "id-in-cell"):
        c = cells[data.draw(cell)]
        field = "vertical" if c["vertical"] and data.draw(st.booleans()) else "horizontal"
        k = data.draw(st.integers(0, len(c[field]) - 1))
        if kind == "id":
            value = data.draw(st.sampled_from(_IDS_AND_LEVELS + [len(verts), len(verts) + 7]))
        else:  # another id of the same cell: a repeated vertex
            value = data.draw(st.sampled_from(c["horizontal"] + c["vertical"]))
        c[field][k] = value
    elif kind == "level":
        c = cells[data.draw(cell)]
        field = data.draw(st.sampled_from(["level", "hyperlevel"]))
        if data.draw(st.booleans()):
            c.pop(field)
        else:
            c[field] = data.draw(st.sampled_from(_IDS_AND_LEVELS + [-5, 7]))
    elif kind == "cell":
        cells[data.draw(cell)] = data.draw(st.sampled_from([
            [], "x", None, {}, {"horizontal": []}, {"horizontal": "ab"}, {"horizontal": [0, 1]},
            {"horizontal": [0], "vertical": 3}, {"horizontal": [0, 1, 2, 3, 4, 5]},
        ]))
    elif kind == "same-cell":
        i, j = data.draw(cell), data.draw(cell)
        hor = data.draw(st.permutations(cells[j]["horizontal"]))
        cells[i] = dict(cells[j], horizontal=hor)
    elif kind == "marking":
        marking = doc["marking"]
        what = data.draw(st.sampled_from(["text", "key", "points", "whole"]))
        if what == "text":
            i, j = data.draw(st.integers(0, 2)), data.draw(st.integers(0, doc["dim"] - 1))
            marking["2"][i][j][data.draw(st.integers(0, 1))] = data.draw(_texts())
        elif what == "key":
            marking[data.draw(st.sampled_from(["02", "-1", "x", "3", ""]))] = []
        elif what == "points":
            marking["2"] = data.draw(st.sampled_from([5, None, [], "ab", [[]]]))
        else:
            doc["marking"] = data.draw(st.sampled_from([[], None, 3, {}]))


@settings(max_examples=150, deadline=None)
@given(n=st.sampled_from(sorted(BENCH_LEAVES)), data=st.data())
def test_column_loader_matches_per_element_oracle(n, data):
    """One field of a bench-size document mutated: type swaps, booleans,
    non-canonical text, exponents above the limit, numerators past the
    digit limit, ids out of range, repeated vertices and duplicate points
    and cells.  The loader's verdict and message are those of the
    per-element reference walk, and an accepted load reads its points."""
    doc = json.loads(bench_text(n))
    _mutate(doc, data)
    want, points = load_verdict(doc)
    got, loaded = _loaded(doc)
    assert got == want
    if want is None:
        assert loaded[0] == points
        raw = doc["cells"]
        assert loaded[1] == [
            (tuple(c["horizontal"]), tuple(c.get("vertical", [])), c.get("level", 0),
             c.get("hyperlevel", 0))
            for c in raw
        ]


@pytest.mark.parametrize("n", sorted(BENCH_LEAVES))
def test_well_formed_load_takes_no_per_element_walk(tmp_path, monkeypatch, n):
    """The column passes accept every well-formed document by themselves:
    with the per-element pair reader and cell walk made to raise, a
    bench-size file with a marking still loads."""

    def walked(*args):
        raise AssertionError("the per-element walk ran on a well-formed document")

    path = tmp_path / "mesh.json"
    path.write_text(bench_text(n))
    monkeypatch.setattr(meshio, "_dyadic_from_json", walked)
    monkeypatch.setattr(meshio, "_walk_cells", walked)
    tri, marking, _ = read_mesh(path)
    assert len(tri.leaves) == len(json.loads(bench_text(n))["cells"]) >= BENCH_LEAVES[n]
    assert len(marking[2]) == 3


def test_kuhn_square_64_errors_name_their_paths():
    """The 64x64 Kuhn square (8192 triangles) fails at its own paths: an
    even numerator over a positive exponent at vertices[4000][1], and a
    cell repeating cells[0]."""
    doc = mesh_to_dict(kuhn_grid(2, 64))
    assert len(mesh_from_dict(doc)[0].leaves) == 8192
    bad = json.loads(json.dumps(doc))
    bad["vertices"][4000][1] = ["2", "1"]
    with pytest.raises(MeshFormatError, match=re.escape(
        "vertices[4000][1]: non-canonical dyadic (even numerator)"
    ) + "$"):
        mesh_from_dict(bad)
    bad = json.loads(json.dumps(doc))
    bad["cells"][8000] = dict(bad["cells"][0])
    with pytest.raises(MeshFormatError, match=re.escape("cells[8000]: same vertices as cells[0]")):
        mesh_from_dict(bad)
