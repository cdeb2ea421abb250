"""Mesh JSON round-trip.

Schema::

    {"dim": n,
     "vertices": [[["num","exp"], ...], ...],
     "cells": [{"horizontal": [...], "vertical": [...],
                "hyperlevel": h, "level": l?}, ...],
     "marking":   {"2": [[["num","exp"], ...], ...], ...}?,
     "partition": {"v0": [...], "v1": [...],
                   "order0": [...]?, "order1": [...]?}?}

The writer emits ``vertices``, ``cells`` and ``partition``; ``marking``
(typed division points, the input of ``init-division``) is only read.

A coordinate ``num / 2**exp`` serialises as a pair of decimal strings in
lowest terms (odd numerator, or exponent 0; zero is ``["0","0"]``).  Number
text (coordinates and ``marking`` type keys) is canonical: ``0`` or ASCII
digits without a leading zero, with an optional ``-``.  Non-canonical
encodings are rejected with the JSON path in the message.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from decimal import Decimal
from itertools import chain, repeat
from operator import add, lshift, sub
from typing import Optional

from .exactgeom import DyadicPoint, _cell_dets, _reduced
from .tarray import TaggedSimplex, VertexPool
from .forest import Triangulation
from .inittags import VertexPartition


class MeshFormatError(ValueError):
    pass


_INT_TEXT = re.compile(r"0|-?[1-9][0-9]*")

# Largest accepted cell level and hyperlevel.  The constants build 2**level
# and 4**hyperlevel exactly, so an unbounded value would stall them; the
# engine's own runs stay below level 300.
_MAX_LEVEL = 1 << 20

# Largest accepted coordinate exponent.  A point's coordinates share one
# exponent, each determinant or solve takes its own points' largest, and the
# conformity scans' slab filter holds n² values per vertex at the mesh's
# largest, so an unbounded exponent would build integers of that many bits;
# the engine's own meshes stay near exponent 118 (adapt-deep, level 235).
_MAX_EXP = 1 << 16

# The texts of canonical ``["num","exp"]`` pairs, each written "num exp" and
# joined by single spaces: "0 0", a nonzero numerator over "0", or an odd
# numerator over a positive exponent of at most the five digits of _MAX_EXP.
_PAIR = r"(?:0 0|-?[1-9][0-9]* 0|-?(?:[1-9][0-9]*)?[13579] [1-9][0-9]{0,4})"
_PAIRS_TEXT = re.compile(rf"{_PAIR}(?: {_PAIR})*")


def _point_to_json(p: DyadicPoint, i: int) -> list:
    """``p`` as JSON pairs; a failure names the path ``vertices[i]``.  A
    coordinate over exponent 0, or with an odd numerator, is already in
    lowest terms."""
    exp = p.exp
    text = str(exp)
    try:
        return [
            [str(x), text] if x & 1 or not exp else list(map(str, _reduced(x, exp)))
            for x in p.nums
        ]
    except ValueError:  # str() past the interpreter's digit limit
        pairs = [_reduced(x, exp) for x in p.nums]
        limit = sys.get_int_max_str_digits()
        digits = max(Decimal(num).adjusted() + 1 for num, _ in pairs)
        raise ValueError(
            f"vertices[{i}]: numerator has {digits} digits, more than the {limit} "
            "digits the loader reads back"
        ) from None


def _int_from_text(text: str) -> int:
    """The integer ``text`` spells; a failure's message leaves out the JSON
    path, which the caller puts in front of it."""
    if not _INT_TEXT.fullmatch(text):
        raise MeshFormatError("non-canonical integer text")
    try:
        return int(text)
    except ValueError as exc:  # past the interpreter's digit limit
        raise MeshFormatError(str(exc)) from exc


def _dyadic_from_json(obj) -> tuple[int, int]:
    """The canonical ``(num, exp)`` of one ``["num","exp"]`` pair; messages
    as in :func:`_int_from_text`."""
    if (
        not isinstance(obj, list)
        or len(obj) != 2
        or not all(isinstance(x, str) for x in obj)
    ):
        raise MeshFormatError("expected a [\"num\",\"exp\"] string pair")
    num, exp = _int_from_text(obj[0]), _int_from_text(obj[1])
    if exp < 0:
        raise MeshFormatError("negative exponent")
    if exp > _MAX_EXP:
        raise MeshFormatError(f"exponent {exp} is above the limit {_MAX_EXP}")
    if num == 0 and exp != 0:
        raise MeshFormatError("zero must be encoded as [\"0\",\"0\"]")
    if num % 2 == 0 and num != 0 and exp != 0:
        raise MeshFormatError("non-canonical dyadic (even numerator)")
    return num, exp


def _point_from_json(obj, dim: int, where: str, i: int) -> DyadicPoint:
    """The point at the JSON path ``where[i]``; a path is formatted only
    for a message."""
    if not isinstance(obj, list) or len(obj) != dim:
        raise MeshFormatError(f"{where}[{i}]: expected {dim} coordinates")
    pairs = []
    for j, c in enumerate(obj):
        try:
            pairs.append(_dyadic_from_json(c))
        except MeshFormatError as exc:
            raise MeshFormatError(f"{where}[{i}][{j}]: {exc}") from exc.__cause__
    exp = max(e for _, e in pairs)
    return DyadicPoint._of([num << (exp - e) for num, e in pairs], exp)


def _column_points(rows: list, dim: int) -> Optional[list]:
    """The points of the JSON point list ``rows``, checked and read a whole
    column at a time, or None when a check fails: the caller then walks the
    rows with :func:`_point_from_json`, which names the first bad path.

    The texts, joined by single spaces, must spell canonical pairs one after
    another (``_PAIRS_TEXT``).  No canonical text is empty or holds a space,
    and the joined string holds one space fewer than there are texts, so
    the i-th text of the match is the i-th text of the list.  A point's
    exponent is the largest of its pairs', whose numerator is then odd or
    its exponent 0, so the shifted numerators are canonical as they stand.
    """
    if not rows:
        return []
    if set(map(type, rows)) != {list} or set(map(len, rows)) != {dim}:
        return None
    coords = list(chain.from_iterable(rows))
    if set(map(type, coords)) != {list} or set(map(len, coords)) != {2}:
        return None
    texts = list(chain.from_iterable(coords))
    if set(map(type, texts)) != {str}:
        return None
    joined = " ".join(texts)
    if joined.count(" ") != len(texts) - 1 or not _PAIRS_TEXT.fullmatch(joined):
        return None
    try:
        ints = list(map(int, texts))
    except ValueError:  # past the interpreter's digit limit
        return None
    nums, exps = ints[0::2], ints[1::2]
    if max(exps) > _MAX_EXP:
        return None
    tops = list(map(max, zip(*[iter(exps)] * dim)))
    shifts = map(sub, chain.from_iterable(zip(*[tops] * dim)), exps)
    shifted = map(lshift, nums, shifts)
    return list(map(DyadicPoint._of_canonical, zip(*[shifted] * dim), tops))


def _column_cells(raw_cells: list, dim: int, n_ids: int) -> Optional[list]:
    """The tagged cells of the JSON cell list, checked a whole column at a
    time, or None when a check fails: the caller then walks the cells with
    :func:`_walk_cells`, which names the first bad path."""
    if set(map(type, raw_cells)) != {dict}:
        return None
    hors = list(map(dict.get, raw_cells, repeat("horizontal")))
    vers = list(map(dict.get, raw_cells, repeat("vertical"), repeat([])))
    if set(map(type, hors)) != {list} or set(map(type, vers)) != {list} or not all(hors):
        return None
    ids = list(chain.from_iterable(chain(hors, vers)))
    if set(map(type, ids)) != {int} or min(ids) < 0 or max(ids) >= n_ids:
        return None
    rows = list(map(add, hors, vers))
    vsets = list(map(frozenset, rows))
    if (
        set(map(len, rows)) != {dim + 1}
        or set(map(len, vsets)) != {dim + 1}
        or len(set(vsets)) != len(vsets)
    ):
        return None
    levels = list(map(dict.get, raw_cells, repeat("level"), repeat(0)))
    hypers = list(map(dict.get, raw_cells, repeat("hyperlevel"), repeat(0)))
    for col in (levels, hypers):
        if set(map(type, col)) != {int} or min(col) < 0 or max(col) > _MAX_LEVEL:
            return None
    return list(map(TaggedSimplex, map(tuple, hors), map(tuple, vers), levels, hypers))


def _walk_cells(raw_cells: list, dim: int, n_ids: int) -> list:
    """The tagged cells of the JSON cell list, checked one cell at a time;
    the first failure names its path."""
    cells = []
    first_with: dict[frozenset, int] = {}
    for i, c in enumerate(raw_cells):
        if not isinstance(c, dict):
            raise MeshFormatError(f"cells[{i}]: expected an object")
        hor = c.get("horizontal")
        ver = c.get("vertical", [])
        if not isinstance(hor, list) or not hor:
            raise MeshFormatError(f"cells[{i}].horizontal: expected a non-empty list")
        if not isinstance(ver, list):
            raise MeshFormatError(f"cells[{i}].vertical: expected a list")
        for field, lst in (("horizontal", hor), ("vertical", ver)):
            for v in lst:
                if type(v) is not int or not 0 <= v < n_ids:
                    raise MeshFormatError(f"cells[{i}].{field}: bad vertex id {v!r}")
        if len(hor) + len(ver) != dim + 1:
            raise MeshFormatError(f"cells[{i}]: need dim+1 = {dim + 1} vertices")
        vset = frozenset(hor + ver)
        if len(vset) != dim + 1:
            raise MeshFormatError(f"cells[{i}]: repeated vertex")
        if vset in first_with:
            raise MeshFormatError(f"cells[{i}]: same vertices as cells[{first_with[vset]}]")
        first_with[vset] = i
        level = c.get("level", 0)
        hyper = c.get("hyperlevel", 0)
        for field, value in (("level", level), ("hyperlevel", hyper)):
            if type(value) is not int or value < 0:
                raise MeshFormatError(f"cells[{i}].{field}: expected a non-negative integer")
            if value > _MAX_LEVEL:
                raise MeshFormatError(f"cells[{i}].{field}: {value} is above the limit {_MAX_LEVEL}")
        cells.append(
            TaggedSimplex(tuple(hor), tuple(ver), level=level, hyperlevel=hyper)
        )
    return cells


def mesh_to_dict(tri: Triangulation, partition: Optional[VertexPartition] = None) -> dict:
    pool = tri.forest.pool
    cells = tri.cells()
    used: list[int] = sorted(set(chain.from_iterable(c.vertex_ids for c in cells)))
    remap = {v: i for i, v in enumerate(used)}
    at = remap.__getitem__
    doc = {
        "dim": cells[0].dim,
        "vertices": [_point_to_json(pool.point(v), i) for i, v in enumerate(used)],
        "cells": [
            {
                "horizontal": list(map(at, c.horizontal)),
                "vertical": list(map(at, c.vertical)),
                "hyperlevel": c.hyperlevel,
                "level": c.level,
            }
            for c in cells
        ],
    }
    if partition is not None:
        doc["partition"] = {
            "v0": sorted(map(at, partition.v0)),
            "v1": sorted(map(at, partition.v1)),
        }
        if partition.order0 is not None:
            doc["partition"]["order0"] = list(map(at, partition.order0))
        if partition.order1 is not None:
            doc["partition"]["order1"] = list(map(at, partition.order1))
    return doc


def mesh_from_dict(doc: dict):
    """Returns ``(triangulation, marking, partition)``, the marking as a
    ``{type: points}`` dict; the latter two may be None.

    Vertices, cells and marked points are checked a whole column at a time
    (:func:`_column_points`, :func:`_column_cells`); only when such a pass
    fails does the loader walk the elements one by one, to name the first
    bad JSON path."""
    if not isinstance(doc, dict):
        raise MeshFormatError("top level: expected an object")
    dim = doc.get("dim")
    # a JSON integer is exactly an int: true/false load as bools, which
    # isinstance counts as ints
    if type(dim) is not int or dim < 1:
        raise MeshFormatError("dim: expected a positive integer")
    vertices = doc.get("vertices")
    if not isinstance(vertices, list) or not vertices:
        raise MeshFormatError("vertices: expected a non-empty list")
    points = _column_points(vertices, dim)
    pool = None if points is None else VertexPool._numbered(points)
    if pool is None:
        pool = VertexPool()
        for i, v in enumerate(vertices):
            if pool.id_of(_point_from_json(v, dim, "vertices", i)) != i:
                raise MeshFormatError(f"vertices[{i}]: duplicate coordinates")
    n_ids = len(vertices)
    raw_cells = doc.get("cells")
    if not isinstance(raw_cells, list) or not raw_cells:
        raise MeshFormatError("cells: expected a non-empty list")
    cells = _column_cells(raw_cells, dim, n_ids)
    if cells is None:
        cells = _walk_cells(raw_cells, dim, n_ids)
    tri = Triangulation.from_cells(pool, cells)
    dets = _cell_dets(c.vertices(pool) for c in cells)
    for i, (det, _) in enumerate(dets):
        if not det:
            raise MeshFormatError(f"cells[{i}]: zero volume (degenerate cell)")
    marking = None
    if "marking" in doc:
        marking = {}
        if not isinstance(doc["marking"], dict):
            raise MeshFormatError("marking: expected an object")
        for key, pts in doc["marking"].items():
            try:
                m = _int_from_text(key)
            except MeshFormatError as exc:
                raise MeshFormatError(f"marking.{key}: {exc}") from exc.__cause__
            if not isinstance(pts, list):
                raise MeshFormatError(f"marking.{key}: expected a list of points")
            marking[m] = _column_points(pts, dim)
            if marking[m] is None:
                marking[m] = [
                    _point_from_json(p, dim, f"marking.{key}", i)
                    for i, p in enumerate(pts)
                ]
    partition = None
    if "partition" in doc:
        part = doc["partition"]
        if not isinstance(part, dict):
            raise MeshFormatError("partition: expected an object")
        for key in ("v0", "v1", "order0", "order1"):
            lst = part.get(key)
            if lst is None and key.startswith("order"):
                continue
            if not isinstance(lst, list) or not all(
                type(v) is int and 0 <= v < n_ids for v in lst
            ):
                raise MeshFormatError(f"partition.{key}: expected a list of vertex ids")
        for key, block in (("order0", "v0"), ("order1", "v1")):
            order = part.get(key)
            if order is not None and (
                len(set(order)) != len(order) or set(order) != set(part[block])
            ):
                raise MeshFormatError(
                    f"partition.{key}: not a permutation of partition.{block}"
                )
        partition = VertexPartition(
            v0=frozenset(part["v0"]),
            v1=frozenset(part["v1"]),
            order0=part.get("order0"),
            order1=part.get("order1"),
        )
    return tri, marking, partition


def _block(items: list, depth: int, brackets: str = "[]") -> str:
    """Rendered ``items`` as ``json.dumps(indent=1)`` lays out a list (an
    object with ``brackets="{}"``) that opens at nesting ``depth``."""
    if not items:
        return brackets
    pad = "\n" + " " * (depth + 1)
    return f"{brackets[0]}{pad}{(',' + pad).join(items)}\n{' ' * depth}{brackets[1]}"


def _points_text(points: list) -> str:
    """The ``vertices`` list, each point a list of ``["num","exp"]`` string
    pairs, through one ``%`` template per point length."""
    forms: dict[int, str] = {}
    rendered = []
    for p in points:
        form = forms.get(len(p))
        if form is None:
            pair = _block(['"%s"', '"%s"'], 3)
            form = forms[len(p)] = _block([pair] * len(p), 2)
        rendered.append(form % tuple(chain.from_iterable(p)))
    return _block(rendered, 1)


def _cells_text(cells: list) -> str:
    """The ``cells`` list, through one ``%`` template per pair of
    horizontal and vertical lengths."""
    forms: dict[tuple, str] = {}
    rendered = []
    for c in cells:
        hor, ver = c["horizontal"], c["vertical"]
        form = forms.get((len(hor), len(ver)))
        if form is None:
            form = forms[len(hor), len(ver)] = _block(
                [
                    f'"horizontal": {_block(["%d"] * len(hor), 3)}',
                    f'"vertical": {_block(["%d"] * len(ver), 3)}',
                    '"hyperlevel": %d',
                    '"level": %d',
                ],
                2,
                "{}",
            )
        rendered.append(form % (*hor, *ver, c["hyperlevel"], c["level"]))
    return _block(rendered, 1)


def _mesh_text(doc: dict) -> str:
    """``json.dumps(doc, indent=1)`` for a :func:`mesh_to_dict` document,
    laid out from the schema instead of by the pure-Python encoder that
    ``indent`` selects."""
    parts = [
        f'"dim": {doc["dim"]}',
        f'"vertices": {_points_text(doc["vertices"])}',
        f'"cells": {_cells_text(doc["cells"])}',
    ]
    if "partition" in doc:
        blocks = [
            f'"{key}": {_block(list(map(str, ids)), 2)}' for key, ids in doc["partition"].items()
        ]
        parts.append(f'"partition": {_block(blocks, 1, "{}")}')
    return _block(parts, 0, "{}")


def write_mesh(path, tri: Triangulation, partition=None):
    """Write the mesh as ``json.dumps(mesh_to_dict(...), indent=1)`` plus a
    newline; that byte layout is part of the format."""
    # serialise first: a failure (such as a numerator past the digit limit)
    # must not leave ``path`` truncated
    text = _mesh_text(mesh_to_dict(tri, partition))
    with open(path, "w") as fh:
        fh.write(text + "\n")


def read_mesh(path):
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        # JSONDecodeError, UnicodeDecodeError and the digit limit of int()
        # are ValueErrors; deep nesting exhausts the decoder's recursion
        except (ValueError, RecursionError) as exc:
            raise MeshFormatError(f"malformed JSON: {exc}") from exc
    return mesh_from_dict(doc)


def mesh_hash(tri: Triangulation) -> str:
    """Stable digest of the canonical mesh serialisation.

    The serialisation numbers vertices by pool id and lists cells by node
    id, that is, in creation order.  Two triangulations with the same
    tagged cells therefore hash alike only when their vertices and cells
    were created in the same order: the digest identifies a mesh as built,
    not its geometry up to renumbering.
    """
    doc = mesh_to_dict(tri)
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
