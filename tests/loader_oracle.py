"""Reference oracle for the mesh loader: the verdict and message of
``meshio.mesh_from_dict``, reached one element at a time.

:func:`load_verdict` walks the vertices, the cells, their volumes and the
marking in document order, each rule on its own element, as the schema in
the ``meshio`` docstring states them, and returns the first failure's
message (the path, then the rule) with the points of the document as
``Fraction`` tuples.  It shares no code with the package: coordinates are
``Fraction``s, duplicates are equal ``Fraction`` tuples and the zero-volume
test is :func:`conftest.frac_det` on the cell's edge vectors.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional

from conftest import frac_det

INT_TEXT = re.compile(r"0|-?[1-9][0-9]*")
MAX_EXP = 1 << 16
MAX_LEVEL = 1 << 20


class Rejected(Exception):
    pass


def _integer(text: str) -> int:
    if not INT_TEXT.fullmatch(text):
        raise Rejected("non-canonical integer text")
    try:
        return int(text)
    except ValueError as exc:  # past the interpreter's digit limit
        raise Rejected(str(exc)) from None


def _coordinate(pair) -> Fraction:
    if not isinstance(pair, list) or len(pair) != 2 or not all(isinstance(x, str) for x in pair):
        raise Rejected('expected a ["num","exp"] string pair')
    num, exp = _integer(pair[0]), _integer(pair[1])
    if exp < 0:
        raise Rejected("negative exponent")
    if exp > MAX_EXP:
        raise Rejected(f"exponent {exp} is above the limit {MAX_EXP}")
    if num == 0 and exp != 0:
        raise Rejected('zero must be encoded as ["0","0"]')
    if num % 2 == 0 and num != 0 and exp != 0:
        raise Rejected("non-canonical dyadic (even numerator)")
    return Fraction(num, 1 << exp)


def _point(row, dim: int, where: str) -> tuple:
    if not isinstance(row, list) or len(row) != dim:
        raise Rejected(f"{where}: expected {dim} coordinates")
    coords = []
    for j, pair in enumerate(row):
        try:
            coords.append(_coordinate(pair))
        except Rejected as exc:
            raise Rejected(f"{where}[{j}]: {exc}") from None
    return tuple(coords)


def _cell(c, dim: int, n_ids: int, where: str) -> tuple:
    """The cell's vertex ids, row first; levels are checked, not returned."""
    if not isinstance(c, dict):
        raise Rejected(f"{where}: expected an object")
    hor, ver = c.get("horizontal"), c.get("vertical", [])
    if not isinstance(hor, list) or not hor:
        raise Rejected(f"{where}.horizontal: expected a non-empty list")
    if not isinstance(ver, list):
        raise Rejected(f"{where}.vertical: expected a list")
    for field, ids in (("horizontal", hor), ("vertical", ver)):
        for v in ids:
            if type(v) is not int or not 0 <= v < n_ids:
                raise Rejected(f"{where}.{field}: bad vertex id {v!r}")
    if len(hor) + len(ver) != dim + 1:
        raise Rejected(f"{where}: need dim+1 = {dim + 1} vertices")
    if len(set(hor + ver)) != dim + 1:
        raise Rejected(f"{where}: repeated vertex")
    for field in ("level", "hyperlevel"):
        value = c.get(field, 0)
        if type(value) is not int or value < 0:
            raise Rejected(f"{where}.{field}: expected a non-negative integer")
        if value > MAX_LEVEL:
            raise Rejected(f"{where}.{field}: {value} is above the limit {MAX_LEVEL}")
    return tuple(hor + ver)


def _walk(doc) -> list:
    if not isinstance(doc, dict):
        raise Rejected("top level: expected an object")
    dim = doc.get("dim")
    if type(dim) is not int or dim < 1:
        raise Rejected("dim: expected a positive integer")
    rows = doc.get("vertices")
    if not isinstance(rows, list) or not rows:
        raise Rejected("vertices: expected a non-empty list")
    points, first_at = [], {}
    for i, row in enumerate(rows):
        p = _point(row, dim, f"vertices[{i}]")
        if p in first_at:
            raise Rejected(f"vertices[{i}]: duplicate coordinates")
        first_at[p] = i
        points.append(p)
    raw_cells = doc.get("cells")
    if not isinstance(raw_cells, list) or not raw_cells:
        raise Rejected("cells: expected a non-empty list")
    cells, first_with = [], {}
    for i, c in enumerate(raw_cells):
        ids = _cell(c, dim, len(rows), f"cells[{i}]")
        key = frozenset(ids)
        if key in first_with:
            raise Rejected(f"cells[{i}]: same vertices as cells[{first_with[key]}]")
        first_with[key] = i
        cells.append(ids)
    for i, ids in enumerate(cells):
        base = points[ids[0]]
        edges = [[x - y for x, y in zip(points[v], base)] for v in ids[1:]]
        if frac_det(edges) == 0:
            raise Rejected(f"cells[{i}]: zero volume (degenerate cell)")
    marking = doc.get("marking", {})
    if not isinstance(marking, dict):
        raise Rejected("marking: expected an object")
    for key, pts in marking.items():
        try:
            _integer(key)
        except Rejected as exc:
            raise Rejected(f"marking.{key}: {exc}") from None
        if not isinstance(pts, list):
            raise Rejected(f"marking.{key}: expected a list of points")
        for i, row in enumerate(pts):
            _point(row, dim, f"marking.{key}[{i}]")
    return points


def load_verdict(doc) -> tuple[Optional[str], Optional[list]]:
    """``(None, points)`` for a document the loader must accept, else
    ``(message, None)``.  Documents with a ``partition`` are out of scope."""
    try:
        return None, _walk(doc)
    except Rejected as exc:
        return str(exc), None
