"""Byte-stable outputs: SVG figures of lattice polygons, and JSON text.

Figures are built by plain string assembly with integer coordinates
only (24 px per lattice unit), so identical polygons always
produce identical files and goldens can be diffed byte for byte.
"""
from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from .polygon2d import LatticePolygon, lattice_inventory

_GRID = "#cccccc"
_OUTLINE = "#1f3a5f"
_FILL = "#dce6f2"
_BOUNDARY = "#1f3a5f"
_INTERIOR = "#c0392b"
_UNIT = 24  # px per lattice unit


def render_polygon_svg(poly: LatticePolygon) -> str:
    """SVG drawing of the polygon: grid dots, outline, lattice points
    (interior points filled in a contrasting color)."""
    x0, y0, x1, y1 = poly.bounding_box()
    pad = 1
    width = (x1 - x0 + 2 * pad) * _UNIT
    height = (y1 - y0 + 2 * pad) * _UNIT

    def px(p) -> tuple[int, int]:
        # flip y: SVG grows downward
        return ((p[0] - x0 + pad) * _UNIT, (y1 - p[1] + pad) * _UNIT)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<title>lattice polygon: n={poly.n} i={poly.i} b={poly.b}</title>',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for gy in range(y0 - pad, y1 + pad + 1):
        for gx in range(x0 - pad, x1 + pad + 1):
            cx, cy = px((gx, gy))
            out.append(f'<circle cx="{cx}" cy="{cy}" r="2" fill="{_GRID}"/>')
    corners = " ".join(f"{px(v)[0]},{px(v)[1]}" for v in poly.vertices)
    out.append(
        f'<polygon points="{corners}" fill="{_FILL}" stroke="{_OUTLINE}" stroke-width="2"/>'
    )
    points, interior = lattice_inventory(poly)
    interior = set(interior)
    for p in points:
        cx, cy = px(p)
        color = _INTERIOR if p in interior else _BOUNDARY
        out.append(f'<circle cx="{cx}" cy="{cy}" r="5" fill="{color}"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def json_text(value) -> str:
    """The text `json.dumps(value)` gives at an indent of 2, for the dicts
    with str keys, lists, tuples, ints, bools, None, strs and floats that
    wpoly emits.  CPython's C encoder serves no indent, so the text is
    built here in one pass: plain ints through `str`, keys as `json.dumps`
    escapes strs, and other scalars through `json.dumps`.  A non-str key,
    or a scalar JSON cannot hold such as a Fraction, raises TypeError."""
    parts: list[str] = []
    _json_parts(value, "\n", parts)
    return "".join(parts)


def _json_parts(value, newline: str, parts: list[str]) -> None:
    """Append the text of value, nested behind newline, to parts."""
    if type(value) is int:
        parts.append(str(value))
    elif not isinstance(value, (list, tuple, dict)):
        parts.append(json.dumps(value))
    elif not value:
        parts.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, dict):
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            parts.append(sep + encode_basestring_ascii(key) + ": ")
            _json_parts(item, inner, parts)
            sep = "," + inner
        parts.append(newline + "}")
    else:
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            parts.append(sep)
            _json_parts(item, inner, parts)
            sep = "," + inner
        parts.append(newline + "]")
