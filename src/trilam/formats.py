"""JSON/CSV serialization for chords, comajor records and prelaminations.

All data serializes as exact fraction strings; output ordering is the
canonical one (block, type with D before B, then the short-arc key,
which `prelamination_to_json` applies itself), so repeated runs are
byte-identical.  A prelamination serializes straight from its integer
grid: the reduced string of x/N is (x/g)/(N/g) for g = gcd(x, N), so
no `Fraction` is built per chord.  Documents are read the other way,
straight onto a grid, by one reader, `chords_from_json`: `render --in`
calls it, and `records_from_json` makes its records from its rows.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Iterable, Optional

import numpy as np

from .angles import angle_str, parse_fraction
from .chords import Chord
from .grid import int_dtype, scale_of, short_arc_order

if TYPE_CHECKING:
    from .builder import ComajorRecord

__all__ = [
    "CSV_HEADER", "chord_to_json", "crossing_to_json", "record_to_json", "records_to_json",
    "records_from_json", "records_to_csv", "grid_angle_strs",
    "prelamination_to_json", "chords_from_json",
]

CSV_HEADER = "a,b,type,block"


def chord_to_json(ch: Chord) -> dict:
    return {"a": angle_str(ch.a), "b": angle_str(ch.b)}


def crossing_to_json(first: Chord, second: Chord) -> dict:
    """The witness of a crossing pair of chords in a family that must be laminar."""
    return {"kind": "crossing", "first": chord_to_json(first), "second": chord_to_json(second)}


def record_to_json(rec: "ComajorRecord") -> dict:
    return {
        "a": angle_str(rec.chord.a),
        "b": angle_str(rec.chord.b),
        "type": rec.ptype,
        "block": rec.block_period,
    }


def records_to_json(records: Iterable["ComajorRecord"]) -> str:
    """The record array as `json.dumps([record_to_json(r), ...], indent=0)`.

    Its strings are fractions 'p/q' and the types 'B' and 'D', which JSON
    never escapes, so the text is assembled directly, as in
    `prelamination_to_json`; the tests hold it to `json.dumps`.
    """
    items = ",\n".join(
        f'{{\n"a": "{angle_str(r.chord.a)}",\n"b": "{angle_str(r.chord.b)}",\n'
        f'"type": "{r.ptype}",\n"block": {r.block_period}\n}}' for r in records)
    return f"[\n{items}\n]\n" if items else "[]\n"


def records_from_json(text: str) -> list["ComajorRecord"]:
    """The records of a record array, read as `render --in` reads it (`chords_from_json`)."""
    from .builder import ComajorRecord

    doc = json.loads(text)
    pairs, n, types, blocks = chords_from_json(doc)
    if types is None and doc != []:
        raise ValueError("not a record array: its first item needs str 'type'")
    return [ComajorRecord(Chord.from_grid(p, n), t, b)
            for p, t, b in zip(pairs.tolist(), types or (), blocks or ())]


def records_to_csv(records: Iterable["ComajorRecord"]) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(f"{angle_str(r.chord.a)},{angle_str(r.chord.b)},{r.ptype},{r.block_period}")
    return "\n".join(lines) + "\n"


def grid_angle_strs(col: np.ndarray, n: int) -> list[str]:
    """Reduced strings 'p/q' of the grid angles col / n ('0/1' for zero)."""
    g = np.gcd(col, n)
    return [f"{p}/{q}" for p, q in zip((col // g).tolist(), (n // g).tolist())]


def prelamination_to_json(seed: Chord, depth: int, pairs: np.ndarray, modulus: int) -> str:
    """The prelamination document {"seed", "depth", "chords"} as `json.dumps(doc, indent=0)`.

    `pairs` are the (n, 2) int chords on the grid of `modulus`, such as
    `Prelamination.pairs`, in any order: they are written in short-arc
    order (`grid.short_arc_order`).  Every string in the document is a
    fraction 'p/q', which JSON never escapes, so the text is assembled
    directly rather than by the much slower indenting encoder; the tests
    hold it to `json.dumps`.
    """
    pairs = pairs[short_arc_order(pairs, modulus)]
    strs = zip(grid_angle_strs(pairs[:, 0], modulus), grid_angle_strs(pairs[:, 1], modulus))
    items = ",\n".join(_chord_text(a, b) for a, b in strs)
    listed = f"[\n{items}\n]" if items else "[]"
    seed_text = _chord_text(angle_str(seed.a), angle_str(seed.b))
    return f'{{\n"seed": {seed_text},\n"depth": {depth},\n"chords": {listed}\n}}\n'


def _chord_text(a: str, b: str) -> str:
    return f'{{\n"a": "{a}",\n"b": "{b}"\n}}'


def chords_from_json(doc) -> tuple[np.ndarray, int, Optional[list[str]], Optional[list[int]]]:
    """Chords of a parsed record array, prelamination document or bare chord list, on a grid.

    Returns the (m, 2) pairs lo <= hi, their modulus n, the lcm of the
    denominators as written, for `render_svg(pairs, modulus=n)`, and
    the types and blocks of a record array (its first item has a
    "type"), every item of which must carry both; other documents give
    None, None.  The pairs are int64 while they fit it
    (`grid.int_dtype`) and Python ints of dtype object beyond.
    """
    types = blocks = None
    if isinstance(doc, list) and doc and isinstance(doc[0], dict) and "type" in doc[0]:
        types = [_record_field(item, "type", str) for item in doc]
        blocks = [_record_field(item, "block", int) for item in doc]
    elif isinstance(doc, dict) and "chords" in doc:
        doc = doc["chords"]
    if not isinstance(doc, list):
        raise ValueError(f"expected a list of chords, got {doc!r}")
    ends = [_fraction_ends(item) for item in doc]
    n = scale_of((), *{q for ab in ends for _, q in ab})
    scale = {q: n // q for ab in ends for _, q in ab}
    flat = [p * scale[q] for ab in ends for p, q in ab]
    pairs = np.array(flat, dtype=int_dtype(n)).reshape(-1, 2)
    pairs.sort(axis=1)
    return pairs, n, types, blocks


def _record_field(item, key: str, kind: type):
    value = item.get(key) if isinstance(item, dict) else None
    if not isinstance(value, kind):
        raise ValueError(f"record {item!r} needs {kind.__name__} {key!r}")
    return value


def _fraction_ends(doc: dict) -> tuple[tuple[int, int], tuple[int, int]]:
    """The parsed endpoints (p, q) of a chord {"a", "b"}."""
    try:
        return parse_fraction(doc["a"]), parse_fraction(doc["b"])
    except (AttributeError, KeyError, TypeError):
        raise ValueError(f"not a chord {{\"a\", \"b\"}}: {doc!r}") from None
