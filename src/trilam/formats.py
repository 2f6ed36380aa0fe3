"""JSON/CSV serialization for chords, comajor records and prelaminations.

All data serializes as exact fraction strings; output ordering is the
canonical one (block, type with D before B, then the short-arc key), so
repeated runs are byte-identical.  A prelamination serializes straight
from its integer grid: the reduced string of x/N is (x/g)/(N/g) for
g = gcd(x, N), so no `Fraction` is built per chord.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .angles import angle_str, parse_angle
from .chords import Chord

if TYPE_CHECKING:
    from .builder import ComajorRecord

CSV_HEADER = "a,b,type,block"


def chord_to_json(ch: Chord) -> dict:
    return {"a": angle_str(ch.a), "b": angle_str(ch.b)}


def chord_from_json(doc: dict) -> Chord:
    return Chord(parse_angle(doc["a"]), parse_angle(doc["b"]))


def record_to_json(rec: "ComajorRecord") -> dict:
    return {
        "a": angle_str(rec.chord.a),
        "b": angle_str(rec.chord.b),
        "type": rec.ptype,
        "block": rec.block_period,
    }


def record_from_json(doc: dict) -> "ComajorRecord":
    from .builder import make_record

    return make_record(
        Chord(parse_angle(doc["a"]), parse_angle(doc["b"])),
        ptype=doc["type"],
        block=doc["block"],
    )


def records_to_json(records: Iterable["ComajorRecord"]) -> str:
    return json.dumps([record_to_json(r) for r in records], indent=0) + "\n"


def records_from_json(text: str) -> list["ComajorRecord"]:
    return [record_from_json(doc) for doc in json.loads(text)]


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
    `Prelamination.pairs`.  Every string in the document is a fraction
    'p/q', which JSON never escapes, so the text is assembled directly
    rather than by the much slower indenting encoder; the tests hold it
    to `json.dumps`.
    """
    strs = zip(grid_angle_strs(pairs[:, 0], modulus), grid_angle_strs(pairs[:, 1], modulus))
    items = ",\n".join(_chord_text(a, b) for a, b in strs)
    listed = f"[\n{items}\n]" if items else "[]"
    seed_text = _chord_text(angle_str(seed.a), angle_str(seed.b))
    return f'{{\n"seed": {seed_text},\n"depth": {depth},\n"chords": {listed}\n}}\n'


def _chord_text(a: str, b: str) -> str:
    return f'{{\n"a": "{a}",\n"b": "{b}"\n}}'


def chords_from_json(text: str) -> list[Chord]:
    """Read chords from a record array, a prelamination document, or a bare chord list."""
    doc = json.loads(text)
    if isinstance(doc, dict) and "chords" in doc:
        doc = doc["chords"]
    return [chord_from_json(item) for item in doc]
