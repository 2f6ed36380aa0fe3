"""JSON/CSV serialization for chords, comajor records and prelaminations.

Every chord document is written from grid rows, (lo, hi) ints on a
modulus n, by one text path, `_texts`: x/n is written (x/g)/(n/g) for
g = gcd(x, n) through `%d/%d` fields, so no `Fraction` or string is
built per angle.  Writers keep the order given, but `prelamination_to_json`
applies the short-arc key itself; `comajors` passes rows in
`BuildState.order`, and `records_to_json`/`records_to_csv` put records
on a grid first (`grid.rows_of`).  Documents are read back onto a grid
by one reader, `chords_from_json`, for `render --in` and `records_from_json`.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

import numpy as np

from .angles import angle_str, parse_fraction
from .chords import Chord
from .grid import rows_of, scale_of, short_arc_order

if TYPE_CHECKING:
    from .builder import ComajorRecord

__all__ = [
    "CSV_HEADER", "chord_to_json", "crossing_to_json", "records_to_json", "records_from_json",
    "records_to_csv", "rows_to_json", "rows_to_csv", "prelamination_to_json",
    "chords_from_json", "check_types",
]

CSV_HEADER = "a,b,type,block"
_SLICE = 4096  # rows written by one `%`
# the text of `json.dumps(doc, indent=0)`: JSON escapes no 'p/q', 'B' or 'D'
_JSON_CHORD = '{\n"a": "%d/%d",\n"b": "%d/%d"\n}'
_JSON_RECORD = '{\n"a": "%d/%d",\n"b": "%d/%d",\n"type": "%s",\n"block": %d\n}'


def chord_to_json(ch: Chord) -> dict:
    return {"a": angle_str(ch.a), "b": angle_str(ch.b)}


def crossing_to_json(first: Chord, second: Chord) -> dict:
    """The witness of a crossing pair of chords in a family that must be laminar."""
    return {"kind": "crossing", "first": chord_to_json(first), "second": chord_to_json(second)}


def records_to_json(records: Iterable["ComajorRecord"]) -> str:
    """The records as `rows_to_json` writes their rows, in the given order."""
    return rows_to_json(*_record_rows(records))


def records_to_csv(records: Iterable["ComajorRecord"]) -> str:
    """The records as `rows_to_csv` writes their rows, in the given order."""
    return rows_to_csv(*_record_rows(records))


def _record_rows(records: Iterable["ComajorRecord"]) -> tuple[np.ndarray, int, list, list]:
    records = list(records)
    ends = (v.as_integer_ratio() for r in records for v in r.chord.endpoints())
    return *rows_of(ends), [r.ptype for r in records], [r.block_period for r in records]


def rows_to_json(pairs: np.ndarray, n: int, types: Sequence[str], blocks: Sequence[int]) -> str:
    """The record array {"a", "b", "type", "block"} of (lo, hi) rows on n, in row order."""
    items = ",\n".join(_texts(_JSON_RECORD, ",\n", pairs, n, types, blocks))
    return f"[\n{items}\n]\n" if items else "[]\n"


def rows_to_csv(pairs: np.ndarray, n: int, types: Sequence[str], blocks: Sequence[int]) -> str:
    """The CSV table a,b,type,block of (lo, hi) rows on the grid of n, in row order."""
    return "".join([CSV_HEADER + "\n", *_texts("%d/%d,%d/%d,%s,%d\n", "", pairs, n, types, blocks)])


def _texts(template: str, sep: str, pairs: np.ndarray, n: int, *cols: list) -> Iterator[str]:
    """Per slice of rows, `template % (pa, qa, pb, qb, *col values)` of each (lo, hi) row,
    pa/qa and pb/qb its reduced angles on n, joined by sep: one gcd and one `%` a slice,
    no string or tuple kept per row."""
    for s in range(0, len(pairs), _SLICE):
        rows = pairs[s:s + _SLICE]
        g = np.gcd(rows, n)
        (pa, pb), (qa, qb) = (rows // g).T.tolist(), (n // g).T.tolist()
        fields = chain.from_iterable(zip(pa, qa, pb, qb, *(col[s:s + _SLICE] for col in cols)))
        yield sep.join([template] * min(_SLICE, len(pairs) - s)) % tuple(fields)


def records_from_json(text: str) -> list["ComajorRecord"]:
    """The records of a record array, read as `render --in` reads it, of types 'B' and 'D'."""
    from .builder import ComajorRecord

    doc = json.loads(text)
    pairs, n, types, blocks = chords_from_json(doc)
    if types is None and doc != []:
        raise ValueError("not a record array: its first item needs str 'type'")
    check_types(types or ())
    return [ComajorRecord(Chord.from_grid(p, n), t, b)
            for p, t, b in zip(pairs.tolist(), types or (), blocks or ())]


def check_types(types: Sequence[str]) -> Sequence[str]:
    """The record types, each 'B' or 'D'; others are refused by name."""
    bad = sorted(set(types) - {"B", "D"})
    if bad:
        raise ValueError(f"record types must be 'B' or 'D', got {bad}")
    return types


def prelamination_to_json(seed: Chord, depth: int, pairs: np.ndarray, modulus: int) -> str:
    """The prelamination document {"seed", "depth", "chords"} as `json.dumps(doc, indent=0)`.

    `pairs` are the (n, 2) int chords on the grid of `modulus`, such as
    `Prelamination.pairs`, in any order: they are written in short-arc
    order (`grid.short_arc_order`).
    """
    pairs = pairs.take(short_arc_order(pairs, modulus), 0)
    items = ",\n".join(_texts(_JSON_CHORD, ",\n", pairs, modulus))
    listed = f"[\n{items}\n]" if items else "[]"
    (seed_text,) = _texts(_JSON_CHORD, "", *rows_of(v.as_integer_ratio() for v in seed.endpoints()))
    return f'{{\n"seed": {seed_text},\n"depth": {depth},\n"chords": {listed}\n}}\n'


def chords_from_json(doc) -> tuple[np.ndarray, int, Optional[list[str]], Optional[list[int]]]:
    """Chords of a parsed record array, prelamination document or bare chord list, on a grid.

    Returns the (m, 2) pairs lo <= hi on the lcm n of the denominators as
    written (`grid.rows_of`), for `render_svg(pairs, modulus=n)`, and the
    types and blocks of a record array (its first item has a "type"),
    every item of which must carry a str type and an int block >= 1;
    other documents give None, None.
    """
    types = blocks = None
    if isinstance(doc, list) and doc and isinstance(doc[0], dict) and "type" in doc[0]:
        types = [_record_field(item, "type", str) for item in doc]
        blocks = [_record_field(item, "block", int) for item in doc]
    elif isinstance(doc, dict) and "chords" in doc:
        doc = doc["chords"]
    if not isinstance(doc, list):
        raise ValueError(f"expected a list of chords, got {doc!r}")
    try:  # the angles by columns; the per-string path names a bad item or holds n past int64
        text = np.empty(2 * len(doc), dtype=np.dtypes.StringDType(coerce=False))
        text[:] = [item[k] for item in doc for k in "ab"]  # refuses what is no str
        num, slash, den = np.strings.partition(text, np.array("/", dtype=text.dtype))
        del text
        den[slash == ""] = "1"
        p, q = num.astype(np.int64), den.astype(np.int64)
        del num, slash, den
        if (q <= 0).any():
            raise ValueError("a denominator below 1")
        n = scale_of((), *set(q.tolist()))
        pairs = (p % q * (n // q)).reshape(-1, 2)  # n // q overflows for n past int64
    except (KeyError, TypeError, ValueError, OverflowError):
        pairs, n = rows_of(end for item in doc for end in _fraction_ends(item))
    pairs.sort(axis=1)
    return pairs, n, types, blocks


def _record_field(item, key: str, kind: type):
    value = item.get(key) if isinstance(item, dict) else None
    if not isinstance(value, kind) or isinstance(value, bool):  # JSON true is no int block
        raise ValueError(f"record {item!r} needs {kind.__name__} {key!r}")
    if kind is int and value < 1:
        raise ValueError(f"record {item!r} needs {key!r} >= 1")
    return value


def _fraction_ends(doc: dict) -> tuple[tuple[int, int], tuple[int, int]]:
    """The parsed endpoints (p, q) of a chord {"a", "b"}."""
    try:
        return parse_fraction(doc["a"]), parse_fraction(doc["b"])
    except (AttributeError, KeyError, TypeError):
        raise ValueError(f"not a chord {{\"a\", \"b\"}}: {doc!r}") from None
