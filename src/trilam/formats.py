"""JSON/CSV serialization for chords, comajor records and prelaminations.

Every chord document is written from grid rows, (lo, hi) ints on a
modulus n, as byte chunks of 4,096 rows (`rows_chunks`,
`prelamination_chunks`; the str writers join them): x/n is written
(x/g)/(n/g), g = gcd(x, n), by the text engine (`trilam.text`), so no
`Fraction` or string is built per angle.  Writers keep the order given,
but `prelamination_to_json` applies the short-arc key itself.  One
function, `chords_from_json`, puts documents back on a grid by one of two
readers: raw bytes in the writers' layout by regexes made from their
templates and a parse of their ints in C; any other document as
`json.loads` parses it, then `parse_fraction` an angle, which defines the
syntax.  Records convert to and from rows in `builder`.
"""

from __future__ import annotations

import json
import re
from contextlib import suppress
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .angles import parse_fraction
from .builder import ComajorRecord, check_types, records_to_rows, rows_to_records
from .chords import Chord, chord_to_json, crossing_to_json
from .grid import rows_of, scale_of, short_arc_order
from .text import digits, joined, pieces, rows_bytes

__all__ = [
    "CSV_HEADER", "chord_to_json", "crossing_to_json", "records_to_json", "records_from_json",
    "records_to_csv", "rows_to_json", "rows_to_csv", "rows_chunks", "prelamination_to_json",
    "prelamination_chunks", "chords_from_json", "check_types",
]

CSV_HEADER = "a,b,type,block"
_SLICE = 4096  # rows a byte matrix and a chunk
_READ = 512  # chords a regex match: `re` keeps a frame per repeat of its group
# the text of `json.dumps(doc, indent=0)`, each %s a field's ASCII: JSON escapes no 'p/q',
# 'B' or 'D'.  The reader's regexes are these templates, escaped, with a regex per field
_JSON_CHORD = '{\n"a": "%s/%s",\n"b": "%s/%s"\n}'
_JSON_RECORD = '{\n"a": "%s/%s",\n"b": "%s/%s",\n"type": "%s",\n"block": %s\n}'
_JSON_HEAD = '{\n"seed": %s,\n"depth": %s,\n"chords": '  # then the chord list, "\n}\n"
_CSV_RECORD = "%d/%d,%d/%d,%s,%d\n"
_INTS = re.sub(rb"\D", b" ", bytes.maketrans(b"BD", b"12"))  # translate: digits kept, B/D 1/2
_ENDS = ("[0-9]{1,18}",) * 4  # p/q twice, each fitting int64
_CHORD = re.escape(_JSON_CHORD) % _ENDS
_RECORD = re.escape(_JSON_RECORD) % (*_ENDS, "[BD]", "[1-9][0-9]{0,17}")  # a JSON int block >= 1
_HEAD = re.escape(_JSON_HEAD + "[\n") % (_CHORD, "(?:0|[1-9][0-9]{0,17})")  # a JSON int depth
# per non-empty layout: (head, _READ items then ",\n" (group 1) or the end, ints an item)
_LAYOUTS = [(re.compile(head.encode()), re.compile(
    f"{item}(?:,\n{item}){{0,{_READ - 1}}}(?:(,\n)|{re.escape(end)}\\Z)".encode()), width)
    for head, item, end, width in [(_HEAD, _CHORD, "\n]\n}\n", 4), ("\\[\n", _RECORD, "\n]\n", 6)]]


def records_to_json(records: Iterable[ComajorRecord]) -> str:
    """The records as `rows_to_json` writes their rows (`builder.records_to_rows`), in order."""
    return rows_to_json(*records_to_rows(records))


def records_to_csv(records: Iterable[ComajorRecord]) -> str:
    """The records as `rows_to_csv` writes their rows (`builder.records_to_rows`), in order."""
    return rows_to_csv(*records_to_rows(records))


def rows_to_json(pairs: np.ndarray, n: int, types: Sequence[str], blocks: Sequence[int]) -> str:
    """The record array {"a", "b", "type", "block"} of (lo, hi) rows on n, in row order."""
    return joined(rows_chunks("json", pairs, n, types, blocks))


def rows_to_csv(pairs: np.ndarray, n: int, types: Sequence[str], blocks: Sequence[int]) -> str:
    """The CSV table a,b,type,block of (lo, hi) rows on the grid of n, in row order."""
    return joined(rows_chunks("csv", pairs, n, types, blocks))


def rows_chunks(fmt: str, pairs: np.ndarray, n: int, types: Sequence[str],
                blocks: Sequence[int]) -> Iterator[bytes]:
    """`rows_to_json` ("json") or `rows_to_csv` ("csv") of the rows, as byte chunks."""
    if fmt == "csv":
        yield CSV_HEADER.encode() + b"\n"
        yield from _rows(_CSV_RECORD, "", pairs, n, types, blocks)
    else:
        yield b"[\n" if len(pairs) else b"[]\n"
        yield from _rows(_JSON_RECORD, ",\n", pairs, n, types, blocks)
        yield b"\n]\n" if len(pairs) else b""


def _rows(template: str, sep: str, pairs: np.ndarray, n: int, types: Sequence[str] = (),
          blocks: Sequence[int] = ()) -> Iterator[bytes]:
    """Per slice of rows, the bytes of `template % (pa, qa, pb, qb[, type, block])` of each
    (lo, hi) row, pa/qa and pb/qb its reduced angles on n, each but the first after sep."""
    text = pieces(sep + template)
    for s in range(0, len(pairs), _SLICE):
        rows = pairs[s:s + _SLICE]
        g = np.gcd(rows, n)
        (pa, pb), (qa, qb) = digits(rows // g).transpose(1, 0, 2), digits(n // g).transpose(1, 0, 2)
        fields = [pa, qa, pb, qb]
        if len(types):
            t = np.asarray(types[s:s + _SLICE], "S")
            fields += [t.view(np.uint8).reshape(len(t), -1), digits(np.asarray(blocks[s:s + _SLICE]))]
        chunk = rows_bytes(len(rows), [(slice(None), text, fields)])
        yield chunk[len(sep):] if s == 0 else chunk


def records_from_json(text: str) -> list[ComajorRecord]:
    """The records of a record array, read as `render --in` reads it, of types 'B' and 'D'."""
    doc = json.loads(text)
    pairs, n, types, blocks = chords_from_json(doc)
    if types is None and doc != []:
        raise ValueError("not a record array: its first item needs str 'type'")
    return rows_to_records(pairs, n, check_types(types or ()), blocks or ())


def prelamination_to_json(seed: Chord, depth: int, pairs: np.ndarray, modulus: int) -> str:
    """The prelamination document {"seed", "depth", "chords"} as `json.dumps(doc, indent=0)`.

    `pairs` are the (n, 2) int chords on the grid of `modulus`, such as
    `Prelamination.pairs`, in any order: they are written in short-arc
    order (`grid.short_arc_order`).
    """
    return joined(prelamination_chunks(seed, depth, pairs, modulus))


def prelamination_chunks(seed: Chord, depth: int, pairs: np.ndarray,
                         modulus: int) -> Iterator[bytes]:
    """`prelamination_to_json`'s document as byte chunks."""
    pairs = pairs.take(short_arc_order(pairs, modulus), 0)
    (seed_text,) = _rows(_JSON_CHORD, "", *rows_of(v.as_integer_ratio() for v in seed.endpoints()))
    yield _JSON_HEAD.encode() % (seed_text, b"%d" % depth) + (b"[\n" if len(pairs) else b"[]")
    yield from _rows(_JSON_CHORD, ",\n", pairs, modulus)
    yield b"\n]\n}\n" if len(pairs) else b"\n}\n"


def chords_from_json(doc) -> tuple[np.ndarray, int, Optional[list[str]], Optional[list[int]]]:
    """Chords of a record array, prelamination document or bare chord list, on a grid.

    `doc` is raw bytes, read unparsed in the writers' layout, or a parsed document.
    Returns the (m, 2) pairs lo <= hi on the lcm n of the denominators as
    written (`grid.rows_of`), for `render_svg(pairs, modulus=n)`, and the
    types and blocks of a record array (its first item has a "type"),
    every item of which must carry a str type and an int block >= 1;
    other documents give None, None.
    """
    if isinstance(doc, bytes):
        with suppress(ValueError):  # off the writers' layout, parsed as any other document
            return _read_layout(doc)
        doc = json.loads(doc)
    types = blocks = None
    if isinstance(doc, list) and doc and isinstance(doc[0], dict) and "type" in doc[0]:
        types = [_record_field(item, "type", str) for item in doc]
        blocks = [_record_field(item, "block", int) for item in doc]
    elif isinstance(doc, dict) and "chords" in doc:
        doc = doc["chords"]
    if not isinstance(doc, list):
        raise ValueError(f"expected a list of chords, got {doc!r}")
    pairs, n = rows_of(end for item in doc for end in _fraction_ends(item))
    pairs.sort(axis=1)
    return pairs, n, types, blocks


def _read_layout(data: bytes):
    """`chords_from_json` of a non-empty document in the writers' layout, or a ValueError."""
    head, items, width = _LAYOUTS[data[:1] == b"["]
    match, matches = head.match(data), []
    while match and (match.lastindex or not matches):  # up to the match that ends the document
        if match := items.match(data, match.end()):
            matches.append(match)
    if match is None:
        raise ValueError("not the writers' layout")
    ends = np.concatenate([np.fromstring(m[0].translate(_INTS), np.int64, sep=" ")
                           for m in matches]).reshape(-1, width)
    if width == 4:
        return *_grid(ends), None, None
    return *_grid(ends), [" BD"[t] for t in ends[:, 4].tolist()], ends[:, 5].tolist()


def _grid(ends: np.ndarray) -> tuple[np.ndarray, int]:
    """The sorted rows of the writers' chords pa/qa, pb/qb in the first 4 columns of `ends`, on
    the lcm n of their denominators.  A ValueError for a q of 0 or n >= 2^63."""
    p, q = ends[:, 0:4:2], ends[:, 1:4:2]
    n, rest = 1, q.ravel()
    while len(rest):  # fold in a q that n misses: n at least doubles, so at most 63 folds
        if not rest.all() or (n := scale_of((), n, int(rest[0]))) >= 2**63:  # q = 0 before any %
            raise ValueError("not on the writers' grid")
        rest = rest[n % rest != 0]
    a, b = (p % q * (n // q)).T
    return np.column_stack([np.minimum(a, b), np.maximum(a, b)]), n


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
