"""The one text engine of chord documents, for `formats` (JSON, CSV) and `render` (SVG).

A slice of m records is one (m, width) uint8 matrix: a %-template's
literal pieces between its fields, each field ASCII padded with NULs.
Dropping the NULs (no JSON, CSV or XML text holds one) leaves each row's
`template % fields`.  Ints and floats are written from one table of the
four-digit groups 0000..9999: `digits` and `fixed12`.
"""

from __future__ import annotations

import re
from itertools import chain, zip_longest
from typing import Iterable, Sequence, Union

import numpy as np

_FIELD = re.compile(r"%(?:s|d|\.12f)")
# 0000..9999 in ASCII, a uint32 each (made in uint16: small temporaries at import)
_GROUPS = (48 + np.arange(10**4, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1],
           np.uint16) % 10).astype(np.uint8).view("<u4").ravel()
# the groups without their leading zeros (0 without a digit), then the groups in full
_LEADING = np.arange(10**4, dtype=np.uint16)[:, None] < np.array([1000, 100, 10, 1], np.uint16)
_TRIM = np.concatenate([np.where(_LEADING, 0, _GROUPS.view(np.uint8).reshape(-1, 4))
                        .view("<u4").ravel(), _GROUPS])


def joined(chunks: Iterable[bytes]) -> str:
    """The text of a document's byte chunks, each appended as it comes: none outlives its turn."""
    text = bytearray()
    for chunk in chunks:
        text += chunk
    return text.decode()


def pieces(template: str) -> list[np.ndarray]:
    """The literal pieces of a %-template between its fields, as uint8 arrays."""
    return [np.frombuffer(p.encode(), np.uint8) for p in _FIELD.split(template)]


def rows_bytes(m: int, parts: Sequence[tuple[Union[slice, np.ndarray], list, list]]) -> bytes:
    """The bytes of m rows: each (rows, pieces, fields) part writes a template's `pieces` and
    its fields, each a (len(rows), w) uint8 matrix, into its rows, a slice or index array."""
    width = max(sum(col.shape[-1] for col in chain(pieces, fields)) for _, pieces, fields in parts)
    out = np.empty((m, width), np.uint8)
    for rows, pieces, fields in parts:  # the template's row, NULs for its fields, then each field
        row, starts, at = np.zeros(width, np.uint8), [], 0
        for piece, field in zip_longest(pieces, fields):
            row[at:at + len(piece)] = piece
            starts.append(at + len(piece))
            at = starts[-1] + (field.shape[-1] if field is not None else 0)
        out[rows] = row
        for at, field in zip(starts, fields):
            out[rows, at:at + field.shape[-1]] = field
    return out.tobytes().translate(None, b"\0")


def digits(v: np.ndarray) -> np.ndarray:
    """`'%d' % x` of each int x >= 0 of v, as NUL-padded ASCII of shape v.shape + (width,)."""
    shape = v.shape
    try:
        v = v.ravel().astype(np.int64, copy=False)
    except OverflowError:  # past int64: a `%` per value
        words = np.array([b"%d" % x for x in v.ravel().tolist()], "S")
        return words.view(np.uint8).reshape(*shape, words.itemsize)
    out = np.empty((len(v), -(-len(str(v.max(initial=0))) // 4)), "<u4")
    for j in range(out.shape[1] - 1, -1, -1):  # a group is written in full after a digit
        q = v // 10**4
        out[:, j] = _TRIM[v - q * 10**4 + 10**4 * (q > 0)]
        v = q
    np.maximum(out[:, -1], ord("0") << 24, out=out[:, -1])  # x = 0: "0"
    return out.view(np.uint8).reshape(*shape, 4 * out.shape[1])


_SPLIT = 2.0**27 + 1  # Veltkamp's splitter: float64 halves of 26 bits multiply exactly
_HI12, _LO12 = 999999995904.0, 4096.0  # the halves of 1e12
_POINT, _DIGIT = _GROUPS[:1000] - (ord("0") - ord(".")), _GROUPS[:10] >> 24  # ".ddd", "d"


def fixed12(x: np.ndarray) -> np.ndarray:
    """'%.12f' % v of each float64 v of x, as NUL-padded ASCII of shape x.shape + (width,).

    For 0 < v < 2^52 / 10^12, v * 10^12 rounds half to even as y = v * 1e12
    does, or where y is halfway between ints, to the side of the error e of y
    (Dekker's two-product), written a group of digits at a time; any other
    value (0.0, -0.0, < 0, large, inf or nan) goes through `%`.
    """
    shape, x = x.shape, x.ravel()
    fast = (x > 0) & (x < 2**52 / 10**12)
    v = np.where(fast, x, 1.0)
    y = v * 1e12
    k = np.rint(y)  # y < 2^52: y - k is exact; v * 10^12 rounds as y does unless y is a half
    tie = np.flatnonzero(np.abs(y - k) == 0.5)  # there, Dekker's two-product: v*10**12 == y+e
    v, y = v[tie], y[tie]
    hi = _SPLIT * v - (_SPLIT * v - v)
    lo = v - hi
    e = ((hi * _HI12 - y) + hi * _LO12 + lo * _HI12) + lo * _LO12
    k[tie] = np.where(e == 0, k[tie], y + np.copysign(0.5, e))
    k = k.astype(np.int64)
    out = np.empty((len(x), 5), "<u4")  # 17 bytes: whole (< 10^4), ".ddd", 2 groups, a digit
    for j, g, t in ((4, 10, _DIGIT), (3, 10**4, _GROUPS), (2, 10**4, _GROUPS), (1, 1000, _POINT)):
        q = k // g  # one // per group, no %
        out[:, j] = t[k - q * g]
        k = q
    out[:, 0] = np.maximum(_TRIM[k], ord("0") << 24)  # without leading zeros; "0" for 0
    out = np.ascontiguousarray(out.view(np.uint8)[:, :17])  # 17-byte rows; frees the 20-byte buffer
    if not fast.all():
        words = np.array(["%.12f" % v for v in x[~fast].tolist()], "S")
        out = np.pad(out, ((0, 0), (max(17, words.itemsize) - 17, 0)))
        out[~fast] = words.astype(f"S{out.shape[1]}").view(np.uint8).reshape(len(words), -1)
    return out.reshape(*shape, -1)
