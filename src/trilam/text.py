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


def rows_bytes(m: int, parts: Sequence[tuple[Union[slice, np.ndarray], str, list]]) -> bytes:
    """The bytes of m rows: each (rows, template, fields) part writes `template % fields` into
    its rows, a slice or index array of the m, each field a (len(rows), w) uint8 matrix."""
    parts = [(rows, [np.frombuffer(p.encode(), np.uint8) for p in _FIELD.split(template)],
              fields) for rows, template, fields in parts]
    out = np.empty((m, max(sum(col.shape[-1] for col in chain(pieces, fields))
                           for _, pieces, fields in parts)), np.uint8)
    for rows, pieces, fields in parts:  # no pad or copy of a row block: each column in place
        at = 0
        for col in chain.from_iterable(zip_longest(pieces, fields)):
            if col is not None:
                out[rows, at:at + col.shape[-1]] = col
                at += col.shape[-1]
        out[rows, at:] = 0
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
    last = out[:, -1]
    last[last == 0] = ord("0") << 24  # x = 0
    return out.view(np.uint8).reshape(*shape, 4 * out.shape[1])


_SPLIT = 2.0**27 + 1  # Veltkamp's splitter: float64 halves of 26 bits multiply exactly
_HI12, _LO12 = 999999995904.0, 4096.0  # the halves of 1e12


def fixed12(x: np.ndarray) -> np.ndarray:
    """'%.12f' % v of each float64 v of x, as NUL-padded ASCII of shape x.shape + (width,).

    Below 2^52 / 10^12, Dekker's two-product gives the error of v * 1e12
    and so v * 10^12 rounded half to even, written four digits at a time;
    any other value (-0.0, < 0, large, inf or nan) goes through `%`.
    """
    shape, x = x.shape, x.ravel()
    fast = (x < 2**52 / 10**12) & ~np.signbit(x)
    v = np.where(fast, x, 0.0)
    y, c = v * 1e12, _SPLIT * v
    hi = c - (c - v)
    lo = v - hi
    e = ((hi * _HI12 - y) + hi * _LO12 + lo * _HI12) + lo * _LO12  # Dekker: v * 10**12 == y + e
    k = y.astype(np.int64)  # floor(y), as y >= 0
    d = (y - k) - 0.5
    k += (d > -e) | ((d == -e) & ((k & 1) == 1))  # v * 10**12 rounded half to even
    # 5 words: whole part without leading zeros, ".", 3 groups of 4 decimals
    out = np.full((len(x), 5), ord("."), "<u4")
    for j in (4, 3, 2):
        out[:, j] = _GROUPS[k % 10**4]
        k //= 10**4
    out[:, 0] = digits(k).view("<u4")[:, 0]
    out = out.view(np.uint8)
    if not fast.all():
        words = np.array(["%.12f" % v for v in x[~fast].tolist()], "S")
        out = np.pad(out, ((0, 0), (max(20, words.itemsize) - 20, 0)))
        out[~fast] = words.astype(f"S{out.shape[1]}").view(np.uint8).reshape(len(words), -1)
    return out.reshape(*shape, -1)
