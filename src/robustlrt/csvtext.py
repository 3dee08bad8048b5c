"""Text of a result table's values, exact in both output formats: CSV rows,
each value as `typed` formats it and every float as '%.17g' writes it, and
the items of a JSON column as json.dumps writes them, every float as repr
writes it.

A CSV table of _MIN_CELLS cells or more, or a JSON column of as many
values, is formatted a block of cells at a time in whole-array numpy
passes; a smaller one by the per-row loop or the C encoder, which are
faster there.  Both float texts start from the decimal exponent X of |v|
and P = |v|·10^(16-X) in [1e16, 1e17), computed as a double-double
product: 10^s is stored as (hi + lo)·2^e2, built from exact integers the
first time it is needed, and Dekker's split gives the product with hi
exactly.  No big-integer arithmetic is needed (Ryu printf, Adams, OOPSLA
2019).  '%.17g' rounds P half-even to 17 digits.  repr writes the fewest
digits that read back as v (Grisu, Loitsch, PLDI 2010; Ryu, Adams, PLDI
2018): P ± half a spacing of the doubles next to v bounds the integers
that read back, and the one with the most trailing zeros, the nearer of
two, gives the digits.  Each cell's bytes then go into fixed slots, NUL
where a slot is empty, and the NULs are packed out.  A value whose digits
the product's error bound cannot settle is formatted alone, by '%.17g' or
by repr.
"""

from __future__ import annotations

import functools
import itertools
import json
import math

import numpy as np

__all__ = ["typed", "rows", "json_items"]


def typed(values) -> tuple:
    """Python scalars of one column (or meta value) and its %-format, read
    once from the dtype: strings as is, ints and bools as integers, the
    rest as %.17g floats, which round-trip exactly."""
    # a Python float, or a list of them, comes back from numpy as it went in
    if type(values) is float or type(values) is list and all(type(x) is float for x in values):
        return values, "%.17g"
    arr = np.asarray(values)
    kind = arr.dtype.kind
    return arr.tolist(), "%s" if kind == "U" else "%d" if kind in "biu" else "%.17g"


# below this many cells the per-value loop is faster than the passes' fixed
# cost; measured break-even: 430 cells for a 9-column solution table, 750 for
# a 4-column surface table
_MIN_CELLS = 600
# cells formatted per pass; keeps each temporary array under 128 KB
_BLOCK = 4096
# where 10^s is not a double, the computed x·10^s in [1e16, 1e17) is within
# 2^-46 of the exact one; a value closer than this margin to a rounding tie,
# to 1e16 or to 1e17 goes to '%.17g'
_MARGIN = 2.0 ** -36
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitting constant
_S0 = 300  # entry s + _S0 of the power table holds 10^s, s in [-300, 349]


class _Pow10:
    """10^s as (hi + lo)·2^e2, hi near [0.5, 1) with its Dekker halves, each
    entry built from exact integers the first time a value needs it."""

    def __init__(self):
        n = 650
        self.hi, self.head, self.tail, self.lo = np.zeros((4, n))
        self.e2 = np.zeros(n, dtype=np.int64)
        self.ready = np.zeros(n, dtype=bool)

    def take(self, rows):
        if not self.ready[rows].all():
            for r in set(rows[~self.ready[rows]].tolist()):
                self._build(r)
        return [t.take(rows) for t in (self.hi, self.head, self.tail, self.lo, self.e2)]

    def _build(self, r):
        s = r - _S0
        num, den = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
        # mant·2^-q is within half a unit of 10^s, and mant has 106 or 107 bits
        q = 106 - num.bit_length() + den.bit_length()
        if q >= 0:
            mant = ((num << q) + den // 2) // den
        else:
            mant = (num + (1 << (-q - 1))) >> -q
        hi = float(mant)
        head = hi * _SPLIT
        head -= head - hi
        b = mant.bit_length()
        self.hi[r], self.head[r], self.tail[r], self.lo[r] = (
            math.ldexp(x, -b) for x in (hi, head, hi - head, float(mant - int(hi))))
        self.e2[r] = b - q
        self.ready[r] = True


@functools.cache
def _pow10() -> _Pow10:
    return _Pow10()


def _scaled(m, ex, k):
    """x·10^(16-k) for x = m·2^ex, as big + t: big the rounded product of m
    and hi (an integer past 2^53), t the rest."""
    hi, head, tail, lo, e2 = _pow10().take(16 + _S0 - k)
    mh = m * _SPLIT
    mh -= mh - m
    ml = m - mh
    p = m * hi
    err = ((mh * head - p) + mh * tail + ml * head) + ml * tail
    err += m * lo
    scale = ((ex + e2 + 1023) << 52).view(np.float64)  # 2^(ex + e2)
    p *= scale
    err *= scale
    return p, err


def _product(v):
    """(big, t, k, m, ex, margin, zero, slow) of float64 values v: |v| =
    m·2^ex (m in [0.5, 1), frexp's split) has decimal exponent k, and
    |v|·10^(16-k) = big + t lies in [1e16, 1e17) within margin, 0 where
    10^(16-k) is a double and the product exact.  slow marks inf, NaN and
    the values too close to 1e16 or 1e17 to certify k; zeros and these are
    scaled as 1.0."""
    a = np.abs(v)
    zero = a == 0.0
    slow = ~np.isfinite(a)
    a[zero | slow] = 1.0
    m, ex = np.frexp(a)
    k = np.floor(np.log10(a)).astype(np.int64)
    big, t = _scaled(m, ex, k)
    d16 = big - 1e16 + t
    d17 = big - 1e17 + t
    # log10 may miss by one next to a power of ten: redo those with k moved
    off = np.flatnonzero((d16 < 0.0) | (d17 >= 0.0))
    if off.size:
        k[off] += np.where(d16[off] < 0.0, -1, 1)
        big[off], t[off] = _scaled(m[off], ex[off], k[off])
        d16[off] = big[off] - 1e16 + t[off]
        d17[off] = big[off] - 1e17 + t[off]
    # the product is exact where 10^s is a double, s = 16 - k in [0, 22]
    margin = ((k > 16) | (k < -6)) * _MARGIN
    slow |= (d16 < margin) | (d17 >= -margin)
    return big, t, k, m, ex, margin, zero, slow


def _decimal(v):
    """(N, X, slow) of float64 values v: |v| rounds half-even to N·10^(X-16)
    with N a 17-digit integer (N = X = 0 for zeros), except where slow: inf,
    NaN and the values the arithmetic cannot certify."""
    big, t, k, _, _, margin, zero, slow = _product(v)
    # big is even past 2^53, so rounding t half-even rounds big + t half-even
    r = np.rint(t)
    n = big.astype(np.int64) + r.astype(np.int64)
    slow |= np.abs(t - r) > 0.5 - margin
    slow |= n == 10 ** 17  # rounded up to 10^17: rare enough to leave to '%.17g'
    n[zero] = 0
    k[zero] = 0
    return n, k, slow


_TENS = 10 ** np.arange(18, dtype=np.int64)


def _shortest(v):
    """(N, X, slow) of float64 values v: N·10^(X-16) is the decimal with the
    fewest digits that reads back as |v|, the one nearest |v| where two
    have as few, N a 17-digit integer with trailing zeros (N = X = 0 for
    zeros); this is repr's choice.  slow marks inf, NaN and the values whose
    digits the arithmetic cannot certify."""
    big, t, k, m, ex, margin, zero, slow = _product(v)
    whole = np.floor(t)
    frac = t - whole
    whole = big.astype(np.int64) + whole.astype(np.int64)
    # P = whole + frac = |v|·10^(16-k) reads back as |v| within half a
    # spacing of the doubles next to |v|: 2^(e-1)·10^(16-k), e = ex - 53 or,
    # below the normal range, -1074, and below a power of two half as wide
    rows, p10 = 16 + _S0 - k, _pow10()
    scale = (np.maximum(ex - 53, -1074) + p10.e2[rows] + 1022) << 52  # 2^(e - 1 + e2)
    half = p10.hi[rows] * scale.view(np.float64)
    low = frac - np.where((m == 0.5) & (ex > -1021), 0.5 * half, half)
    first, last = np.ceil(low), np.floor(frac + half)
    # the error of P, of half and of the sums
    err = margin + half * 2.0 ** -48
    edge = 0.5 - err
    near = np.flatnonzero((np.abs(first - low - 0.5) >= edge)
                          | (np.abs(frac + half - last - 0.5) >= edge))
    if near.size:
        # an end this close to an integer, exactly on one included, goes to
        # repr, except where the product is exact and half an integer: then
        # so are P and both ends, and an end reads back as |v| where the
        # mantissa is even, as round-half-even reads it
        exact = (margin[near] == 0.0) & (half[near] == np.rint(half[near]))
        slow[near[~exact]] = True
        odd = near[exact & (v[near].view(np.uint64) & 1 == 1)]
        first[odd] += first[odd] == low[odd]
        last[odd] -= last[odd] == frac[odd] + half[odd]
    first = whole + first.astype(np.int64)
    last = whole + last.astype(np.int64)
    # d, the most trailing zeros of an integer in [first, last]: a multiple
    # of 10^(j+1) is one of 10^j, so the j with one in reach run from 0 to d.
    # Most values stop below 2; bisect for the rest
    width = last - first
    d = (last % 10 <= width).astype(np.int64)
    deep = last % 100 <= width
    d += deep
    deep = np.flatnonzero(deep)
    if deep.size:
        top, width = last[deep], width[deep]
        lo, hi = np.full(deep.size, 2), np.full(deep.size, 18)
        for _ in range(4):
            mid = (lo + hi) >> 1
            fits = top % _TENS[mid] <= width
            lo = np.where(fits, mid, lo)
            hi = np.where(fits, hi, mid)
        d[deep] = lo
    # the multiple of 10^d nearest P, a tie to repr; the interval is
    # symmetric about P but below a power of two, where the lower one may
    # not fit
    step = _TENS[d]
    r = whole % step
    down = r + frac
    up = step - down
    slow |= np.abs(up - down) <= 2.0 * err
    n = whole - r + (up < down) * step
    n += (n < first) * step
    carry = n == 10 ** 17
    n[carry] = 10 ** 16
    k += carry
    n[zero | slow] = 0
    k[zero] = 0
    return n, k, slow


# A float cell is 32 bytes: the sign and the "0.000" of 1e-4 <= |v| < 1
# (bytes 0-7), the digits with the point after digit q (bytes 8-25), the
# exponent in e-notation (bytes 26-30) and the separator (byte 31).  Which
# bytes come from where depends on the value's form f, its count nd of digits
# up to the last nonzero one, and its sign: f = -X - 1 (0-3) for
# 1e-4 <= |v| < 1, f = 4 + q (q = X) in positional form and f = 21 (q = 0)
# in e-notation.
_WIDTH = 32
_X0 = 330  # entry X + _X0 of the form and exponent tables holds the exponent X


@functools.cache
def _cell_tables(as_json: bool):
    """Tables of cell bytes, viewed as words of 4 or 8 bytes so that they
    line up with the cells on either byte order; as_json for repr's text,
    which takes e-notation from X = 16 on, not 17, and ends a whole number
    in positional form in ".0".

    quads: the four ASCII digits of each g < 10^4, then each digit d with
    three NULs (10^4 + d), then four NULs.  ends[k][g]: the count of digits up
    to g's last nonzero one, g the k-th group of the 17 digits (4, 4, 4, 4
    and 1 digits; 0 when g is 0).  form and suffix by X + _X0: the form, and
    the cell's last word ("e+XX" from byte 26 in e-notation).  cur, prev and
    own by (f 18 + nd) 2 + sign: masks of the cell bytes taken from the
    digits and from the digits one byte on, and the cell's own bytes."""
    g = np.arange(10 ** 4, dtype=np.int16)
    chars = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1).astype(np.uint8)
    ones = b"".join(b"%d\0\0\0" % d for d in range(10)) + b"\0" * 4
    quads = np.concatenate([(chars + 48).view(np.uint32).ravel(),
                            np.frombuffer(ones, dtype=np.uint32)])
    sig = 4 - sum((g % d == 0).astype(np.uint8) for d in (10, 100, 1000, 10000))
    ends = np.zeros((5, quads.size), dtype=np.uint8)
    ends[:4, :g.size] = np.where(g > 0, np.arange(0, 16, 4, dtype=np.uint8)[:, None] + sig, 0)
    ends[4, g.size + 1:g.size + 10] = 17
    x = np.arange(-_X0, _X0 + 1)
    sci = (x < -4) | (x > 16 - as_json)
    form = np.where(sci, 21, np.where(x < 0, -1 - x, x + 4))
    suffix = [b"\0\0e%+03d" % e if e_form else b"" for e, e_form in zip(x.tolist(), sci)]
    f, nd, neg = (a.ravel()[:, None] for a in np.indices((22, 18, 2), dtype=np.int8))
    q = np.where(f == 21, 0, f - 4)
    j = np.arange(-8, _WIDTH - 8, dtype=np.int8)  # byte j of the digits, after 8 prefix bytes
    cur = (j >= 0) & (j <= q)
    prev = (j > q + 1) & (j <= nd)
    whole = as_json & (f >= 4) & (f < 21) & (nd <= q + 1)
    own = np.where((j == q + 1) & (q >= 0) & ((q + 1 < nd) | whole), np.uint8(ord(".")),
                   np.where(whole & (j == q + 2), np.uint8(ord("0")), np.uint8(0)))
    prefix = np.array([b"-"[:s] + (b"0." + b"0" * i if i < 4 else b"")
                       for i in range(22) for s in (0, 1)], dtype="S8")
    own[:, :8] = prefix.view(np.uint8).reshape(-1, 8)[2 * f[:, 0] + neg[:, 0]]
    words = lambda a: np.ascontiguousarray(a, dtype=np.uint8).view(np.uint64)
    return (quads, ends, form, np.array(suffix, dtype="S8").view(np.uint64),
            words(cur * 255), words(prev * 255), words(own))


def _float_cells(v, as_json):
    """The text of the float64 values v in cells of _WIDTH bytes, NUL where
    empty and at the separator: '%.17g', or as_json what json.dumps
    writes, repr with NaN as null and +-inf as Infinity and -Infinity."""
    quads, ends, form, suffix, cur, prev, own = _cell_tables(as_json)
    n, x, slow = (_shortest if as_json else _decimal)(v)
    # words of none, none, the digits in groups of 4, 4, 4, 4 and 1, none
    digits = np.zeros((v.size, 8), dtype=np.uint32)
    nd = np.ones(v.size, dtype=np.uint8)
    for i, p in enumerate((10 ** 13, 10 ** 9, 10 ** 5, 10)):
        g = n // p
        n -= g * p
        digits[:, i + 2] = quads[g]
        np.maximum(nd, ends[i][g], out=nd)
    n += 10 ** 4
    digits[:, 6] = quads[n]
    np.maximum(nd, ends[4][n], out=nd)
    digits = digits.view(np.uint64)
    x += _X0
    code = (form[x] * 18 + nd) * 2 + np.signbit(v)
    raw = digits.view(np.uint8).ravel()
    shifted = np.empty_like(raw)
    shifted[0] = 0
    shifted[1:] = raw[:-1]
    cells = digits & cur.take(code, axis=0)
    cells |= shifted.view(np.uint64).reshape(-1, 4) & prev.take(code, axis=0)
    cells |= own.take(code, axis=0)
    cells[:, 3] |= suffix[x]
    out = cells.view(np.uint8)
    i = np.flatnonzero(slow)
    if i.size:
        fmt = (lambda f: _JSON.encode(None if f != f else f)) if as_json else "%.17g".__mod__
        text = np.array([fmt(f) for f in v[i].tolist()], dtype="S31")
        out[i, :31] = text.view(np.uint8).reshape(i.size, 31)
    return out


def rows(columns: dict) -> str:
    """The data rows of a CSV table, a line per row, each value as `typed`
    formats it.  Columns of different lengths raise ValueError."""
    cells = sum(map(len, columns.values()))
    if cells and cells >= _MIN_CELLS:
        arrays = [np.asarray(v) for v in columns.values()]
        if len({a.shape[0] for a in arrays}) > 1:
            raise _ragged(columns)
        blocks = _passes(arrays, False)
        if blocks is not None:
            return "".join(blocks)
    cols = [typed(v) for v in columns.values()]
    template = ",".join(f for _, f in cols) + "\n"
    lines = [template % row for row in zip(*(v for v, _ in cols))]
    # zip stops at the shortest column
    if len(lines) * len(cols) != cells:
        raise _ragged(columns)
    return "".join(lines)


# json.dumps takes its pure-Python encoder for any indent, so the JSON text
# is laid out here: a small column goes through the C encoder in one call,
# with the item separator indent=1 puts between the items of a list at
# depth 3
_ITEM_SEP = ",\n   "
_JSON = json.JSONEncoder(separators=(_ITEM_SEP, ": "))


def json_items(values) -> str:
    """The items of one column as json.dumps(..., indent=1) writes them in
    a list at depth 3, separated by ",\n   ": floats by repr with NaN as
    null and +-inf as Infinity and -Infinity, bools as true and false, each
    item as `typed` reads it."""
    if len(values) >= _MIN_CELLS:
        blocks = _passes([np.asarray(values)], True)
        if blocks is not None:
            blocks[-1] = blocks[-1][:-len(_ITEM_SEP)]
            return "".join(blocks)
    items, fmt = typed(values)
    if fmt == "%.17g":
        items = [None if x != x else x for x in items]
    return _JSON.encode(items)[1:-1]


def _passes(arrays, as_json):
    """The text of the rows of columns of one length, a string per block of
    cells, each row ending in a newline or, as_json, in the item separator;
    None where a column is of a kind the passes do not take."""
    if not all(a.dtype.kind in "fbiuU" for a in arrays):
        return None
    # each distinct int or string of a column is formatted once
    texts = {}
    for i, a in enumerate(arrays):
        if a.dtype.kind != "f":
            uniq, inverse = _distinct(a)
            fmt = _JSON.encode if as_json else ("%s" if a.dtype.kind == "U" else "%d").__mod__
            texts[i] = inverse, [fmt(u).encode() for u in uniq.tolist()]
    # a NUL inside a string would be packed out
    if any(b"\0" in t for _, strs in texts.values() for t in strs):
        return None
    n, step = arrays[0].shape[0], max(1, _BLOCK // len(arrays))
    texts = {i: (inv, np.array(strs)) for i, (inv, strs) in texts.items()}
    return [_block(arrays, texts, start, min(n, start + step), as_json)
            for start in range(0, n, step)]


def _distinct(a):
    """The distinct values of a, sorted, and the index of each item of a
    among them (np.unique would import numpy.ma on first use)."""
    s = np.sort(a)
    first = np.ones(s.size, dtype=bool)
    np.not_equal(s[1:], s[:-1], out=first[1:])
    uniq = s[first]
    return uniq, np.searchsorted(uniq, a)


def _ragged(columns: dict) -> ValueError:
    return ValueError("CSV columns differ in length: " + ", ".join(
        f"{k} has {len(v)}" for k, v in columns.items()))


def _block(arrays, texts, start, stop, as_json):
    """Rows start:stop: each cell in a slot that ends in its separator, the
    row's last in a newline or, as_json, in the item separator, and the
    NULs between packed out.  texts maps each column that is not float to
    the index of each row's text and the column's texts."""
    end = np.frombuffer((_ITEM_SEP if as_json else "\n").encode(), dtype=np.uint8)
    widths = [texts[i][1].itemsize + 1 if i in texts else _WIDTH for i in range(len(arrays))]
    bounds = np.cumsum([0] + widths)
    buf = np.zeros((stop - start, bounds[-1] + end.size - 1), dtype=np.uint8)
    floats = [i for i in range(len(arrays)) if i not in texts]
    if floats:
        values = np.stack([arrays[i][start:stop] for i in floats], axis=1)
        cells = _float_cells(values.astype(np.float64, copy=False).ravel(), as_json)
        cells = cells.reshape(stop - start, -1)
        # consecutive float columns are copied in one piece
        done = 0
        for _, run in itertools.groupby(enumerate(floats), lambda e: e[1] - e[0]):
            run = [i for _, i in run]
            buf[:, bounds[run[0]]:bounds[run[-1] + 1]] = cells[:, done:done + _WIDTH * len(run)]
            done += _WIDTH * len(run)
    for i, (inverse, strs) in texts.items():
        buf[:, bounds[i]:bounds[i + 1] - 1] = strs.view(np.uint8).reshape(strs.size, -1)[
            inverse[start:stop]]
    buf[:, bounds[1:-1] - 1] = ord(",")
    buf[:, bounds[-1] - 1:] = end
    flat = buf.ravel()
    return flat[flat != 0].tobytes().decode()
