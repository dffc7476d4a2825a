"""Exact text of number arrays, a block of numbers per call.

Three encoders give, for each element of a 1-D array, the bytes the
standard library writes:

- ``"r"``: a float64 as ``json.dumps(float(x))``, which is
  ``float.__repr__`` for a finite float and ``Infinity`` / ``-Infinity`` /
  ``NaN`` otherwise;
- ``"f"``: a float64 as ``"%.6f" % x``;
- ``"d"``: an int64 as ``str(x)``.

An element inside its encoder's fast range is formatted by integer numpy
arithmetic. Any other element is formatted by the standard library, one
at a time, in the same code path.

Shortest repr, for ``1e-2 <= |x| < 1e16``. Scale ``y = |x| * 10**k`` into
``[1e16, 1e17)``; ``10**k`` is exact for ``k <= 22``. Dekker's two-product
splits ``y`` exactly into an integer-valued float ``p`` and an error
``e``, with no fused multiply-add. The values that read back as ``x`` lie
in ``y +- h`` with ``h = 10**k * ulp(x) / 2``: the integers ``[a, b]``.
``repr``'s digits are the multiple of the largest ``10**j`` in ``[a, b]``,
the one nearest ``y`` if several are, ties to even. Two finer rules of the
interval never change that choice in this range, so they are left out:
its ends (excluded for an odd significand) are integers of ``y`` only
for ``|x| >= 2**52``, where ``x`` is an integer with at least their
trailing zeros; and below a power of two (half the gap), every candidate
is longer than the power's own digits, at most 16. The integer part is
``floor(|x|)``: the interval holds no other double, so no integer other
than ``x`` itself.

``%.6f``, for ``|x| < 2**33``: ``N`` is ``|x| * 10**6`` rounded half to
even. ``rint`` of the rounded product ``p`` gives it, except where ``p`` is
exactly halfway; there the sign of the two-product's ``e`` decides.

Text layout. Every token of a block is a row of as many 4-byte words as
the block needs: a sign word where any element is negative, the integer
part in 4-digit groups, and the fraction after a point word. Each word
is looked up in one table (``_WORDS``) whose variants blank a group's
leading or trailing zeros with NUL bytes. Rows of tokens sit next to
their separator words, and one ``bytes.translate`` per block removes the
NULs.
"""
import json

import numpy as np

# numbers encoded per call: 4,096-8,192 measured fastest; a block's
# temporaries take about 300 bytes a number
BLOCK = 4096


def _word_table():
    """The word table and the offsets of its parts."""
    quad = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    digits = (quad + 48).astype(np.uint8)
    nonzero = quad != 0
    lead = np.cumsum(nonzero, axis=1) == 0  # zeros before the first nonzero digit
    trail = np.cumsum(nonzero[:, ::-1], axis=1)[:, ::-1] == 0  # zeros after the last
    last = np.where(lead, 0, digits)
    last[0, 3] = ord("0")  # an integer part of 0 prints "0"
    triple = digits[:1000, 1:]
    dot_last = np.where(trail[:1000, 1:], 0, triple)
    dot_last[0, 0] = ord("0")  # a fraction of 0 prints ".0"
    point = np.full((1000, 1), ord("."), np.uint8)
    words = [
        digits,  # every digit
        np.where(lead, 0, digits),  # leading zeros blank
        last,  # the same, for the last integer group
        np.where(trail, 0, digits),  # trailing zeros blank
        np.hstack([point, triple]),  # "." and 3 digits
        np.hstack([point, dot_last]),  # the same, trailing zeros blank
        np.hstack([triple, np.zeros((1000, 1), np.uint8)]),  # 3 digits
        np.frombuffer(b"\0\0\0\0-\0\0\0", np.uint8).reshape(2, 4),
        np.frombuffer(b", [\0\1[\0\0, \0\0]\0\0\0,\0\0\0\r\n\0\0", np.uint8).reshape(6, 4),
    ]
    offsets = np.cumsum([0] + [len(w) for w in words]).tolist()
    return np.concatenate(words).view(np.uint32).ravel(), offsets


# word indices: the full digit groups start at 0
_WORDS, (_, _LEAD, _LAST, _TRAIL, _DOT, _DOT_LAST, _TRIPLE, _SIGN, _SEPS, _) = _word_table()
_NUL = _SIGN  # the sign word of a non-negative number is blank

_POW10 = 10 ** np.arange(19, dtype=np.int64)
_POW10_U = 10 ** np.arange(20, dtype=np.uint64)
_TEN = 10.0 ** np.arange(23)  # exact in binary64
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter


def _halves(a):
    """``a`` as hi + lo, each with at most 26 significant bits."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


_TEN_HI, _TEN_LO = _halves(_TEN)
_MILLION = _halves(np.float64(1e6))


def _two_product(a, b, b_halves):
    """``p`` and ``e`` with ``a * b == p + e`` exactly (Dekker)."""
    p = a * b
    ah, al = _halves(a)
    bh, bl = b_halves
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _integer_part(v, top):
    """Word indices of ``v`` (int64 or uint64, ``0 <= v <= top``) in the
    fewest 4-digit groups that hold ``top``, high first: leading zeros are
    blank, and 0 prints as "0"."""
    groups = 1 + sum(top >= 10 ** (4 * g) for g in range(1, 5))
    quotients = [v] + [v // 10 ** (4 * g) for g in range(1, groups)]
    columns, upper = [], 0
    for g in range(groups - 1, -1, -1):
        part = _LAST if g == 0 else _LEAD
        q = quotients[g]
        digits = (q - upper * 10000).astype(np.int64, copy=False)
        columns.append(digits + part * (upper == 0))
        upper = q
    return columns


def _sign(x):
    """The sign column, or none where no element is negative."""
    neg = np.signbit(x)
    return [_SIGN + neg] if neg.any() else []


def _shortest(x, ax):
    """Word indices of ``repr`` of each ``x``."""
    k = 16 - np.floor(np.log10(ax)).astype(np.intp)
    p, e = _two_product(ax, _TEN[k], (_TEN_HI[k], _TEN_LO[k]))
    # log10 can miss by one next to a power of ten: move y into [1e16, 1e17)
    near = (p <= 1e16) | (p >= 1e17)
    if near.any():
        k += near & ((p < 1e16) | ((p == 1e16) & (e < 0)))
        k -= near & ((p > 1e17) | ((p == 1e17) & (e >= 0)))
        p, e = _two_product(ax, _TEN[k], (_TEN_HI[k], _TEN_LO[k]))
    h = np.ldexp(_TEN[k], np.frexp(ax)[1] - 54)  # 10**k * ulp(x) / 2, exact
    top = p.astype(np.int64)  # even: y >= 2**53
    a = top + np.ceil(e - h).astype(np.int64)
    b = top + np.floor(e + h).astype(np.int64)
    span = b - a
    # [a, b] spans at most 22: a multiple of 100 in it is the only one, and
    # b % 10**j <= b - a iff it holds a multiple of 10**j
    tens = b // 10
    last = b - tens * 10
    last2 = b - b // 100 * 100
    # below a multiple of 100: the nearer of the top two multiples of 10
    # (there are at most three), or else the nearest integer; ties to even
    ten = b - last
    gap = (2 * ten - 10 - 2 * top) - 2 * e  # 2 * (their midpoint - y)
    lower = (ten - 10 >= a) & ((gap > 0) | ((gap == 0) & (tens % 2 == 1)))
    nearest = np.minimum(np.maximum(top + np.rint(e).astype(np.int64), a), b)
    cand = np.where(last2 <= span, b - last2, np.where(last <= span, ten - 10 * lower, nearest))
    # the integer part is floor(|x|), the fraction 19 digits after it
    whole = np.floor(ax).astype(np.int64)
    scaled = cand - whole * _POW10[np.minimum(k, 18)]  # the fraction * 10**k
    frac19 = scaled.view(np.uint64) * _POW10_U[19 - k]
    head = frac19 // _POW10_U[16]
    rest = (frac19 - head * _POW10_U[16]).view(np.int64)
    # repr has 17 significant digits at most, so no more fraction digits
    # than 17 less those of the smallest integer part (1 + 17 below 1)
    least = int(whole.min(initial=1))
    digits = 18 if least == 0 else 17 - len(str(least))
    groups = max(0, -(-(digits - 3) // 4))
    # the fraction's 4-digit groups after its first three digits; trailing
    # zeros blank; the groups past ``digits`` are zero in every row
    quotients = [rest // 10 ** (12 - 4 * g) for g in range(groups)]
    columns, zero = [], True
    for g in range(groups - 1, -1, -1):
        group = quotients[g] - (quotients[g - 1] * 10000 if g else 0)
        columns.append(group + _TRAIL * zero)
        zero = zero & (group == 0)
    point = _DOT + (_DOT_LAST - _DOT) * zero
    return (
        _sign(x)
        + _integer_part(whole, int(whole.max(initial=0)))
        + [head.view(np.int64) + point]
        + columns[::-1]
    )


def _fixed(x, ax):
    """Word indices of ``"%.6f" % x`` for each ``x``."""
    p = ax * 1e6
    n = np.rint(p)
    # y = p + e is halfway only if p is; elsewhere rint(p) rounds y
    halfway = np.flatnonzero(p - np.floor(p) == 0.5)
    if len(halfway):
        _, e = _two_product(ax[halfway], 1e6, _MILLION)
        p = p[halfway]
        n[halfway] = np.where(e > 0, np.ceil(p), np.where(e < 0, np.floor(p), n[halfway]))
    n = n.astype(np.int64)
    whole = n // 1_000_000
    frac = n - whole * 1_000_000
    high = frac // 1000
    return (
        _sign(x)
        + _integer_part(whole, int(whole.max(initial=0)))
        + [_DOT + high, _TRIPLE + frac - high * 1000]
    )


def _integer(x, ax):
    """Word indices of ``str(x)`` for each int64 ``x``."""
    d = ax.view(np.uint64)  # |INT64_MIN| wraps to 2**63
    return _sign(x) + _integer_part(d, int(d.max(initial=0)))


# kind -> (dtype, fast range test, word indices, fallback)
_KINDS = {
    "r": (np.float64, lambda ax: (ax >= 1e-2) & (ax < 1e16), _shortest,
          lambda v: json.dumps(float(v))),
    "f": (np.float64, lambda ax: ax < 2.0**33, _fixed, lambda v: "%.6f" % v),
    "d": (np.int64, None, _integer, str),
}


def _cells(values, kind):
    """Word-index columns of the tokens of ``values`` (1-D), the elements
    outside the fast range, and those elements' standard-library tokens
    as bytes; their columns are to be blanked and their bytes written in."""
    dtype, in_range, indices, fallback = _KINDS[kind]
    values = np.asarray(values, dtype)
    ax = np.abs(values)
    fast = np.ones(len(values), bool) if in_range is None else in_range(ax)
    if not fast.all():
        ax = np.where(fast, ax, 1)
    columns = indices(values, ax)
    slow = np.flatnonzero(~fast)
    return columns, slow, [fallback(v).encode() for v in values[slow].tolist()]


# (row head, first row's head, cell separator, row closing) as word
# indices; a CSV row has no head
_JSON_ROWS = (_SEPS, _SEPS + 1, _SEPS + 2, _SEPS + 3)
_CSV_ROWS = (None, None, _SEPS + 4, _SEPS + 5)


def _rows(parts, frame, first=None):
    """The ``(rows, bytes)`` NUL-padded text of a block of rows.

    ``parts`` is a list of ``(array, kind)``, each array ``(rows, cells)``:
    a row's cells are those of every part in order. Rows marked in
    ``first`` start with the first row's head.
    """
    head, first_head, separator, closing = frame
    n = len(parts[0][0])
    cells = []
    for a, kind in parts:
        columns, slow, tokens = _cells(a.ravel(), kind)
        words = max([len(columns)] + [-(-len(t) // 4) for t in tokens])
        cells.append((a.shape[1], words + 1, columns, slow, tokens))
    start = int(head is not None)
    index = np.empty((n, start + sum(c * w for c, w, *_ in cells)), np.intp)
    if head is not None:
        index[:, 0] = head
        if first is not None:
            index[first, 0] = first_head
    fallbacks, at = [], start
    for c, w, columns, slow, tokens in cells:
        block = index[:, at:at + c * w].reshape(n, c, w)
        for t, column in enumerate(columns):
            block[:, :, t] = column.reshape(n, c)
        block[:, :, len(columns):-1] = _NUL
        block[:, :, -1] = separator
        rows, cols = np.divmod(slow, c)
        block[rows, cols, :-1] = _NUL
        fallbacks += zip(rows.tolist(), (4 * (at + cols * w)).tolist(), tokens)
        at += c * w
    index[:, -1] = closing
    text = _WORDS.take(index).view(np.uint8)
    for row, col, token in fallbacks:
        text[row, col:col + len(token)] = np.frombuffer(token, np.uint8)
    return text


def csv_blocks(parts):
    """The CSV rows (no quoting, CRLF) of ``parts`` (see ``_rows``), one
    bytes per block of ``BLOCK`` numbers."""
    n = len(parts[0][0])
    step = max(1, BLOCK // sum(a.shape[1] for a, _ in parts))
    for lo in range(0, n, step):
        rows = _rows([(a[lo:lo + step], kind) for a, kind in parts], _CSV_ROWS)
        yield rows.tobytes().translate(None, b"\0")


def json_tables(parts, counts):
    """The ``json.dumps`` text of consecutive tables of rows, one bytes per
    table: ``counts`` are their row counts, ``parts`` (see ``_rows``) hold
    all their rows, and each row is one JSON array.

    The rows are encoded ``BLOCK`` numbers at a time, across the tables'
    bounds. Each table's first row starts with a byte no JSON text holds,
    and the tables' texts are split there.
    """
    bounds = np.concatenate([[0], np.cumsum(counts, dtype=np.intp)])
    first = np.zeros(bounds[-1], bool)
    first[bounds[:-1][bounds[:-1] < bounds[1:]]] = True
    step = max(1, BLOCK // sum(a.shape[1] for a, _ in parts))
    text = b"".join(
        _rows([(a[lo:lo + step], kind) for a, kind in parts], _JSON_ROWS, first[lo:lo + step])
        .tobytes()
        .translate(None, b"\0")
        for lo in range(0, bounds[-1], step)
    )
    texts = iter(text.split(b"\1")[1:])
    return [b"[%s]" % next(texts) if n else b"[]" for n in counts]
