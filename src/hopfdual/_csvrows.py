"""`%.17g,%.17g` rows of two float columns, formatted on whole chunks.

`%.17g` prints a value between 1e-4 and 1e17 in fixed notation: its 17
significant digits D = round-half-even(v 10**q), 10**16 <= D < 10**17, with
the point after the first 17 - q of them (after leading zeros when q > 16),
less trailing zeros and a bare point. For such values, and 0.0,
`RowFormatter` computes D exactly with numpy: Dekker's product gives
v 10**q as an exact sum hi + lo of two floats, and D = hi + rint(lo), as hi
is an even integer at that size. A 4-digit table turns D into ASCII, and
word masks insert the point, cut the trailing zeros and add the separator;
one boolean compaction joins the fields. The digits are those of correctly
rounded fixed-precision printing (Gay, "Correctly rounded binary-decimal and
decimal-binary conversions", AT&T Numerical Analysis Manuscript 90-10, 1990;
Adams, "Ryu revisited: printf floating point conversion", OOPSLA 2019). A
chunk holding any other value (a negative, -0.0, inf, nan, or one below
1e-4 or from 1e17 up, which `%` writes in exponent notation) takes the `%`
line instead.

`dde.write_csv_columns` imports this module on its first call, so that
importing the package does not compile it.
"""

from __future__ import annotations

import functools

import numpy as np

# uint64 scalars only: numpy 1.x and 2.x both turn a mix of uint64 with
# int64 into float64, which would drop digits.
_U8, _U32, _U56 = np.uint64(8), np.uint64(32), np.uint64(56)
_ZEROS = np.uint64(0x3030303030303030)  # "00000000"
# Veltkamp's splitter for float64: 2**27 + 1
_SPLIT = 134217729.0


@functools.cache
def _fixed_tables():
    """The formatter's tables, built on its first use (not at import).

    `digits[g]` holds the four ASCII digits of g < 10000 in its low four
    bytes. A value's slot is 24 bytes, three little-endian words: "0000",
    its 17 digits, "000". For q = 16 - X (X its decimal exponent) row q of
    `below`, `dot` and `above` keeps the word's bytes from the field's start
    to its point, sets the point and keeps the bytes after it; for a field
    end e, row e of `keep` keeps the bytes before e and `sep` marks byte e.
    `pow10` holds 10**q, exact, and its split into two 26-bit halves.
    """
    g = np.arange(10000)
    ascii4 = np.empty((10000, 4), np.uint8)
    for i in range(4):
        ascii4[:, i] = g // 10 ** (3 - i) % 10 + 48
    digits = ascii4.view("<u4").ravel().astype(np.uint64)

    def words(masks):
        """(3, len(masks)) uint64 words of 24-byte masks."""
        flat = np.frombuffer(b"".join(masks), np.uint8).reshape(len(masks), 24)
        return flat.view("<u8").T.astype(np.uint64, order="C")

    def span(lo, hi, byte=0xFF):
        return bytes(byte if lo <= k < hi else 0 for k in range(24))

    fields = [(4 - max(q - 16, 0), 21 - q) for q in range(21)]  # (start, point)
    below = words([span(start, point) for start, point in fields])
    dot = words([span(point, point + 1, ord(".")) for _, point in fields])
    above = words([span(point + 1, 24) for _, point in fields])
    keep = words([span(0, end) for end in range(23)])
    sep = words([span(end, end + 1) for end in range(23)])

    pow10 = np.array([float(10**q) for q in range(21)])
    c = pow10 * _SPLIT
    pow10_hi = c - (c - pow10)
    tables = (digits, below, dot, above, keep, sep), (pow10, pow10_hi, pow10 - pow10_hi)
    for table in (*tables[0], *tables[1]):
        table.flags.writeable = False
    return tables


def _scale(v, q, pow10s, out):
    """Rows 0 and 1 of `out` get hi + lo = v * 10**q exactly (Dekker's
    product: both factors split into 26-bit halves, 10**q's in `pow10s`);
    rows 2-5 are work."""
    pow10, pow10_hi, pow10_lo = pow10s
    hi, lo, vh, vl, b, t = out
    np.multiply(v, _SPLIT, vh)
    np.subtract(vh, v, vl)
    np.subtract(vh, vl, vh)
    np.subtract(v, vh, vl)
    pow10.take(q, None, hi, "clip")
    hi *= v
    # lo = ((vh bh - hi) + vh bl + vl bh) + vl bl, each sum exact in this order
    pow10_hi.take(q, None, b, "clip")
    np.multiply(vh, b, lo)
    lo -= hi
    np.multiply(vl, b, t)
    pow10_lo.take(q, None, b, "clip")
    vh *= b
    lo += vh
    lo += t
    vl *= b
    lo += vl


def _decade_errors(hi, lo, t):
    """-1 where hi + lo >= 1e17, +1 where it is below 1e16, else 0.

    hi - 1e16 is exact near 1e16 and has hi's sign elsewhere, and |lo| is at
    most half an ulp of hi, so adding lo gives the sign of the exact sum.
    """
    np.subtract(hi, 1e16, t)
    t += lo
    below = t < 0
    np.subtract(hi, 1e17, t)
    t += lo
    return below.view(np.int8) - (t >= 0).view(np.int8)


class RowFormatter:
    """Formats chunks of up to `rows` rows of two float columns as
    `%.17g,%.17g` rows, in one block of work memory allocated once."""

    def __init__(self, rows: int):
        size = 2 * rows
        # Rows 0-9 of 8-byte words: the chunk's values and then each step's
        # operands (see `_fixed`), q in row 8, the separators in row 9; rows
        # 10-12 the 24-byte text slots of the values.
        self._work = np.empty((13, size), np.uint64)
        self._work[9, 0::2] = np.uint64(0x2C2C2C2C2C2C2C2C)  # ","
        self._work[9, 1::2] = np.uint64(0x0A0A0A0A0A0A0A0A)  # "\n"

    def rows(self, first: np.ndarray, second: np.ndarray):
        """The chunk's rows as bytes, or as a uint8 array until the next call."""
        m = 2 * len(first)
        x = self._work[0, :m].view(np.float64)
        x[0::2] = first
        x[1::2] = second
        flags = self._work[7].view(bool)
        fixed, ok = flags[:m], flags[m:2 * m]
        np.greater_equal(x, 1e-4, fixed)
        np.less(x, 1e17, ok)
        fixed &= ok
        zeros = np.empty(0, np.intp)
        if not fixed.all():
            np.equal(x, 0.0, ok)
            ok &= ~np.signbit(x)
            if not (fixed | ok).all():
                return (("%.17g,%.17g\n" * len(first)) % tuple(x.tolist())).encode("ascii")
            # 0.0 is formatted as 1.0 with its digits D set to 0: "0"
            zeros = np.flatnonzero(ok)
            x[zeros] = 1.0
        return self._fixed(m, zeros)

    def _fixed(self, m: int, zeros: np.ndarray) -> np.ndarray:
        # Outputs are passed positionally and tables read with the take
        # method: on a chunk's 4096 values a keyword or numpy's Python-level
        # wrapper is a measurable part of a call.
        (digits, below, dot, above, keep, sep), pow10s = _fixed_tables()
        work = self._work[:, :m]
        f, i, u = work.view(np.float64), work.view(np.int64), work
        x, q, seps = f[0], i[8], u[9]

        # q = 16 - floor(log10 x), then +-1 until hi + lo = x 10**q lies in
        # [1e16, 1e17): a guess near a power of ten may be one decade off.
        np.log10(x, f[1])
        np.floor(f[1], f[1])
        np.subtract(16.0, f[1], f[1])
        np.maximum(f[1], 0.0, out=f[1])
        np.minimum(f[1], 20.0, out=f[1])
        np.copyto(q, f[1], casting="unsafe")
        _scale(x, q, pow10s, f[1:7])
        hi, lo = f[1], f[2]
        errors = _decade_errors(hi, lo, f[7])
        wrong = errors.nonzero()[0]
        errors = errors[wrong]
        while len(wrong):
            q[wrong] += errors
            part = np.empty((6, len(wrong)))
            _scale(x[wrong], q[wrong], pow10s, part)
            hi[wrong], lo[wrong] = part[0], part[1]
            errors = _decade_errors(part[0], part[1], part[2])
            wrong, errors = wrong[errors != 0], errors[errors != 0]
        # D = hi + round-half-even(lo): hi >= 2**53 is an even integer
        d = i[3]
        np.copyto(d, hi, casting="unsafe")
        np.rint(lo, lo)
        np.copyto(i[4], lo, casting="unsafe")
        d += i[4]
        # D rounded up to 10**17 is 10**16 one decade up
        up = (d == 10**17).nonzero()[0]
        d[up] = 10**16
        q[up] -= 1
        d[zeros] = 0

        # D = g1 g2 g3 g4 e in groups of four digits and one
        np.divmod(d, 10**9, i[4], i[5])
        np.divmod(i[4], 10**4, i[3], i[4])
        np.divmod(i[5], 10, i[5], i[6])
        np.divmod(i[5], 10**4, i[5], i[7])
        g1, g2, g3, e, g4 = i[3], i[4], i[5], i[6], i[7]
        # A value's slot: "0000" g1 | g2 g3 | g4 e "000" in three words
        w0, w1, w2 = u[0], u[1], u[2]
        digits.take(g1, None, w0, "clip")
        w0 <<= _U32
        w0 |= np.uint64(0x30303030)
        digits.take(g3, None, w1, "clip")
        w1 <<= _U32
        digits.take(g2, None, u[5], "clip")
        w1 |= u[5]
        np.add(e, 0x30303030, w2, casting="unsafe")
        w2 <<= _U32
        digits.take(g4, None, u[3], "clip")
        w2 |= u[3]

        # Insert the point: s is the slot one byte on. Meanwhile find the
        # last fraction digit that is not 0 from the float exponent of the
        # fraction's non-"0" bytes: key = 1023 + 64 w + its highest bit.
        words = (w0, w1, w2)
        s, t, v, key, last = u[3], u[4], u[5], i[6], i[7]
        for w in (2, 1, 0):
            word = words[w]
            np.left_shift(word, _U8, s)
            if w:
                np.right_shift(words[w - 1], _U56, t)
                s |= t
            above[w].take(q, None, t, "clip")
            np.bitwise_xor(s, _ZEROS, v)
            v &= t
            s &= t
            below[w].take(q, None, t, "clip")
            word &= t
            word |= s
            dot[w].take(q, None, t, "clip")
            word |= t
            np.copyto(f[6], v, casting="unsafe")  # key's row: its bits
            key >>= 52
            if w == 2:
                np.add(key, 128, last)
            else:
                key += 64 * w
                np.maximum(last, key, out=last)
        # The field ends after its last fraction digit that is not 0, or
        # before the point where there is none; the separator follows.
        last -= 1015
        last >>= 3
        np.subtract(21, q, key)
        end = np.maximum(last, key, out=last)
        # little-endian words, so that the text is in byte order on any machine
        slots = self._work[10:].view("<u8").reshape(-1, 3)[:m]
        for w in range(3):
            word = words[w]
            keep[w].take(end, None, t, "clip")
            word &= t
            sep[w].take(end, None, t, "clip")
            t &= seps
            np.bitwise_or(word, t, slots[:, w])
        text = slots.view(np.uint8).ravel()
        nonzero = self._work[:3].view(bool).ravel()[:24 * m]
        np.not_equal(text, 0, nonzero)
        return text[nonzero]
