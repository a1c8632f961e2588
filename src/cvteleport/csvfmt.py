"""CSV text of float64 arrays: ``'%.17g' % x`` for every element, vectorised.

``fields(x)`` gives one fixed-width byte row per element, holding exactly
the characters of ``'%.17g' % x`` (17 significant digits, correctly rounded
half-to-even, trailing zeros stripped) with ``PAD`` bytes in between;
``rows`` joins the fields of several columns into CSV lines and drops the
pads. The digits come from a double-double product with a power of ten
(Dekker's TwoProduct). Near-ties, whose rounding that product cannot settle,
go through Python's own ``'%.17g'``, and so do infinities, nan and nonzero
magnitudes outside ``[1e-280, 1e280)``.
"""

from __future__ import annotations

import numpy as np

PAD = 0      # no '%.17g' text contains a NUL byte
WIDTH = 32   # four 64-bit words; the longest text, '-1.2345678901234567e-308', has 24
# values one fields call is given at most: small working arrays are reused
# by the allocator, where larger ones are returned to the system and
# page-faulted back on every call
BLOCK_VALUES = 2048

# The fast path covers 1e-280 <= |x| < 1e280. Scaling such an x by
# 10 ** (16 - k), for its decimal exponent k (found to within one), needs
# s = 16 - k from -266 to 298; every table entry, split part and partial
# product is then a normal double.
_MIN_ABS, _MAX_ABS = 1e-280, 1e280
_K_MIN, _K_MAX = -282, 282
_SPLITTER = 2.0 ** 27 + 1.0  # Veltkamp: splits a double into two 26-bit halves
_TIE_MARGIN = 2.0 ** -30     # see _scaled_digits


def _pow10_table(s_values) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) with hi = 10**s rounded to a double and lo = the rest rounded.

    Python's int-to-float and int/int conversions round correctly, so the
    table is exact to within half an ulp of lo, about 2**-107 of 10**s.
    """
    hi, lo = [], []
    for s in s_values:
        if s >= 0:
            whole = 10 ** s
            h = float(whole)
            rest = float(whole - int(h))
        else:
            scale = 10 ** -s
            h = 1 / scale
            num, den = h.as_integer_ratio()
            rest = (den - num * scale) / (den * scale)  # 10**s - h
        hi.append(h)
        lo.append(rest)
    return np.array(hi), np.array(lo)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = _SPLITTER * a
    high = c - (c - a)
    return high, a - high


# rows hi, lo and hi's two Veltkamp halves, by s - _S_MIN
_S_MIN = 16 - _K_MAX
_P10 = np.stack(_pow10_table(range(_S_MIN, 16 - _K_MIN + 1)))
_P10 = np.concatenate([_P10, np.stack(_split(_P10[0]))])

# A field is WIDTH bytes, read as four little-endian 64-bit words:
#   word 0  sign, '0.' and up to three more '0's when -4 <= X < 0, first digit
#   words 1-2 and the first byte of word 3: the other 16 digits, with the
#           '.' put in among them and the bytes after it moved up by one
#   word 3  then 'e', the exponent's sign and its 2 or 3 digits
# where X is the decimal exponent of the 17 rounded digits; '%.17g' writes
# the fixed form for -4 <= X < 17 and the exponential form otherwise.
# Trailing zero digits after the '.' become PAD, and so does a '.' with no
# digit after it. The last byte is left for the CSV separator.


def _words(texts: list[bytes]) -> np.ndarray:
    """(words, len(texts)) uint64: column i holds texts[i] padded with PAD."""
    width = max(map(len, texts))
    width += -width % 8
    raw = b"".join(t.ljust(width, b"\0") for t in texts)
    return np.frombuffer(raw, dtype="<u8").reshape(len(texts), -1).T.copy()


def _digit_groups() -> tuple[np.ndarray, np.ndarray]:
    """'0000' .. '9999' in the low 32 bits of a word, and, for group j (0-3)
    of digits 1-16, the position of the group's last nonzero digit among
    digits 1-16 (0 if the group is '0000')."""
    value = np.arange(10_000, dtype=np.uint16)
    digits = np.stack([value // 1000, value // 100 % 10, value // 10 % 10,
                       value % 10], axis=1).astype(np.uint8)
    text = (digits + ord("0")).view("<u4")[:, 0].astype(np.uint64)
    position = ((digits > 0) * np.arange(1, 5, dtype=np.uint8)).max(axis=1)
    start = np.arange(0, 16, 4, dtype=np.uint8)[:, None]
    return text, (position + start) * (position > 0)


_GROUPS, _LAST = _digit_groups()
# word 0 without the sign, by 10 * (-X if -4 <= X < 0 else 0) + first digit
_HEAD = _words([prefix.ljust(6, b"\0") + bytes([digit]) for prefix in
                (b"", b"\x000.", b"\x000.0", b"\x000.00", b"\x000.000")
                for digit in b"0123456789"])[0]
# word 3's exponent bytes, by X - _K_MIN
_EXPONENT = _words([b"\0e%+03d" % x for x in range(_K_MIN, _K_MAX + 1)])[0]
# digits 1..16 that stay, by how many stay (words 1 and 2)
_KEEP = _words([b"\xff" * c for c in range(17)])
# the '.' after digit r + 1 (r = 16: no '.'): the bytes left in place, the
# bytes moved up by one, and the '.' itself (words 1, 2 and 3)
_STAY = _words([b"\xff" * r for r in range(16)] + [b"\xff" * 16 + b"\0"])
_MOVE = _words([b"\0" * (r + 1) + b"\xff" * (16 - r) for r in range(16)]
               + [b"\0" * 17])
_MARK = _words([b"\0" * r + b"." + b"\0" * (16 - r) for r in range(16)]
               + [b"\0" * 17])


def _scaled_digits(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(a * 10**(16 - k)) as int64, and the fraction it drops.

    a * (hi + lo) = p + e + a*lo, with p + e = a*hi exactly (TwoProduct
    without FMA: numpy rounds every operation to a double). The error of the
    sum is hi + lo's own error (2**-107 relative, under 2**-49 absolute at
    a value under 2**57) plus the rounding of a*lo and of the two additions
    (each term under 32, so under 2**-49 apiece): about 2**-47 in all. So an
    element whose fraction lies within _TIE_MARGIN of one half may round
    either way; anywhere else rounding the fraction gives the correct digits.
    """
    hi, lo, bh, bl = _P10.take(16 - k - _S_MIN, axis=1)
    p = a * hi
    ah, al = _split(a)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    whole = np.floor(p)
    t = (p - whole) + (e + a * lo)
    below = np.floor(t)
    return whole.astype(np.int64) + below.astype(np.int64), t - below


def fields(values) -> np.ndarray:
    """uint8 array of shape ``values.shape + (WIDTH,)``: each element's
    ``'%.17g'`` text with PAD bytes added."""
    values = np.asarray(values, dtype=np.float64)
    x = values.ravel()
    a = np.abs(x)
    fast = (a >= _MIN_ABS) & (a < _MAX_ABS)  # False for nan
    zero = a == 0.0
    a[~fast] = 1.0  # a zero is written as a 1 whose first digit is 0
    k = np.floor(np.log10(a)).astype(np.int64)
    n, frac = _scaled_digits(a, k)
    # log10 may miss the exponent by one next to a power of ten
    off = np.flatnonzero((n < 10 ** 16) | (n >= 10 ** 17))
    if off.size:
        k[off] += np.where(n[off] < 10 ** 16, -1, 1)
        n[off], frac[off] = _scaled_digits(a[off], k[off])
    n += frac > 0.5
    carry = n == 10 ** 17  # rounded up to the next power of ten
    n[carry] = 10 ** 16
    k += carry

    # the first digit, and digits 1-16 in groups of four
    high = n // 10 ** 8
    low = n - high * 10 ** 8
    first = high // 10 ** 8
    high -= first * 10 ** 8
    first[zero] = 0
    q0, q2 = high // 10 ** 4, low // 10 ** 4
    quads = (q0, high - q0 * 10 ** 4, q2, low - q2 * 10 ** 4)
    # the last nonzero digit, counting the first as digit 0
    last = np.maximum.reduce([row[q] for row, q in zip(_LAST, quads)])
    last = last.astype(np.int64)
    g0, g1, g2, g3 = (_GROUPS[q] for q in quads)
    left, right = g0 | g1 << 32, g2 | g3 << 32

    fixed = (k >= -4) & (k < 17)
    small = fixed & (k < 0)
    point = np.where(fixed, k + 1, 1)  # digits before the '.'
    keep = _KEEP.take(np.maximum(last, point - 1), axis=1)
    left &= keep[0]
    right &= keep[1]
    dot = np.where(small | (last < point), 16, point - 1)
    stay, move, mark = (t.take(dot, axis=1) for t in (_STAY, _MOVE, _MARK))

    out = np.empty((x.size, WIDTH // 8), dtype="<u8")
    sign = np.signbit(x) * np.uint64(ord("-"))
    out[:, 0] = _HEAD[np.where(small, -10 * k, 0) + first] | sign
    out[:, 1] = (left & stay[0]) | (left << 8 & move[0]) | mark[0]
    out[:, 2] = (right & stay[1]) | ((right << 8 | left >> 56) & move[1]) | mark[1]
    out[:, 3] = (right >> 56 & move[2]) | _EXPONENT[k - _K_MIN] * ~fixed
    out = out.view(np.uint8)
    for i in np.flatnonzero(~(fast | zero) | (np.abs(frac - 0.5) < _TIE_MARGIN)):
        text = b"%.17g" % x[i]
        out[i] = PAD
        out[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return out.reshape(values.shape + (WIDTH,))


def rows(columns) -> bytes:
    """CSV lines joining the ``fields`` of each column (a sequence of
    (rows, WIDTH) arrays), pads removed."""
    line = np.empty((columns[0].shape[0], len(columns), WIDTH), dtype=np.uint8)
    for j, col in enumerate(columns):
        line[:, j] = col
    line[:, :, -1] = ord(",")
    line[:, -1, -1] = ord("\n")
    return line.tobytes().translate(None, bytes([PAD]))  # faster than a numpy mask
