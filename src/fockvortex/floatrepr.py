"""``repr`` of many doubles at once: Ryū's shortest round trip in numpy.

``repr(float)`` prints the shortest decimal string that reads back to the
same double, and when several are that short, the one nearest to it.  The
grid CSV writer needs that string for every distinct double of a column, and
one Python ``repr`` call per value would be most of a figure-1 run.

Ryū (U. Adams, "Ryū: fast float-to-string conversion", PLDI 2018) finds the
same digits with fixed-width integer arithmetic only, so numpy runs it on
whole arrays.  ``repr_table`` runs the branch of Ryū for binary exponents
e2 < 0 with q > 1, which covers every normal double with |v| < 2^50, and lays
the digits out as ``repr`` does.  ±0.0, subnormals, larger values, inf and nan
keep Python's ``repr``.
"""
from __future__ import annotations

import functools

import numpy as np

# longest repr of a double, e.g. '-2.2250738585072014e-308'
REPR_WIDTH = 24
# values formatted per numpy pass: bounds the temporaries at ~1 MB
_CHUNK = 4096

# the biased exponents Ryū's e2 < 0, q > 1 branch covers: 2^-1022 <= |v| < 2^50
_FAST_EXPONENTS = 1072
# 28-bit limbs: a product of two limbs, plus one more, fits an int64
_LIMB = 28
_LIMB_MASK = (1 << _LIMB) - 1
# every table entry is M · 2^(121 - j), so each product shifts by the same 121 bits
_SHIFT = 121
_POW10 = 10 ** np.arange(19, dtype=np.int64)
_ONE_BITS = np.float64(1.0).view(np.int64)

# Each value's layout source is one _ROW-byte row: the digits, right-aligned
# to end at byte _DIGITS_END, then an 8-byte exponent suffix, NULs elsewhere.
_ROW = 48
_DIGITS_END = 24
# the lead before the digits: a sign and '0.' with up to three zeros
_LEADS = 5


@functools.cache
def _ryu_tables():
    """(limbs, e10, q) per biased exponent E in 1.._FAST_EXPONENTS.

    With e2 = E - 1077 (the mantissa is scaled by 4), Ryū's e2 < 0 branch
    takes q = ⌊log10 5^-e2⌋ - 1, i = -e2 - q and the 125-bit truncation
    M = ⌊5^i / 2^k⌋ of 5^i, and then vr = ⌊4·m2·M / 2^j⌋, j = q - k, is the
    value times 10^-e10, e10 = q + e2.  ``limbs`` holds M·2^(121 - j) in five
    28-bit limbs; j is 118..121, so that is M·8 shifted right by j - 118.
    """
    minus_e2 = 1077 - np.arange(1, _FAST_EXPONENTS + 1)
    q = (minus_e2 * 732923 >> 20) - 1  # ⌊log10 5^-e2⌋ - 1
    i = minus_e2 - q
    eights, ks = [], []  # M·8 and k for each i
    power = 1
    for _ in range(int(i.max()) + 1):
        k = power.bit_length() - 125
        m = (power >> k if k >= 0 else power << -k) << 3
        eights.append([m >> (_LIMB * t) & _LIMB_MASK for t in range(5)])
        ks.append(k)
        power *= 5
    eight = np.array(eights, dtype=np.int64).T[:, i]
    shift = q - np.array(ks).take(i) - 118
    above = np.vstack([eight[1:], np.zeros_like(eight[:1])])
    limbs = np.zeros((5, _FAST_EXPONENTS + 1), dtype=np.int64)
    limbs[:, 1:] = eight >> shift | above << (_LIMB - shift) & _LIMB_MASK
    e10 = np.zeros(_FAST_EXPONENTS + 1, dtype=np.int64)
    e10[1:] = q - minus_e2
    qs = np.zeros(_FAST_EXPONENTS + 1, dtype=np.int64)
    qs[1:] = q
    return limbs, e10, qs


def _mul_shift(lows, high, exponent, limbs):
    """⌊(low + high·2^28) · M / 2^121⌋ for each array ``low`` of ``lows``,
    with M = Σ limbs[t, exponent]·2^(28t).

    Schoolbook multiplication on 28-bit limbs, carried column by column:
    each column sum stays below 2^58, so int64 holds it, and ``low`` may be
    negative.
    """
    carries = [0] * len(lows)
    across = 0  # high times the previous limb
    for t in range(5):
        limb = limbs[t].take(exponent)
        for i, low in enumerate(lows):
            column = low * limb + across + carries[i]
            carries[i] = column >> (_LIMB if t < 4 else _SHIFT - 4 * _LIMB)
        across = high * limb
    return [carry + (across << (5 * _LIMB - _SHIFT)) for carry in carries]


def _shortest(bits: np.ndarray):
    """(digits, e10) for the int64 bit patterns of doubles whose biased
    exponent is in 1.._FAST_EXPONENTS: the shortest decimal that reads back
    to each, nearest when several are that short, is ±digits · 10^e10."""
    limbs, e10, qs = _ryu_tables()
    exponent = bits >> 52 & 0x7FF
    fraction = bits & (1 << 52) - 1
    mv = (fraction | 1 << 52) << 2
    q = qs.take(exponent)
    vr_exact = (mv >> q << q) == mv  # v·10^-e10 is an integer: vr is exact
    # the halfway points to the neighbours: mv + 2 above; mv - 2 below, or
    # mv - 1 where v is a power of two and its lower neighbour is closer
    low, high = mv & _LIMB_MASK, mv >> _LIMB
    vr, vp, vm = _mul_shift((low, low + 2, low - 1 - ((fraction != 0) | (exponent == 1))),
                            high, exponent, limbs)
    # drop the trailing digits below which vp and vm still differ.  The table
    # keeps vp - vm >= 29, so the first digit always goes.
    removed = np.ones(len(bits), dtype=np.int64)
    for p in _POW10[2:]:
        more = vp // p > vm // p
        if not more.any():
            break
        removed += more
    # round vr at the last dropped digit: up past the half, or if vr would
    # fall out of the interval; half to even on an exact tie only
    scale = _POW10.take(removed - 1)
    kept = vr // scale
    digits = kept // 10
    last = kept - 10 * digits
    tie = (last == 5) & vr_exact & (kept * scale == vr) & (digits & 1 == 0)
    up = (digits == vm // (10 * scale)) | (last > 5) | ((last == 5) & ~tie)
    return digits + up, e10.take(exponent) + removed


@functools.cache
def _digit_tables():
    """(quads, suffixes): ``quads[n]`` is the ASCII of n as four digits, as
    a uint32; ``suffixes[x]`` the 8 bytes 'e-XX' of exponent -x (0: none)."""
    quads = np.indices((10,) * 4).reshape(4, -1).T + ord("0")  # row n: the digits of n
    suffixes = b"".join((b"e-%02d" % x if x >= 5 else b"").ljust(8, b"\0") for x in range(309))
    quads = quads.astype(np.uint8, order="C").view(np.uint32).ravel()
    return quads, np.frombuffer(suffixes, dtype=np.uint64)


@functools.cache
def _templates():
    """(templates, before, after), rows keyed by the sign, the lead ('0.'
    and its zeros, as 1 + zeros; 0: none) and the digits before the point
    (0: no point among the digits).  A template holds the lead and the
    point; ``before`` and ``after`` mask the columns the digits take before
    and after the point."""
    templates = np.zeros((2 * _LEADS * 17, REPR_WIDTH), dtype=np.uint8)
    before = np.zeros_like(templates)
    after = np.zeros_like(templates)
    for neg in range(2):
        for lead in range(_LEADS):
            prefix = b"-" * neg + (b"0." + b"0" * (lead - 1) if lead else b"")
            for point in range(17):
                key = (neg * _LEADS + lead) * 17 + point
                templates[key, :len(prefix)] = np.frombuffer(prefix, dtype=np.uint8)
                split = len(prefix) + point if point else REPR_WIDTH
                before[key, len(prefix):split] = 0xFF
                if point:
                    templates[key, split] = ord(".")
                    after[key, split + 1:] = 0xFF
    return templates, before, after


def _fill_source(bits: np.ndarray, source: np.ndarray):
    """Write the digits of the doubles with int64 bit patterns ``bits`` (each
    in Ryū's branch) into their rows of ``source``, right-aligned to end at
    byte ``_DIGITS_END``, with their exponent suffix after them.

    Returns each value's template key and the offset in ``source`` of the
    window whose first digit lands just after the lead.
    """
    quads, suffixes = _digit_tables()
    digits, e10 = _shortest(bits)
    k = np.searchsorted(_POW10, digits, side="right")
    decpt = e10 + k  # the point sits decpt digits after the first
    fixed = decpt > -4  # repr's fixed notation, for 1e-4 <= |v| < 1e16
    # fixed notation shows the zeros of an integer and one after the point
    pad = np.where(fixed, np.maximum(decpt + 1 - k, 0), 0)
    digits *= _POW10.take(pad)
    k += pad
    # 17 digits: one, then four groups of four (numpy's % is slower than this)
    first = digits // 10 ** 16
    source[:, _DIGITS_END - 17] = first + ord("0")
    rest = digits - first * 10 ** 16
    words = source.view(np.uint32)
    for word, p in enumerate((10 ** 12, 10 ** 8, 10 ** 4), start=_DIGITS_END // 4 - 4):
        group = rest // p
        rest -= group * p
        words[:, word] = quads.take(group)
    words[:, _DIGITS_END // 4 - 1] = quads.take(rest)
    source.view(np.uint64)[:, _DIGITS_END // 8] = suffixes.take(np.where(fixed, 0, 1 - decpt))
    neg = bits < 0
    lead = np.where(fixed & (decpt <= 0), 1 - decpt, 0)
    point = np.where(fixed, np.maximum(decpt, 0), k > 1)
    starts = np.arange(_DIGITS_END, source.size, _ROW) - k - (neg + lead + (lead > 0))
    return (neg * _LEADS + lead) * 17 + point, starts


def _lay_out(bits: np.ndarray, source: np.ndarray, rows: np.ndarray) -> None:
    """Write ``repr`` of the doubles with int64 bit patterns ``bits`` (each
    in Ryū's branch) into ``rows``, with ``source`` (``len(bits)`` rows of
    ``_ROW`` bytes, NUL but for what ``_fill_source`` writes) as scratch.

    A template gives the sign, the '0.' lead and the point; the digits and
    the suffix come from one window of the source row, shifted one column
    right after the point.
    """
    templates, before, after = _templates()
    key, starts = _fill_source(bits, source)
    # every REPR_WIDTH-byte window of the source, one per byte offset
    windows = np.ndarray((source.size - REPR_WIDTH + 1,), dtype=f"V{REPR_WIDTH}",
                         buffer=source, strides=(1,))
    shown = windows[starts].view(np.uint8).reshape(len(bits), REPR_WIDTH)
    shifted = np.empty_like(shown)  # one column right; column 0 is never after the point
    shifted.reshape(-1)[1:] = shown.reshape(-1)[:-1]
    shown &= before.take(key, axis=0)
    shifted &= after.take(key, axis=0)
    np.bitwise_or(shown, shifted, out=rows)
    rows |= templates.take(key, axis=0)


def repr_table(values: np.ndarray) -> np.ndarray:
    """``repr`` of each double of the 1-D ``values``, as NUL-padded bytes rows
    of width ``REPR_WIDTH`` (a ``(len(values), REPR_WIDTH)`` uint8 array).

    Formatted ``_CHUNK`` values at a time, with Ryū where it applies and
    Python's ``repr`` elsewhere.
    """
    values = np.ascontiguousarray(values, dtype=float)
    bits = values.view(np.int64)
    table = np.empty((len(values), REPR_WIDTH), dtype=np.uint8)
    source = np.zeros((min(_CHUNK, len(values)), _ROW), dtype=np.uint8)
    slow = []
    for start in range(0, len(values), _CHUNK):
        chunk = bits[start:start + _CHUNK]
        biased = chunk >> 52 & 0x7FF
        fast = (biased > 0) & (biased <= _FAST_EXPONENTS)
        if not fast.all():  # these get a stand-in here and Python's repr below
            slow.append(start + np.flatnonzero(~fast))
            chunk = np.where(fast, chunk, _ONE_BITS)
        _lay_out(chunk, source[:len(chunk)], table[start:start + len(chunk)])
    if slow:
        slow = np.concatenate(slow)
        text = np.array(list(map(repr, values[slow].tolist())), dtype=f"S{REPR_WIDTH}")
        table[slow] = text.view(np.uint8).reshape(len(slow), REPR_WIDTH)
    return table
