"""Float tables as CSV text with 17 significant digits, vectorised.

rows(table) returns, byte for byte, what format(x, ".17g") writes for every
value, with ',' between columns and '\\n' after each row; SolveReport.to_csv
writes its profile through it.

The digits come from a double-double product (Dekker, "A floating-point
technique for extending the available precision", 1971): with
p = floor(log10|x|), |x| * 10^(16-p) is formed exactly enough that its
rounding to the 17-digit integer is certain except within a guard of a tie.
Those values, and zeros, subnormals, non-finite values and values outside
the exponent window of the tables, are written by format() itself, whose
correctly rounded conversion (Gay, "Correctly rounded binary-decimal and
decimal-binary conversions", 1990) is the oracle: the text is CPython's for
every input.

The layout follows the 'g' rules: fixed notation for -4 <= p < 17, else
d.ddd...e+XX, trailing zeros and a bare point dropped.  Each value gets a
fixed plan of bytes, put together from rows of small byte tables, with NUL
in unused bytes, and one bytes.translate drops the NULs.  Values go
through in blocks of _BLOCK_ROWS rows: the temporaries are a block's size.
"""

import math

import numpy as np

# Values with a decimal exponent in [_P_MIN, _P_MAX] take the double-double
# path, whose error at 17 digits is under 2^-47; a fraction within _GUARD
# of 1/2 goes to format().
_P_MIN, _P_MAX = -100, 99
_GUARD = 2.0**-32
_VELTKAMP = 2.0**27 + 1
# Rows per block.  SolveReport.to_csv of (4, 2, .9) annulus reports, best
# of 3 x 5 calls on a 2-core Xeon, the same bytes at every size: at grids
# 1e3, 1e4 and 1e5, 0.62, 5.8 and 63 ms at 512 rows, 0.50, 4.7 and 54 ms
# at 2048, and 1024 to 4096 rows within noise of 2048.  The writer runs
# under solver._heap_policy, whose 32 MiB mmap threshold keeps a block's
# temporaries, each well under 1 MiB at 2048 rows, in the heap.
_BLOCK_ROWS = 2048
# A value's plan of bytes: the sign and a "0.00" prefix first, the digit
# block with its point in the 18 from _BODY, the exponent in the next 6,
# the separator last.
_PLAN_BYTES = 32
_BODY = 8


def rows(table: np.ndarray) -> str:
    """The rows of a float64 (rows, columns) table as text: every value as
    format(x, ".17g"), ',' between columns and '\\n' after each row."""
    seps = np.full(table.shape[1], ord(","), np.uint8)
    seps[-1] = ord("\n")
    return b"".join(_block_text(table[start:start + _BLOCK_ROWS], seps)
                    for start in range(0, len(table), _BLOCK_ROWS)).decode("ascii")


def _block_text(block: np.ndarray, seps: np.ndarray) -> bytes:
    """The rows of a (rows, columns) block, seps[j] after column j.

    Each value gets _PLAN_BYTES bytes, built from rows of byte tables
    looked up per value: the sign and "0.00" prefix with the exponent text
    (by sign and p), and the digit block (by layout point * 18 + kept,
    point the digits before the point, kept the digits written): digit s
    before the point, the point at slot `point` when a kept digit follows
    it, digit s - 1 after it.
    """
    x = block.ravel()
    high, low, row, fast = _scaled17(x)
    digits, count = _digit_pairs(high, low)
    del high, low
    layout = _POINT[row] * 18
    layout += np.maximum(count, _KEPT[row])
    # Digit s at byte _BODY + s of each value's plan, and one byte later.
    shifted = np.zeros(x.size * _PLAN_BYTES + 1, np.uint8)
    shifted[1:].reshape(x.size, _PLAN_BYTES)[:, _BODY:_BODY + 17] = digits.T
    plan = _rows_of(_BEFORE, layout)
    np.minimum(plan, shifted[1:].reshape(plan.shape), out=plan)
    after = _rows_of(_AFTER, layout)
    np.minimum(after, shifted[:-1].reshape(plan.shape), out=after)
    del shifted
    np.maximum(plan, after, out=plan)
    np.maximum(plan, _rows_of(_DOT, layout), out=plan)
    np.maximum(plan, _rows_of(_TEXT, np.where(x < 0, row + _TEXT_SIGN, row)), out=plan)
    plan[:, -1].reshape(block.shape)[...] = seps
    for j in np.flatnonzero(~fast):
        text = np.frombuffer(format(float(x[j]), ".17g").encode("ascii"), np.uint8)
        plan[j, :-1] = 0
        plan[j, :text.size] = text
    return plan.tobytes().translate(None, b"\0")


def _rows_of(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """table[index] for a (n, _PLAN_BYTES) byte table, gathered as 8-byte
    words."""
    return np.take(table.view(np.uint64), index, axis=0).view(np.uint8)


def _scaled17(x: np.ndarray):
    """The 17-digit integer nearest |x| * 10^(16-p), p = floor(log10|x|).

    Returns (high, low, row, fast): the integer as high * 10^8 + low, both
    exact in floats, the table row of p, and whether the integer is certain.
    |x| * 10^(16-p) = s + t to under 2^-47 (_times_pow10), so its rounding
    is certain unless t's fraction lies within _GUARD of 1/2 (exact ties
    included).  Also uncertain: a floor of s + t below 10^16 or a rounding
    that carries to 10^17 (p off by one), and |x| outside
    [10^_P_MIN, 10^(_P_MAX+1)), where zeros, subnormals and non-finite
    values lie.
    """
    a = np.abs(x)
    fast = (a >= 10.0**_P_MIN) & (a < 10.0**(_P_MAX + 1))
    np.copyto(a, 1.0, where=~fast)
    # p is floor(log10 2^E) or one more, E the binary exponent.
    row = _ROW_BELOW[(a.view(np.int64) >> 52) - (1023 + _E_MIN)]
    row = np.where(a >= _POW10_NEXT[row], row + 1, row)
    s, t = _times_pow10(a, row)
    whole = np.floor(t)
    t -= whole
    fast &= np.abs(t - 0.5) > _GUARD
    # high * 10^8 is high * 5^8 * 2^8 with high * 5^8 < 2^53, and
    # s - 10^16 is exact.
    fast &= s - 1e16 >= -whole
    high = np.floor(s / 1e8)
    low = s - high * 1e8
    low += whole
    low += np.floor(t + 0.5)
    carry = np.floor(low / 1e8)
    high += carry
    low -= carry * 1e8
    fast &= high < 1e9
    return high, low, row, fast


def _digit_pairs(high: np.ndarray, low: np.ndarray):
    """The 17 digits of high * 10^8 + low as (17, size) ASCII bytes, and
    how many are significant (through the last nonzero one).

    Pairs of digits are floor(v / 100^k) - 100 floor(v / 100^(k+1)): high
    gives a lead digit and four pairs, low four pairs.  v times 100^-k
    rounded up has the floor of v / 100^k, as 10^9 * 2^-52 is far below
    100^-k.  The quotients of high and of low are separate arrays, the
    pairs bytes and the counts int8, so no temporary holds more than five
    float64 values per input value.
    """
    lead = np.multiply(high, _HUNDREDTHS[4::-1])
    np.floor(lead, out=lead)
    lead[1:] -= lead[:4] * 100.0
    tail = np.multiply(low, _HUNDREDTHS[3::-1])
    np.floor(tail, out=tail)
    tail[1:] -= tail[:3] * 100.0
    digits = np.empty((17, high.size), np.uint8)
    np.add(lead[0], ord("0"), out=digits[0], casting="unsafe")
    pairs = np.empty((8, high.size), np.uint8)
    pairs[:4] = lead[1:]
    pairs[4:] = tail
    del lead, tail
    count = np.take(_PAIR_DIGITS, pairs)
    count += _PAIR_START
    count = np.maximum(count.max(axis=0), 1)
    text = np.take(_PAIRS, pairs).view(np.uint8)
    digits[1::2] = text[:, 0::2]
    digits[2::2] = text[:, 1::2]
    return digits, count


def _times_pow10(a: np.ndarray, row: np.ndarray):
    """a * 10^(16-p), p the decimal exponent of `row`, as s + t with s the
    rounded product: Dekker's product without FMA, from the Veltkamp
    splits a1 + a2 and hi1 + hi2, gives a * hi = s0 + err exactly, and
    a * lo joins the error."""
    hi, hi1, hi2, lo = np.take(_POW10_PARTS, row, axis=1)
    split = _VELTKAMP * a
    a1 = split - (split - a)
    a2 = a - a1
    s0 = a * hi
    err = a1 * hi1 - s0
    err += a1 * hi2
    err += a2 * hi1
    err += a2 * hi2
    err += a * lo
    s = s0 + err
    return s, err - (s - s0)


def _pow10_rows():
    """10^(16-p) for _P_MIN - 1 <= p <= _P_MAX + 1 as hi + lo, one column
    per p of the rows hi, hi1, hi2, lo: hi correctly rounded, with Veltkamp
    split hi1 + hi2, and lo the remainder correctly rounded, from Python
    ints (int true division rounds correctly)."""
    hi, hi1, lo = [], [], []
    for p in range(_P_MIN - 1, _P_MAX + 2):
        num, den = (10**(16 - p), 1) if p <= 16 else (1, 10**(p - 16))
        h = num / den
        h_num, h_den = h.as_integer_ratio()
        split = _VELTKAMP * h
        hi.append(h)
        hi1.append(split - (split - h))
        lo.append((num * h_den - h_num * den) / (den * h_den))
    hi, hi1 = np.array(hi), np.array(hi1)
    return np.stack((hi, hi1, hi - hi1, np.array(lo)))


def _layout_rows():
    """The 'g' layout of 17 digits at decimal exponent p, per row p of
    _pow10_rows: fixed notation for -4 <= p < 17, else d.ddd...e+XX.
    Returns 10^(p+1) rounded, the digits before the point (18: the point
    is in the "0.00" prefix), the digits kept whatever their value (a
    fixed integer part), and the plan bytes of the text around the digit
    block: the sign and prefix, and the exponent, for sign 0 then sign 1."""
    exponents = range(_P_MIN - 1, _P_MAX + 2)
    point = np.array([e + 1 if 0 <= e < 17 else 18 if -4 <= e < 0 else 1
                      for e in exponents], np.intp)
    kept = np.array([e + 1 if 0 <= e < 17 else 0 for e in exponents], np.intp)
    text = [(sign + ("0." + "0" * (-e - 1) if -4 <= e < 0 else "")).ljust(_BODY, "\0")
            + "\0" * 18 + ("" if -4 <= e < 17 else f"e{e:+03d}").ljust(6, "\0")
            for sign in ("", "-") for e in exponents]
    return (np.array([float(f"1e{e + 1}") for e in exponents]), point, kept,
            np.frombuffer("".join(text).encode("ascii"), np.uint8).reshape(len(text), -1))


def _body_masks():
    """Plan bytes of the digit block per layout point * 18 + kept (point:
    digits before the point, 18 for none; kept: digits written), each
    (19 * 18 layouts, _PLAN_BYTES): 255 at the slots of kept digits before
    the point, 255 at those after it, and '.' at slot `point` when a kept
    digit follows it."""
    slot = np.arange(18.0)
    point = np.repeat(np.arange(19.0), 18)[:, None]
    kept = np.tile(np.arange(18.0), 19)[:, None]
    masks = (np.where((slot < point) & (slot < kept), 255.0, 0.0),
             np.where((slot > point) & (slot <= kept), 255.0, 0.0),
             np.where((slot == point) & (point < kept), float(ord(".")), 0.0))
    plans = np.zeros((len(masks), point.size, _PLAN_BYTES), np.uint8)
    plans[:, :, _BODY:_BODY + 18] = masks
    return plans


_POW10_PARTS = _pow10_rows()
_POW10_NEXT, _POINT, _KEPT, _TEXT = _layout_rows()
_TEXT_SIGN = _POINT.size
_BEFORE, _AFTER, _DOT = _body_masks()
# The row of floor(log10 2^E) for the binary exponents E of the window
# [10^_P_MIN, 10^(_P_MAX+1)), which floats floor exactly: E log10 2 stays
# far from integers.
_E_MIN = math.frexp(10.0**_P_MIN)[1] - 1
_ROW_BELOW = np.array([math.floor(e * math.log10(2.0)) - (_P_MIN - 1)
                       for e in range(_E_MIN, math.frexp(10.0**(_P_MAX + 1))[1])],
                      np.intp)
# 100^-k rounded up, k = 0 .. 4.
_HUNDREDTHS = np.array([[math.nextafter(100.0**-k, 1.0)] for k in range(5)])
# The two ASCII digits of 0 .. 99 as one uint16; how many of them are
# significant ("00": none, and -16 keeps its pair's last slot below 1); the
# slot where each of the eight pairs starts.
_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode("ascii"),
                       np.uint16)
_PAIR_DIGITS = np.array([2 if i % 10 else 1 if i else -16 for i in range(100)], np.int8)
_PAIR_START = np.arange(1, 17, 2, dtype=np.int8)[:, None]
