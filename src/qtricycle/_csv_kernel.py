"""The CSV kernel of :func:`qtricycle.cli.emit_report`: a report in one byte
buffer, its float cells as the exact ``%.17e`` digits of an array kernel, and
each value of a take formatted once, its rows gathered by the take's index.

``cli`` imports this module only once a report needs it, so a run that
writes no large CSV report never compiles it.
"""

import functools

import numpy as np


@functools.cache
def _digit_words():
    """uint32 words of 0000-9999, each its 4 ASCII digits, the first in the low byte."""
    two = np.arange(100)
    tens = two // 10
    two = 0x3030 + tens + (two - tens * 10) * 0x100
    return (two[:, None] + two * 0x10000).ravel().astype(np.uint32)


def _put_floats(words, keep, x, sep):
    """Write the float cells ``x`` (rows, columns) into ``words`` and ``keep``,
    (rows, columns, 7) uint32 views of the buffer and of its keep mask: each
    cell's 7 words, its separator from ``sep`` (one per column, or an array
    that broadcasts to x) in the last.

    The 18 digits n and the exponent E of ``"%.17e" % v`` are exact: with
    k = 17 - E, E = floor(log10|v|), y = |v|*10^k = a*(5/4)^k for a = |v|*8^k,
    exact and normal for finite v != 0, and y is p + q: p = fl(a*hi), q its
    exact Dekker error (no FMA) plus a*lo, for (5/4)^k = hi + lo to 2^-106
    from exact integers; y is within about 2e-14 and n is y rounded.  A cell
    whose fraction of y lies within 1e-6 of 1/2 (a possible tie), whose
    floor(y) lies outside [10^17, 10^18) (log10 off by one next to a power of
    ten) or whose y rounds up to 10^18 takes ``"%.17e"`` itself.  n splits into
    digits by // (a remainder is a - a // b * b: int64 % is about 4x slower),
    in the buffer's row order.  The words are built with integer +, -, * and
    //, and the checks are float compares, so that the kernel touches few
    numpy loops that the rest of the program does not."""
    a = np.abs(x)
    fast = (a > 0.0) & (a < np.inf)
    a[~fast] = 1.0
    E = np.floor(np.log10(a))
    k = (17 - E).astype(np.int64)
    fracs = [(5 ** max(j, 0) << max(-2 * j, 0), 5 ** max(-j, 0) << max(2 * j, 0))
             for j in range(k.min(), k.max() + 1)]
    hi = [num / den for num, den in fracs]  # (5/4)^j = num/den rounded, then the residual
    lo = [(num * d - n * den) / (den * d)
          for (num, den), (n, d) in zip(fracs, map(float.as_integer_ratio, hi))]
    a = np.ldexp(a, (3 * k).astype(np.int32))  # its int64 loop is slower
    k -= k.min()
    b, q = np.array(hi)[k], np.array(lo)[k] * a
    p = a * b
    ah, bh = a * 134217729.0, b * 134217729.0  # Dekker's split by 2**27 + 1
    ah -= ah - a
    bh -= bh - b
    a -= ah  # the low halves
    b -= bh
    q += ((ah * bh - p) + ah * b + a * bh) + a * b
    del a, k, b, ah, bh  # each temporary goes once used: the buffer sets the peak
    f = np.floor(q)
    q -= f  # the fraction of y
    # floor(y) = p + f and y rounded = p + f + round(q), compared with 10^17 and
    # 10^18 exactly, as p - 10^m is exact wherever p is near 10^m (Sterbenz)
    fast &= (np.abs(q - 0.5) > 1e-6) & (p - 1e17 >= -f)
    f += np.floor(q + 0.5)
    fast &= p - 1e18 < -f
    n = p.astype(np.int64) + f.astype(np.int64)
    del p, q, f
    zero, finite, nan = x == 0.0, np.isfinite(x), np.isnan(x)
    redo = np.flatnonzero(~fast & ~zero & finite)
    if redo.size:
        text = ["%.17e" % abs(v) for v in x.flat[redo].tolist()]
        n.flat[redo] = [int(t[0] + t[2:19]) for t in text]
        E.flat[redo] = [int(t[20:]) for t in text]
    n[zero] = E[zero] = 0
    top = n // 10 ** 8  # the 10 leading digits
    lead = top // 10 ** 8  # the 2 digits of "d.d"
    tens = lead // 10
    w0 = 0x302E302D + tens * 0x100 + (lead - tens * 10) * 0x1000000  # "-d.d"
    w0[~finite] = 0x666E692D  # "-inf"
    w0[nan] = 0x6E616E2D  # "-nan"
    words[:, :, 0] = w0
    for c, eight in ((1, top - lead * 10 ** 8), (3, n - top * 10 ** 8)):
        four = eight // 10000  # two 4-digit groups from the table
        words[:, :, c] = _digit_words()[four]
        words[:, :, c + 1] = _digit_words()[eight - four * 10000]
    e = np.abs(E)
    e, big = e.astype(int), e > 99  # a 3-digit exponent
    tens, hundreds = e // 10, e // 100
    w5 = 0x30302B65 + hundreds * 0x10000 + (tens - hundreds * 10) * 0x1000000  # "e+hd"
    w5[E < 0] += 0x200  # "e-hd"
    words[:, :, 5] = w5
    words[:, :, 6] = 0x30 + (e - tens * 10) + np.array(sep)  # "u" and the separator
    minus = np.signbit(x) & ~nan
    keep[:, :, 0] = 0x01010100  # not the sign; masks are set by bool index alone, so
    keep[:, :, 6] = 0x100  # that the kernel touches no bool-to-int cast
    keep[:, :, 0][minus] = 0x01010101
    keep[:, :, 1:6][finite] = 0x01010101
    keep[:, :, 5][finite & ~big] = 0x01000101
    keep[:, :, 6][finite] = 0x101


def _put_rows(out, rows, index):
    """out[i] = rows[index[i]] (rows[i] without an index), a C-contiguous row as one item."""
    if index is None:
        out[...] = rows
        return
    row = np.dtype((np.void, rows.itemsize * rows.shape[1]))
    out.view(row)[:, 0] = rows.view(row)[index, 0]


def csv_bytes(columns, cells, texts):
    """The UTF-8 CSV text of a report, as a uint8 array, from its columns, each
    (values, index) in ``cells``, cell i values[index[i]] (values[i] where index
    is None); ``texts`` holds the UTF-8 values of each column that is not of
    floats only, by index.

    A buffer row holds a line: 7 uint32 words for each float cell ("-d.d",
    four 4-digit groups from a table, "e+hd", "u" and the separator), and for
    any other column its cell from ``texts`` in a slot as wide as its longest
    cell.  A keep mask drops the padding, a positive sign, an exponent's
    leading 0 and the middle of ``nan`` and ``inf``.  A take's values fill
    slots once (all float takes' in one kernel call), which its rows gather."""
    lens = {j: np.fromiter(map(len, text), float, len(text))  # float: see _put_floats
            for j, text in texts.items()}
    widths = [int(lens[j].max()) // 4 + 1 if j in texts else 7  # in words
              for j in range(len(cells))]
    values, index = cells[0]
    ends, n_rows = np.cumsum(widths).tolist(), len(values if index is None else index)
    sep = [0x2C00] * (len(ends) - 1) + [0x0A00]  # "," after a cell, "\n" after the last
    head = (",".join(columns) + "\n").encode("utf-8", "surrogatepass")
    words = np.zeros((1 + n_rows, max(ends[-1], len(head) // 4 + 1)), np.uint32)
    keep = np.zeros_like(words)
    chars, kept = words.view(np.uint8), keep.view(bool)  # row 0 holds the header
    chars[0, :len(head)], kept[0, :len(head)] = np.frombuffer(head, np.uint8), True
    floats = [j for j in range(len(cells)) if j not in texts]
    takes = [j for j in floats if cells[j][1] is not None]
    groups = []  # runs of adjacent float columns of about 4096 cells at most, so that
    for j in [j for j in floats if j not in takes]:  # the kernel's temporaries stay small
        if groups and groups[-1][-1] == j - 1 and (len(groups[-1]) + 1) * n_rows <= 4096:
            groups[-1].append(j)
        else:
            groups.append([j])
    for group in groups:
        block = slice(ends[group[0]] - 7, ends[group[-1]])
        _put_floats(*(v[1:, block].reshape(n_rows, -1, 7) for v in (words, keep)),
                    np.stack([cells[j][0] for j in group], axis=1), [sep[j] for j in group])
    if takes:  # their values as one column, each with its take's separator
        x = np.concatenate([cells[j][0] for j in takes])[:, None]
        x_sep = np.concatenate([np.full(len(cells[j][0]), sep[j]) for j in takes])[:, None]
        slots = np.zeros((2, *x.shape, 7), np.uint32)  # words and keep mask
        for at in range(0, len(x), 4096):
            part = slice(at, at + 4096)
            _put_floats(slots[0, part], slots[1, part], x[part], x_sep[part])
        start = 0
        for j in takes:
            values, index = cells[j]
            for buffer, slot in zip((words, keep), slots[:, start:start + len(values), 0]):
                _put_rows(buffer[1:, ends[j] - 7:ends[j]], slot, index)
            start += len(values)
    for j, text in texts.items():
        w, cell_chars, cell_kept = 4 * widths[j], chars[1:, :4 * ends[j]], kept[1:, :4 * ends[j]]
        _put_rows(cell_chars[:, -w:],
                  np.array(text, dtype=f"S{w}").view(np.uint8).reshape(-1, w), cells[j][1])
        _put_rows(cell_kept[:, -w:], np.arange(w) < lens[j][:, None], cells[j][1])
        cell_chars[:, -1], cell_kept[:, -1] = sep[j] >> 8, True
    return chars[kept]
