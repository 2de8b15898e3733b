"""Text export and import of map grids and fit profiles.

Maps and profiles share one CSV layout: a ``# spdcmaps map`` first line
(``# spdcmaps map profile``), ``# key: value`` header lines, then one
comma-separated row per sample, for maps one per cell with ``coord1``
varying fastest.  Floats carry 17 significant digits, so they read back
bitwise, and invalid cells are spelled ``NA``.  The same data always
gives the same bytes; the only timestamp is in the JSON sidecar.

Every float is written as the bytes ``"%.17g" % v`` gives.  Of the
values, zeros and the floats with 1e-4 <= |v| < 1e16, all fixed
notation, numpy formats a block at a time into 32-byte slots (_format):
the digits come from an exactly rounded integer, the text from lookup
tables.  Ties of the 17th digit and every other value, infinities
included, are left to ``"%.17g"`` itself.  A map's coordinates take one
text per axis value, which ``"%.17g"`` writes as a field (_fields): the
text and ',', NUL-padded to the widest beside it, the x fields once per
file and the y fields once per block.  A row is then its x field, its y
field and a slot per value, and the NULs are dropped.

Files are written a block of grid rows at a time and read a block of
text at a time, so memory does not grow with the file: the writer holds
one block's rows, the reader one block's lines plus the planes it
returns, into which each block is parsed.  A map whose ``shape`` is not
a grid of 1 to 2^24 cells (the sweep's cap), or whose planes would hold
more than the 2^26 values of a delay map at that cap, is refused before
anything is sized from it.
"""

import itertools
import json
import os
from datetime import datetime, timezone
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from . import maps
from .errors import DataFormatError

FORMAT_NAME = "spdcmaps map"

# characters of map text the reader takes at a time, about a thousand
# rows: read, NA-replaced and split into lines a block at a time, the text
# parses faster than when the file is iterated line by line
_READ_CHARS = 1 << 16

# A float's text is built in a slot of 32 bytes, four little-endian words:
#   bytes 0-6    '-', after it the "0." and zeros of exponents -4 to -1
#   bytes 7-24   the 17 significant digits, the point after digit E + 1
#                where 0 <= E < 16;  byte 31  ',' or '\n'
# Bytes not written are NUL.  E is the decimal exponent of the value,
# -4 <= E < 16, all fixed notation in %g, and as in %g trailing zeros
# after the point are dropped, the point with them where no digit follows.
_WORD = np.dtype("<u8")
_E_MIN, _E_MAX = -4, 16     # E of [1e-4, 1e16), and an estimate one high
_SPLIT = 134217729.0        # 2^27 + 1, Dekker's splitter


def _words(raw):
    """The 32-byte slot images in raw as a (4, slots) array of words."""
    return np.frombuffer(raw, _WORD).reshape(-1, 4).T


@lru_cache(maxsize=1)
def _tables():
    """The formatter's lookup tables, built on first use.  Per E: 10^(16 -
    E), an exact double, and its split, the words around the digits, and
    how many digits may be dropped and follow the point; per 4-digit
    group its ASCII and trailing zeros; per count of digits dropped, the
    masks of the digits kept."""
    exps = range(_E_MIN, _E_MAX + 1)
    scale, digits = [], []
    # per E: the bytes around the digits and the minus sign, and masks of
    # the digits that stay and of those moved up a byte past the point
    base, minus, same, moved = (bytearray(32 * len(exps)) for _ in range(4))
    for o, e in zip(itertools.count(0, 32), exps):
        hi = float(10 ** (16 - e))  # 10^0 to 10^20: exact
        split = hi * _SPLIT
        top = split - (split - hi)
        scale.append((hi, top, hi - top))
        start = 6 + e if e < 0 else 7  # first byte after the sign
        point = 8 + e if 0 <= e < 16 else 24  # 24: none among the digits
        minus[o + start - 1] = ord("-")
        base[o + start:o + 8] = b"0.000"[:7 - start] + b"0"
        if point < 24:
            base[o + point] = ord(".")
        same[o + 8:o + point] = b"\xff" * (point - 8)
        moved[o + point + 1:o + 25] = b"\xff" * (24 - point)
        # how many of the last 16 digits may be dropped (the integer
        # digits stay), and how many follow the point
        digits.append((min(16, 16 - e), 24 - point))
    # row c keeps all but the last c of the 17 digits: the masks of the
    # words of digits 1-8 and 9-16
    c, byte = np.ix_(range(17), range(8))
    kept = np.where([byte < 16 - c, byte < 8 - c], 0xFF, 0).astype(np.uint8)
    group = np.arange(10000, dtype=np.uint64)
    zeros = np.zeros(10000, np.intp)
    for m in range(1, 5):
        zeros[group % 10 ** m == 0] = m
    return SimpleNamespace(
        scale=np.array(scale).T.copy(), digits=np.array(digits).T.copy(),
        words=np.concatenate((_words(base)[:3], _words(minus)[:1],
                              _words(same)[1:3],
                              _words(moved)[1:4])).copy(),
        kept=kept.view(_WORD)[..., 0],
        quads=sum((group // 10 ** (3 - m) % 10 + 48) << np.uint64(8 * m)
                  for m in range(4)),
        zeros=zeros, na=np.frombuffer(b"NA".ljust(32, b"\0"), _WORD))


def _scaled(t, a, i):
    """p + r = a 10^(16 - E) exactly, E at table rows i: p = fl(a 10^(16 -
    E)) and r its rounding error (Dekker's product)."""
    hi, hi_top, hi_low = np.take(t.scale, i, axis=1)
    p = a * hi
    split = a * _SPLIT
    top = split - (split - a)
    low = a - top
    return p, ((top * hi_top - p) + top * hi_low + low * hi_top) \
        + low * hi_low


def _fallback(v):
    """The slot of one float as "%.17g" % v writes it."""
    return np.frombuffer((b"%.17g" % v).ljust(32, b"\0"), _WORD)


def _format(values):
    """The (n, 4) word slots of n floats: the text "%.17g" % v gives, NA
    for NaN, NUL padded.  Where 1e-4 <= |v| < 1e16, |v| is rounded to the
    17-digit N = round(|v| 10^(16 - E)); at a tie of that rounding, and
    for the other nonzero v (inf included), _fallback fills the slot."""
    t = _tables()
    v = np.asarray(values, dtype=float).ravel()
    chars = np.empty((v.size, 4), _WORD)
    mag = np.abs(v)
    ok = (mag >= 1e-4) & (mag < 1e16)
    a = np.where(ok, mag, 1.0)  # 0, NaN and the rest: a placeholder
    # an estimate of E, one off at most; a >= 1e-4, so E >= -4
    i = np.maximum(np.floor(np.log10(a)).astype(np.intp), _E_MIN) - _E_MIN
    p, r = _scaled(t, a, i)
    # the estimate is one off where p + r is outside [1e16, 1e17)
    low = (p - 1e16) + r < 0
    high = (p - 1e17) + r >= 0
    fix = np.flatnonzero(low | high)
    i[fix] += np.where(high[fix], 1, -1)
    p[fix], r[fix] = _scaled(t, a[fix], i[fix])
    rounded = np.rint(r)
    tie = np.abs(r - rounded) == 0.5
    # p is an integer above 2^53, and N < 10^17: below 10^(E + 1) the
    # doubles are further apart than half a unit of the 17th digit
    n = np.where(ok, p.astype(np.int64) + rounded.astype(np.int64), 0)
    n = n.view(np.uint64)
    first, rest = np.divmod(n, 10 ** 16)
    g1, g2 = np.divmod(rest // 10 ** 8, 10 ** 4)
    g3, g4 = np.divmod(rest % 10 ** 8, 10 ** 4)
    zeros = t.zeros[g4]
    k = np.flatnonzero(g4 == 0)  # a round last group: count on
    for g in (g3, g2, g1):
        zeros[k] += t.zeros[g[k]]
        k = k[g[k] == 0]
    limit, after = np.take(t.digits, i, axis=1)
    dropped = np.minimum(zeros, limit)
    lead, base1, base2, minus, same1, same2, moved1, moved2, moved3 \
        = np.take(t.words, i, axis=1)
    x1 = (t.quads[g1] | t.quads[g2] << 32) & t.kept[0][dropped]
    x2 = (t.quads[g3] | t.quads[g4] << 32) & t.kept[1][dropped]
    w0 = lead | first << 56 | minus * np.signbit(v)
    point = dropped < after
    # the point goes in by moving the digits after it up a byte
    chars[:, 0] = w0
    chars[:, 1] = ((x1 & same1) | ((x1 << 8 | w0 >> 56) & moved1)
                   | base1 * point)
    chars[:, 2] = ((x2 & same2) | ((x2 << 8 | x1 >> 56) & moved2)
                   | base2 * point)
    chars[:, 3] = x2 >> 56 & moved3
    chars[v != v] = t.na
    for at in np.flatnonzero(tie | ~ok & (mag > 0)):
        chars[at] = _fallback(v[at])
    return chars


def _fields(values):
    """The (n, width) bytes of n coordinates: each one's text and ',',
    left-aligned and NUL-padded to the widest.  There are few of them, and
    "%.17g" itself writes them faster than _format and a compaction."""
    text = np.array([b"NA," if v != v else b"%.17g," % v
                     for v in np.asarray(values, dtype=float).tolist()])
    return text.view(np.uint8).reshape(len(text), -1)


def _write_table(path, title, fields, meta, axes, columns):
    """'# <title>', a '# key: value' line per field and '# meta: <json>',
    then a comma-separated row per cell of a (ny, nx) grid, row-major.

    axes is a map's x and y, whose values lead each row, or () for a
    table, an (ny, 1) grid; columns are the per-cell floats, each a (ny,
    nx) plane or ny values.  A row is assembled as [x field | y field |
    a 32-byte _format slot per column, its last byte a comma or the line
    end], and the NULs are dropped.  The x fields (_fields) are made once;
    the y fields and the slots a block of whole grid rows at a time, the
    sweep's blocks, in a buffer allocated once: memory is bounded by one
    block, not by the file.
    """
    ny = len(columns[0])
    nx = len(axes[0]) if axes else 1
    blocks = maps._row_blocks(ny, nx)
    lines = [f"# {title}"]
    lines += (f"# {key}: {value}" for key, value in fields)
    lines.append("# meta: " + json.dumps(meta, sort_keys=True,
                                         separators=(",", ":")))
    none = np.empty((ny, 0), np.uint8)  # a table's rows lead with no field
    xs = _fields(axes[0]) if axes else none[:1]
    wx = xs.shape[1]
    ends = np.full(len(columns), ord(","), np.uint8)
    ends[-1] = ord("\n")
    # a y field takes less than a slot; the first block is the largest,
    # and a profile may have no rows
    most = wx + 32 * (len(columns) + bool(axes))
    buf = np.empty(blocks[0][1] * nx * most if blocks else 0, np.uint8)
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode())
        for i, j in blocks:
            ys = _fields(axes[1][i:j]) if axes else none[i:j]
            at = wx + ys.shape[1]  # where the slots start
            width = at + 32 * len(columns)
            rows = buf[:(j - i) * nx * width].reshape(j - i, nx, width)
            rows[:, :, :wx] = xs
            rows[:, :, wx:at] = ys[:, None]
            cells = rows.reshape(-1, width)
            for col, values in enumerate(columns):
                cells[:, at + 32 * col:at + 32 * col + 32] = _format(
                    values[i:j]).view(np.uint8).reshape(-1, 32)
            cells[:, at + 31::32] = ends
            fh.write(rows[rows != 0])
    return path


def sidecar_path(path):
    """Metadata sidecar next to a data file: out.csv -> out.json."""
    base, _ = os.path.splitext(str(path))
    return base + ".json"


def write_map_csv(grid, path, version):
    """Serialize a MapGrid to CSV.  Returns the path written."""
    ny, nx = grid.values[0].shape
    fields = (("version", version), ("kind", grid.kind),
              ("mode", grid.mode), ("shape", f"{ny} {nx}"),
              ("columns", ",".join(grid.coord_names + grid.value_names)))
    return _write_table(path, FORMAT_NAME, fields, grid.metadata,
                        (grid.coord1, grid.coord2), grid.values)


def write_sidecar(path, grid, version, extra):
    """JSON metadata sidecar (the only place a timestamp appears): the
    map's header fields, metadata and timestamp, plus the keys of extra."""
    ny, nx = grid.values[0].shape
    doc = {
        "format": FORMAT_NAME,
        "version": version,
        "kind": grid.kind,
        "mode": grid.mode,
        "shape": [ny, nx],
        "columns": list(grid.coord_names + grid.value_names),
        "meta": grid.metadata,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        **extra,
    }
    out = sidecar_path(path)
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out


def read_map_csv(path):
    """Parse a CSV written by write_map_csv back into a MapGrid.

    The reconstruction is exact: every float (coordinates included)
    round-trips bitwise through the 17-digit formatting.  Each block
    of text is parsed straight into the planes returned, so the reader
    holds one block's lines plus those planes, never the whole text or
    a second copy of the grid.  A file that is not UTF-8 text or not a
    map, lacks a header field, has a shape that is not a grid of 1 to
    2^24 cells or that with its columns is more than 2^26 values, names
    fewer than two coordinate and one value column, has a meta line
    that is not a JSON object, names an unknown grid mode or map kind
    (maps._KINDS), has columns other than the mode's coordinates and the
    kind's values, has missing, extra or ragged rows, holds a
    non-numeric cell, or has coordinates that are not a grid (a row's x
    unlike row 0's, or a y unlike its row's first) raises DataFormatError
    naming the path.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _read_map(path, fh)
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc})") from None


def _read_map(path, fh):
    first = fh.readline().rstrip("\n")
    if first != f"# {FORMAT_NAME}":
        raise DataFormatError(f"{path}: not a {FORMAT_NAME} file "
                              f"(leading line {first!r})")
    header = {}
    line = fh.readline()
    while line.startswith("#"):
        key, sep, value = line[1:].strip().partition(":")
        if sep:
            header[key.strip()] = value.strip()
        line = fh.readline()
    try:
        ny, nx = (int(t) for t in header["shape"].split())
        cols = tuple(header["columns"].split(","))
        kind = header["kind"]
        mode = header["mode"]
        meta = json.loads(header.get("meta", "{}"))
    except (KeyError, ValueError) as exc:
        raise DataFormatError(f"{path}: missing or bad header ({exc})") \
            from None
    # checked before anything is sized from it
    if not (ny >= 1 and nx >= 1 and ny * nx <= maps._MAX_CELLS):
        raise DataFormatError(f"{path}: shape {ny} x {nx} is not a grid of "
                              f"1 to 2^24 cells")
    if len(cols) < 3:
        raise DataFormatError(f"{path}: columns {header['columns']!r} name "
                              f"fewer than two coordinates and a value")
    if not isinstance(meta, dict):
        raise DataFormatError(f"{path}: meta line is not a JSON object")
    if mode not in maps._COORDS:
        raise DataFormatError(f"{path}: unknown grid mode {mode!r}")
    n, ncols = ny * nx, len(cols)
    # the widest map a sweep writes, its widest kind at the cap
    widest = 2 + max(len(kind[0]) for kind in maps._KINDS.values())
    if n * ncols > widest * maps._MAX_CELLS:
        raise DataFormatError(f"{path}: shape {ny} x {nx} with {ncols} "
                              f"columns is more than 2^26 values")
    if kind not in maps._KINDS:
        raise DataFormatError(f"{path}: unknown map kind {kind!r}")
    if cols != maps._COORDS[mode] + maps._KINDS[kind][0]:
        raise DataFormatError(f"{path}: columns unlike a {mode} {kind} map")
    commas = ncols - 1
    bad_shape = DataFormatError(
        f"{path}: expected {n} rows of {ncols} columns")
    while line.isspace():
        line = fh.readline()
    planes = np.empty((ncols, ny, nx))
    table = planes.reshape(ncols, n)  # a view: each block's rows land in it
    row, tail, chunk = 0, line, True
    while chunk:
        chunk = fh.read(_READ_CHARS)
        lines = (tail + chunk).replace("NA", "nan").split("\n")
        # a partial line, which the next chunk completes
        tail = lines.pop() if chunk else ""
        k = min(len(lines), n - row)
        if any(map(str.strip, lines[k:])):  # a line past the last row
            raise bad_shape
        if not k:
            continue
        # loadtxt takes the row width from the first row and warns on a
        # block of comment or blank lines instead of raising
        first = lines[0]
        if first.count(",") != commas or not first.partition("#")[0].strip():
            raise bad_shape
        try:
            block = np.loadtxt(lines[:k], delimiter=",", comments="#",
                               ndmin=2)
        except ValueError as exc:
            if any(text.count(",") != commas for text in lines[:k]):
                raise bad_shape from None
            raise DataFormatError(f"{path}: bad numeric cell ({exc})") \
                from None
        if block.shape != (k, ncols):  # a blank or comment line among rows
            raise bad_shape
        table[:, row:row + k] = block.T
        row += k
    if row != n:
        raise bad_shape
    # compared bitwise, since the writer emits the same text for each x
    # and y; a row at a time, so no plane-sized temporary is made
    xs, ys = planes[0].view(np.uint64), planes[1].view(np.uint64)
    for i in range(ny):
        if not (np.array_equal(xs[i], xs[0]) and (ys[i] == ys[i, 0]).all()):
            raise DataFormatError(f"{path}: coordinates of row {i} are not "
                                  f"those of a grid")
    return maps.MapGrid(
        kind=kind, mode=mode, coord1=planes[0, 0], coord2=planes[1, :, 0],
        coord_names=cols[:2], value_names=cols[2:], values=tuple(planes[2:]),
        metadata=meta)


def write_profile_csv(path, version, columns, arrays, meta):
    """Profile export (fit output) in the map layout, one row per sample."""
    fields = (("version", version), ("columns", ",".join(columns)))
    return _write_table(path, f"{FORMAT_NAME} profile", fields, meta, (),
                        arrays)
