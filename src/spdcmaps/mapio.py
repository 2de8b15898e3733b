"""Text export and import of map grids and fit profiles.

Maps and profiles share one CSV layout: a ``# spdcmaps map`` first line
(``# spdcmaps map profile``), ``# key: value`` header lines, then one
comma-separated row per sample, for maps one per cell with ``coord1``
varying fastest.  Floats carry 17 significant digits, so they read back
bitwise, and invalid cells are spelled ``NA``.  The same data always
gives the same bytes; the only timestamp is in the JSON sidecar.

Files are written a block of grid rows at a time and read a block of
text at a time, so memory does not grow with the file: the writer holds
one block's strings, the reader one block's lines and the parsed grid.
A map whose ``shape`` is not a grid of 1 to 2^24 cells (the sweep's
cap) is refused before anything is sized from it.
"""

import json
import os
from datetime import datetime, timezone
from itertools import chain, islice

import numpy as np

from . import maps
from .errors import DataFormatError

FORMAT_NAME = "spdcmaps map"

# characters of map text the reader takes at a time, about a thousand
# rows: read, NA-replaced and split into lines a block at a time, the text
# parses faster than when the file is iterated line by line
_READ_CHARS = 1 << 16


def _column(values):
    """Cell strings of a float array: 17 significant digits, NaN as NA."""
    return ["NA" if v != v else "%.17g" % v
            for v in np.ravel(values).tolist()]


def _write_table(path, title, fields, meta, shape, block):
    """'# <title>', a '# key: value' line per field and '# meta: <json>',
    then one comma-separated row per cell of a (ny, nx) grid, row-major.

    block(i, j) gives the string columns of grid rows i to j.  Rows are
    formatted and written a block of whole grid rows at a time, the
    sweep's blocks, so memory is bounded by one block, not by the file.
    """
    ny, nx = shape
    rows = max(1, maps._CHUNK_CELLS // nx)
    lines = [f"# {title}"]
    lines += (f"# {key}: {value}" for key, value in fields)
    lines.append("# meta: " + json.dumps(meta, sort_keys=True,
                                         separators=(",", ":")))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
        for i in range(0, ny, rows):
            fh.write("\n".join(map(",".join, zip(*block(i, i + rows))))
                     + "\n")
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
    coord1 = _column(grid.coord1)

    def block(i, j):
        coord2 = _column(grid.coord2[i:j])
        return [coord1 * len(coord2), [c for c in coord2 for _ in range(nx)],
                *(_column(plane[i:j]) for plane in grid.values)]

    return _write_table(path, FORMAT_NAME, fields, grid.metadata, (ny, nx),
                        block)


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
    round-trips bitwise through the 17-digit formatting.  Rows are
    parsed as they are read, so memory is bounded by the grid, not by
    the text.  A file that is not UTF-8 text or not a map, lacks a
    header field, has a shape that is not a grid of 1 to 2^24 cells,
    names fewer than two coordinate and one value column, has a meta
    line that is not a JSON object, has missing, extra or ragged rows,
    or holds a non-numeric cell raises DataFormatError naming the path.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _read_map(path, fh)
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc})") from None


def _blocks(fh, tail, seen):
    """Lists of the lines from tail on to the end of fh, without their
    ends and with NA spelled nan, split from _READ_CHARS characters of
    text at a time.  seen["block"] is the list last handed over and
    seen["before"] counts the lines of the lists before it."""
    seen["before"], seen["block"] = 0, []
    chunk = True
    while chunk:
        chunk = fh.read(_READ_CHARS)
        block = (tail + chunk).replace("NA", "nan").split("\n")
        # a partial line, which the next chunk completes
        tail = block.pop() if chunk else ""
        seen["before"] += len(seen["block"])
        seen["block"] = block
        yield block


def _holds_rows(lines, commas, n):
    """Whether the lines are n rows of commas + 1 fields, with blank lines
    only before the first row and after the last."""
    rows, gap = 0, False
    for line in lines:
        if not line.strip():
            gap = rows > 0
        elif gap or line.count(",") != commas:
            return False
        else:
            rows += 1
    return rows == n


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
    n = ny * nx
    commas = len(cols) - 1
    bad_shape = DataFormatError(
        f"{path}: expected {n} rows of {len(cols)} columns")
    while line.isspace():
        line = fh.readline()
    # checked first: loadtxt warns on an empty body instead of raising, and
    # takes the row width from the first row
    if line.count(",") != commas:
        raise bad_shape
    seen = {}
    blocks = _blocks(fh, line, seen)
    lines = chain.from_iterable(blocks)
    try:  # no more lines than the declared rows, parsed as they are read
        data = np.loadtxt(islice(lines, n), delimiter=",", comments="#",
                          ndmin=2)
    except UnicodeDecodeError:  # a ValueError too; read_map_csv names it
        raise
    except ValueError as exc:
        # a ragged, missing or extra row in the block loadtxt stopped in
        # or after it names the shape
        rest = chain(seen["block"], chain.from_iterable(blocks))
        if not _holds_rows(rest, commas, n - seen["before"]):
            raise bad_shape from None
        raise DataFormatError(f"{path}: bad numeric cell ({exc})") from None
    # too few rows, a blank or comment line among them, or rows left over
    if data.shape != (n, len(cols)) or any(map(str.strip, lines)):
        raise bad_shape
    planes = data.T.copy().reshape(len(cols), ny, nx)
    return maps.MapGrid(
        kind=kind, mode=mode, coord1=planes[0, 0], coord2=planes[1, :, 0],
        coord_names=cols[:2], value_names=cols[2:], values=tuple(planes[2:]),
        metadata=meta)


def write_profile_csv(path, version, columns, arrays, meta):
    """Profile export (fit output) in the map layout, one row per sample."""
    fields = (("version", version), ("columns", ",".join(columns)))
    return _write_table(path, f"{FORMAT_NAME} profile", fields, meta,
                        (len(arrays[0]), 1),
                        lambda i, j: [_column(a[i:j]) for a in arrays])
