"""Text export and import of map grids and fit profiles.

Maps and profiles share one CSV layout: a ``# spdcmaps map`` first line
(``# spdcmaps map profile``), ``# key: value`` header lines, then one
comma-separated row per sample, for maps one per cell with ``coord1``
varying fastest.  Floats carry 17 significant digits, so they read back
bitwise, and invalid cells are spelled ``NA``.  The same data always
gives the same bytes; the only timestamp is in the JSON sidecar.

Files are written a block of grid rows at a time and read a block of
text at a time, so memory does not grow with the file: the writer holds
one block's strings, the reader one block's lines plus the planes it
returns, into which each block is parsed.  A map whose ``shape`` is not
a grid of 1 to 2^24 cells (the sweep's cap), or whose planes would hold
more than the 2^26 values of a delay map at that cap, is refused before
anything is sized from it.
"""

import json
import os
from datetime import datetime, timezone

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
    round-trips bitwise through the 17-digit formatting.  Each block
    of text is parsed straight into the planes returned, so the reader
    holds one block's lines plus those planes, never the whole text or
    a second copy of the grid.  A file that is not UTF-8 text or not a
    map, lacks a header field, has a shape that is not a grid of 1 to
    2^24 cells or that with its columns is more than 2^26 values, names
    fewer than two coordinate and one value column, has a meta line
    that is not a JSON object, has missing, extra or ragged rows, or
    holds a non-numeric cell raises DataFormatError naming the path.
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
    n, ncols = ny * nx, len(cols)
    # the widest map a sweep writes is a delay map at the cap
    if n * ncols > 4 * maps._MAX_CELLS:
        raise DataFormatError(f"{path}: shape {ny} x {nx} with {ncols} "
                              f"columns is more than 2^26 values")
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
