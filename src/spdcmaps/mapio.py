"""Text export and import of map grids and fit profiles.

Maps and profiles share one CSV layout: a ``# spdcmaps map`` first line
(``# spdcmaps map profile``), ``# key: value`` header lines, then one
comma-separated row per sample, for maps one per cell with ``coord1``
varying fastest.  Floats carry 17 significant digits, so they read back
bitwise, and invalid cells are spelled ``NA``.  The same data always
gives the same bytes; the only timestamp is in the JSON sidecar.
"""

import json
import os
from datetime import datetime, timezone

import numpy as np

from .errors import DataFormatError
from .maps import MapGrid

FORMAT_NAME = "spdcmaps map"


def _column(values):
    """Cell strings of a float array: 17 significant digits, NaN as NA."""
    return ["NA" if v != v else "%.17g" % v
            for v in np.ravel(values).tolist()]


def _write_table(path, title, fields, meta, columns):
    """'# <title>', a '# key: value' line per field and '# meta: <json>',
    then one comma-separated row per index of the string columns."""
    lines = [f"# {title}"]
    lines += (f"# {key}: {value}" for key, value in fields)
    lines.append("# meta: " + json.dumps(meta, sort_keys=True,
                                         separators=(",", ":")))
    lines += map(",".join, zip(*columns))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
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
    coord2 = [c for c in _column(grid.coord2) for _ in range(nx)]
    return _write_table(
        path, FORMAT_NAME, fields, grid.metadata,
        [_column(grid.coord1) * ny, coord2, *map(_column, grid.values)])


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
    round-trips bitwise through the 17-digit formatting.  A file that is
    not UTF-8 text or not a map, lacks a header field, names fewer than
    two coordinate and one value column, has a meta line that is not a
    JSON object, has missing or ragged rows, or holds a non-numeric cell
    raises DataFormatError naming the path.
    """
    header = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            first = fh.readline().rstrip("\n")
            if first != f"# {FORMAT_NAME}":
                raise DataFormatError(f"{path}: not a {FORMAT_NAME} file "
                                      f"(leading line {first!r})")
            line = fh.readline()
            while line.startswith("#"):
                key, sep, value = line[1:].strip().partition(":")
                if sep:
                    header[key.strip()] = value.strip()
                line = fh.readline()
            rows = (line + fh.read()).strip().replace("NA", "nan").splitlines()
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc})") from None
    try:
        ny, nx = (int(t) for t in header["shape"].split())
        cols = tuple(header["columns"].split(","))
        kind = header["kind"]
        mode = header["mode"]
        meta = json.loads(header.get("meta", "{}"))
    except (KeyError, ValueError) as exc:
        raise DataFormatError(f"{path}: missing or bad header ({exc})") \
            from None
    if len(cols) < 3:
        raise DataFormatError(f"{path}: columns {header['columns']!r} name "
                              f"fewer than two coordinates and a value")
    if not isinstance(meta, dict):
        raise DataFormatError(f"{path}: meta line is not a JSON object")
    bad_shape = DataFormatError(
        f"{path}: expected {ny * nx} rows of {len(cols)} columns")
    # checked first: loadtxt warns on an empty body instead of raising
    if not rows or len(rows) != ny * nx:
        raise bad_shape
    try:
        data = np.loadtxt(rows, delimiter=",", comments="#", ndmin=2)
    except ValueError as exc:
        if any(row.count(",") != len(cols) - 1 for row in rows):
            raise bad_shape from None
        raise DataFormatError(f"{path}: bad numeric cell ({exc})") from None
    if data.shape != (ny * nx, len(cols)):
        raise bad_shape
    planes = data.T.copy().reshape(len(cols), ny, nx)
    return MapGrid(
        kind=kind, mode=mode, coord1=planes[0, 0], coord2=planes[1, :, 0],
        coord_names=cols[:2], value_names=cols[2:], values=tuple(planes[2:]),
        metadata=meta)


def write_profile_csv(path, version, columns, arrays, meta):
    """Profile export (fit output) in the map layout, one row per sample."""
    fields = (("version", version), ("columns", ",".join(columns)))
    return _write_table(path, f"{FORMAT_NAME} profile", fields, meta,
                        map(_column, arrays))
