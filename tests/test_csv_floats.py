"""Floats in map and profile CSVs: every value is written as the bytes
"%.17g" % v gives, NaN as NA, through the public writers."""

import importlib.util
import struct
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spdcmaps import mapio, maps

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / \
    "csv_adversarial.py"


def _adversarial():
    spec = importlib.util.spec_from_file_location("csv_adversarial", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _line(values):
    """The reference: one loop over the values of a row."""
    return ",".join("NA" if v != v else "%.17g" % v for v in values)


def _body(path):
    return [line for line in path.read_text().split("\n")
            if not line.startswith("#")]


# any float64 bit pattern: NaNs with payloads, subnormals, -0.0 and inf
_BITS = st.integers(0, 2 ** 64 - 1).map(
    lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])
_FLOATS = st.one_of(st.floats(), _BITS)


@settings(max_examples=200, deadline=None)
@given(width=st.integers(1, 3), data=st.data())
def test_profile_floats_are_the_bytes_of_percent_17g(tmp_path_factory,
                                                     width, data):
    rows = data.draw(st.lists(st.lists(_FLOATS, min_size=width,
                                       max_size=width), max_size=40))
    arrays = [np.array([row[c] for row in rows], dtype=float)
              for c in range(width)]
    path = tmp_path_factory.mktemp("floats") / "p.csv"
    mapio.write_profile_csv(str(path), "0.0-test",
                            tuple(f"c{c}" for c in range(width)), arrays, {})
    assert _body(path) == [_line(row) for row in rows] + [""]


def test_map_of_edge_cases_and_random_bits_is_byte_exact(tmp_path):
    # 27 rows of 300 cells per block: 64 rows are blocks of 27, 27 and 10
    ny, nx = 64, 300
    assert maps._CHUNK_CELLS % nx and ny % (maps._CHUNK_CELLS // nx)
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2 ** 64, (4, ny * nx), dtype=np.uint64)
    coord1, coord2, *planes = bits.view(float)
    edges = _adversarial().edge_values()
    planes[0][:edges.size] = edges
    planes[1][-edges.size:] = edges[::-1]
    coord1, coord2 = coord1[:nx], coord2[:ny]
    coord1[::3] = edges[np.linspace(0, edges.size - 1, 100).astype(int)]
    grid = maps.MapGrid(
        kind="delay", mode=maps.DETECTION_MODE, coord1=coord1, coord2=coord2,
        coord_names=("x_mm", "y_mm"), value_names=("dt_s_fs", "dt_i_fs"),
        values=tuple(p.reshape(ny, nx) for p in planes), metadata={})
    path = tmp_path / "edges.csv"
    mapio.write_map_csv(grid, str(path), "0.0-test")
    want = [_line((coord1[j], coord2[i], planes[0][i * nx + j],
                   planes[1][i * nx + j]))
            for i in range(ny) for j in range(nx)]
    assert _body(path) == want + [""]
