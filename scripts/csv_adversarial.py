"""Write a 512 x 512 delay map of adversarial floats with the map writer.

The coordinates and both planes are random 64-bit patterns viewed as
float64, from a fixed seed: NaNs of many payloads, both infinities,
subnormals and every exponent.  The planes start with, and every other
coordinate is taken from, the edge cases of 17-digit formatting: exact
ties of the 17th digit, powers of ten and their neighbours, the
exponents where %g switches notation, the ends of the float range and
signed zeros.  Two checkouts write floats alike where their outputs are
identical:

    PYTHONPATH=src python scripts/csv_adversarial.py adversarial.csv
"""

import sys

import numpy as np

from spdcmaps import mapio, maps

SEED = 20261019
N = 512


def _neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate((values, np.nextafter(values, -np.inf),
                           np.nextafter(values, np.inf)))


def edge_values():
    """The edge cases, each with both signs."""
    odd = 2 ** 53 - 1 - 2 * np.arange(1000)  # the 1000 odd x below 2^53
    ties = [odd / 4.0]
    # x 2^-s is a tie where x 5^s has 18 digits: for the largest such odd
    # x, down to the smallest exponent, 2^-25
    for s in range(1, 26):
        top = min(10 ** 18 // 5 ** s, 2 ** 53) - 1 | 1
        ties.append(np.arange(top, max(top - 40, 0), -2) * 2.0 ** -s)
    values = np.concatenate((
        *ties,
        _neighbours([float(f"1e{k}") for k in range(-30, 31)]),
        _neighbours([1e-5, 1e-4, 1e16, 1e17, 1e-280, 1e280]),
        [1e-28, 4277111524958880.5, 5e-324, 2.2250738585072014e-308,
         1.7976931348623157e308, 0.0, np.inf, np.nan]))
    return np.concatenate((values, -values))


def main(out):
    rng = np.random.default_rng(SEED)

    def bits(*shape):
        return rng.integers(0, 2 ** 64, shape, dtype=np.uint64).view(float)

    coord1, coord2, planes = bits(N), bits(N), bits(2, N, N)
    edges = edge_values()
    spread = np.linspace(0, edges.size - 1, N // 2).astype(int)
    coord1[::2] = edges[spread]
    coord2[1::2] = edges[spread[::-1]]
    flat = planes.reshape(2, -1)
    flat[0, :edges.size] = edges
    flat[1, -edges.size:] = edges
    grid = maps.MapGrid(
        kind="delay", mode=maps.DETECTION_MODE, coord1=coord1, coord2=coord2,
        coord_names=("x_mm", "y_mm"), value_names=("dt_s_fs", "dt_i_fs"),
        values=tuple(planes), metadata={"seed": SEED})
    mapio.write_map_csv(grid, out, "adversarial")


if __name__ == "__main__":
    main(sys.argv[1])
