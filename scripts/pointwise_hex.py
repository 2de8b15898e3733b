"""Print the exact bits of the pointwise calls at fixed coordinates.

For each shipped source (the 52 deg tilt with its crystal axes co-rotated
by compensation.constrained_pump_state), for the BBO one with unequal
plates and mu = 0.3, under the wavevector group convention, and with
unequal plates behind a 7 deg pump whose axes stay put, at about ten
fixed air-side coordinates, print float.hex() of relative_phase,
time_delay and time_intervals for both photons, or the name of the error
a call raises.
Then print float.hex() of both crystals' co-rotated (axis_theta,
axis_phi) for the 52 deg tilt source at a few pump tilts.  Two checkouts
agree bitwise at these coordinates and tilts when their outputs are
identical:

    PYTHONPATH=src python scripts/pointwise_hex.py > pointwise.txt
"""

import math
from pathlib import Path

from spdcmaps import EmissionCoord, compensation, config, maps
from spdcmaps.errors import SpdcError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# (theta, phi) in degrees, then the signal's share of the pump frequency
# where it is not one half.  At a share of 0.06 the signal lies outside
# crystal 2's dispersion window while its partner does not.  The last row
# of each list has a partner evanescent in air.
NORMAL_CELLS = [(0.0, 0.0), (0.5, 30.0), (1.0, -45.0), (2.0, 90.0),
                (2.6, 180.0), (3.0, 0.0), (3.2, 137.0), (4.0, -100.0),
                (2.9, 0.0, 0.55), (2.0, 30.0, 0.06), (60.0, 10.0, 0.58)]
TILTED_CELLS = [(50.0, 60.0), (50.0, 90.0), (45.0, 75.0), (55.0, 105.0),
                (60.0, 60.0), (62.5, 82.0), (70.0, 90.0), (40.0, 80.0),
                (65.0, 120.0), (30.0, 30.0)]
# pump tilts in degrees, at a tilt azimuth of 90 deg, for the axes
AXIS_TILTS = [0.0, 7.0, 30.0, 51.2, 60.0, 85.0]
# unequal plates and an off-centre birth depth, where t1 - t2 != dt
UNEQUAL = ("crystal2.length_mm=0.8", "source.mu=0.3")
# the e group transit's second branch
WAVEVECTOR = ("source.group_convention=wavevector",)
# an oblique pump that leaves the crystal axes where the config puts them
OBLIQUE = ("pump.theta_p_deg=7", "pump.phi_p_deg=90") + UNEQUAL


def _source(name, overrides=(), corotate=True):
    flat = config.load_config_file(CONFIGS / name)
    rc = config.build_run_config(config.apply_overrides(flat, overrides))
    src = rc.source
    if corotate and src.pump.theta_p != 0.0:
        src = compensation.constrained_pump_state(src.pump, src)
    return src


def _bits(fn, *args):
    try:
        out = fn(*args)
    except SpdcError as exc:  # the error's name is the pinned output
        return type(exc).__name__
    return " ".join(v.hex() for v in (out if isinstance(out, tuple)
                                      else (out,)))


def main():
    for name, overrides, cells, corotate in (
            ("liio3_normal.yaml", (), NORMAL_CELLS, True),
            ("bbo_normal.yaml", (), NORMAL_CELLS, True),
            ("bbo_tilt52.yaml", (), TILTED_CELLS, True),
            ("bbo_normal.yaml", UNEQUAL, NORMAL_CELLS, True),
            ("bbo_normal.yaml", WAVEVECTOR, NORMAL_CELLS, True),
            ("bbo_normal.yaml", OBLIQUE, NORMAL_CELLS, False)):
        src = _source(name, overrides, corotate)
        label = " ".join((name,) + overrides
                         + (() if corotate else ("axes-fixed",)))
        for theta, phi, *share in cells:
            omega = (share[0] if share else 0.5) * src.pump.omega
            c = EmissionCoord(omega, math.radians(theta), math.radians(phi))
            print(f"{label} theta={theta} phi={phi} omega={omega.hex()}")
            print("  phase", _bits(maps.relative_phase, src, c))
            for photon in ("s", "i"):
                print(f"  delay_{photon}",
                      _bits(maps.time_delay, src, c, photon))
            print("  intervals", _bits(maps.time_intervals, src, c))
            print("  intervals_i", _bits(maps.time_intervals, src, c, "i"))
    src = _source("bbo_tilt52.yaml")
    for tilt in AXIS_TILTS:
        state = compensation.constrained_pump_state(
            src.pump.with_tilt(math.radians(tilt), math.radians(90.0)), src)
        print(f"bbo_tilt52.yaml axes tilt={tilt} phi_p=90",
              " ".join(v.hex() for c in (state.crystal1, state.crystal2)
                       for v in (c.axis_theta, c.axis_phi)))


if __name__ == "__main__":
    main()
