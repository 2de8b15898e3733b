"""Pump-tilt search for self-compensation of the two-history time delay.

Tilting the pump while preserving each crystal's phase-matching geometry
(the optic axes follow the pump frame, keeping the internal pump-to-axis
angle at the design cut) changes the extraordinary transit through the
second plate.  Somewhere along that tilt the transit retardation crosses
the pump group advance accumulated in the first plate and the
arrival-time difference vanishes.  This module evaluates the delay along
such constrained tilts, scans for a sign change, and refines the zero
crossing.
"""

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import crystal, phasematch, vecgeom
from .errors import ConfigError, NoSolutionError, SpdcError
from .maps import _check_whole, time_delay
from .solvers import bisect_secant

# a tilt qualifies as self-compensating when the residual delay magnitude
# sits below this
DELAY_TOLERANCE_FS = 0.01
MAX_SCAN_SAMPLES = 10_000  # the most samples one tilt scan takes


def constrained_pump_state(pump, source):
    """Source reconfigured for a tilted pump with co-rotating optic axes.

    The crystals rotate with the pump frame so that the internal angle
    between the refracted pump wavevector and each optic axis keeps its
    design cut value.  Because the axis follows the refracted (internal)
    pump direction, the co-rotation angle per crystal is the internal
    tilt asin(sin(theta_p)/n) with n the extraordinary index at the cut
    angle itself; that closes the constraint exactly, since rotating axis
    and wavevector together preserves the angle between them.

    The nominal axis angles are recorded on first use and later tilts
    always start from them, so reapplying the operation composes
    correctly and applying the same tilt twice changes nothing.  At
    theta_p = 0 each crystal keeps its nominal axis angles bitwise; any
    other tilt rotates the axis direction by vecgeom._rotate.
    """
    base = source.nominal_axes()
    crystals = []
    for spec, axis in zip((source.crystal1, source.crystal2), base):
        if pump.theta_p != 0.0:
            _, n_o, n_ep = crystal._indices(spec.material, pump.omega)
            n_cut = crystal._section_index(n_o, n_ep, math.cos(axis[0]))
            rot = vecgeom.tilt_rotation(
                math.asin(math.sin(pump.theta_p) / n_cut), pump.phi_p).tolist()
            x, y = vecgeom._transverse(*axis)
            axis = vecgeom.angles_from_direction(
                vecgeom._rotate(rot, x, y, np.cos(axis[0])))
        crystals.append(spec.with_axis(*axis))
    return replace(source, pump=pump, crystal1=crystals[0],
                   crystal2=crystals[1], base_axes=base)


def tracked_target(source):
    """Degenerate emission coordinate that follows the tilted pump.

    Solves the degenerate cone offset for the source's pump in crystal 1
    to 1e-12 rad at the cone azimuth half a turn from the tilt azimuth,
    the point that stays in the tilt plane on the face-normal side, and
    maps it to a laboratory coordinate.  Returns (EmissionCoord, cone
    offset in radians).
    """
    pump = source.pump
    phi = pump.phi_p + math.pi
    delta = phasematch.degenerate_emission_angle(source.crystal1, pump, phi)
    return phasematch.degenerate_coord(pump, delta, phi), delta


def tilt_delay(source, theta_p, phi_p, target=None):
    """Delay at one constrained tilt: (delay_fs, coordinate, cone_offset).

    With target None the degenerate coordinate is re-solved for the
    tilted pump (the emission cone moves with the tilt); passing an
    EmissionCoord instead holds the evaluation point fixed in the
    laboratory, in which case cone_offset comes back None.
    """
    state = constrained_pump_state(
        source.pump.with_tilt(theta_p, phi_p), source)
    if target is None:
        coord, delta = tracked_target(state)
    else:
        coord, delta = target, None
    return time_delay(state, coord), coord, delta


class TiltSample(NamedTuple):
    theta_p: float        # rad
    delay_fs: float       # NaN when the sample failed
    cone_offset: float    # rad; NaN for fixed-target or failed samples
    error: str = None


@dataclass(frozen=True)
class TiltScanResult:
    """Ordered tilt sweep with any sign-change bracket it exposed."""

    samples: tuple
    root: float = None    # rad; a sample that already nulls the delay
    bracket: tuple = None  # (lo, hi) rad enclosing a sign change

    def valid_samples(self):
        return tuple(s for s in self.samples
                     if s.error is None and math.isfinite(s.delay_fs))


def _check_scan(theta_range, n_samples):
    """(lo, hi, n) of a tilt scan: -pi/2 < lo < hi < pi/2 rad, the tilts
    PumpConfig admits, and n a whole number from 2 to MAX_SCAN_SAMPLES.
    Else a ConfigError keyed theta_min, theta_max or n_samples."""
    lo, hi = float(theta_range[0]), float(theta_range[1])
    for key, theta in (("theta_min", lo), ("theta_max", hi)):
        if not abs(theta) < 0.5 * math.pi:
            raise ConfigError("tilt range must lie inside (-90, 90) degrees, "
                              f"got {math.degrees(theta)!r}", key=key)
    if not lo < hi:
        raise ConfigError("tilt range must satisfy min < max", key="theta_max")
    return lo, hi, _check_whole(n_samples, "n_samples", 2, MAX_SCAN_SAMPLES)


def scan_tilt(source, phi_p, theta_range, n_samples, target=None):
    """Sweep the constrained pump tilt, recording the delay at the target.

    Per-sample failures (phase matching out of reach, refraction limits)
    become NaN samples carrying the failure text; they never abort the
    sweep.  A sample whose delay magnitude is already below
    DELAY_TOLERANCE_FS is promoted to a root outright; otherwise the
    first sign change between valid samples is reported as the bracket.
    """
    samples = []
    for th in np.linspace(*_check_scan(theta_range, n_samples)):
        th = float(th)
        try:
            v, _, delta = tilt_delay(source, th, phi_p, target)
            samples.append(TiltSample(
                th, v, math.nan if delta is None else delta))
        except SpdcError as exc:
            samples.append(TiltSample(th, math.nan, math.nan, str(exc)))
    result = TiltScanResult(samples=tuple(samples))
    valid = result.valid_samples()
    root = bracket = None
    for s in valid:
        if abs(s.delay_fs) < DELAY_TOLERANCE_FS:
            root, bracket = s.theta_p, (s.theta_p, s.theta_p)
            break
    if root is None:
        for a, b in zip(valid, valid[1:]):
            if a.delay_fs * b.delay_fs < 0.0:
                bracket = (a.theta_p, b.theta_p)
                break
    return replace(result, root=root, bracket=bracket)


def refine_tilt(source, phi_p, scan, target=None):
    """Tilt angle (radians) nulling the delay, from a scan_tilt result
    taken with the same target.

    Refines the scan's sign-change bracket to 1e-6 rad by the ITP root
    finder, reusing the scan's delays at the bracket ends, then
    re-evaluates the delay there; the angle is returned only when that
    re-check passes.  Raises NoSolutionError when the scan shows no sign
    change (or the refined point fails the re-check).
    """
    if scan.root is not None:
        return scan.root
    if scan.bracket is None:
        raise NoSolutionError(
            "delay does not change sign over the scanned tilt range")
    ends = {s.theta_p: s.delay_fs for s in scan.samples
            if s.theta_p in scan.bracket}

    def residual(th):
        if th in ends:
            return ends[th]
        return tilt_delay(source, th, phi_p, target)[0]

    root = bisect_secant(residual, scan.bracket[0], scan.bracket[1],
                         xtol=1e-6)
    left = residual(root)
    if not abs(left) < DELAY_TOLERANCE_FS:
        raise NoSolutionError(
            f"refined tilt leaves |delay| = {abs(left):.3g} fs, above "
            f"the {DELAY_TOLERANCE_FS:g} fs bar")
    return root


def find_self_compensating_tilt(source, phi_p, target=None,
                                theta_range=(0.0, math.radians(60.0)),
                                n_samples=25):
    """Tilt angle (radians) nulling the time delay at the target:
    scan_tilt over the range, then refine_tilt of that scan to 1e-6 rad."""
    scan = scan_tilt(source, phi_p, theta_range, n_samples, target)
    return refine_tilt(source, phi_p, scan, target)
