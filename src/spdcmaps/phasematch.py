"""Photon-pair kinematics for type-I collinear-pump down-conversion.

Everything here works on the air side, on a photon's transverse
components (sx, sy) = sin theta (cos phi, sin phi) (vecgeom._transverse).
Energy and transverse-momentum conservation, which planar interfaces
preserve, is written once, in _partner; the maps, conjugate and the
mismatch all call it.  The pump enters its extraordinary branch through
the photons' transit (vecgeom._Transit).  The mismatch is the sum of
+-omega k_z / c, the pump's k_z the one its transit solved and the
photons' crystal._ordinary_kz, on floats or arrays; the ring solve feeds
it cone points built on plain floats in the pump's cone frame, which a
PumpConfig builds once, and only degenerate_coord converts to angles.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import crystal, vecgeom
from .crystal import C_NM_FS
from .errors import ConfigError, KinematicsError, NoSolutionError
from .solvers import bisect_secant

@dataclass(frozen=True)
class EmissionCoord:
    """One photon in air: angular frequency (rad/fs) and external emission
    angles (radians, polar from +z and azimuth in the x-y plane)."""

    omega: float
    theta: float
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.omega < math.inf:
            raise ValueError(
                f"omega must be finite and positive, got {self.omega!r}")
        if not 0.0 <= self.theta < 0.5 * math.pi:
            raise ValueError(
                f"external polar angle must lie in [0, pi/2), got {self.theta!r}")
        if not math.isfinite(self.phi):
            raise ValueError(f"azimuth phi must be finite, got {self.phi!r}")

    def direction(self):
        return vecgeom.direction_from_angles(self.theta, self.phi)

    def transverse_q(self):
        """Air-side transverse wavevector (q_x, q_y) in 1/nm."""
        s = (self.omega / C_NM_FS) * math.sin(self.theta)
        return (s * math.cos(self.phi), s * math.sin(self.phi))

    @property
    def wavelength_nm(self):
        return crystal.nm_from_omega(self.omega)


@dataclass(frozen=True)
class PumpConfig:
    """Pump beam: vacuum wavelength (nm), external incidence angles
    (radians), and the initial phase offset between its two polarization
    components (radians, additive to every relative phase).  omega,
    transverse_q() and the cone frame are computed once per instance.  A
    wavelength that is not finite and positive, or an angle or offset
    that is not finite, is a ConfigError keyed by the field's name."""

    wavelength_nm: float
    theta_p: float = 0.0
    phi_p: float = 0.0
    phase_offset: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.wavelength_nm < math.inf:
            raise ConfigError("pump wavelength must be positive and finite, "
                              f"got {self.wavelength_nm!r}",
                              key="wavelength_nm")
        for key in ("theta_p", "phi_p", "phase_offset"):
            value = getattr(self, key)
            if not math.isfinite(value):
                raise ConfigError(f"must be finite, got {value!r}", key=key)

    @cached_property
    def omega(self):
        return crystal.omega_from_nm(self.wavelength_nm)

    @cached_property
    def _q(self):
        s = (self.omega / C_NM_FS) * math.sin(self.theta_p)
        return (s * math.cos(self.phi_p), s * math.sin(self.phi_p))

    def transverse_q(self):
        return self._q

    @cached_property
    def _frame(self):
        """Rows of vecgeom.tilt_rotation(theta_p, phi_p) as float lists: the
        frame of the emission cone around the pump, which the ring solve
        and degenerate_coord read."""
        return vecgeom.tilt_rotation(self.theta_p, self.phi_p).tolist()

    def with_tilt(self, theta_p, phi_p):
        return replace(self, theta_p=theta_p, phi_p=phi_p)


@dataclass(frozen=True)
class BiphotonWeight:
    """Emission amplitude factor of one crystal: |sinc(kappa d/2)| and the
    accompanying phase kappa d/2 (+pi where the sinc lobe is negative)."""

    magnitude: float
    phase: float


class PumpInternalState(NamedTuple):
    wavevector: np.ndarray  # internal unit wavevector
    index: float            # self-consistent extraordinary index
    alpha: float            # angle to the optic axis, radians


def _partner(pump, w_s, sx, sy):
    """The conservation law, written once: the partner's frequency w_i =
    w_p - w_s and air-side transverse components s_i = (q_p - q_s) c / w_i,
    with q_s = (w_s / c) (sx, sy), for arrays or 0-d values.  |s_i| >= 1
    (NaN in its transit) where the partner is evanescent in air;
    KinematicsError there for 0-d input, and for any input where w_i <= 0."""
    w_i = pump.omega - w_s
    if not w_i > 0.0:
        raise KinematicsError(f"partner frequency {w_i:g} rad/fs <= 0")
    qpx, qpy = pump.transverse_q()
    scale = w_s / C_NM_FS
    six = (qpx - scale * sx) * C_NM_FS / w_i
    siy = (qpy - scale * sy) * C_NM_FS / w_i
    if not isinstance(six, np.ndarray):
        s2 = six * six + siy * siy
        if not s2 < 1.0:
            raise KinematicsError(f"partner photon is evanescent in air: "
                                  f"|s_i| = {math.sqrt(s2):.6f}")
    return w_i, six, siy


def conjugate(signal, pump):
    """Partner coordinate: _partner of the signal's air-side components as
    an EmissionCoord.  KinematicsError where no propagating partner exists
    (frequency not positive, or evanescent in air)."""
    w_i, six, siy = _partner(pump, signal.omega,
                             *vecgeom._transverse(signal.theta, signal.phi))
    s2 = six * six + siy * siy
    theta = math.asin(math.sqrt(s2))
    phi = math.atan2(siy, six) if s2 > 0.0 else 0.0
    return EmissionCoord(omega=w_i, theta=theta, phi=phi)


def pump_internal_state(pump, crystal_spec):
    """The pump refracted into its extraordinary branch in one crystal
    through the photons' entry from air, vecgeom._Transit: the internal
    unit wavevector, the self-consistent index, and the angle to the axis."""
    sx, sy = vecgeom._transverse(pump.theta_p, pump.phi_p)
    t = vecgeom._Transit(crystal_spec, pump.omega, sx, sy)
    alpha = math.acos(min(1.0, max(-1.0, t.ca_k)))
    return PumpInternalState(wavevector=np.array((sx, sy, t.kz)) / t.n,
                             index=float(t.n), alpha=alpha)


def delta_kappa(signal, pump, crystal_spec):
    """Longitudinal wavevector mismatch k_pz - k_sz - k_iz in 1/mm, the
    pump extraordinary at its self-consistent index, signal and idler
    ordinary."""
    return _mismatch(pump, crystal_spec,
                     pump_internal_state(pump, crystal_spec), signal.omega,
                     *vecgeom._transverse(signal.theta, signal.phi))


def _mismatch(pump, spec, state, w_s, sx, sy):
    """delta_kappa (1/mm) for the signal at frequency w_s and air-side
    components (sx, sy), floats or arrays, the pump's state solved: the sum
    of +-omega k_z / c, the pump's k_z from its transit, crystal._ordinary_kz
    for both photons.  Each n_o^2 - s^2 > 0, as n > 1 > s^2 (for a float
    s_i, _partner raises else)."""
    w_i, six, siy = _partner(pump, w_s, sx, sy)
    n_s = crystal._indices(spec.material, w_s)[1]
    n_i = crystal._indices(spec.material, w_i)[1]
    return (pump.omega * (state.index * state.wavevector[2])
            - w_s * crystal._ordinary_kz(n_s, sx, sy)
            - w_i * crystal._ordinary_kz(n_i, six, siy)
            ) * 1e6 / C_NM_FS


def amplitude_weight(dk_per_mm, d_mm):
    """Biphoton emission weight sinc(kappa d / 2) exp(i kappa d / 2)."""
    x = 0.5 * dk_per_mm * d_mm
    s = math.sin(x) / x if x != 0.0 else 1.0
    phase = x if s >= 0.0 else x + math.pi
    return BiphotonWeight(magnitude=abs(s), phase=phase)


# a zero-offset mismatch below this magnitude (1/mm) counts as collinear
# phase matching
COLLINEAR_MISMATCH_PER_MM = 1e-9

# the noncollinear search interval of the cone offset, radians
DEGENERATE_SEARCH_BRACKET = (math.radians(0.1), math.radians(15.0))


def _cone_point(frame, delta, phi):
    """Laboratory unit vector d, on floats, of the point (delta, phi) on the
    cone around the pump (frame: its PumpConfig._frame).
    KinematicsError where d_z <= 0: the point does not leave the exit face."""
    s = math.sin(delta)
    x, y, z = s * math.cos(phi), s * math.sin(phi), math.cos(delta)
    d = [r[0] * x + r[1] * y + r[2] * z for r in frame]
    if not d[2] > 0.0:
        theta = math.degrees(math.acos(max(-1.0, d[2])))
        raise KinematicsError(f"cone point at polar angle {theta:.6g} deg "
                              f"does not leave through the exit face")
    return d


def degenerate_coord(pump, delta, phi):
    """Laboratory coordinate at omega_p/2 of the cone point (delta, phi)."""
    ang = vecgeom.angles_from_direction(_cone_point(pump._frame, delta, phi))
    return EmissionCoord(omega=0.5 * pump.omega, theta=ang.theta, phi=ang.phi)


def degenerate_emission_angle(crystal_spec, pump, phi_target=0.0):
    """External polar offset of degenerate (omega_p/2) phase matching: the
    opening of the cone around the external pump direction, at cone azimuth
    phi_target, where the mismatch crosses zero (at normal incidence, the
    ring's polar angle at any phi_target).  0.0 for a collinear cut, whose
    |mismatch| at zero offset is below COLLINEAR_MISMATCH_PER_MM; else ITP
    on DEGENERATE_SEARCH_BRACKET to 1e-12 rad.  NoSolutionError for a
    bracket without a sign change, quoting it in degrees and the mismatch
    at its ends."""
    state = pump_internal_state(pump, crystal_spec)
    w_half = 0.5 * pump.omega
    lo, hi = DEGENERATE_SEARCH_BRACKET

    def mismatch(delta):
        d = _cone_point(pump._frame, delta, phi_target)
        return _mismatch(pump, crystal_spec, state, w_half, d[0], d[1])

    if abs(mismatch(0.0)) < COLLINEAR_MISMATCH_PER_MM:
        return 0.0
    try:
        return bisect_secant(mismatch, lo, hi, xtol=1e-12)
    except NoSolutionError:
        raise NoSolutionError(
            f"no degenerate phase matching on the cone bracket "
            f"[{math.degrees(lo):g}, {math.degrees(hi):g}] deg at cone "
            f"azimuth {math.degrees(phi_target):g} deg: the "
            f"mismatch keeps its sign ({mismatch(lo):.6g} and "
            f"{mismatch(hi):.6g} /mm at the ends)") from None
