"""Photon-pair kinematics for type-I collinear-pump down-conversion.

Everything here works in air-side coordinates: an emission coordinate is
(frequency, external polar angle, external azimuth), and conservation of
transverse momentum is applied to the air-side transverse wavevector q,
which planar interfaces preserve, so the signal-idler conjugate mapping
needs no internal solve at all.  Only the longitudinal mismatch looks
inside the crystal: the pump propagates on its extraordinary branch, the
downconverted photons on the ordinary one.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import crystal, vecgeom
from .crystal import C_NM_FS
from .errors import KinematicsError, NoSolutionError
from .solvers import bisect_secant

Z_NORMAL = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class EmissionCoord:
    """One photon in air: angular frequency (rad/fs) and external emission
    angles (radians, polar from +z and azimuth in the x-y plane)."""

    omega: float
    theta: float
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.theta < 0.5 * math.pi:
            raise ValueError(
                f"external polar angle must lie in [0, pi/2), got {self.theta!r}")

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
    components (radians, additive to every relative phase).  omega and
    transverse_q() are computed once per instance."""

    wavelength_nm: float
    theta_p: float = 0.0
    phi_p: float = 0.0
    phase_offset: float = 0.0

    @cached_property
    def omega(self):
        return crystal.omega_from_nm(self.wavelength_nm)

    def direction(self):
        return vecgeom.direction_from_angles(self.theta_p, self.phi_p)

    @cached_property
    def _q(self):
        s = (self.omega / C_NM_FS) * math.sin(self.theta_p)
        return (s * math.cos(self.phi_p), s * math.sin(self.phi_p))

    def transverse_q(self):
        return self._q

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


def conjugate(signal, pump):
    """Partner coordinate under energy and transverse-momentum conservation.

    omega_i = omega_p - omega_s and q_i = q_pump - q_s evaluated on the air
    side.  Raises KinematicsError when no propagating partner exists (zero
    or negative frequency, or evanescent |q_i| >= omega_i/c).
    """
    w_i = pump.omega - signal.omega
    if w_i <= 0.0:
        raise KinematicsError(
            f"partner frequency {w_i:g} rad/fs is not positive")
    qsx, qsy = signal.transverse_q()
    qpx, qpy = pump.transverse_q()
    qix, qiy = qpx - qsx, qpy - qsy
    # transverse direction components of the partner's unit vector
    six, siy = qix * C_NM_FS / w_i, qiy * C_NM_FS / w_i
    s2 = six * six + siy * siy
    if s2 >= 1.0:
        raise KinematicsError(
            f"partner is evanescent in air: |q| c / omega = {math.sqrt(s2):.6f}")
    theta = math.asin(math.sqrt(s2))
    phi = math.atan2(siy, six) if s2 > 0.0 else 0.0
    return EmissionCoord(omega=w_i, theta=theta, phi=phi)


def pump_internal_state(pump, crystal_spec):
    """Refract the pump into its extraordinary branch inside one crystal.

    Returns the internal unit wavevector, the self-consistent index, and
    the angle between wavevector and optic axis.  RefractionError
    propagates if the tilt is beyond the critical angle.
    """
    K, n = vecgeom.refract_into_extraordinary(
        pump.direction(), Z_NORMAL, 1.0, pump.omega, crystal_spec)
    ca = float(vecgeom.dot3(K, crystal_spec.axis_direction()))
    alpha = math.acos(min(1.0, max(-1.0, ca)))
    return PumpInternalState(wavevector=K, index=n, alpha=alpha)


def delta_kappa(signal, pump, crystal_spec):
    """Longitudinal wavevector mismatch k_pz - k_sz - k_iz in 1/mm.

    Internal z components are reconstructed from the conserved air-side
    transverse wavevectors: pump extraordinary at its self-consistent
    index, signal and idler ordinary.
    """
    return _mismatch(signal, pump, crystal_spec,
                     pump_internal_state(pump, crystal_spec))


def _mismatch(signal, pump, crystal_spec, state):
    """delta_kappa with the pump's internal state already solved."""
    idler = conjugate(signal, pump)
    w_p = pump.omega
    qpx, qpy = pump.transverse_q()
    qsx, qsy = signal.transverse_q()
    qix, qiy = qpx - qsx, qpy - qsy

    mat = crystal_spec.material
    n_s = crystal._indices(mat, signal.omega)[1]
    n_i = crystal._indices(mat, idler.omega)[1]
    kpz2 = (state.index * w_p / C_NM_FS) ** 2 - (qpx * qpx + qpy * qpy)
    ksz2 = (n_s * signal.omega / C_NM_FS) ** 2 - (qsx * qsx + qsy * qsy)
    kiz2 = (n_i * idler.omega / C_NM_FS) ** 2 - (qix * qix + qiy * qiy)
    if kpz2 <= 0.0 or ksz2 <= 0.0 or kiz2 <= 0.0:
        raise KinematicsError("internal wave is evanescent inside the crystal")
    # 1/nm -> 1/mm
    return (math.sqrt(kpz2) - math.sqrt(ksz2) - math.sqrt(kiz2)) * 1e6


def amplitude_weight(dk_per_mm, d_mm):
    """Biphoton emission weight sinc(kappa d / 2) exp(i kappa d / 2)."""
    x = 0.5 * dk_per_mm * d_mm
    s = math.sin(x) / x if x != 0.0 else 1.0
    phase = x if s >= 0.0 else x + math.pi
    return BiphotonWeight(magnitude=abs(s), phase=phase)


# a zero-offset mismatch below this magnitude (1/mm) counts as collinear
# phase matching
COLLINEAR_MISMATCH_PER_MM = 1e-9

_BRACKET_LO = math.radians(0.1)
_BRACKET_HI = math.radians(15.0)

# public view of the noncollinear search interval, for reporting
DEGENERATE_SEARCH_BRACKET = (_BRACKET_LO, _BRACKET_HI)


def degenerate_coord(pump, tilt, delta, phi):
    """Laboratory coordinate at omega_p/2 of the point (delta, phi) on the
    cone around the pump; tilt is the pump's vecgeom.tilt_rotation.
    Raises KinematicsError when that point does not leave through the
    exit face (polar angle of 90 degrees or more)."""
    d = vecgeom.apply_rotation(tilt, vecgeom.direction_from_angles(delta, phi))
    ang = vecgeom.angles_from_direction(d)
    if not ang.theta < 0.5 * math.pi:
        raise KinematicsError(
            f"cone point at polar angle {math.degrees(ang.theta):.6g} deg "
            f"does not leave through the exit face")
    return EmissionCoord(omega=0.5 * pump.omega, theta=ang.theta, phi=ang.phi)


def degenerate_emission_angle(crystal_spec, pump, phi_target=0.0):
    """External polar offset of degenerate (omega_p/2) phase matching.

    The emission direction is taken on a cone around the external pump
    direction at pump-carried azimuth phi_target; the returned angle is the
    cone opening where the longitudinal mismatch crosses zero.  At normal
    incidence this is simply the external polar angle of the degenerate
    ring, independent of phi_target.  A cut matched exactly on axis
    (collinear, |mismatch| below COLLINEAR_MISMATCH_PER_MM at zero offset)
    reports 0.0; otherwise the noncollinear bracket [0.1 deg, 15 deg] is
    searched to 1e-12 rad by the ITP root finder, and NoSolutionError
    signals a bracket with no sign change, quoting the bracket in degrees
    and the mismatch at its ends.
    """
    tilt = vecgeom.tilt_rotation(pump.theta_p, pump.phi_p)
    state = pump_internal_state(pump, crystal_spec)

    def mismatch(delta):
        sig = degenerate_coord(pump, tilt, delta, phi_target)
        return _mismatch(sig, pump, crystal_spec, state)

    if abs(mismatch(0.0)) < COLLINEAR_MISMATCH_PER_MM:
        return 0.0
    try:
        return bisect_secant(mismatch, _BRACKET_LO, _BRACKET_HI, xtol=1e-12)
    except NoSolutionError:
        raise NoSolutionError(
            f"no degenerate phase matching on the cone bracket "
            f"[{math.degrees(_BRACKET_LO):g}, {math.degrees(_BRACKET_HI):g}]"
            f" deg at cone azimuth {math.degrees(phi_target):g} deg: the "
            f"mismatch keeps its sign ({mismatch(_BRACKET_LO):.6g} and "
            f"{mismatch(_BRACKET_HI):.6g} /mm at the ends)") from None
