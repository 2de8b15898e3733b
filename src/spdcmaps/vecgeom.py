"""Direction algebra and vectorial refraction on stacked 3-vectors.

Vectors are ndarrays whose last axis has length 3; every routine accepts a
single vector of shape (3,) or a batch of shape (..., 3).  Components are
combined with explicit x/y/z arithmetic rather than einsum or matmul
reductions, and no routine iterates, so each element of a batch goes
through the same fixed sequence of operations: a result does not depend
on what else shares the batch or on how a grid is cut into batches.
Selections go through _select, the root's clamp through _clamp0 and the
square roots through crystal._sqrt, the only places that tell 0-d input
from arrays: numpy's array calls on an array, a plain if or math.sqrt on
a 0-d value, so plain floats stay plain floats and never become numpy
scalars or 0-d arrays.

Angles are radians throughout.  Scalar inputs raise on failure (total
internal reflection); batched inputs mark the offending rows NaN and keep
going.

_transverse gives a direction's air-side transverse components, on which
the maps and the solvers apply conservation (phasematch._partner).  A
rotation is written once, in _rotate: apply_rotation, the ring solve's
cone points and a tilted pump's co-rotated axes call it.

The extraordinary refraction's quadratic is written once, in _larger_root.
_Transit runs it on air-side components for a wave entering from air
through the z face, where no total internal reflection occurs: the maps'
photons and the pump (phasematch.pump_internal_state).  The tests'
reference, refract_into_extraordinary, feeds it stacked vectors at any
normal through _forward_root, which masks total internal reflection.
"""

import math
from typing import NamedTuple

import numpy as np

from .crystal import _indices, _ray_components, _sqrt
from .errors import RefractionError

__all__ = [
    "SphericalAngles", "direction_from_angles", "angles_from_direction",
    "rotation_y", "rotation_z", "pump_frame_rotation", "tilt_rotation",
    "apply_rotation", "dot3", "norm3",
    "refract_ordinary", "refract_into_extraordinary",
    "detection_point_to_angles",
]


class SphericalAngles(NamedTuple):
    """(theta, phi) pair: polar angle from +z and azimuth in the x-y plane."""

    theta: float
    phi: float


def dot3(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def norm3(v):
    return np.sqrt(dot3(v, v))


def _transverse(theta, phi):
    """(sin t cos p, sin t sin p), the transverse components of the
    direction (theta, phi): arrays or 0-d values."""
    s = np.sin(theta)
    return s * np.cos(phi), s * np.sin(phi)


def direction_from_angles(theta, phi):
    """Unit vector (sin t cos p, sin t sin p, cos t); broadcasts over arrays."""
    parts = (*_transverse(theta, phi), np.cos(theta))
    return np.stack(np.broadcast_arrays(*parts), axis=-1)


_POLE_EPS = 1e-14


def angles_from_direction(v):
    """Inverse of direction_from_angles for a single unit vector.

    phi is normalized to (-pi, pi]; at the poles (|sin theta| ~ 0) phi is 0
    by convention so the inverse is deterministic.  Non-unit input raises
    ValueError.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError("expected a single 3-vector")
    x, y, z = v.tolist()
    n = math.sqrt(x * x + y * y + z * z)
    if abs(n - 1.0) > 1e-9:
        raise ValueError(f"direction must be unit length, got |v| = {n!r}")
    theta = float(np.arccos(min(1.0, max(-1.0, z))))
    if x * x + y * y <= _POLE_EPS * _POLE_EPS:
        return SphericalAngles(theta, 0.0)
    phi = float(np.arctan2(y, x))
    if phi <= -np.pi:
        phi = np.pi
    return SphericalAngles(theta, phi)


def rotation_z(phi):
    c, s = float(np.cos(phi)), float(np.sin(phi))
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rotation_y(theta):
    c, s = float(np.cos(theta)), float(np.sin(theta))
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def pump_frame_rotation(theta_p, phi_p):
    """Lab-frame matrix of the tilted-pump coordinate frame.

    Columns are the pump-frame basis vectors expressed in the lab frame;
    the third column is the pump propagation direction (theta_p, phi_p).
    Reduces to the identity at normal incidence.
    """
    return rotation_z(phi_p) @ rotation_y(theta_p)


def tilt_rotation(theta, phi):
    """Rotation carrying lab +z onto the direction (theta, phi).

    Conical form Rz(phi) Ry(theta) Rz(-phi): rotates by theta about the
    axis perpendicular to both +z and the target direction, so vectors on
    the tilt meridian stay on it.  theta == 0.0 returns the identity
    bitwise, keeping untilted geometry untouched.
    """
    if np.ndim(theta) == 0 and float(theta) == 0.0:
        return np.eye(3)
    return rotation_z(phi) @ rotation_y(theta) @ rotation_z(-phi)


def _rotate(rows, x, y, z):
    """R @ (x, y, z) as a list, R by its rows, on floats or arrays."""
    return [r[0] * x + r[1] * y + r[2] * z for r in rows]


def apply_rotation(R, v):
    """R @ v for a 3x3 matrix and (..., 3) vectors, explicit components."""
    v = np.asarray(v, dtype=float)
    parts = _rotate(R, v[..., 0], v[..., 1], v[..., 2])
    return np.stack(np.broadcast_arrays(*parts), axis=-1)


def _tangential_split(k_in, normal):
    kn = dot3(k_in, normal)
    t = k_in - kn[..., np.newaxis] * np.asarray(normal, dtype=float)
    return kn, t


def refract_ordinary(k_in, normal, n_in, n_out):
    """Snell refraction of a unit wavevector at a planar interface.

    Preserves the tangential component of (index * wavevector).  Scalar
    input raises RefractionError on total internal reflection; batched
    input returns NaN rows instead.
    """
    k_in = np.asarray(k_in, dtype=float)
    scalar = k_in.ndim == 1
    k = k_in[np.newaxis, :] if scalar else k_in
    kn, t = _tangential_split(k, normal)
    s = (n_in / n_out) * t
    s2 = dot3(s, s)
    bad = s2 >= 1.0
    if scalar and bad[0]:
        raise RefractionError(
            f"total internal reflection: n_in/n_out sin = {np.sqrt(s2[0]):.6f}")
    cz = np.sqrt(np.where(bad, 0.0, 1.0 - s2))
    out = s + (np.sign(kn) * cz)[..., np.newaxis] * np.asarray(normal, dtype=float)
    out = np.where(bad[..., np.newaxis], np.nan, out)
    return out[0] if scalar else out


def _select(cond, a, b):
    """np.where(cond, a, b) on an array condition, else a if cond else b."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def _clamp0(x):
    """max(x, 0) with NaN kept: np.maximum on an array, where it costs a
    third of a selection, else a plain if."""
    if isinstance(x, np.ndarray):
        return np.maximum(x, 0.0)
    return 0.0 if x < 0.0 else x


def _larger_root(p, q, t2, n_o, n_ep):
    """(k_n, disc): the larger root of qa k_n^2 + 2 hb k_n + c = 0 and its
    discriminant, unguarded, for the normal component k_n of a wavevector
    whose tangential part t (|t|^2 = t2) is fixed and whose axis projection
    is k.a = p + q k_n.  The one copy of the index-ellipsoid quadratic."""
    inv_e2 = 1.0 / (n_ep * n_ep)
    A = 1.0 / (n_o * n_o) - inv_e2
    qa = A * q * q + inv_e2
    hb = A * p * q
    c = A * p * p + t2 * inv_e2 - 1.0
    disc = hb * hb - qa * c
    root = _sqrt(_clamp0(disc))
    # larger root (root - hb) / qa; where hb > 0 that difference cancels,
    # so use the equal product form -c / (hb + root) there
    far = hb > 0.0
    return _select(far, -c, root - hb) / _select(far, hb + root, qa), disc


class _Transit:
    """Extraordinary transit of a wave entering a crystal from air through
    its z face (a photon into crystal 2, the pump into either), for arrays
    or 0-d values of its air-side transverse components (sx, sy).

    Entry from air through the z face keeps t = (sx, sy, 0); t2 = s^2 >= 1
    (no wave in air) is NaN.  Else the bare larger root is the transit:
    F(k) = |k|^2/n_e^2 + (1/n_o^2 - 1/n_e^2) (k.a)^2 = 1 is quadratic in
    k_z with constant term F(t) - 1 <= t2/min(n_o, n_e)^2 - 1 < 0, since
    t2 < 1 < n^2, so exactly one root is positive.  There dF/dk_z =
    2 sqrt(disc) > 0 is twice the z component of the ray g: rz > 0.
    """

    __slots__ = ("n", "kz", "ca_k", "ca_ray", "cos_rho", "rx", "ry", "rz")

    def __init__(self, spec, omega, sx, sy):
        axis = ax, ay, az = spec._axis
        _, n_o, n_ep = _indices(spec.material, omega)
        t2 = sx * sx + sy * sy
        t2 = _select(t2 < 1.0, t2, np.nan)
        kz = self.kz = _larger_root(sx * ax + sy * ay, az, t2, n_o, n_ep)[0]
        n = self.n = _sqrt(t2 + kz * kz)
        (self.rx, self.ry, self.rz, self.cos_rho, self.ca_ray,
         self.ca_k) = _ray_components(sx / n, sy / n, kz / n, axis, n_o, n_ep)

    @property
    def valid(self):
        """Finite with a forward ray; by the argument above, where t2 < 1."""
        return np.isfinite(self.n) & (self.rz > 0.0)


def _forward_root(p, q, t2, n_o, n_ep):
    """_larger_root's k_n, NaN where the quadratic has no positive root."""
    kz, disc = _larger_root(p, q, t2, n_o, n_ep)
    return np.where((disc < 0.0) | ~(kz > 0.0), np.nan, kz)


def refract_into_extraordinary(k_in, normal, n_in, omega, crystal_spec):
    """Refract into the extraordinary branch of a uniaxial crystal.

    With the tangential wavevector t fixed by continuity, the internal
    wavevector k = t + k_n s normal (s the side of incidence) must lie on
    the index ellipsoid, (k.a)^2 / n_o^2 + (|k|^2 - (k.a)^2) / n_e^2 = 1,
    a quadratic in the normal component k_n (Yariv & Yeh, Optical Waves in
    Crystals, ch. 4).  Its larger root, taken in the form free of
    cancellation, is the forward wave, and n = |k|.

    Returns (K_internal, n).  No positive root means total internal
    reflection: scalar input raises RefractionError, batched input gets
    NaN rows.  omega is a scalar; the dispersion is evaluated once per
    (material, omega).
    """
    k_in = np.asarray(k_in, dtype=float)
    scalar = k_in.ndim == 1
    k = k_in[np.newaxis, :] if scalar else k_in
    axis = crystal_spec.axis_direction()
    _, n_o, n_ep = _indices(crystal_spec.material, omega)

    kn, t = _tangential_split(k, normal)
    tv = n_in * t
    t2 = dot3(tv, tv)
    sgn = np.sign(kn)
    nrm = np.asarray(normal, dtype=float)
    # k.a = p + q k_n
    kz = _forward_root(dot3(tv, axis), sgn * dot3(nrm, axis), t2, n_o, n_ep)
    if scalar and np.isnan(kz[0]):
        raise RefractionError("total internal reflection at extraordinary entry")
    n = np.sqrt(t2 + kz * kz)
    K = (tv + (sgn * kz)[..., np.newaxis] * nrm) / n[..., np.newaxis]
    if scalar:
        return K[0], float(n[0])
    return K, n


def detection_point_to_angles(x, y, L):
    """External emission angles seen from the crystals for a detection-plane
    point (x, y) at distance L (all mm):  theta = arctan(r/L), phi = atan2."""
    if L <= 0:
        raise ValueError("detection distance must be positive")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    theta = np.arctan(np.hypot(x, y) / L)
    phi = np.arctan2(y, x)
    return SphericalAngles(theta, phi)
