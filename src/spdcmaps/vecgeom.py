"""Direction algebra and vectorial refraction on stacked 3-vectors.

Vectors are ndarrays whose last axis has length 3; every routine accepts a
single vector of shape (3,) or a batch of shape (..., 3).  Components are
combined with explicit x/y/z arithmetic rather than einsum or matmul
reductions, and no routine iterates, so each element of a batch goes
through the same fixed sequence of operations: a result does not depend
on what else shares the batch or on how a grid is cut into batches.

Angles are radians throughout.  Scalar inputs raise on failure (total
internal reflection); batched inputs mark the offending rows NaN and keep
going, which is what the grid sweeps want.
"""

import numpy as np

from .crystal import nm_from_omega as _nm_from_omega
from .errors import RefractionError

__all__ = [
    "SphericalAngles", "direction_from_angles", "angles_from_direction",
    "rotation_y", "rotation_z", "pump_frame_rotation", "tilt_rotation",
    "apply_rotation", "dot3", "norm3",
    "refract_ordinary", "refract_into_extraordinary",
    "detection_point_to_angles",
]


class SphericalAngles(tuple):
    """(theta, phi) pair: polar angle from +z and azimuth in the x-y plane."""

    __slots__ = ()

    def __new__(cls, theta, phi):
        return tuple.__new__(cls, (theta, phi))

    @property
    def theta(self):
        return self[0]

    @property
    def phi(self):
        return self[1]


def dot3(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def norm3(v):
    return np.sqrt(dot3(v, v))


def direction_from_angles(theta, phi):
    """Unit vector (sin t cos p, sin t sin p, cos t); broadcasts over arrays."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    st = np.sin(theta)
    return np.stack(np.broadcast_arrays(
        st * np.cos(phi), st * np.sin(phi), np.cos(theta)), axis=-1)


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
    n = float(norm3(v))
    if abs(n - 1.0) > 1e-9:
        raise ValueError(f"direction must be unit length, got |v| = {n!r}")
    z = min(1.0, max(-1.0, float(v[2])))
    theta = float(np.arccos(z))
    if v[0] * v[0] + v[1] * v[1] <= _POLE_EPS * _POLE_EPS:
        return SphericalAngles(theta, 0.0)
    phi = float(np.arctan2(v[1], v[0]))
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


def apply_rotation(R, v):
    """R @ v for a 3x3 matrix and (..., 3) vectors, explicit components."""
    v = np.asarray(v, dtype=float)
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    return np.stack(np.broadcast_arrays(
        R[0, 0] * x + R[0, 1] * y + R[0, 2] * z,
        R[1, 0] * x + R[1, 1] * y + R[1, 2] * z,
        R[2, 0] * x + R[2, 1] * y + R[2, 2] * z), axis=-1)


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
    kn, t = _tangential_split(k_in, normal)
    s = (n_in / n_out) * t
    s2 = dot3(s, s)
    if k_in.ndim == 1:
        if s2 >= 1.0:
            raise RefractionError(
                f"total internal reflection: n_in/n_out sin = {np.sqrt(s2):.6f}")
        cz = np.sqrt(1.0 - s2)
        return s + np.sign(kn) * cz * np.asarray(normal, dtype=float)
    bad = s2 >= 1.0
    cz = np.sqrt(np.where(bad, 0.0, 1.0 - s2))
    out = s + (np.sign(kn) * cz)[..., np.newaxis] * np.asarray(normal, dtype=float)
    if np.any(bad):
        out = np.where(bad[..., np.newaxis], np.nan, out)
    return out


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
    NaN rows.
    """
    k_in = np.asarray(k_in, dtype=float)
    scalar = k_in.ndim == 1
    k = k_in[np.newaxis, :] if scalar else k_in
    mat = crystal_spec.material
    axis = crystal_spec.axis_direction()
    lam_nm = _nm_from_omega(omega)
    n_o = mat.index_o(lam_nm)
    n_ep = mat.index_e_principal(lam_nm)

    kn, t = _tangential_split(k, normal)
    tv = n_in * t
    t2 = dot3(tv, tv)
    sgn = np.sign(kn)
    nrm = np.asarray(normal, dtype=float)

    # qa k_n^2 + 2 hb k_n + c = 0, with k.a = p + q k_n
    inv_e2 = 1.0 / (n_ep * n_ep)
    A = 1.0 / (n_o * n_o) - inv_e2
    p = dot3(tv, axis)
    q = sgn * dot3(nrm, axis)
    qa = A * q * q + inv_e2
    hb = A * p * q
    c = A * p * p + t2 * inv_e2 - 1.0
    disc = hb * hb - qa * c
    root = np.sqrt(np.maximum(disc, 0.0))
    # larger root (root - hb) / qa; where hb > 0 that difference cancels,
    # so use the equal product form -c / (hb + root) there
    far = hb > 0.0
    kz = np.where(far, -c, root - hb) / np.where(far, hb + root, qa)
    bad = (disc < 0.0) | ~(kz > 0.0)
    if scalar and bad[0]:
        raise RefractionError("total internal reflection at extraordinary entry")
    kz = np.where(bad, np.nan, kz)
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
