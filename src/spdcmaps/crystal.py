"""Material dispersion and uniaxial crystal optics.

Sellmeier coefficient sets live in data/materials.yaml and are loaded once
into an immutable registry.  On top of them: ordinary / extraordinary /
angle-dependent refractive indices, group indices from the closed-form
derivative of the fits, and the walkoff (Poynting) ray as the closed-form
normal of the index surface at the wavevector.

Unit conventions, used across the whole package:
    lengths mm, wavelengths nm, time fs, angular frequency rad/fs,
    c = 299.792458 nm/fs.
A transit time in fs over a length d in mm is d * 1e6 * n_g / c.

Index functions accept scalars or ndarrays.  A scalar wavelength outside a
material's validity window raises RangeError, array input gets NaN in the
offending slots.  group_index, walkoff_angle, walkoff_ray and the
extraordinary refraction take one scalar omega, whose two principal
indices (_indices), and group indices with the two fit slopes they come
from (_principal_group), are memoised per (material, omega): a map
needs only a few frequencies, and a sweep outside the window raises
RangeError too.

The index-surface normal is written once, on components, in
_ray_components, from the axis and indices its caller looked up: the
map sweeps' transit calls it directly, walkoff_ray stacks its output.
The ordinary k_z, sqrt(n_o^2 - s^2), is written once, in _ordinary_kz.
A CrystalSpec computes its optic axis once and a Material its hash once,
since every transit reads both.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources

import numpy as np
import yaml

from .errors import ConfigError, RangeError

# the one YAML base loader of the package: libyaml's scanner where PyYAML
# was built with it, the pure-Python one otherwise
_YamlLoader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

C_NM_FS = 299.792458  # vacuum speed of light, nm per fs

def omega_from_nm(lam_nm):
    """Angular frequency (rad/fs) of a vacuum wavelength (nm)."""
    return 2.0 * np.pi * C_NM_FS / lam_nm


def nm_from_omega(omega):
    return 2.0 * np.pi * C_NM_FS / omega


@dataclass(frozen=True)
class SellmeierFit:
    """One n^2(lambda) fit: a + sum b*(L or 1)/(L - c) + d_lam2*L, L = um^2."""

    a: float
    poles: tuple  # of (b, c, lam2_numerator)
    d_lam2: float = 0.0

    def index(self, lam_nm):
        lam_um = np.asarray(lam_nm, dtype=float) * 1e-3
        L = lam_um * lam_um
        n2 = self.a + self.d_lam2 * L
        for b, c, lam2_num in self.poles:
            n2 = n2 + (b * L if lam2_num else b) / (L - c)
        return np.sqrt(n2)


@dataclass(frozen=True)
class Material:
    name: str
    ordinary: SellmeierFit
    extraordinary: SellmeierFit
    valid_nm: tuple  # (low, high) inclusive

    @cached_property
    def _hash(self):
        return hash((self.name, self.ordinary, self.extraordinary,
                     self.valid_nm))

    def __hash__(self):
        # the generated dataclass hash, computed once: _indices keys its
        # memo on the material, and rehashing the nested fits on every
        # lookup would cost more than the lookup itself
        return self._hash

    def _checked(self, fit, lam_nm):
        lam = np.asarray(lam_nm, dtype=float)
        bad = (lam < self.valid_nm[0]) | (lam > self.valid_nm[1])
        if lam.ndim == 0:
            if bad:
                raise RangeError(
                    f"{self.name}: wavelength {float(lam)!r} nm outside validity "
                    f"range [{self.valid_nm[0]:g}, {self.valid_nm[1]:g}] nm")
            return float(fit.index(float(lam)))
        n = fit.index(lam)
        if np.any(bad):
            n = np.where(bad, np.nan, n)
        return n

    def index_o(self, lam_nm):
        """Ordinary refractive index."""
        return self._checked(self.ordinary, lam_nm)

    def index_e_principal(self, lam_nm):
        """Principal extraordinary index (propagation perpendicular to axis)."""
        return self._checked(self.extraordinary, lam_nm)

    def index_e(self, lam_nm, cos_alpha):
        """Extraordinary index at angle alpha to the optic axis (ellipsoid
        section), parameterized by cos(alpha) which is what callers have."""
        return _section_index(self.index_o(lam_nm),
                              self.index_e_principal(lam_nm), cos_alpha)


def _sqrt(x):
    """The map kernels' square root: np.sqrt on an array, else math.sqrt,
    NaN for negative or NaN x as np.sqrt gives.  Both are the correctly
    rounded IEEE root, so a 0-d value stays a float with its array cell's
    bits.  It lives here, not beside vecgeom._select and _clamp0, because
    vecgeom imports this module."""
    if isinstance(x, np.ndarray):
        return np.sqrt(x)
    return math.sqrt(x) if x >= 0.0 else math.nan


def _section_index(n_o, n_ep, cos_alpha):
    """Index-ellipsoid section at axis cosine cos_alpha."""
    ca2 = cos_alpha * cos_alpha
    return 1.0 / _sqrt(ca2 / (n_o * n_o) + (1.0 - ca2) / (n_ep * n_ep))


def _ordinary_kz(n_o, sx, sy):
    """z component, in units of omega / c, of the ordinary wavevector of
    index n_o that enters from air with transverse components (sx, sy):
    the one copy of sqrt(n_o^2 - s^2), for arrays or floats."""
    return _sqrt(n_o * n_o - (sx * sx + sy * sy))


def _load_registry_dict(raw):
    def fit(d):
        poles = tuple(
            (float(p["b"]), float(p["c"]), bool(p.get("lam2_numerator", False)))
            for p in d.get("poles", ()))
        return SellmeierFit(a=float(d["a"]), poles=poles,
                            d_lam2=float(d.get("d_lam2", 0.0)))

    out = {}
    for name, m in raw["materials"].items():
        out[name] = Material(
            name=name,
            ordinary=fit(m["n_o"]),
            extraordinary=fit(m["n_e"]),
            valid_nm=(float(m["valid_nm"][0]), float(m["valid_nm"][1])))
    return out


@lru_cache(maxsize=1)
def _registry():
    text = resources.files("spdcmaps").joinpath("data/materials.yaml").read_text()
    return _load_registry_dict(yaml.load(text, Loader=_YamlLoader))


def available_materials():
    return sorted(_registry())


def get_material(name):
    reg = _registry()
    if name in reg:
        return reg[name]
    folded = {k.lower(): v for k, v in reg.items()}
    try:
        return folded[str(name).lower()]
    except KeyError:
        raise ConfigError(
            f"unknown material {name!r}; available: {available_materials()}",
            key="material") from None


# ---------------------------------------------------------------- op layer
# Module-level functions take (material, omega in rad/fs); Material methods
# take wavelengths.  Both views are used: the solvers think in frequency,
# the dispersion data in wavelength.

def n_o(material, omega):
    return material.index_o(nm_from_omega(omega))


def n_e_principal(material, omega):
    return material.index_e_principal(nm_from_omega(omega))


def n_e_angle(material, omega, alpha):
    return material.index_e(nm_from_omega(omega), np.cos(alpha))


@lru_cache
def _indices(material, omega):
    """(lambda in nm, n_o, n_e principal) of a material at one scalar
    frequency, range-checked; memoised."""
    lam = nm_from_omega(float(omega))
    return lam, material.index_o(lam), material.index_e_principal(lam)


def _fit_slope(fit, lam, n):
    """d(index)/d(lambda) in 1/nm of a fit whose index at lam is n, in
    closed form.  The fit is rational in L = lambda^2 um^2, so the slope is
    exact; no finite-difference noise floor enters the group delays."""
    L = (lam * lam) * 1e-6
    dn2_dL = fit.d_lam2
    for b, c, lam2_num in fit.poles:
        den = L - c
        dn2_dL = dn2_dL - (b * c if lam2_num else b) / (den * den)
    # dL/dlam = 2 lam 1e-6, and dn/dlam = (dn2/dlam) / (2 n)
    return dn2_dL * lam * 1e-6 / n


@lru_cache
def _principal_group(material, omega):
    """(ordinary, principal extraordinary) group index of a material at one
    scalar frequency, then the two fit slopes they come from; memoised
    like _indices, so group_index's angle path reads the slopes here."""
    lam, nn_o, nn_ep = _indices(material, omega)
    slope_o = _fit_slope(material.ordinary, lam, nn_o)
    slope_ep = _fit_slope(material.extraordinary, lam, nn_ep)
    return nn_o - lam * slope_o, nn_ep - lam * slope_ep, slope_o, slope_ep


def group_index(material, omega, polarization="o", cos_alpha=None):
    """Group index n_g = n - lambda dn/dlambda (equivalently n + w dn/dw).

    polarization "o" uses the ordinary fit; "e" uses the ellipsoid index at
    fixed geometric angle alpha (cos_alpha given; None means the principal
    plane, alpha = 90 deg).  Derivatives come from the closed-form fit
    slope, so the result is as smooth in the inputs as the index itself.
    omega is a scalar; its dispersion, and the two principal group
    indices, are computed once per (material, omega).
    """
    if polarization not in ("o", "e"):
        raise ValueError(f"polarization must be 'o' or 'e', got {polarization!r}")
    ng_o, ng_ep, slope_o, slope_ep = _principal_group(material, omega)
    if polarization == "o" or cos_alpha is None:
        return ng_o if polarization == "o" else ng_ep
    lam, nn_o, nn_ep = _indices(material, omega)
    n = _section_index(nn_o, nn_ep, cos_alpha)
    ca2 = cos_alpha * cos_alpha
    slope = (n * n * n) * (
        ca2 * slope_o / (nn_o * nn_o * nn_o)
        + (1.0 - ca2) * slope_ep / (nn_ep * nn_ep * nn_ep))
    return n - lam * slope


def walkoff_angle(material, omega, cos_alpha):
    """Walkoff angle rho between extraordinary wavevector and ray.

    rho = arctan[(n(alpha)^2 / 2) (1/n_e^2 - 1/n_o^2) sin 2alpha], positive
    for negative uniaxial crystals at 0 < alpha < 90 deg, meaning the ray
    leans away from the optic axis.  omega is a scalar; the dispersion is
    evaluated once per (material, omega).
    """
    _, nn_o, nn_e = _indices(material, omega)
    ca = np.asarray(cos_alpha, dtype=float)
    n = _section_index(nn_o, nn_e, ca)
    sin2a = 2.0 * ca * np.sqrt(np.maximum(1.0 - ca * ca, 0.0))
    return np.arctan(
        0.5 * n * n * (1.0 / (nn_e * nn_e) - 1.0 / (nn_o * nn_o)) * sin2a)


def walkoff_ray(k_e, crystal_spec, omega):
    """Unit Poynting (ray) direction for an extraordinary wave: the normal
    of the index surface at the unit wavevector k_e.  It leans away from
    the optic axis by the walkoff angle in the (k_e, axis) plane and equals
    k_e along the axis and perpendicular to it.  Works on (..., 3) stacks
    at one scalar omega, whose dispersion is read once per material.
    """
    k = np.asarray(k_e, dtype=float)
    return _surface_normal_ray(k, crystal_spec, omega)[0]


def _surface_normal_ray(k, crystal_spec, omega):
    """(ray, cos rho, ray . a, k . a) for unit wavevectors k stacked on the
    last axis; _ray_components on their components."""
    _, n_o, n_ep = _indices(crystal_spec.material, omega)
    rx, ry, rz, cos_rho, ca_ray, ca = _ray_components(
        k[..., 0], k[..., 1], k[..., 2], crystal_spec._axis, n_o, n_ep)
    return np.stack((rx, ry, rz), axis=-1), cos_rho, ca_ray, ca


def _ray_components(kx, ky, kz, axis, n_o, n_ep):
    """(ray x, y, z, cos rho, ray . a, k . a) for unit wavevector components
    (kx, ky, kz), with a = axis the optic axis, n_o and n_ep the principal
    indices and rho the walkoff angle.  The ray is along the index-surface
    normal g = k / n_e^2 + (1/n_o^2 - 1/n_e^2) (k . a) a.  |g|, cos rho and
    ray . a are closed forms in k . a, not dot products of the ray, so
    sub-ulp residue in its components stays out of the group terms."""
    ax, ay, az = axis
    ca = kx * ax + ky * ay + kz * az
    inv_o2 = 1.0 / (n_o * n_o)
    inv_e2 = 1.0 / (n_ep * n_ep)
    A = inv_o2 - inv_e2
    ca2 = ca * ca
    g = _sqrt((1.0 - ca2) * (inv_e2 * inv_e2) + ca2 * (inv_o2 * inv_o2))
    Aca = A * ca
    return ((inv_e2 * kx + Aca * ax) / g, (inv_e2 * ky + Aca * ay) / g,
            (inv_e2 * kz + Aca * az) / g,
            (inv_e2 + A * ca2) / g, ca * inv_o2 / g, ca)


_AXIS_EPS = 1e-15

# far beyond any real plate, and far below the lengths (near 1e300 mm) at
# which the map kernels' transit phases overflow
MAX_LENGTH_MM = 1000.0


@dataclass(frozen=True)
class CrystalSpec:
    """A cut uniaxial crystal plate: material, thickness, optic-axis
    orientation (polar angle from the face normal +z, azimuth in x-y).  A
    thickness outside (0, MAX_LENGTH_MM], NaN included, or a non-finite
    axis angle is a ConfigError keyed by the field's name."""

    material: Material
    length_mm: float
    axis_theta: float
    axis_phi: float

    def __post_init__(self):
        if not self.length_mm > 0:
            raise ConfigError("crystal length must be positive, got "
                              f"{self.length_mm!r}", key="length_mm")
        if self.length_mm > MAX_LENGTH_MM:
            raise ConfigError(f"crystal length {self.length_mm!r} mm exceeds "
                              f"the cap of {MAX_LENGTH_MM:g} mm",
                              key="length_mm")
        for key in ("axis_theta", "axis_phi"):
            value = getattr(self, key)
            if not math.isfinite(value):
                raise ConfigError(f"must be finite, got {value!r}", key=key)

    @cached_property
    def _axis(self):
        """Optic-axis unit vector as a tuple of floats, computed once."""
        st = np.sin(self.axis_theta)
        v = (st * np.cos(self.axis_phi), st * np.sin(self.axis_phi),
             np.cos(self.axis_theta))
        # sub-ulp residue of cardinal-angle trig (cos(pi/2) and friends);
        # zeroing it keeps crossed-plate mirror planes exact
        return tuple(0.0 if abs(c) < _AXIS_EPS else float(c) for c in v)

    def axis_direction(self):
        """Optic-axis unit vector, a fresh array on every call."""
        return np.array(self._axis)

    def with_axis(self, axis_theta, axis_phi):
        return CrystalSpec(self.material, self.length_mm, axis_theta, axis_phi)
