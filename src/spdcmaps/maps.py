"""Relative-phase and time-delay maps over the pair-emission cone.

The source is two thin crystal plates in optical contact with orthogonal
optic-axis planes.  A pair born in the first plate crosses the second one
on the extraordinary branch; the pair born in the second plate instead had
its pump cross the first plate on the ordinary branch.  The phase and the
arrival-time difference between those two birth histories, as functions of
where (and at what frequency) the photons land on a distant detection
plane, are what this module evaluates, pointwise and on grids.

Grid sweeps evaluate array kernels on blocks of whole rows in one serial
loop and mark bad cells NaN.  Pointwise operations take one EmissionCoord,
run the same kernels on one-cell arrays, and raise on invalid kinematics;
the partner photon is located from the signal's transverse components in
both, the same way.  Every kernel is elementwise and loop-free (explicit
component arithmetic, closed-form refraction and walkoff ray), so a
cell's value does not depend on the block it was computed in:
relative_phase and time_delay for either photon reproduce the phase and
both delay columns bitwise.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import crystal, phasematch, vecgeom
from .crystal import C_NM_FS
from .errors import ConfigError, FitError, RefractionError
from .phasematch import EmissionCoord, Z_NORMAL

DETECTION_MODE = "detection_plane_xy"
ANGULAR_MODE = "angular_theta_phi"

GROUP_ALONG_RAY = "ray"
GROUP_ALONG_WAVEVECTOR = "wavevector"


@dataclass(frozen=True)
class SourceConfig:
    """Full two-crystal source description.

    mu is the fractional pair-birth depth used by the interval formulas
    (the delay itself is mu-free).  group_convention selects how the
    extraordinary group transit through the second crystal is reckoned:
    "ray" evaluates the group index at the axis cosine of the ray (the
    index-surface normal) and scales it by cos rho, the ray's projection
    onto the wavevector; "wavevector" uses the wavevector's axis cosine
    directly.  The two differ by well under a percent in transit time but
    the difference matters when hunting the self-compensating tilt.
    """

    crystal1: crystal.CrystalSpec
    crystal2: crystal.CrystalSpec
    pump: phasematch.PumpConfig
    detection_distance_mm: float = 1200.0
    include_z_offset_phase: bool = False
    mu: float = 0.5
    group_convention: str = GROUP_ALONG_RAY
    base_axes: tuple = None  # nominal (untilted) axis angles, set on constraint

    def __post_init__(self):
        if not 0.0 <= self.mu <= 1.0:
            raise ConfigError(f"mu must lie in [0, 1], got {self.mu!r}", key="mu")
        if self.detection_distance_mm <= 0.0:
            raise ConfigError("detection distance must be positive",
                              key="detection_distance_mm")
        if self.group_convention not in (GROUP_ALONG_RAY, GROUP_ALONG_WAVEVECTOR):
            raise ConfigError(
                f"group_convention must be {GROUP_ALONG_RAY!r} or "
                f"{GROUP_ALONG_WAVEVECTOR!r}, got {self.group_convention!r}",
                key="group_convention")

    def nominal_axes(self):
        """Axis angles before any pump-tracking rotation was applied."""
        if self.base_axes is not None:
            return self.base_axes
        return ((self.crystal1.axis_theta, self.crystal1.axis_phi),
                (self.crystal2.axis_theta, self.crystal2.axis_phi))


def source_snapshot(source):
    """Plain-dict snapshot of a SourceConfig (degrees/nm/mm, JSON-ready)."""
    def crys(c):
        return {"material": c.material.name,
                "length_mm": c.length_mm,
                "axis_theta_deg": math.degrees(c.axis_theta),
                "axis_phi_deg": math.degrees(c.axis_phi)}
    p = source.pump
    return {
        "pump": {"wavelength_nm": p.wavelength_nm,
                 "theta_p_deg": math.degrees(p.theta_p),
                 "phi_p_deg": math.degrees(p.phi_p),
                 "phase_offset_deg": math.degrees(p.phase_offset)},
        "crystal1": crys(source.crystal1),
        "crystal2": crys(source.crystal2),
        "detection_distance_mm": source.detection_distance_mm,
        "mu": source.mu,
        "include_z_offset_phase": source.include_z_offset_phase,
        "group_convention": source.group_convention,
    }


# ------------------------------------------------------------ array kernels

class _Transit:
    """Extraordinary transit of one photon species through crystal 2,
    for stacked air-side transverse direction components."""

    __slots__ = ("n", "ca_k", "ca_ray", "cos_rho", "rx", "ry", "rz", "valid")

    def __init__(self, spec, omega, sx, sy):
        sx = np.asarray(sx, dtype=float)
        sy = np.asarray(sy, dtype=float)
        s2 = sx * sx + sy * sy
        sz = np.sqrt(np.where(s2 < 1.0, 1.0 - s2, np.nan))
        k_air = np.stack(np.broadcast_arrays(sx, sy, sz), axis=-1)
        K, n = vecgeom.refract_into_extraordinary(
            k_air, Z_NORMAL, 1.0, omega, spec)
        ray, self.cos_rho, self.ca_ray, self.ca_k = \
            crystal._surface_normal_ray(K, spec, omega)
        self.n = n
        self.rx = ray[..., 0]
        self.ry = ray[..., 1]
        self.rz = ray[..., 2]
        self.valid = np.isfinite(n) & (self.rz > 0.0)


def _partner(pump, w_s, sx, sy):
    """Partner frequency and transverse direction components (arrays) under
    energy and transverse-momentum conservation; NaN components where the
    partner is evanescent in air."""
    w_p = pump.omega
    w_i = w_p - w_s
    qpx, qpy = pump.transverse_q()
    scale = w_s / C_NM_FS
    six = (qpx - scale * sx) * C_NM_FS / w_i
    siy = (qpy - scale * sy) * C_NM_FS / w_i
    evan = six * six + siy * siy >= 1.0
    return w_i, np.where(evan, np.nan, six), np.where(evan, np.nan, siy)


def _phase_values(source, w_s, sx, sy):
    """Relative phase (radians) for arrays of signal transverse components."""
    spec2 = source.crystal2
    d2 = spec2.length_mm
    w_i, six, siy = _partner(source.pump, w_s, sx, sy)
    total = 0.0
    for w, ax, ay in ((w_s, sx, sy), (w_i, six, siy)):
        t = _Transit(spec2, w, ax, ay)
        term = t.n * t.cos_rho + t.rx * ax + t.ry * ay
        contrib = (w * d2 * 1e6 / (C_NM_FS * t.rz)) * term
        contrib = np.where(t.valid, contrib, np.nan)
        total = total + contrib
    if source.include_z_offset_phase:
        d1 = source.crystal1.length_mm
        offset = d1 + source.mu * (d2 - d1)
        total = total + (w_s + w_i) * (offset * 1e6 / C_NM_FS)
    return total + source.pump.phase_offset


def _group_e_effective(source, w, transit):
    """Group index governing the extraordinary transit, per convention."""
    mat = source.crystal2.material
    if source.group_convention == GROUP_ALONG_RAY:
        ng = crystal.group_index(mat, w, "e", cos_alpha=transit.ca_ray)
        return ng * transit.cos_rho
    return crystal.group_index(mat, w, "e", cos_alpha=transit.ca_k)


def _delay_values(source, w, sx, sy):
    """Time delay (fs) for the photon species at frequency w located at the
    given transverse direction components; arrays in, array out."""
    t = _Transit(source.crystal2, w, sx, sy)
    ng_eff = _group_e_effective(source, w, t)
    ng_po = crystal.group_index(source.crystal1.material, source.pump.omega, "o")
    d1 = source.crystal1.length_mm
    d2 = source.crystal2.length_mm
    # two scaled terms, subtracted last: _interval_values adds this value
    # to t2, so t1 - t2 reproduces it when the plates are equal
    dt = (1e6 / C_NM_FS) * (d2 * ng_eff / t.rz) \
        - (1e6 / C_NM_FS) * (d1 * ng_po)
    return np.where(t.valid, dt, np.nan)


def _interval_values(source, w, sx, sy):
    """Birth-to-exit transit times (t1, t2) in fs for the photon species at
    frequency w located at the given transverse direction components."""
    c1, c2 = source.crystal1, source.crystal2
    mu = source.mu
    w_p = source.pump.omega
    k = 1e6 / C_NM_FS
    s2 = sx * sx + sy * sy
    pe, o = [], []
    for c in (c1, c2):
        # pump extraordinary up to the birth depth, then the photon
        # ordinary from there to the exit face of its birth crystal
        st = phasematch.pump_internal_state(source.pump, c)
        ng_pe = crystal.group_index(c.material, w_p, "e",
                                    cos_alpha=math.cos(st.alpha))
        n_o = c.material.index_o(crystal.nm_from_omega(w))
        kz_o = np.sqrt(n_o * n_o - s2) / n_o
        ng_o = crystal.group_index(c.material, w, "o")
        pe.append(k * (mu * c.length_mm * ng_pe))
        o.append(k * ((1.0 - mu) * c.length_mm * ng_o / kz_o))
    po = k * (c1.length_mm * crystal.group_index(c1.material, w_p, "o"))
    dt = _delay_values(source, w, sx, sy)
    t2 = (pe[1] + o[1]) + po
    # equal birth segments cancel exactly, so equal plates give
    # t1 - t2 = dt at working precision
    t1 = t2 + dt + ((pe[0] - pe[1]) + (o[0] - o[1]))
    return t1, t2


def _at(kernel, source, coord, photon="s"):
    """One-cell evaluation of an array kernel: at coord itself for photon
    's', at its conjugate partner for 'i', reached as the sweeps reach it.
    Returns a float or a tuple of floats."""
    if photon not in ("s", "i"):
        raise ValueError(f"photon must be 's' or 'i', got {photon!r}")
    w = coord.omega
    sx, sy = _transverse(np.array([coord.theta]), np.array([coord.phi]))
    if photon == "i":
        phasematch.conjugate(coord, source.pump)  # KinematicsError if none
        w, sx, sy = _partner(source.pump, w, sx, sy)
    vals = np.hstack(kernel(source, w, sx, sy))
    if not np.isfinite(vals).all():
        raise RefractionError(
            "no forward extraordinary transit at this coordinate")
    return float(vals[0]) if vals.size == 1 else tuple(vals.tolist())


# ---------------------------------------------------------- pointwise ops

def relative_phase(source, signal):
    """Relative phase (radians) between the two pair-birth histories for a
    signal photon at the given air-side coordinate.

    The value is continuous in the coordinate (the formula has no branch
    cuts), so no modular wrapping or unwrapping is involved; reduce it
    mod 2 pi yourself if you need the principal value.  Raises
    KinematicsError for impossible partners and RefractionError when a
    transit fails.
    """
    phasematch.conjugate(signal, source.pump)  # KinematicsError if none
    return _at(_phase_values, source, signal)


def time_intervals(source, signal, photon="s"):
    """Birth-to-exit transit times (t1, t2) in fs for the two possible birth
    crystals of the selected photon ('s' = the signal itself, 'i' = its
    conjugate partner).  t1 traces a pair born at depth mu*d in the first
    crystal, t2 a pair born at the equivalent depth in the second."""
    return _at(_interval_values, source, signal, photon)


def time_delay(source, signal, photon="s"):
    """Arrival-time difference (fs) between the two birth histories for the
    selected photon; independent of mu, and equal to t1 - t2 when the two
    plates have equal length."""
    return _at(_delay_values, source, signal, photon)


# ------------------------------------------------------------- grid sweeps

@dataclass(frozen=True)
class GridSpec:
    """Rectangular sweep grid.  Coordinates are mm on the detection plane
    in detection_plane_xy mode, degrees (polar, azimuth) in
    angular_theta_phi mode.  Cell (i, j) sits at (coord2[i], coord1[j]);
    storage is row-major over coord2 rows."""

    nx: int
    ny: int
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    mode: str = DETECTION_MODE

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ConfigError("grid must have at least one cell per axis",
                              key="grid")
        if self.mode not in (DETECTION_MODE, ANGULAR_MODE):
            raise ConfigError(f"unknown grid mode {self.mode!r}", key="grid.mode")
        if (self.mode == ANGULAR_MODE
                and max(abs(self.x_min), abs(self.x_max)) >= 90.0):
            raise ConfigError("polar angles must stay below 90 degrees",
                              key="grid")

    def axes(self):
        return (np.linspace(self.x_min, self.x_max, self.nx),
                np.linspace(self.y_min, self.y_max, self.ny))


@dataclass
class MapGrid:
    """Computed map: axis vectors, one or two value planes (ny, nx), and a
    reproducible metadata snapshot.  Invalid cells are NaN; exporters spell
    them `NA`.  Phase planes are stored directly in degrees so that text
    round-trips reproduce the array bitwise."""

    kind: str               # "phase" | "delay"
    mode: str
    coord1: np.ndarray
    coord2: np.ndarray
    coord_names: tuple
    value_names: tuple
    values: tuple           # of (ny, nx) float arrays
    metadata: dict = field(default_factory=dict)

    def wrapped(self):
        """Phase plane folded to [0, 360) degrees (phase maps only)."""
        if self.kind != "phase":
            raise ValueError("wrapped() applies to phase maps")
        return np.mod(self.values[0], 360.0)

    def same_data(self, other):
        def eq(a, b):
            return a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
        return (self.kind == other.kind and self.mode == other.mode
                and self.coord_names == other.coord_names
                and self.value_names == other.value_names
                and eq(self.coord1, other.coord1) and eq(self.coord2, other.coord2)
                and len(self.values) == len(other.values)
                and all(eq(a, b) for a, b in zip(self.values, other.values)))


def _transverse(theta, phi):
    """Air-side transverse direction components (arrays)."""
    s = np.sin(theta)
    return s * np.cos(phi), s * np.sin(phi)


def _grid_transverse(source, grid_spec, xs, rows_y):
    """Transverse direction components for a block of grid rows, shape
    (len(rows_y), len(xs))."""
    xs = xs[np.newaxis, :]
    rows_y = rows_y[:, np.newaxis]
    if grid_spec.mode == DETECTION_MODE:
        return _transverse(*vecgeom.detection_point_to_angles(
            xs, rows_y, source.detection_distance_mm))
    return _transverse(np.deg2rad(xs), np.deg2rad(rows_y))


def _default_workers():
    """min(4, cpu count), kept for callers that report it.  Sweeps run
    serially and ignore their workers argument."""
    import os
    return min(4, os.cpu_count() or 1)


# cells per sweep block: whole rows, enough of them to amortize the
# per-call overhead of the array kernels while the temporaries stay small
_CHUNK_CELLS = 8192


def _phase_planes(source, w_s, sx, sy):
    return (np.degrees(_phase_values(source, w_s, sx, sy)),)


def _delay_planes(source, w_s, sx, sy):
    return (_delay_values(source, w_s, sx, sy),
            _delay_values(source, *_partner(source.pump, w_s, sx, sy)))


def _sweep(source, grid_spec, filter_center_nm, kind, value_names, kernel):
    """MapGrid of the kernel's planes, evaluated at the filter's signal
    frequency (degenerate when filter_center_nm is None) on blocks of
    whole grid rows."""
    w_s = (crystal.omega_from_nm(filter_center_nm) if filter_center_nm
           else 0.5 * source.pump.omega)
    xs, ys = grid_spec.axes()
    planes = [np.empty((grid_spec.ny, grid_spec.nx)) for _ in value_names]
    rows = max(1, _CHUNK_CELLS // grid_spec.nx)
    for i in range(0, grid_spec.ny, rows):
        sx, sy = _grid_transverse(source, grid_spec, xs, ys[i:i + rows])
        for plane, vals in zip(planes, kernel(source, w_s, sx, sy)):
            plane[i:i + rows] = vals
    meta = {"source": source_snapshot(source),
            "filter_nm": (filter_center_nm if filter_center_nm
                          else 2.0 * source.pump.wavelength_nm)}
    coord_names = (("x_mm", "y_mm") if grid_spec.mode == DETECTION_MODE
                   else ("theta_deg", "phi_deg"))
    return MapGrid(kind=kind, mode=grid_spec.mode, coord1=xs, coord2=ys,
                   coord_names=coord_names, value_names=value_names,
                   values=tuple(planes), metadata=meta)


def sweep_phase_map(source, grid_spec, filter_center_nm=None, workers=None):
    """Relative-phase map over a grid, in degrees.

    filter_center_nm selects the signal wavelength at every cell; None
    means degenerate (twice the pump wavelength).  workers is accepted
    for compatibility and has no effect: the sweep runs on one thread.
    """
    return _sweep(source, grid_spec, filter_center_nm, "phase",
                  ("phase_deg",), _phase_planes)


def sweep_delay_map(source, grid_spec, filter_center_nm=None, workers=None):
    """Time-delay map: per cell, the delay of the photon detected there
    behind the filter (dt_s_fs) and the delay of its conjugate partner
    (dt_i_fs).  workers has no effect, as in sweep_phase_map."""
    return _sweep(source, grid_spec, filter_center_nm, "delay",
                  ("dt_s_fs", "dt_i_fs"), _delay_planes)


# ---------------------------------------------------------------- analysis

@dataclass(frozen=True)
class QuadraticFit:
    """Least-squares quadratic value = c0 + c1 t + c2 t^2 along a map line,
    with t the signed polar angle in radians."""

    c0: float
    c1: float
    c2: float
    rms_residual: float
    thetas: np.ndarray
    samples: np.ndarray

    def evaluate(self, theta):
        return self.c0 + self.c1 * theta + self.c2 * theta * theta

    def slope(self, theta):
        """Derivative of the fitted parabola: the angular phase slope."""
        return self.c1 + 2.0 * self.c2 * theta

    @property
    def span(self):
        return float(np.nanmax(self.samples) - np.nanmin(self.samples))


def profile_line(grid, line):
    """Extract (signed polar angle rad, values) along a map line.

    line is "y=0" or "x=0" for detection-plane maps, "phi=<degrees>" for
    angular maps; the nearest grid row/column is used.
    """
    if grid.mode == DETECTION_MODE:
        L = grid.metadata.get("source", {}).get("detection_distance_mm")
        if L is None:
            raise FitError("grid metadata lacks the detection distance")
        if line == "y=0":
            i = int(np.argmin(np.abs(grid.coord2)))
            vals = grid.values[0][i, :]
            thetas = np.arctan(grid.coord1 / L)
        elif line == "x=0":
            j = int(np.argmin(np.abs(grid.coord1)))
            vals = grid.values[0][:, j]
            thetas = np.arctan(grid.coord2 / L)
        else:
            raise FitError(f"unknown line spec {line!r} for a detection-plane map")
    else:
        if not line.startswith("phi="):
            raise FitError(f"unknown line spec {line!r} for an angular map")
        try:
            target = float(line[4:])
        except ValueError:
            raise FitError(f"bad azimuth in line spec {line!r}") from None
        i = int(np.argmin(np.abs(grid.coord2 - target)))
        vals = grid.values[0][i, :]
        thetas = np.deg2rad(grid.coord1)
    return thetas, vals


def fit_quadratic_profile(grid, line="y=0"):
    """Quadratic fit of a map profile in the signed polar angle.

    Invalid (NaN) cells are dropped; fewer than five valid samples raises
    FitError.  Returns the coefficients, the rms residual (same unit as the
    map values), and the profile itself for plotting.
    """
    thetas, vals = profile_line(grid, line)
    keep = np.isfinite(vals)
    if int(np.count_nonzero(keep)) < 5:
        raise FitError(f"profile {line!r} has fewer than 5 valid samples")
    t = thetas[keep]
    v = vals[keep]
    c2, c1, c0 = np.polyfit(t, v, 2)
    resid = v - (c0 + c1 * t + c2 * t * t)
    rms = float(np.sqrt(np.mean(resid * resid)))
    return QuadraticFit(c0=float(c0), c1=float(c1), c2=float(c2),
                        rms_residual=rms, thetas=t, samples=v)
