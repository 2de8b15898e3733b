"""Relative-phase and time-delay maps over the pair-emission cone.

The source is two thin crystal plates in optical contact with orthogonal
optic-axis planes.  A pair born in the first plate crosses the second one
on the extraordinary branch; the pair born in the second plate instead had
its pump cross the first plate on the ordinary branch.  The phase and the
arrival-time difference between those two birth histories, as functions of
where (and at what frequency) the photons land on a distant detection
plane, are what this module evaluates, pointwise and on grids.

Sweeps read one cell record (_record) per block of whole rows, on
air-side transverse components (vecgeom._transverse): the signal, its
partner, solved first by the one copy of the conservation law
(phasematch._partner), and each photon's crystal-2 entry from air
(vecgeom._Transit), built once and reduced by the kernels
(_phase_values, _delay_values) into every kind's planes (_KINDS) before
the next.  On Linux, a grid of at least _FORK_CELLS cells is split into
contiguous shares of blocks, all but the first swept in forked child
processes (_fill_shares) straight into the returned planes, one shared
anonymous mapping; the planes are bitwise the same for every
workers count.  Pointwise calls run the record, or one photon's part of
it (_at), on an EmissionCoord's 0-d values, so they reproduce the phase
and both delay columns bitwise.  These are plain floats: numpy computes
only the coordinate's sin/cos, selections are plain ifs
(vecgeom._select, _clamp0) and roots math.sqrt (crystal._sqrt), so a
pointwise call runs at Python-float cost.  The transit always exists, so
a sweep marks a cell NaN for one cause: the partner is evanescent in
air.  Pointwise, relative_phase and photon 'i' raise KinematicsError
there, and first where omega_p - omega_s <= 0; any call raises it for a
photon grazing the face (its sine rounding to 1).  A sweep refuses a
window where a photon would graze: GridSpec an angular one, sweep_maps
one on the detection plane.  No pointwise call raises RefractionError.

The delays add up the transit times of the legs of each birth history.
One law, _leg_fs, times the photon's extraordinary leg through crystal
2, its ordinary leg from the birth depth, and the pump's ordinary leg
through crystal 1 at normal incidence.  The pump's extraordinary leg to
the birth depth is pump_group_e times mu d.  Neither pump leg takes its
oblique path under a tilted pump.
"""

import math
import mmap
import numbers
import os
import signal
import sys
import threading
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import crystal, phasematch, vecgeom
from .crystal import C_NM_FS
from .errors import ConfigError, FitError, KinematicsError
from .vecgeom import _Transit

DETECTION_MODE = "detection_plane_xy"
ANGULAR_MODE = "angular_theta_phi"
# each grid mode's (coord1, coord2) names
_COORDS = {DETECTION_MODE: ("x_mm", "y_mm"),
           ANGULAR_MODE: ("theta_deg", "phi_deg")}

GROUP_ALONG_RAY = "ray"
GROUP_ALONG_WAVEVECTOR = "wavevector"


@dataclass(frozen=True)
class SourceConfig:
    """Full two-crystal source description.

    mu is the fractional pair-birth depth used by the interval formulas
    (the delay itself is mu-free).  group_convention selects the group
    index of the photon's extraordinary leg through the second crystal,
    and of no other leg: "ray" evaluates it at the axis cosine of the ray
    (the index-surface normal) and scales it by cos rho, the ray's
    projection onto the wavevector; "wavevector" uses the wavevector's
    axis cosine directly.  The two differ by well under a percent in
    transit time but the difference matters when hunting the
    self-compensating tilt.  pump_group_e holds the pump's extraordinary
    group index in each crystal, at its wavevector's axis angle, and
    _pump_transit1 its ordinary transit through crystal 1 (_leg_fs at
    normal incidence), each computed once on first use (replace() builds
    a new instance, computed afresh).  Both pump legs run along the face
    normal, also for a tilted pump.  A mu outside [0, 1] or a detection
    distance that is not finite and positive is a ConfigError.
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
        if not 0.0 < self.detection_distance_mm < math.inf:
            raise ConfigError("detection distance must be positive and "
                              f"finite, got {self.detection_distance_mm!r}",
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

    @cached_property
    def _phase_offset(self):
        """The phase (radians) every cell shares: the pump's offset, plus
        with include_z_offset_phase the birth-plane propagation phase
        (omega_s + omega_i) offset / c, where omega_s + omega_i = omega_p."""
        if not self.include_z_offset_phase:
            return self.pump.phase_offset
        d1, d2 = self.crystal1.length_mm, self.crystal2.length_mm
        offset = d1 + self.mu * (d2 - d1)
        shift = self.pump.omega * (offset * 1e6 / C_NM_FS)
        return self.pump.phase_offset + shift

    @cached_property
    def pump_group_e(self):
        """The pump's extraordinary group index in each crystal, at the
        axis angle of its phasematch.pump_internal_state there."""
        return tuple(crystal.group_index(
            c.material, self.pump.omega, "e", cos_alpha=math.cos(
                phasematch.pump_internal_state(self.pump, c).alpha))
            for c in (self.crystal1, self.crystal2))

    @cached_property
    def _pump_transit1(self):
        """The pump's ordinary transit through crystal 1 in fs, along the
        normal: the one copy _delay_values and _interval_values read."""
        c1 = self.crystal1
        return _leg_fs(self, c1, self.pump.omega, 0.0, 0.0, c1.length_mm, "o")


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

def _phase_values(source, w, sx, sy, t):
    """A photon's share of the relative phase (radians) at frequency w and
    air-side components (sx, sy), over its crystal-2 transit t."""
    term = t.n * t.cos_rho + t.rx * sx + t.ry * sy
    return (w * source.crystal2.length_mm * 1e6 / (C_NM_FS * t.rz)) * term


def _leg_fs(source, spec, w, sx, sy, length, polarization, t=None):
    """Transit time (fs) over length mm of plate spec on branch "o" or "e"
    (as in crystal.group_index) at frequency w, entered from air with
    transverse components (sx, sy): length n_g / (c r_z), r_z the z
    component of the unit ray.  On "e", n_g follows group_convention along
    t, the _Transit of (spec, w, sx, sy), built here where None."""
    if polarization == "o":
        n_o = crystal._indices(spec.material, w)[1]
        ng = crystal._principal_group(spec.material, w)[0]
        rz = crystal._ordinary_kz(n_o, sx, sy) / n_o
    else:
        t = _Transit(spec, w, sx, sy) if t is None else t
        ray = source.group_convention == GROUP_ALONG_RAY
        ng = crystal.group_index(spec.material, w, polarization,
                                 cos_alpha=t.ca_ray if ray else t.ca_k)
        ng, rz = (ng * t.cos_rho if ray else ng), t.rz
    return (1e6 / C_NM_FS) * (length * ng / rz)


def _delay_values(source, w, sx, sy, t):
    """Time delay (fs) of the photon at frequency w and air-side
    components (sx, sy), over its crystal-2 transit t."""
    c2 = source.crystal2
    # two scaled terms, subtracted last: _interval_values adds this value
    # to t2, so t1 - t2 reproduces it when the plates are equal
    return (_leg_fs(source, c2, w, sx, sy, c2.length_mm, "e", t)
            - source._pump_transit1)


def _interval_values(source, w, sx, sy, t):
    """Birth-to-exit transit times (t1, t2) in fs of the photon at frequency
    w and air-side components (sx, sy), over its crystal-2 transit t."""
    c1, c2 = source.crystal1, source.crystal2
    mu = source.mu
    k = 1e6 / C_NM_FS
    pe, o = [], []
    for c, ng_pe in zip((c1, c2), source.pump_group_e):
        # pump extraordinary up to the birth depth, then the photon
        # ordinary from there to the exit face of its birth crystal
        pe.append(k * (mu * c.length_mm * ng_pe))
        o.append(_leg_fs(source, c, w, sx, sy, (1.0 - mu) * c.length_mm, "o"))
    dt = _delay_values(source, w, sx, sy, t)
    t2 = (pe[1] + o[1]) + source._pump_transit1
    # equal birth segments cancel exactly, so equal plates give
    # t1 - t2 = dt at working precision
    t1 = t2 + dt + ((pe[0] - pe[1]) + (o[0] - o[1]))
    return t1, t2


def _record(source, w_s, sx, sy, kernel):
    """The cell record: kernel(source, w, sx, sy, t) for the signal at w_s
    and air-side components (sx, sy), arrays or 0-d values, then for its
    partner, solved first (phasematch._partner), each over its crystal-2
    _Transit t, built once and dropped before the next one is built."""
    w_i, six, siy = phasematch._partner(source.pump, w_s, sx, sy)
    c2 = source.crystal2
    signal = kernel(source, w_s, sx, sy, _Transit(c2, w_s, sx, sy))
    return signal, kernel(source, w_i, six, siy, _Transit(c2, w_i, six, siy))


def _at(kernel, source, coord, photon):
    """Pointwise evaluation of a kernel on 0-d values, a float or a tuple
    of them: the cell record's part for photon 's' (coord) or 'i' (its
    partner, reached as the sweeps reach it).  KinematicsError from
    _partner, or where a value is not finite (a photon grazing the face)."""
    if photon not in ("s", "i"):
        raise ValueError(f"photon must be 's' or 'i', got {photon!r}")
    w = coord.omega
    sx, sy = map(float, vecgeom._transverse(coord.theta, coord.phi))
    if photon == "i":
        w, sx, sy = phasematch._partner(source.pump, w, sx, sy)
    vals = kernel(source, w, sx, sy, _Transit(source.crystal2, w, sx, sy))
    out = tuple(map(float, vals)) if isinstance(vals, tuple) else (float(vals),)
    if not all(map(math.isfinite, out)):
        raise KinematicsError("photon grazes the face")
    return out if isinstance(vals, tuple) else out[0]


# ---------------------------------------------------------- pointwise ops

def relative_phase(source, signal):
    """Relative phase (radians) between the two pair-birth histories for a
    signal photon at the given air-side coordinate.

    The value is continuous in the coordinate (the formula has no branch
    cuts), so no modular wrapping or unwrapping is involved; reduce it
    mod 2 pi yourself if you need the principal value.  KinematicsError
    where the partner frequency is not positive or the partner is
    evanescent in air.
    """
    sx, sy = map(float, vecgeom._transverse(signal.theta, signal.phi))
    s, i = _record(source, signal.omega, sx, sy, _phase_values)
    phase = float(s + i + source._phase_offset)
    if not math.isfinite(phase):
        raise KinematicsError("photon grazes the face")
    return phase


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

# cells in the largest grid a sweep computes or a map file may declare
_MAX_CELLS = 2 ** 24


def _check_top_polar(theta):
    """ConfigError keyed grid unless a window's largest polar angle theta
    (rad) stays below pi/2 with the sweep's own sine below 1: where it
    rounds to 1 the detected photon grazes the face."""
    if not (theta < 0.5 * np.pi and np.sin(theta) < 1.0):
        raise ConfigError("polar angles must stay below 90 degrees, with a "
                          f"sine below 1: got {float(np.degrees(theta))!r}",
                          key="grid")


@dataclass(frozen=True)
class GridSpec:
    """Rectangular sweep grid.  Coordinates are mm on the detection plane
    in detection_plane_xy mode, degrees (polar, azimuth) in
    angular_theta_phi mode.  Cell (i, j) sits at (coord2[i], coord1[j]);
    storage is row-major over coord2 rows, of at most _MAX_CELLS cells."""

    nx: int
    ny: int
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    mode: str = DETECTION_MODE

    def __post_init__(self):
        nx, ny = (_check_whole(getattr(self, n), "grid", 1, name=n)
                  for n in ("nx", "ny"))
        if nx * ny > _MAX_CELLS:  # before any plane is allocated
            raise ConfigError(f"{nx} x {ny} cells exceed the cap "
                              f"of 2^24 = {_MAX_CELLS}", key="grid")
        if self.mode not in _COORDS:
            raise ConfigError(f"unknown grid mode {self.mode!r}", key="grid.mode")
        spans = (self.x_max - self.x_min, self.y_max - self.y_min)
        if not all(map(math.isfinite, spans)):  # linspace steps by them
            raise ConfigError(f"grid spans must be finite, got {spans}",
                              key="grid")
        if self.mode == ANGULAR_MODE:
            _check_top_polar(np.deg2rad(max(abs(self.x_min), abs(self.x_max))))

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


def _usable_cpus():
    """CPUs this process may run on: its affinity mask where the platform
    reports one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _default_workers():
    """The processes a sweep uses for workers=None: min(4, usable CPUs)."""
    return min(4, _usable_cpus())


def _check_whole(value, key, lo, hi=None, name=None):
    """int(value) for a whole number (Integral, not bool) from lo to hi
    (None: unbounded); else a ConfigError keyed key, naming name."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < lo or (hi is not None and value > hi)):
        span = f"of at least {lo}" if hi is None else f"from {lo} to {hi}"
        raise ConfigError(f"{name + ' ' if name else ''}must be a whole "
                          f"number {span}, got {value!r}", key=key)
    return int(value)


# cells per sweep block: whole rows, enough of them to amortize the
# per-call overhead of the array kernels while the temporaries stay small
_CHUNK_CELLS = 8192


def _row_blocks(ny, nx):
    """(start, stop) row bounds of the blocks a (ny, nx) grid is swept and
    written in: _CHUNK_CELLS cells of whole rows, or one row, the first
    block the largest."""
    rows = max(1, _CHUNK_CELLS // nx)
    return [(i, min(i + rows, ny)) for i in range(0, ny, rows)]


# each map kind's value-column names, its kernel on one photon's transit
# (named, and looked up when a sweep runs), and its planes from (s, i)
_KINDS = {"phase": (("phase_deg",), "_phase_values", lambda source, s, i: (
              np.degrees(s + i + source._phase_offset),)),
          "delay": (("dt_s_fs", "dt_i_fs"), "_delay_values",
                    lambda source, s, i: (s, i))}


def _signal_omega(pump, filter_center_nm, key="filter_center_nm"):
    """(filter nm, omega_s): the signal wavelength and frequency a sweep
    evaluates, behind a filter centred at filter_center_nm, or degenerate
    (twice the pump wavelength) for None.  A centre that is not finite and
    positive is a ConfigError keyed key."""
    if filter_center_nm is None:
        filter_center_nm = 2.0 * pump.wavelength_nm
    elif not 0.0 < filter_center_nm < math.inf:
        raise ConfigError("filter centre must be finite and positive, got "
                          f"{filter_center_nm!r}", key=key)
    return filter_center_nm, crystal.omega_from_nm(filter_center_nm)


# grids of fewer cells are swept in this process.  On LiIO3 windows one
# forked share made the phase and delay sweeps 31 % and 45 % slower at
# 128^2, 3 % and 23 % faster at 257^2 and 32 % and 34 % faster at 512^2,
# so the cut sits above the shipped 257^2 windows
_FORK_CELLS = 1 << 17


def _processes(workers, cells, blocks):
    """How many processes sweep a grid of cells in blocks row blocks:
    min(workers, usable CPUs, blocks) where this Linux process can fork,
    the grid has at least _FORK_CELLS cells and no other Python thread
    runs; else 1, this process alone."""
    if (not hasattr(os, "fork") or sys.platform != "linux"
            or cells < _FORK_CELLS or threading.active_count() != 1):
        return 1
    return min(workers, _usable_cpus(), blocks)


def _fill_shares(fill, shares):
    """Sweep shares of row blocks with fill(blocks): the first here, each
    other one in a forked child; one share forks nothing.  fill writes
    the planes sweep_maps returns, for more than one share a shared
    anonymous mapping, so a child's rows land there and are not copied.

    The fork is safe, though import numpy has started an OpenBLAS
    thread: _processes forks only while no other Python thread runs, a
    child runs only numpy ufunc loops on the rows it owns and takes no
    lock that a native thread pool holds, and it leaves through os._exit,
    never returning into its caller's frames.  A share whose child exits
    nonzero, or that could not be forked (OSError), is swept here: the
    kernels are deterministic, so it gets the same bits or raises the
    same error, with its traceback.  On any exception here,
    KeyboardInterrupt included, the children are killed; each one is
    reaped before this returns or raises."""
    children = []       # (pid, share) of the children not yet reaped
    try:
        for share in shares[1:]:
            # CPython 3.12+ warns on a fork while other OS threads run,
            # and import numpy alone starts an OpenBLAS one
            try:
                with warnings.catch_warnings():
                    warnings.filterwarnings(
                        "ignore", r"This process \(pid=\d+\) is "
                        r"multi-threaded, use of fork\(\) may lead to "
                        r"deadlocks in the child\.", DeprecationWarning)
                    pid = os.fork()
            except OSError:
                break
            if pid == 0:
                code = 1
                try:
                    fill(share)
                    code = 0
                finally:
                    os._exit(code)
            children.append((pid, share))
        fill(shares[0])
        for share in shares[1 + len(children):]:
            fill(share)
        while children:
            pid, share = children[0]
            status = os.waitpid(pid, 0)[1]
            del children[0]
            if status:
                fill(share)
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, _ in children:
            os.waitpid(pid, 0)


def sweep_maps(source, grid_spec, kinds, filter_center_nm=None, workers=None):
    """A MapGrid for each of kinds ("phase", "delay"; ValueError for none
    or another), all from one _record per block of whole grid rows, in
    _processes(...) contiguous shares (_fill_shares).  filter_center_nm and
    workers as in sweep_phase_map; a detection-plane window whose farthest
    corner grazes the face (GridSpec's rule) is a ConfigError keyed grid.
    Every plane is a float64 (ny, nx) slice of one block: private for a
    sweep in this process alone; for a forked one, a shared anonymous
    mapping, which a later os.fork by the caller shares with its child."""
    kinds = tuple(kinds)
    if not kinds or not all(kind in _KINDS for kind in kinds):
        raise ValueError(f"kinds must be one or more of {tuple(_KINDS)}: "
                         f"{kinds!r}")
    workers = (_default_workers() if workers is None
               else _check_whole(workers, "workers", 1))
    filter_nm, w_s = _signal_omega(source.pump, filter_center_nm)
    xs, ys = grid_spec.axes()
    if grid_spec.mode == DETECTION_MODE:
        with np.errstate(over="ignore"):
            _check_top_polar(np.arctan(np.hypot(abs(xs).max(), abs(ys).max())
                                       / source.detection_distance_mm))
    kernels = [globals()[_KINDS[kind][1]] for kind in kinds]
    blocks = _row_blocks(grid_spec.ny, grid_spec.nx)
    k = _processes(workers, grid_spec.ny * grid_spec.nx, len(blocks))
    shape = (sum(len(_KINDS[kind][0]) for kind in kinds),
             grid_spec.ny, grid_spec.nx)
    # private where no child writes: a mapping made serial 257^2 sweeps slower
    flat = (np.frombuffer(mmap.mmap(-1, math.prod(shape) * 8)).reshape(shape)
            if k > 1 else np.empty(shape))

    def fill(share):
        for i, j in share:
            x, y = xs[np.newaxis, :], ys[i:j, np.newaxis]
            if grid_spec.mode == DETECTION_MODE:
                theta, phi = vecgeom.detection_point_to_angles(
                    x, y, source.detection_distance_mm)
            else:
                theta, phi = np.deg2rad(x), np.deg2rad(y)
            sx, sy = vecgeom._transverse(theta, phi)
            # freed first, so the partner's components replace the angles
            del theta, phi
            cells = _record(source, w_s, sx, sy, lambda *cell: [
                kernel(*cell) for kernel in kernels])
            vals = [v for kind, s, p in zip(kinds, *cells)
                    for v in _KINDS[kind][2](source, s, p)]
            for plane, v in zip(flat, vals):
                plane[i:j] = v

    n = len(blocks)
    _fill_shares(fill, [blocks[n * s // k:n * (s + 1) // k] for s in range(k)])
    planes = iter(flat)
    return tuple(MapGrid(
        kind=kind, mode=grid_spec.mode, coord1=xs, coord2=ys,
        coord_names=_COORDS[grid_spec.mode], value_names=_KINDS[kind][0],
        values=tuple(next(planes) for _ in _KINDS[kind][0]), metadata={
            "source": source_snapshot(source), "filter_nm": filter_nm})
        for kind in kinds)


def sweep_phase_map(source, grid_spec, filter_center_nm=None, workers=None):
    """Relative-phase map over a grid, in degrees.

    filter_center_nm selects the signal wavelength at every cell; None
    means degenerate (twice the pump wavelength), and a value that is not
    finite and positive is a ConfigError.  workers caps the processes
    that share a large grid's rows (None: _default_workers(); anything but
    None or a whole number >= 1 is a ConfigError); the map is bitwise the
    same for every workers.
    """
    return sweep_maps(source, grid_spec, ("phase",), filter_center_nm,
                      workers)[0]


def sweep_delay_map(source, grid_spec, filter_center_nm=None, workers=None):
    """Time-delay map: per cell, the delay of the photon detected there
    behind the filter (dt_s_fs) and the delay of its conjugate partner
    (dt_i_fs).  workers as in sweep_phase_map."""
    return sweep_maps(source, grid_spec, ("delay",), filter_center_nm,
                      workers)[0]


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


def _line_target(mode, line):
    """(axis, value) of a line spec on a map of the given mode: the line
    holds coordinate axis (0 for coord1, 1 for coord2) at the grid value
    nearest value.  "y=0" or "x=0" on a detection-plane map, "phi=<degrees>"
    with finite degrees on an angular one; FitError for any other spec."""
    if mode == DETECTION_MODE:
        if line not in ("y=0", "x=0"):
            raise FitError(
                f"unknown line spec {line!r} for a detection-plane map")
        return (1 if line == "y=0" else 0), 0.0
    if not line.startswith("phi="):
        raise FitError(f"unknown line spec {line!r} for an angular map")
    try:
        value = float(line[4:])
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise FitError(f"bad azimuth in line spec {line!r}")
    return 1, value


def _line_index(mode, coords, line):
    """(axis, index) of a line spec's grid line on the (coord1, coord2)
    axes of a grid of the given mode: the one nearest the spec's value.
    FitError, beyond _line_target's, where that value lies outside the
    axis span widened by half a grid step (on a one-value axis, anywhere
    but that value)."""
    axis, value = _line_target(mode, line)
    along = coords[axis]
    lo, hi = float(np.min(along)), float(np.max(along))
    half = (hi - lo) / (2 * max(len(along) - 1, 1))
    if not lo - half <= value <= hi + half:
        raise FitError(f"line {line!r} lies outside the map's "
                       f"{_COORDS[mode][axis]} window [{lo:g}, {hi:g}]")
    return axis, int(np.argmin(np.abs(along - value)))


def profile_line(grid, line):
    """Extract (signed polar angle rad, values) along a map line.

    line is "y=0" or "x=0" for detection-plane maps, "phi=<degrees>" (a
    finite number) for angular maps; the nearest grid row/column is used,
    and a line outside the map's window is a FitError (_line_index).
    """
    coords = (grid.coord1, grid.coord2)
    axis, i = _line_index(grid.mode, coords, line)
    vals = grid.values[0][i, :] if axis else grid.values[0][:, i]
    along = coords[1 - axis]
    if grid.mode != DETECTION_MODE:
        return np.deg2rad(along), vals
    # read from a file's metadata: a number in (0, max float], not a bool
    source = grid.metadata.get("source")
    L = (source.get("detection_distance_mm") if isinstance(source, dict)
         else None)
    if (isinstance(L, bool) or not isinstance(L, (int, float))
            or not 0.0 < L <= sys.float_info.max):
        raise FitError("grid metadata lacks the detection distance (a "
                       f"finite positive number, got {L!r})")
    return np.arctan(along / float(L)), vals


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
