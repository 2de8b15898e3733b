"""The three benchmark workloads and the checks on their outputs.

Each workload is built from a seed, runs a fixed list of operations per
pass through a Ledger, and checks every output it gets:

    cone-sweep      library sweeps over three grids, no I/O
    cli-roundtrip   cli.main phase-map, delay-map and fit --profile
    tilt-pointwise  cli.main find-tilt and phase-match, and pointwise
                    relative_phase / time_delay / time_intervals

The seed moves values, not work (a pump phase offset, a filter centre,
which valid cells the pointwise batch uses), so every seed checks other
bytes while the operation counts stay the same.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import statistics
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

LIIO3 = "liio3_normal.yaml"
BBO = "bbo_normal.yaml"
BBO_TILT = "bbo_tilt52.yaml"

FILTER_NM = 702.2          # BBO delay filter centre, seeded within +-0.5 nm
TILT_EXPECT_DEG = (52.0, 2.0)
PHASE_MATCH_EXPECT_DEG = (3.0, 0.5)
FAILED = object()


class Scale:
    """Sizes of one run: the full benchmark, or tiny ones for --smoke."""

    def __init__(self, smoke):
        self.smoke = smoke
        self.liio3_cells = 16 if smoke else 512    # LiIO3 sweep, per axis
        self.bbo_cells = 12 if smoke else 128      # both BBO sweeps, per axis
        self.cli_grid = 17 if smoke else None      # None: shipped 257x257
        self.select_cells = 17 if smoke else 65    # sweep picking valid cells
        self.batch = 2 if smoke else 32            # pointwise cells per source


class Ledger:
    """Operations attempted and failed, the time of each, and derived
    values recorded alongside."""

    def __init__(self, tracer=None):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.times = {}
        self.values = {}
        self.passes = 0
        self.last = 0.0
        self.tracer = tracer

    def run(self, op, fn, *args, **kwargs):
        """Time fn(*args, **kwargs); an exception fails the operation and
        returns FAILED instead of ending the run."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.active = True
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # counted in fail_frac; the run goes on
            self.failed += 1
            self.errors.append(f"{op}: {exc!r}")
            return FAILED
        finally:
            self.last = perf_counter() - t0
            if self.tracer is not None:
                self.tracer.active = False
        self.times.setdefault(op, []).append(self.last)
        return out

    def check(self, op, ok, what=""):
        """Fail the operation just run when its output check is false."""
        if not ok:
            self.failed += 1
            self.errors.append(f"{op}: check failed {what}".rstrip())
        return ok

    def add(self, name, value):
        self.values.setdefault(name, []).append(value)

    def median(self, op):
        return statistics.median(self.times[op])

    def pass_s(self):
        """Median pass: each operation's median time times its count per
        pass, summed.  Short operations keep a multi-second slow spell of
        the machine out of the median, where whole-pass sums would not."""
        return sum(statistics.median(t) * len(t) / self.passes
                   for t in self.times.values())

    def us_per_cell(self, ops):
        """Sum of median times of (op, cells) over their cells, in us."""
        return (sum(self.median(op) for op, _ in ops)
                / sum(cells for _, cells in ops) * 1e6)


def run_cli(sp, argv):
    """cli.main in-process with its output captured: (exit code, text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = sp.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def load_run_config(sp, name, overrides=()):
    flat = sp.config.load_config_file(str(CONFIGS / name))
    return sp.config.build_run_config(
        sp.config.apply_overrides(flat, list(overrides)))


def digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def file_digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def na_frac(grid):
    planes = np.stack(grid.values)
    return float(np.count_nonzero(np.isnan(planes))) / planes.size


def _seeded_offset(rng):
    return f"pump.phase_offset_deg={rng.uniform(0.0, 360.0):.6f}"


def _seeded_filter(rng):
    return round(FILTER_NM + rng.uniform(-0.5, 0.5), 4)


class ConeSweep:
    """Library sweeps over three grids; no CSV, solver or tilt search."""

    name = "cone-sweep"
    configs = (LIIO3, BBO, BBO_TILT)

    def __init__(self, sp, seed, scale, tmp):
        rng = random.Random(seed)
        self.sp = sp
        self.overrides = [_seeded_offset(rng)]
        self.filter_nm = _seeded_filter(rng)
        n, m = scale.liio3_cells, scale.bbo_cells
        angular = sp.maps.ANGULAR_MODE
        # label, config, grid, delay filter
        self.grids = [
            (f"liio3_normal_{n}", LIIO3,
             sp.maps.GridSpec(n, n, -60.0, 60.0, -60.0, 60.0), None),
            (f"bbo_full_cone_{m}", BBO,
             sp.maps.GridSpec(m, m, 0.0, 30.0, -180.0, 180.0, mode=angular),
             self.filter_nm),
            (f"bbo_tilt52_corotated_{m}", BBO_TILT,
             sp.maps.GridSpec(m, m, 30.0, 70.0, 30.0, 150.0, mode=angular),
             None),
        ]
        self.reference = {}
        self.na = {}
        self.sizes = {}

    def _sources(self, ledger):
        sources = {}
        for name in self.configs:
            rc = ledger.run("load_config", load_run_config, self.sp, name,
                            self.overrides)
            if rc is FAILED:
                return None
            sources[name] = rc.source
        tilt = sources[BBO_TILT]
        # the pump tilted 52 deg with the crystal axes co-rotated
        tilted = ledger.run("constrained_pump_state",
                            self.sp.compensation.constrained_pump_state,
                            tilt.pump, tilt)
        if tilted is FAILED:
            return None
        sources[BBO_TILT] = tilted
        return sources

    def run_pass(self, ledger):
        maps = self.sp.maps
        sources = self._sources(ledger)
        if sources is None:
            return
        # one (grid, kind) per pass is also swept on one thread
        serial_gi = ledger.passes % 3
        serial_kind = ("phase", "delay")[ledger.passes // 3 % 2]
        for gi, (label, config, spec, filt) in enumerate(self.grids):
            for kind, sweep, kw in (
                    ("phase", maps.sweep_phase_map, {}),
                    ("delay", maps.sweep_delay_map,
                     {"filter_center_nm": filt})):
                op = f"sweep_{kind}.{label}"
                grid = ledger.run(op, sweep, sources[config], spec, **kw)
                if grid is FAILED:
                    continue
                cells = spec.nx * spec.ny
                ledger.add(f"sweep_{kind}_cells_per_s.{label}",
                           cells / ledger.last)
                d = digest(grid.values)
                ok = self.reference.setdefault(op, d) == d
                self.na.setdefault(f"{label}.{kind}", na_frac(grid))
                if ok and gi == serial_gi and kind == serial_kind:
                    # default workers against one thread, bitwise
                    parallel = ledger.last
                    t0 = perf_counter()
                    serial = sweep(sources[config], spec, workers=1, **kw)
                    took = perf_counter() - t0
                    ok = grid.same_data(serial)
                    ledger.add(f"serial_cells_per_s.{label}.{kind}",
                               cells / took)
                    ledger.add("parallel_speedup", took / parallel)
                ledger.check(op, ok, f"{label} {kind}")

    def cell_ops(self, kind):
        return [(f"sweep_{kind}.{label}", spec.nx * spec.ny)
                for label, _, spec, _ in self.grids]

    def named(self, ledger):
        out = {}
        for kind in ("phase", "delay"):
            ops = [(op, c) for op, c in self.cell_ops(kind)
                   if op in ledger.times]
            if len(ops) == len(self.grids):
                out[f"sweep_{kind}_cells_per_s"] = (
                    [1e6 / ledger.us_per_cell(ops)], "cells/s")
        for name, values in sorted(ledger.values.items()):
            if name.startswith(("sweep_", "serial_")):
                out[name] = (values, "cells/s")
        return out


class CliRoundtrip:
    """cli.main writing CSVs and reading one back, at the shipped grids."""

    name = "cli-roundtrip"
    configs = (LIIO3, BBO)

    def __init__(self, sp, seed, scale, tmp):
        rng = random.Random(seed)
        self.sp = sp
        offset = _seeded_offset(rng)
        filt = _seeded_filter(rng)
        self.csv = {k: str(tmp / f"{k}.csv") for k in ("phase", "delay",
                                                        "fit")}
        grid = ([] if scale.cli_grid is None
                else ["--grid", f"{scale.cli_grid}x{scale.cli_grid}"])
        self.argv = {
            "phase": ["phase-map", "--config", str(CONFIGS / LIIO3),
                      "--set", offset, "--out", self.csv["phase"]] + grid,
            "delay": ["delay-map", "--config", str(CONFIGS / BBO),
                      "--filter-nm", repr(filt),
                      "--out", self.csv["delay"]] + grid,
            "fit": ["fit", "--profile", self.csv["phase"],
                    "--out", self.csv["fit"]],
        }
        # library results the read-back checks compare against
        rc = load_run_config(sp, LIIO3, [offset])
        spec = rc.grid
        if scale.cli_grid is not None:
            spec = replace(spec, nx=scale.cli_grid, ny=scale.cli_grid)
        self.cells = spec.nx * spec.ny
        self.ref = {"phase": sp.maps.sweep_phase_map(rc.source, spec)}
        rc = load_run_config(sp, BBO)
        self.ref["delay"] = sp.maps.sweep_delay_map(
            rc.source, replace(rc.grid, nx=spec.nx, ny=spec.ny),
            filter_center_nm=filt)
        fit = sp.maps.fit_quadratic_profile(self.ref["phase"], "y=0")
        self.ref_fit = (fit.c0, fit.c1, fit.c2)
        self.hashes = {}
        self.sizes = {}
        self.na = {f"liio3_normal_{spec.nx}.phase": na_frac(self.ref["phase"]),
                   f"bbo_normal_{spec.nx}.delay": na_frac(self.ref["delay"])}

    def _read_back_ok(self, kind):
        """The CSV written reads back bitwise equal to the library map."""
        path = self.csv[kind]
        self.sizes[f"{kind}_csv"] = os.path.getsize(path)
        back = self.sp.mapio.read_map_csv(path)
        side = json.loads(Path(self.sp.mapio.sidecar_path(path)).read_text())
        return (back.same_data(self.ref[kind])
                and side["shape"] == list(back.values[0].shape))

    def _fit_ok(self):
        for line in Path(self.csv["fit"]).read_text().splitlines():
            if line.startswith("# meta: "):
                meta = json.loads(line[len("# meta: "):])
                return (meta["c0"], meta["c1"], meta["c2"]) == self.ref_fit
        return False

    def run_pass(self, ledger):
        for kind, op in (("phase", "cli_phase_map"),
                         ("delay", "cli_delay_map"),
                         ("fit", "cli_fit_profile")):
            res = ledger.run(op, run_cli, self.sp, self.argv[kind])
            if res is FAILED:
                continue
            ok = res[0] == 0
            if ok and kind not in self.hashes:
                ok = self._fit_ok() if kind == "fit" else \
                    self._read_back_ok(kind)
            # the bytes of one seed never change from pass to pass
            if ok:
                h = file_digest(self.csv[kind])
                ok = self.hashes.setdefault(kind, h) == h
            ledger.check(op, ok, res[1][-300:])

    def cell_ops(self, kind):
        return [(f"cli_{kind}_map", self.cells)]

    def named(self, ledger):
        return {f"{op}_s": (ledger.times.get(op, []), "s")
                for op in ("cli_phase_map", "cli_delay_map",
                           "cli_fit_profile")}


class TiltPointwise:
    """Scalar path: tilt search, phase matching and pointwise batches."""

    name = "tilt-pointwise"
    configs = (BBO_TILT, BBO, LIIO3)

    def __init__(self, sp, seed, scale, tmp):
        rng = random.Random(seed)
        self.sp = sp
        maps = sp.maps
        self.argv_tilt = ["find-tilt", "--config", str(CONFIGS / BBO_TILT)]
        self.argv_match = [["phase-match", "--config", str(CONFIGS / name)]
                           for name in (BBO, LIIO3)]
        bbo = load_run_config(sp, BBO).source
        tilt = load_run_config(sp, BBO_TILT).source
        tilted = sp.compensation.constrained_pump_state(tilt.pump, tilt)
        n = scale.select_cells
        sources = [
            (f"bbo_normal_{n}", bbo,
             maps.GridSpec(n, n, -60.0, 60.0, -60.0, 60.0)),
            (f"bbo_tilt52_corotated_{n}", tilted,
             maps.GridSpec(n, n, 30.0, 70.0, 30.0, 150.0,
                           mode=maps.ANGULAR_MODE)),
        ]
        # cells a sweep marked valid, with the sweep's values to match
        self.cells = []
        self.na = {}
        self.sizes = {}
        for label, source, spec in sources:
            phase = maps.sweep_phase_map(source, spec)
            delay = maps.sweep_delay_map(source, spec)
            self.na[f"{label}.phase"] = na_frac(phase)
            good = np.argwhere(np.isfinite(phase.values[0])
                               & np.isfinite(delay.values[0]))
            xs, ys = spec.axes()
            w_s = 0.5 * source.pump.omega
            for p in rng.sample(range(len(good)), scale.batch):
                i, j = (int(v) for v in good[p])
                theta, phi = _cell_angles(sp, source, spec, xs, ys, i, j)
                coord = sp.EmissionCoord(omega=w_s, theta=theta, phi=phi)
                self.cells.append((source, coord, phase.values[0][i, j],
                                   delay.values[0][i, j]))

    def run_pass(self, ledger):
        sp = self.sp
        maps = sp.maps
        res = ledger.run("cli_find_tilt", run_cli, sp, self.argv_tilt)
        if res is not FAILED:
            ledger.check("cli_find_tilt", tilt_ok(sp, *res), res[1][-300:])
        for argv in self.argv_match:
            res = ledger.run("cli_phase_match", run_cli, sp, argv)
            if res is not FAILED:
                ledger.check("cli_phase_match", match_ok(*res),
                             res[1][-300:])
        for source, coord, phase_deg, delay_fs in self.cells:
            rp = ledger.run("relative_phase", maps.relative_phase,
                            source, coord)
            if rp is not FAILED:
                ledger.check("relative_phase",
                             math.degrees(rp) == phase_deg, str(coord))
            td = ledger.run("time_delay", maps.time_delay, source, coord)
            if td is not FAILED:
                ledger.check("time_delay", td == delay_fs, str(coord))
            ti = ledger.run("time_intervals", maps.time_intervals,
                            source, coord)
            if ti is not FAILED:
                t1, t2 = ti
                ledger.check("time_intervals",
                             abs((t1 - t2) - delay_fs)
                             <= 1e-9 * (abs(t1) + abs(t2)), str(coord))

    def cell_ops(self, kind):
        return [({"phase": "relative_phase", "delay": "time_delay"}[kind], 1)]

    def named(self, ledger):
        out = {f"{op}_s": (ledger.times.get(op, []), "s")
               for op in ("cli_find_tilt", "cli_phase_match")}
        for op in ("relative_phase", "time_delay", "time_intervals"):
            out[f"{op}_us"] = ([t * 1e6 for t in ledger.times.get(op, [])],
                               "us")
        return out


def _cell_angles(sp, source, spec, xs, ys, i, j):
    """Polar angle and azimuth of grid cell (i, j), built the way the
    sweep builds them so that pointwise values can match bitwise."""
    if spec.mode == sp.maps.DETECTION_MODE:
        ang = sp.vecgeom.detection_point_to_angles(
            xs, ys[i], source.detection_distance_mm)
        return float(ang.theta[j]), float(ang.phi[j])
    return float(np.deg2rad(xs)[j]), math.radians(ys[i])


def _number_after(text, label):
    for line in text.splitlines():
        line = line.strip()
        if line.startswith(label):
            return float(line[len(label):].split()[0])
    return None


def tilt_ok(sp, code, text):
    """find-tilt found a root near 52 deg that nulls the delay."""
    root = _number_after(text, "self-compensating tilt:")
    residual = _number_after(text, "residual delay:")
    centre, tol = TILT_EXPECT_DEG
    return (code == 0 and root is not None and residual is not None
            and abs(root - centre) <= tol
            and abs(residual) < sp.DELAY_TOLERANCE_FS)


def match_ok(code, text):
    """phase-match put the degenerate ring near 3 deg."""
    angle = _number_after(text, "degenerate external emission angle:")
    centre, tol = PHASE_MATCH_EXPECT_DEG
    return code == 0 and angle is not None and abs(angle - centre) <= tol


WORKLOADS = {w.name: w for w in (ConeSweep, CliRoundtrip, TiltPointwise)}

# the metrics each workload reports on the lines before its result, with
# sample counts and tail percentiles
_COMMON = ("setup_s", "peak_rss_mb", "fail_frac")
NAMED_METRICS = {
    ConeSweep.name: _COMMON + ("sweep_phase_cells_per_s",
                               "sweep_delay_cells_per_s"),
    CliRoundtrip.name: _COMMON + ("cli_phase_map_s", "cli_delay_map_s",
                                  "cli_fit_profile_s"),
    TiltPointwise.name: _COMMON + ("cli_find_tilt_s", "cli_phase_match_s",
                                   "relative_phase_us", "time_delay_us",
                                   "time_intervals_us"),
}
