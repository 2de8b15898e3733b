"""Command-line front end.

Subcommands::

    phase-map    relative-phase map -> CSV grid + JSON sidecar
    delay-map    signal/idler time-delay maps (two value columns)
    phase-match  degenerate emission angle with solver diagnostics
    find-tilt    constrained pump-tilt scan and zero-delay refinement
    fit          quadratic fit of a map profile -> slope profile CSV

Everything at this boundary is degrees, nm and mm.  Data files are
byte-stable for identical configs: fixed float formatting and no
timestamps (those live in the JSON sidecar).  Exit codes: 0 success,
2 configuration error, 3 no solution / impossible kinematics, 4 I/O.
"""

import argparse
import math
import os
import sys

import numpy as np

from . import __version__
from . import compensation, config, mapio, maps, phasematch
from .errors import (ConfigError, DataFormatError, FitError,
                     KinematicsError, NoSolutionError, RangeError,
                     RefractionError)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_SOLUTION = 3
EXIT_IO = 4


def _load_run(args):
    flat = config.load_config_file(args.config)
    flat = config.apply_overrides(flat, args.set)
    # the flags are config keys too, so they meet the same checks and
    # land in the sidecar snapshot
    if getattr(args, "grid", None):
        try:
            flat["grid.nx"], flat["grid.ny"] = (
                int(t) for t in args.grid.lower().split("x"))
        except ValueError:
            raise ConfigError(
                f"expected NXxNY (e.g. 256x256), got {args.grid!r}",
                key="--grid") from None
    if getattr(args, "filter_nm", None) is not None:
        flat["filter.center_nm"] = args.filter_nm
    if getattr(args, "line", None) is not None:
        flat["fit.line"] = args.line
    return config.build_run_config(flat)


def _same_path(a, b):
    return os.path.normcase(os.path.abspath(a)) == \
        os.path.normcase(os.path.abspath(b))


def _write_grid(grid, out, rc):
    ny, nx = grid.values[0].shape
    for name, plane in zip(grid.value_names, grid.values):
        if not np.isfinite(plane).any():
            x, y = grid.coord_names
            raise KinematicsError(
                f"{name}: no cell of the {ny} x {nx} window {x} "
                f"[{grid.coord1[0]:g}, {grid.coord1[-1]:g}], {y} "
                f"[{grid.coord2[0]:g}, {grid.coord2[-1]:g}] had a valid "
                f"transit: the partner photon is evanescent in air in every "
                f"cell (or the detected one grazes the face); nothing written")
    path = mapio.write_map_csv(grid, out, __version__)
    side = mapio.write_sidecar(out, grid, __version__,
                               extra={"config": rc.flat})
    print(f"wrote {path} ({ny} x {nx} {grid.kind} map) + {side}")
    for name, plane in zip(grid.value_names, grid.values):
        good = np.isfinite(plane)
        print(f"  {name}: [{plane[good].min():.6g}, "
              f"{plane[good].max():.6g}], {int((~good).sum())} NA cells")
    return EXIT_OK


def cmd_map(args):
    if args.out and _same_path(args.out, mapio.sidecar_path(args.out)):
        raise ConfigError(f"{args.out!r} is the name of its own JSON "
                          f"sidecar; give the map another extension, such "
                          f"as .csv", key="--out")
    rc = _load_run(args)
    grid = args.sweep(rc.source, rc.grid, filter_center_nm=rc.filter_nm,
                      workers=args.workers)
    return _write_grid(grid, args.out or f"{grid.kind}_map.csv", rc)


def cmd_phase_match(args):
    rc = _load_run(args)
    source = rc.source
    coord, offset = compensation.tracked_target(source)
    residual = phasematch.delta_kappa(coord, source.pump, source.crystal1)
    lo, hi = phasematch.DEGENERATE_SEARCH_BRACKET
    print(f"degenerate external emission angle: "
          f"{math.degrees(offset):.6f} deg")
    print(f"  laboratory coordinate: theta = {math.degrees(coord.theta):.6f}"
          f" deg, phi = {math.degrees(coord.phi):.6f} deg")
    print(f"  mismatch residual: {residual:.3e} /mm")
    print(f"  search bracket: [{math.degrees(lo):g}, {math.degrees(hi):g}] "
          f"deg (collinear accepted below |mismatch| "
          f"{phasematch.COLLINEAR_MISMATCH_PER_MM:g} /mm)")
    return EXIT_OK


def cmd_find_tilt(args):
    rc = _load_run(args)
    res = compensation.scan_tilt(rc.source, rc.tilt_phi_p, rc.tilt_range,
                                 rc.tilt_samples)
    print("tilt scan (tracked degenerate target):")
    print("  theta_p_deg   delay_fs        cone_offset_deg")
    for s in res.samples:
        if s.error is None:
            print(f"  {math.degrees(s.theta_p):11.4f}  {s.delay_fs:+14.6f}"
                  f"  {math.degrees(s.cone_offset):15.6f}")
        else:
            print(f"  {math.degrees(s.theta_p):11.4f}  invalid: {s.error}")
    if res.bracket is not None:
        blo, bhi = (math.degrees(b) for b in res.bracket)
        print(f"sign-change bracket: [{blo:.4f}, {bhi:.4f}] deg")
    else:
        print("sign-change bracket: none")
    if args.scan:
        return EXIT_OK
    root = compensation.refine_tilt(rc.source, rc.tilt_phi_p, res)
    delay, coord, offset = compensation.tilt_delay(rc.source, root,
                                                   rc.tilt_phi_p)
    print(f"self-compensating tilt: {math.degrees(root):.6f} deg")
    print(f"  residual delay: {delay:+.3e} fs")
    print(f"  degenerate cone offset there: {math.degrees(offset):.6f} deg "
          f"(laboratory theta = {math.degrees(coord.theta):.6f} deg)")
    return EXIT_OK


def cmd_fit(args):
    if args.profile:
        for flag in ("--config", "--set", "--grid", "--filter-nm",
                     "--workers"):
            if getattr(args, flag[2:].replace("-", "_")) not in (None, []):
                raise ConfigError("fit --profile fits the file as written "
                                  "and takes no config flags", key=flag)
        grid = mapio.read_map_csv(args.profile)
        line = "y=0" if args.line is None else args.line
    else:
        if not args.config:
            raise ConfigError("fit needs --profile or --config")
        rc = _load_run(args)
        try:
            # the line must exist on the grid's mode, inside its window,
            # before the sweep runs
            maps._line_index(rc.grid.mode, rc.grid.axes(), rc.fit_line)
        except FitError as exc:
            raise ConfigError(str(exc), key="fit.line") from None
        grid = maps.sweep_phase_map(rc.source, rc.grid,
                                    filter_center_nm=rc.filter_nm,
                                    workers=args.workers)
        line = rc.fit_line
    fit = maps.fit_quadratic_profile(grid, line)
    thetas_deg = np.degrees(fit.thetas)
    slope_per_deg = np.radians(1.0) * fit.slope(fit.thetas)
    meta = {"line": line,
            "c0": fit.c0, "c1": fit.c1, "c2": fit.c2,
            "rms_residual": fit.rms_residual}
    out = args.out or "fit_profile.csv"
    # the fitted column's name, and its unit (after the last "_") per degree
    name = grid.value_names[0]
    mapio.write_profile_csv(
        out, __version__,
        ("theta_deg", name, f"slope_{name.rpartition('_')[2]}_per_deg"),
        (thetas_deg, fit.samples, slope_per_deg), meta)
    print(f"wrote {out} ({len(thetas_deg)} samples along {line})")
    print(f"  quadratic c0 = {fit.c0:.4f}, c1 = {fit.c1:.4f}, "
          f"c2 = {fit.c2:.4f}  (value vs polar angle in rad)")
    print(f"  rms residual {fit.rms_residual:.4g} over span {fit.span:.4g}")
    return EXIT_OK


def _build_parser():
    p = argparse.ArgumentParser(
        prog="spdcmaps",
        description="Emission-cone phase and time-delay maps for "
                    "two-crystal photon-pair sources.")
    p.add_argument("--version", action="version",
                   version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, config_required=True, sweep=False):
        sp.add_argument("--config", required=config_required,
                        help="YAML run configuration")
        sp.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override one config key (repeatable)")
        if sweep:
            # the sweep commands are the ones that write a file
            sp.add_argument("--out", help="output file path")
            sp.add_argument("--grid", metavar="NXxNY",
                            help="override the grid resolution")
            sp.add_argument("--workers", type=int, default=None,
                            help="processes that share a large sweep "
                                 "(default min(4, usable CPUs)); the map "
                                 "does not depend on it")
            sp.add_argument("--filter-nm", type=float, dest="filter_nm",
                            help="narrow-filter center wavelength [nm]")

    sp = sub.add_parser("phase-map", help="compute a relative-phase map")
    common(sp, sweep=True)
    sp.set_defaults(func=cmd_map, sweep=maps.sweep_phase_map)

    sp = sub.add_parser("delay-map", help="compute time-delay maps")
    common(sp, sweep=True)
    sp.set_defaults(func=cmd_map, sweep=maps.sweep_delay_map)

    sp = sub.add_parser("phase-match",
                        help="report the degenerate emission angle")
    common(sp)
    sp.set_defaults(func=cmd_phase_match)

    sp = sub.add_parser("find-tilt",
                        help="search the self-compensating pump tilt")
    common(sp)
    sp.add_argument("--scan", action="store_true",
                    help="print the scan table only, no root refinement")
    sp.set_defaults(func=cmd_find_tilt)

    sp = sub.add_parser("fit", help="quadratic fit of a map profile")
    common(sp, config_required=False, sweep=True)
    sp.add_argument("--profile", help="existing map CSV to fit instead of "
                                      "computing one")
    sp.add_argument("--line", help='profile line: "y=0", "x=0" or '
                                   '"phi=<deg>"')
    sp.set_defaults(func=cmd_fit)
    return p


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, RangeError) as exc:
        if getattr(exc, "key", None) == "workers":  # the sweeps' argument
            exc = ConfigError(exc.message, key="--workers")
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NoSolutionError, KinematicsError, RefractionError,
            FitError) as exc:
        print(f"no solution: {exc}", file=sys.stderr)
        return EXIT_NO_SOLUTION
    except (OSError, DataFormatError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
