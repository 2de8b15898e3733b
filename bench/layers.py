"""Per-layer metrics: spans around the public functions of every
spdcmaps module, turned into counts and self times per traced pass.

Layer self times of functions that do not run on some workload would read
0 s on every run there, so those report ``self_share``: self time over
``trace.pass_s``, the traced pass time they are a share of.  Threads of
one sweep overlap, so the shares of functions run on them can sum past 1.
"""

import os
import statistics

import numpy as np

from spans import EXTRA, WORK, Tracer

# functions reported with self time in seconds: they run on every workload
TIMED = ("vecgeom.refract_into_extraordinary", "crystal.group_index",
         "crystal.walkoff_angle", "crystal.walkoff_ray",
         "config.load_config_file", "config.build_run_config")
# functions reported with call counts and self-time shares
SHARED = ("maps.sweep_phase_map", "maps.sweep_delay_map",
          "maps.relative_phase", "maps.time_delay", "maps.time_intervals",
          "phasematch.pump_internal_state",
          "phasematch.degenerate_emission_angle", "compensation.tilt_delay",
          "compensation.find_self_compensating_tilt", "cli.main",
          "mapio.write_map_csv", "mapio.read_map_csv", "mapio.write_sidecar")


def install(sp):
    """Wrap the public functions of every layer at each name callers use:
    compensation imports time_delay and bisect_secant by name, and
    phasematch imports bisect_secant."""
    tr = Tracer()

    def wrap(module, attr, before=None, after=None, also=()):
        fn = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        tr.patch(tr.span(name, fn, before, after),
                 (module, attr), *((m, attr) for m in also))

    def elements(rec, args, kwargs):
        rec[WORK] = np.asarray(args[0]).size // 3
        return args, kwargs

    def count_evals(rec, args, kwargs):
        func = args[0]

        def counted(x):
            rec[WORK] += 1
            return func(x)
        return (counted,) + tuple(args[1:]), kwargs

    def sweep_cells(rec, args, grid):
        planes = np.stack(grid.values)
        rec[WORK] = planes[0].size
        rec[EXTRA] = np.count_nonzero(np.isnan(planes)) / len(planes)

    def scan_samples(rec, args, res):
        rec[WORK] = len(res.samples)
        rec[EXTRA] = len(res.valid_samples())

    def written(rec, args, path):
        rec[WORK] = os.path.getsize(path)

    def read_size(rec, args, kwargs):
        rec[WORK] = os.path.getsize(args[0])
        return args, kwargs

    wrap(sp.config, "load_config_file")
    wrap(sp.config, "build_run_config")
    wrap(sp.cli, "main")
    wrap(sp.maps, "sweep_phase_map", after=sweep_cells)
    wrap(sp.maps, "sweep_delay_map", after=sweep_cells)
    wrap(sp.maps, "relative_phase")
    wrap(sp.maps, "time_delay", also=(sp.compensation,))
    wrap(sp.maps, "time_intervals")
    wrap(sp.vecgeom, "refract_into_extraordinary", before=elements)
    wrap(sp.crystal, "group_index")
    wrap(sp.crystal, "walkoff_angle")
    wrap(sp.crystal, "walkoff_ray")
    wrap(sp.phasematch, "delta_kappa")
    wrap(sp.phasematch, "pump_internal_state")
    wrap(sp.phasematch, "degenerate_emission_angle")
    wrap(sp.solvers, "bisect_secant", before=count_evals,
         also=(sp.phasematch, sp.compensation))
    wrap(sp.compensation, "scan_tilt", after=scan_samples)
    wrap(sp.compensation, "tilt_delay")
    wrap(sp.compensation, "find_self_compensating_tilt")
    wrap(sp.mapio, "write_map_csv", after=written)
    wrap(sp.mapio, "read_map_csv", before=read_size)
    wrap(sp.mapio, "write_sidecar")
    # Material.index_* are too hot and small to span: count them only
    for attr in ("index_o", "index_e_principal", "index_e"):
        tr.patch(tr.counter(attr, getattr(sp.crystal.Material, attr)),
                 (sp.crystal.Material, attr))
    return tr


def metrics(tracer, traced, untraced, ledger_values):
    """{name: (value, unit)} per traced pass.

    traced and untraced are the two ledgers of the run; their median pass
    times give trace.overhead_frac.
    """
    agg = tracer.summary()
    npass = traced.passes
    pass_s = traced.pass_s()

    def get(name, key):
        return agg.get(name, {}).get(key, 0) / npass

    out = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    def ratio(a, b):
        return a / b if b else 0.0

    for name in TIMED:
        put(f"{name}.calls", get(name, "calls"), "count")
        put(f"{name}.self_s", get(name, "self_s"), "s")
    for name in SHARED:
        put(f"{name}.calls", get(name, "calls"), "count")
        put(f"{name}.self_share", ratio(get(name, "self_s"), pass_s), "frac")

    ref = "vecgeom.refract_into_extraordinary"
    put(f"{ref}.elements", get(ref, "work"), "count")
    put(f"{ref}.ns_per_element",
        ratio(get(ref, "self_s"), get(ref, "work")) * 1e9, "ns")
    put("crystal.index_calls", sum(tracer.counts.values()) / npass, "count")

    cells = get("maps.sweep_phase_map", "work") + get("maps.sweep_delay_map",
                                                      "work")
    na = get("maps.sweep_phase_map", "extra") + get("maps.sweep_delay_map",
                                                    "extra")
    put("maps.sweep.cells", cells, "count")
    put("maps.sweep.na_frac", ratio(na, cells), "frac")
    serial = [v for k, vs in ledger_values.items()
              if k.startswith("serial_cells_per_s.") for v in vs]
    put("maps.sweep.serial_cells_per_s",
        statistics.median(serial) if serial else 0.0, "cells/s")
    speedup = ledger_values.get("parallel_speedup")
    put("maps.sweep.parallel_speedup",
        statistics.median(speedup) if speedup else 0.0, "x")

    put("phasematch.delta_kappa.calls", get("phasematch.delta_kappa",
                                            "calls"), "count")
    solve = "solvers.bisect_secant"
    put(f"{solve}.calls", get(solve, "calls"), "count")
    put(f"{solve}.evals", get(solve, "work"), "count")
    put(f"{solve}.evals_per_solve",
        ratio(get(solve, "work"), get(solve, "calls")), "count")
    scan = "compensation.scan_tilt"
    put(f"{scan}.calls", get(scan, "calls"), "count")
    put(f"{scan}.samples", get(scan, "work"), "count")
    put(f"{scan}.valid_frac", ratio(get(scan, "extra"), get(scan, "work")),
        "frac")
    for name in ("mapio.write_map_csv", "mapio.read_map_csv"):
        put(f"{name}.bytes", get(name, "work"), "bytes")
        put(f"{name}.mb_per_s",
            ratio(get(name, "work"), get(name, "self_s")) / 1e6, "MB/s")

    put("trace.overhead_frac", pass_s / untraced.pass_s() - 1.0, "frac")
    put("trace.pass_s", pass_s, "s")
    put("trace.spans", len(tracer.spans) / npass, "count")
    return out
