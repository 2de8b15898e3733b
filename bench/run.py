#!/usr/bin/env python3
"""spdcmaps benchmark: three workloads driven through the public API and
``cli.main`` from one process (see workloads.py).

    python3 bench/run.py --workload cone-sweep --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --smoke

A run repeats its workload's pass for ``--seconds`` and checks every
output.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics; with ``--trace 1`` the first half of the time runs untraced, the
second half traced (see layers.py), and the line carries the per-layer
metrics.  Earlier lines give the workload's own metrics as median, sample
count and the highest percentile with at least ten samples beyond it,
the NA share of every grid and the CSV bytes per operation.

``--smoke`` runs every workload at tiny sizes, checks that every metric
of BENCHMARK.json is printed with its unit, and that perturbed outputs
fail the output checks.

The package is imported from ``src/`` of the checkout this file sits in;
without it the run exits non-zero before printing a result.
"""

import os

# the sweep thread pool is the only parallelism measured, so BLAS
# (np.polyfit under fit) stays on one thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import layers
from workloads import (CONFIGS, LIIO3, NAMED_METRICS, WORKLOADS, Ledger,
                       Scale, digest, file_digest, load_run_config, match_ok,
                       tilt_ok)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 15
MIN_PASSES = 3


def import_package():
    if not (SRC / "spdcmaps" / "__init__.py").is_file():
        raise SystemExit(f"spdcmaps sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import spdcmaps
    import spdcmaps.cli  # noqa: F401  (the package does not import it)
    if Path(spdcmaps.__file__).resolve().parent != SRC / "spdcmaps":
        raise SystemExit(f"imported {spdcmaps.__file__}, not {SRC}")
    return spdcmaps


def summarize(values):
    """Median, sample count and the highest standard percentile with at
    least ten samples beyond it (nearest rank)."""
    vals = sorted(values)
    n = len(vals)
    out = {"median": statistics.median(vals) if vals else None, "n": n}
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            out[f"p{p:g}"] = vals[math.ceil(p / 100.0 * n) - 1]
            break
    return out


def report(label, unit, stats):
    body = ", ".join(f"{k} = {v!r}" for k, v in stats.items())
    print(f"{label} [{unit}]: {body}" if unit else f"{label}: {body}")


_SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import spdcmaps
from spdcmaps import config
for path in sys.argv[2:]:
    config.build_run_config(config.load_config_file(path))
print(repr(time.perf_counter() - t0))
"""


def measure_setup(configs):
    """Fresh-interpreter import plus config load and build, in seconds."""
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CODE, str(SRC)]
        + [str(CONFIGS / name) for name in configs],
        capture_output=True, text=True, timeout=120, cwd=str(ROOT))
    if proc.returncode != 0:
        raise RuntimeError(f"set-up run failed: {proc.stderr[-500:]}")
    return float(proc.stdout.split()[-1])


def run_passes(work, ledger, seconds, min_passes, setup=None, repeats=0):
    """Repeat the pass until the next one would end past the deadline.

    With a setup list, fresh-interpreter set-ups are spread between the
    passes (and topped up to repeats at the end), so that their median
    sees the machine over the whole run, not over one slow or fast spell.
    """
    start = perf_counter()
    deadline = start + seconds
    while True:
        t0 = perf_counter()
        work.run_pass(ledger)
        ledger.passes += 1
        took = perf_counter() - t0
        done = ledger.passes >= min_passes and perf_counter() + took > deadline
        if setup is not None:
            share = (1.0 if done or seconds <= 0
                     else (perf_counter() - start) / seconds)
            while len(setup) < min(repeats, math.ceil(repeats * share)):
                setup.append(measure_setup(work.configs))
        if done:
            return ledger


def end_to_end(work, ledger, setup):
    """{name: (value, unit)} of the end-to-end metrics, and the workload's
    own metrics as {name: (samples, unit)} for the report lines."""
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    named = {"setup_s": (setup, "s"), "peak_rss_mb": ([rss_mb], "MB"),
             "fail_frac": ([ledger.failed / ledger.attempted], "frac")}
    named.update(work.named(ledger))
    try:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "pass_s": (ledger.pass_s(), "s"),
            "phase_us_per_cell": (ledger.us_per_cell(work.cell_ops("phase")),
                                  "us"),
            "delay_us_per_cell": (ledger.us_per_cell(work.cell_ops("delay")),
                                  "us"),
        }
    except KeyError:     # an operation never succeeded: no result
        metrics = {}
    return metrics, named


def run_workload(sp, name, seed, seconds, trace, scale, emit):
    """One benchmark run; returns the object printed as the last line."""
    tmp = Path(tempfile.mkdtemp(prefix=".bench_tmp-", dir=str(ROOT)))
    try:
        work = WORKLOADS[name](sp, seed, scale, tmp)
        min_passes = 1 if scale.smoke else MIN_PASSES
        if not trace:
            setup = []
            ledger = run_passes(work, Ledger(), seconds, min_passes, setup,
                                1 if scale.smoke else SETUP_REPEATS)
            ledgers = [ledger]
            metrics, named = end_to_end(work, ledger, setup)
            for key, (values, unit) in named.items():
                emit(f"metric {key}", unit, summarize(values))
        else:
            untraced = run_passes(work, Ledger(), seconds / 2, min_passes)
            tracer = layers.install(sp)
            try:
                traced = run_passes(work, Ledger(tracer), seconds / 2,
                                    min_passes)
            finally:
                tracer.remove()
            ledgers = [untraced, traced]
            metrics = layers.metrics(tracer, traced, untraced,
                                     {**untraced.values, **traced.values})
        for key, frac in sorted(work.na.items()):
            emit(f"na_frac {key}", "frac", {"value": frac})
        for key, size in sorted(work.sizes.items()):
            emit(f"bytes_per_op {key}", "bytes", {"value": size})
        attempted = sum(led.attempted for led in ledgers)
        failed = sum(led.failed for led in ledgers)
        for led in ledgers:
            for err in led.errors[:10]:
                print(f"failed: {err}", file=sys.stderr)
        return {"correct": failed == 0 and bool(metrics),
                "attempted": attempted, "failed": failed,
                "metrics": {k: {"value": v, "unit": u}
                            for k, (v, u) in metrics.items()}}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def environment(sp):
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "default_workers": sp.maps._default_workers()}


def smoke(sp):
    """Every workload at tiny sizes; returns the exit code."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            lines = []
            result = run_workload(sp, name, 1, 0.0, trace, Scale(smoke=True),
                                  lambda *a: lines.append(a))
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace {trace}: printed {got}, "
                                f"BENCHMARK.json names {want}")
            if not result["correct"]:
                problems.append(f"{name} trace {trace}: outputs failed checks")
            if not trace:
                printed = {label.split()[-1] for label, unit, stats in lines
                           if label.startswith("metric ") and unit
                           and stats["n"]}
                missing = set(NAMED_METRICS[name]) - printed
                if missing:
                    problems.append(f"{name}: not printed {sorted(missing)}")
    problems += perturbations(sp)
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 1 if problems else 0


def perturbations(sp):
    """The output checks must reject a map one ulp off, a CSV one digit
    off, and find-tilt / phase-match answers outside their bands."""
    problems = []
    rc = load_run_config(sp, LIIO3)
    spec = sp.maps.GridSpec(9, 9, -60.0, 60.0, -60.0, 60.0)
    grid = sp.maps.sweep_phase_map(rc.source, spec)
    bad = sp.maps.sweep_phase_map(rc.source, spec, workers=1)
    bad.values[0][4, 4] = np.nextafter(bad.values[0][4, 4], np.inf)
    if grid.same_data(bad) or digest(grid.values) == digest(bad.values):
        problems.append("a map one ulp off passed the sweep checks")
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-",
                                     dir=str(ROOT)) as tmp:
        path = Path(tmp) / "map.csv"
        sp.mapio.write_map_csv(grid, str(path), sp.__version__)
        good = file_digest(path)
        text = path.read_text()
        head, last = text.rstrip("\n").rsplit("\n", 1)
        cells = last.split(",")
        digit = next(c for c in reversed(cells[-1]) if c.isdigit())
        cells[-1] = cells[-1][::-1].replace(
            digit, str((int(digit) + 1) % 10), 1)[::-1]
        path.write_text(head + "\n" + ",".join(cells) + "\n")
        if (sp.mapio.read_map_csv(str(path)).same_data(grid)
                or file_digest(path) == good):
            problems.append("a CSV one digit off passed the read-back checks")
    if tilt_ok(sp, 0, "self-compensating tilt: 49.0 deg\n"
                      "residual delay: +0.0e+00 fs"):
        problems.append("a tilt root at 49 deg passed the find-tilt check")
    if match_ok(0, "degenerate external emission angle: 3.6 deg"):
        problems.append("a 3.6 deg ring passed the phase-match check")
    return problems


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="every workload at tiny sizes, with self-checks")
    args = p.parse_args(argv)
    sp = import_package()
    if args.smoke:
        return smoke(sp)
    if args.workload not in WORKLOADS:
        p.error(f"--workload must be one of {sorted(WORKLOADS)}")
    for key, value in environment(sp).items():
        report(f"env {key}", "", {"value": value})
    report("run", "", {"workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace})
    result = run_workload(sp, args.workload, args.seed, args.seconds,
                          bool(args.trace), Scale(smoke=False), report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
