"""Sweeps whose row blocks are shared out to forked processes.

Every test here lowers maps._FORK_CELLS to 0, so that small grids take
the forked path, and checks on teardown that no child outlives a sweep.
The grids are 2000 cells wide, four rows to a block, and 27 rows high:
seven blocks, which split unevenly over two, three or four processes.
"""

import math
import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from spdcmaps import compensation, crystal, maps
from spdcmaps.errors import ConfigError
from spdcmaps.phasematch import PumpConfig

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork") or sys.platform != "linux",
    reason="sweeps fork only on Linux")


def make_source(mat, cut_deg, lam_nm, d_mm):
    m = crystal.get_material(mat)
    c1 = crystal.CrystalSpec(m, d_mm, math.radians(cut_deg), 0.0)
    c2 = crystal.CrystalSpec(m, d_mm, math.radians(cut_deg), math.radians(90.0))
    return maps.SourceConfig(c1, c2, PumpConfig(lam_nm))


LI = make_source("LiIO3", 51.95, 351.1, 0.59)
BBO = make_source("BBO", 29.3, 405.0, 0.6)
# the 52 deg tilted pump with the crystal axes co-rotated: most of this
# angular window is NA
TILTED = compensation.constrained_pump_state(
    BBO.pump.with_tilt(math.radians(52.0), math.radians(90.0)), BBO)
ANGULAR = maps.ANGULAR_MODE

LI_GRID = maps.GridSpec(2000, 27, -60.0, 60.0, -60.0, 60.0)
CASES = {
    "liio3-detection": (LI, LI_GRID, None),
    "bbo-full-cone": (BBO, maps.GridSpec(2000, 27, 0.0, 30.0, -180.0, 180.0,
                                         mode=ANGULAR), 702.2),
    "bbo-tilt52-corotated": (TILTED, maps.GridSpec(
        2000, 27, 30.0, 70.0, 30.0, 150.0, mode=ANGULAR), None),
}
SWEEPS = (maps.sweep_phase_map, maps.sweep_delay_map)


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@pytest.fixture
def forks(monkeypatch):
    """pids of the children forked, from every grid size on; no child may
    be left unreaped at the end."""
    monkeypatch.setattr(maps, "_FORK_CELLS", 0)
    pids = []
    real = os.fork

    def counting():
        pid = real()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", counting)
    yield pids
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def four_cpus(monkeypatch):
    """Shares for up to four processes, whatever the host has."""
    monkeypatch.setattr(maps, "_usable_cpus", lambda: 4)


def test_grid_blocks_split_unevenly():
    blocks = maps._row_blocks(LI_GRID.ny, LI_GRID.nx)
    assert len(blocks) == 7 and all(len(blocks) % k for k in (2, 3, 4))
    assert blocks[-1][1] - blocks[-1][0] < blocks[0][1] - blocks[0][0]


@pytest.mark.parametrize("case", sorted(CASES))
def test_forked_sweep_is_bitwise_the_serial_one(case, forks, four_cpus):
    source, gs, filt = CASES[case]
    refs = [sweep(source, gs, filter_center_nm=filt, workers=1)
            for sweep in SWEEPS]
    assert forks == []
    for sweep, ref in zip(SWEEPS, refs):
        for workers in (2, 3, 4, None):
            grid = sweep(source, gs, filter_center_nm=filt, workers=workers)
            assert grid.same_data(ref), (sweep.__name__, workers)
    assert len(forks) == 2 * (1 + 2 + 3 + 3)
    if case == "bbo-tilt52-corotated":
        assert np.isnan(refs[0].values[0]).mean() > 0.5


def test_a_share_whose_child_fails_is_swept_here(forks, four_cpus,
                                                 monkeypatch):
    ref = maps.sweep_phase_map(LI, LI_GRID, workers=1)
    parent, real = os.getpid(), maps._phase_values

    def child_fails(*args):
        if os.getpid() != parent:
            raise RuntimeError("only in a child")
        return real(*args)
    monkeypatch.setattr(maps, "_phase_values", child_fails)
    assert maps.sweep_phase_map(LI, LI_GRID, workers=4).same_data(ref)
    assert len(forks) == 3


def test_an_error_here_kills_the_children_and_propagates(forks, four_cpus,
                                                         monkeypatch):
    parent = os.getpid()

    def parent_fails(*args):
        if os.getpid() == parent:
            raise RuntimeError("only in the parent")
        time.sleep(60.0)  # a child still at work when the parent fails
    monkeypatch.setattr(maps, "_delay_values", parent_fails)
    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match="only in the parent"):
        maps.sweep_delay_map(LI, LI_GRID, workers=4)
    assert time.monotonic() - t0 < 30.0
    assert len(forks) == 3
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_forks_stay_below_the_usable_cpus(forks):
    ref = maps.sweep_phase_map(LI, LI_GRID, workers=1)
    # a worker count far above any machine's: only the count of fork
    # calls is checked, and the cap keeps it at usable CPUs - 1
    assert maps.sweep_phase_map(LI, LI_GRID, workers=10 ** 6).same_data(ref)
    assert len(forks) <= _usable_cpus() - 1
    assert maps._default_workers() == min(4, _usable_cpus())


def test_no_fork_beside_a_live_thread(forks, four_cpus):
    ref = maps.sweep_delay_map(LI, LI_GRID, workers=1)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30.0,))
    thread.start()
    try:
        grid = maps.sweep_delay_map(LI, LI_GRID, workers=4)
    finally:
        release.set()
        thread.join(timeout=30.0)
    assert not thread.is_alive()
    assert grid.same_data(ref) and forks == []


def test_no_fork_without_os_fork(forks, four_cpus, monkeypatch):
    ref = maps.sweep_phase_map(LI, LI_GRID, workers=1)
    monkeypatch.delattr(os, "fork")
    assert maps.sweep_phase_map(LI, LI_GRID, workers=4).same_data(ref)
    assert forks == []


def test_the_multithreaded_fork_warning_is_silenced(forks, four_cpus,
                                                    monkeypatch):
    # CPython 3.12 warns so on a fork from a process with other OS
    # threads, and import numpy starts one; the suite turns warnings into
    # errors
    counting = os.fork

    def warning_fork():
        warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, "
                      "use of fork() may lead to deadlocks in the child.",
                      DeprecationWarning, stacklevel=2)
        return counting()
    monkeypatch.setattr(os, "fork", warning_fork)
    ref = maps.sweep_phase_map(LI, LI_GRID, workers=1)
    assert maps.sweep_phase_map(LI, LI_GRID, workers=3).same_data(ref)
    assert len(forks) == 2


@pytest.mark.parametrize("workers", [0, -1, 1.5, 2.0, True, False, "2"])
def test_workers_must_be_a_whole_number_from_one(workers):
    gs = maps.GridSpec(3, 2, -20.0, 20.0, -5.0, 5.0)
    for sweep in SWEEPS:
        with pytest.raises(ConfigError) as err:
            sweep(LI, gs, workers=workers)
        assert err.value.key == "workers"


def test_workers_of_one_or_more_are_accepted():
    gs = maps.GridSpec(3, 2, -20.0, 20.0, -5.0, 5.0)
    ref = maps.sweep_phase_map(LI, gs)
    for workers in (1, 7, np.int64(2)):
        assert maps.sweep_phase_map(LI, gs, workers=workers).same_data(ref)


@pytest.mark.parametrize("case", sorted(CASES))
def test_forked_sweep_maps_is_bitwise_the_one_kind_sweeps(case, forks,
                                                          four_cpus):
    source, gs, filt = CASES[case]
    phase, delay = (sweep(source, gs, filter_center_nm=filt, workers=1)
                    for sweep in SWEEPS)
    for workers in (2, 3, 4):
        for kinds, want in ((("phase", "delay"), (phase, delay)),
                            (("delay", "phase"), (delay, phase))):
            grids = maps.sweep_maps(source, gs, kinds, filter_center_nm=filt,
                                    workers=workers)
            assert len(grids) == 2
            for grid, ref in zip(grids, want):
                assert grid.same_data(ref), (kinds, workers)
    assert len(forks) == 2 * (1 + 2 + 3)


def test_forked_sweep_maps_refuses_no_kind(forks, four_cpus):
    with pytest.raises(ValueError, match="kinds"):
        maps.sweep_maps(LI, LI_GRID, (), workers=4)
    assert forks == []
