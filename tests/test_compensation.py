"""Constrained pump tilts and the self-compensation search."""

import contextlib
import io
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from spdcmaps import compensation, config, crystal, maps, phasematch, vecgeom
from spdcmaps.compensation import DELAY_TOLERANCE_FS
from spdcmaps.errors import ConfigError, KinematicsError, NoSolutionError
from spdcmaps.phasematch import EmissionCoord, PumpConfig

PHI = math.radians(90.0)


def make_source(mat, cut_deg, lam_nm, d_mm):
    m = crystal.get_material(mat)
    c1 = crystal.CrystalSpec(m, d_mm, math.radians(cut_deg), 0.0)
    c2 = crystal.CrystalSpec(m, d_mm, math.radians(cut_deg), math.radians(90.0))
    return maps.SourceConfig(c1, c2, PumpConfig(lam_nm))


BBO_SRC = make_source("BBO", 29.3, 405.0, 0.6)
LI_SRC = make_source("LiIO3", 51.95, 351.1, 0.59)

# synthetic stand-ins: a dispersionless medium (all transits equal, delay
# identically zero) and an isotropic but dispersive one (delay constant
# under tilt, never zero)
_FLAT_FIT = crystal.SellmeierFit(a=2.56, poles=())
FLAT = crystal.Material("flat", _FLAT_FIT, _FLAT_FIT, (200.0, 2000.0))
_BBO_O = crystal.get_material("BBO").ordinary
ISO = crystal.Material("isodisp", _BBO_O, _BBO_O, (205.0, 1060.0))


def synth_source(material):
    c1 = crystal.CrystalSpec(material, 0.5, math.radians(40.0), 0.0)
    c2 = crystal.CrystalSpec(material, 0.5, math.radians(40.0),
                             math.radians(90.0))
    return maps.SourceConfig(c1, c2, PumpConfig(405.0))


# -------------------------------------------------- constrained geometry

def test_normal_incidence_leaves_axes_untouched():
    state = compensation.constrained_pump_state(
        BBO_SRC.pump.with_tilt(0.0, PHI), BBO_SRC)
    assert state.crystal1.axis_theta == BBO_SRC.crystal1.axis_theta
    assert state.crystal1.axis_phi == BBO_SRC.crystal1.axis_phi
    assert state.crystal2.axis_theta == BBO_SRC.crystal2.axis_theta
    assert state.crystal2.axis_phi == BBO_SRC.crystal2.axis_phi


def test_constraint_preserves_internal_cut_angle():
    for th_deg in (10.0, 35.0, 52.0):
        pump = BBO_SRC.pump.with_tilt(math.radians(th_deg), PHI)
        state = compensation.constrained_pump_state(pump, BBO_SRC)
        for spec, cut in ((state.crystal1, BBO_SRC.crystal1.axis_theta),
                          (state.crystal2, BBO_SRC.crystal2.axis_theta)):
            st = phasematch.pump_internal_state(pump, spec)
            assert abs(st.alpha - cut) < 1e-10


def test_constraint_is_idempotent():
    pump = BBO_SRC.pump.with_tilt(math.radians(25.0), PHI)
    once = compensation.constrained_pump_state(pump, BBO_SRC)
    twice = compensation.constrained_pump_state(pump, once)
    for a, b in ((once.crystal1, twice.crystal1),
                 (once.crystal2, twice.crystal2)):
        assert a.axis_theta == b.axis_theta
        assert a.axis_phi == b.axis_phi


def test_retilt_composes_from_nominal_axes():
    tilted = compensation.constrained_pump_state(
        BBO_SRC.pump.with_tilt(math.radians(30.0), PHI), BBO_SRC)
    back = compensation.constrained_pump_state(
        tilted.pump.with_tilt(0.0, PHI), tilted)
    assert back.crystal1.axis_theta == BBO_SRC.crystal1.axis_theta
    assert back.crystal2.axis_phi == BBO_SRC.crystal2.axis_phi


@pytest.mark.parametrize("src", [BBO_SRC, LI_SRC], ids=["BBO", "LiIO3"])
def test_co_rotated_axes_equal_the_batch_rotation_bitwise(src):
    # the co-rotation sums one vector on floats; the reference rotates it
    # through vecgeom's stacked-vector path
    base = src.nominal_axes()
    for tilt_deg in (0.0, 7.0, 30.0, 51.2, 60.0, 85.0):
        for phi_deg in (0.0, 90.0, 217.0):
            pump = src.pump.with_tilt(math.radians(tilt_deg),
                                      math.radians(phi_deg))
            state = compensation.constrained_pump_state(pump, src)
            for spec, (ax_theta, ax_phi) in zip(
                    (state.crystal1, state.crystal2), base):
                want = (ax_theta, ax_phi)  # normal incidence: untouched
                if tilt_deg != 0.0:
                    _, n_o, n_ep = crystal._indices(spec.material, pump.omega)
                    n_cut = crystal._section_index(n_o, n_ep,
                                                   math.cos(ax_theta))
                    rot = vecgeom.tilt_rotation(
                        math.asin(math.sin(pump.theta_p) / n_cut), pump.phi_p)
                    axis = vecgeom.apply_rotation(
                        rot, vecgeom.direction_from_angles(ax_theta, ax_phi))
                    want = tuple(vecgeom.angles_from_direction(axis))
                assert (spec.axis_theta, spec.axis_phi) == want, \
                    (tilt_deg, phi_deg)


def test_constraint_rejects_grazing_tilt():
    for th in (math.pi / 2, -math.pi / 2, math.radians(135.0)):
        with pytest.raises(ConfigError):
            compensation.constrained_pump_state(
                BBO_SRC.pump.with_tilt(th, PHI), BBO_SRC)


def test_tilt_search_reads_the_dispersion_memo(monkeypatch):
    # every tilt refracts the same pump frequency into the same materials,
    # so once one sample has run the search evaluates no Sellmeier fit
    rc = config.build_run_config(config.load_config_file(os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "configs", "bbo_tilt52.yaml")))
    compensation.tilt_delay(rc.source, rc.tilt_range[0], rc.tilt_phi_p)
    fits = []
    index = crystal.SellmeierFit.index

    def counted(self, lam_nm):
        fits.append(lam_nm)
        return index(self, lam_nm)
    monkeypatch.setattr(crystal.SellmeierFit, "index", counted)
    compensation.find_self_compensating_tilt(
        rc.source, rc.tilt_phi_p, theta_range=rc.tilt_range,
        n_samples=rc.tilt_samples)
    assert fits == []


# ---------------------------------------------------------- target logic

def test_tracked_target_normal_incidence():
    state = compensation.constrained_pump_state(
        BBO_SRC.pump.with_tilt(0.0, PHI), BBO_SRC)
    coord, delta = compensation.tracked_target(state)
    ref = phasematch.degenerate_emission_angle(BBO_SRC.crystal1, BBO_SRC.pump)
    assert delta == pytest.approx(ref, abs=1e-9)
    assert coord.theta == pytest.approx(ref, abs=1e-9)
    # default cone azimuth: half a turn past the tilt azimuth
    assert coord.phi == pytest.approx(-math.pi / 2, abs=1e-9)
    assert coord.omega == 0.5 * BBO_SRC.pump.omega


def test_tilt_delay_fixed_vs_tracked_targets():
    fixed_coord, _ = compensation.tracked_target(
        compensation.constrained_pump_state(
            BBO_SRC.pump.with_tilt(0.0, PHI), BBO_SRC))
    v_fix, c_fix, off_fix = compensation.tilt_delay(
        BBO_SRC, math.radians(10.0), PHI, target=fixed_coord)
    assert off_fix is None and c_fix is fixed_coord
    v_trk, c_trk, off_trk = compensation.tilt_delay(
        BBO_SRC, math.radians(10.0), PHI)
    assert off_trk is not None and off_trk > 0.0
    assert c_trk.theta != pytest.approx(fixed_coord.theta, abs=1e-6)
    assert v_fix != pytest.approx(v_trk, abs=1e-3)


# ------------------------------------------------------------- tilt scan

def test_scan_zero_tilt_sample_equals_plain_delay():
    state = compensation.constrained_pump_state(
        BBO_SRC.pump.with_tilt(0.0, PHI), BBO_SRC)
    coord, delta = compensation.tracked_target(state)
    res = compensation.scan_tilt(BBO_SRC, PHI, (0.0, math.radians(20.0)), 5)
    s0 = res.samples[0]
    assert s0.theta_p == 0.0
    assert s0.delay_fs == maps.time_delay(BBO_SRC, coord)
    assert s0.cone_offset == delta
    assert s0.delay_fs == pytest.approx(-266.3191670246306, abs=1e-6)


def test_scan_two_samples_spanning_crossing_brackets_it():
    res = compensation.scan_tilt(
        BBO_SRC, PHI, (math.radians(50.0), math.radians(55.0)), 2)
    assert res.root is None
    assert res.bracket == (math.radians(50.0), math.radians(55.0))
    a, b = res.valid_samples()
    assert a.delay_fs < 0.0 < b.delay_fs


def test_scan_tolerates_failing_samples():
    res = compensation.scan_tilt(BBO_SRC, PHI, (0.0, math.radians(60.0)), 4)
    assert len(res.samples) == 4
    last = res.samples[-1]
    assert math.isnan(last.delay_fs) and last.error is not None
    assert len(res.valid_samples()) == 3
    # the failure is real: the tracked partner leaves the light cone
    with pytest.raises(KinematicsError):
        compensation.tilt_delay(BBO_SRC, math.radians(60.0), PHI)


def test_scan_requires_two_samples():
    with pytest.raises(ConfigError):
        compensation.scan_tilt(BBO_SRC, PHI, (0.0, 0.5), 1)


def _no_tilt_delay(*args, **kwargs):
    raise AssertionError("a refused scan evaluated a tilt")


@pytest.mark.parametrize("theta_range, n_samples, key", [
    ((0.0, 1e300), 3, "theta_max"),
    ((0.0, 0.5 * math.pi), 3, "theta_max"),
    ((-0.5 * math.pi, 0.5), 3, "theta_min"),
    ((math.nan, 0.5), 3, "theta_min"),
    ((0.5, 0.5), 3, "theta_max"),
    ((0.5, math.nan), 3, "theta_max"),
    ((0.0, 0.5), 2.7, "n_samples"),
    ((0.0, 0.5), 2.0, "n_samples"),
    ((0.0, 0.5), True, "n_samples"),
    ((0.0, 0.5), 10001, "n_samples"),
])
def test_scan_refuses_a_range_or_count_out_of_bounds(monkeypatch, theta_range,
                                                     n_samples, key):
    # unrefused, 2.7 samples scanned 2, and tilts past 90 degrees came
    # back as invalid samples
    monkeypatch.setattr(compensation, "tilt_delay", _no_tilt_delay)
    with pytest.raises(ConfigError) as err:
        compensation.scan_tilt(BBO_SRC, PHI, theta_range, n_samples)
    assert err.value.key == key


def test_scan_admits_the_bounds_of_its_checks(monkeypatch):
    monkeypatch.setattr(compensation, "tilt_delay",
                        lambda source, th, phi_p, target=None:
                        (1.0, None, None))
    top = math.nextafter(0.5 * math.pi, 0.0)
    res = compensation.scan_tilt(BBO_SRC, PHI, (-top, top),
                                 compensation.MAX_SCAN_SAMPLES)
    assert len(res.samples) == 10000
    assert (res.samples[0].theta_p, res.samples[-1].theta_p) == (-top, top)
    res = compensation.scan_tilt(BBO_SRC, PHI, (0.0, 0.5), np.int64(2))
    assert [s.theta_p for s in res.samples] == [0.0, 0.5]


def test_scan_constant_delay_reports_nothing():
    src = synth_source(ISO)
    target = EmissionCoord(0.5 * src.pump.omega, 0.0, 0.0)
    res = compensation.scan_tilt(src, PHI, (0.0, math.radians(30.0)), 5,
                                 target=target)
    assert res.root is None and res.bracket is None
    vals = [s.delay_fs for s in res.valid_samples()]
    assert max(vals) - min(vals) < 1e-9
    assert abs(vals[0]) > 1.0


def test_scan_promotes_null_delay_sample():
    src = synth_source(FLAT)
    target = EmissionCoord(0.5 * src.pump.omega, 0.0, 0.0)
    res = compensation.scan_tilt(src, PHI, (0.0, math.radians(30.0)), 5,
                                 target=target)
    assert res.root == 0.0
    assert res.bracket == (0.0, 0.0)


# ------------------------------------------------------------ refinement

def test_find_tilt_dispersionless_source_needs_none():
    src = synth_source(FLAT)
    target = EmissionCoord(0.5 * src.pump.omega, 0.0, 0.0)
    root = compensation.find_self_compensating_tilt(
        src, PHI, target=target, theta_range=(0.0, math.radians(30.0)),
        n_samples=5)
    assert root == 0.0


def test_find_tilt_no_crossing_raises():
    src = synth_source(ISO)
    target = EmissionCoord(0.5 * src.pump.omega, 0.0, 0.0)
    with pytest.raises(NoSolutionError):
        compensation.find_self_compensating_tilt(
            src, PHI, target=target, theta_range=(0.0, math.radians(30.0)),
            n_samples=5)
    # real crystal, but a range that never reaches the crossing
    with pytest.raises(NoSolutionError):
        compensation.find_self_compensating_tilt(
            LI_SRC, PHI, theta_range=(0.0, math.radians(20.0)), n_samples=5)


def test_refine_tilt_refuses_a_root_that_misses_the_bar(monkeypatch):
    # a delay that jumps across zero: the refined bracket closes on the
    # jump, where the delay is still 1 fs
    monkeypatch.setattr(
        compensation, "tilt_delay",
        lambda source, th, phi_p, target=None:
        (-1.0 if th < 0.3 else 1.0, None, None))
    scan = compensation.scan_tilt(BBO_SRC, PHI, (0.0, 0.5), 2)
    assert scan.bracket == (0.0, 0.5)
    with pytest.raises(NoSolutionError, match="0.01 fs bar"):
        compensation.refine_tilt(BBO_SRC, PHI, scan)


def test_find_tilt_bbo_frozen_root():
    root = compensation.find_self_compensating_tilt(
        BBO_SRC, PHI, theta_range=(math.radians(45.0), math.radians(55.0)),
        n_samples=3)
    assert math.degrees(root) == pytest.approx(51.22197083, abs=1e-3)
    resid, coord, delta = compensation.tilt_delay(BBO_SRC, root, PHI)
    assert abs(resid) < DELAY_TOLERANCE_FS
    assert math.degrees(delta) == pytest.approx(4.33245176, abs=1e-3)


def test_find_tilt_fixed_lab_target_has_no_crossing():
    # the compensation lives on the emission cone, which moves with the
    # tilt; at a coordinate held fixed in the laboratory the constrained
    # tilt only deepens the delay, so the search must come up empty
    fixed_coord, _ = compensation.tracked_target(
        compensation.constrained_pump_state(
            BBO_SRC.pump.with_tilt(0.0, PHI), BBO_SRC))
    with pytest.raises(NoSolutionError):
        compensation.find_self_compensating_tilt(
            BBO_SRC, PHI, target=fixed_coord,
            theta_range=(math.radians(40.0), math.radians(58.0)), n_samples=7)
    lo = compensation.tilt_delay(BBO_SRC, math.radians(40.0), PHI,
                                 target=fixed_coord)[0]
    hi = compensation.tilt_delay(BBO_SRC, math.radians(58.0), PHI,
                                 target=fixed_coord)[0]
    assert hi < lo < 0.0


def test_mu_does_not_move_the_root():
    for mu in (0.0, 1.0):
        root = compensation.find_self_compensating_tilt(
            replace(BBO_SRC, mu=mu), PHI,
            theta_range=(math.radians(50.0), math.radians(53.0)), n_samples=2)
        assert math.degrees(root) == pytest.approx(51.22197083, abs=1e-3)


def test_tracked_target_builds_the_pump_cone_frame_once(monkeypatch):
    # the ring solve and the coordinate it returns share the pump's frame
    def fresh():
        return compensation.constrained_pump_state(
            BBO_SRC.pump.with_tilt(math.radians(30.0), PHI), BBO_SRC)

    want = compensation.tracked_target(fresh())
    state = fresh()
    calls = []
    real = vecgeom.tilt_rotation
    monkeypatch.setattr(vecgeom, "tilt_rotation",
                        lambda th, ph: calls.append((th, ph)) or real(th, ph))
    assert compensation.tracked_target(state) == want
    assert compensation.tracked_target(state) == want
    assert calls == [(state.pump.theta_p, state.pump.phi_p)]


def test_readme_library_block_runs_as_written():
    # the python block between "## Library use" and "## Testing"
    readme = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("\n## Library use"):text.index("\n## Testing")]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    values = [float(line) for line in out.getvalue().splitlines()]
    assert len(values) == 3 and all(map(math.isfinite, values))
    root = compensation.find_self_compensating_tilt(BBO_SRC, PHI)
    assert abs(values[-1] - math.degrees(root)) <= 1e-6
