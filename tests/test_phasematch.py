"""Pair kinematics, longitudinal mismatch, and the degenerate-ring solve."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdcmaps import compensation, crystal, maps, phasematch, vecgeom
from spdcmaps.errors import ConfigError, KinematicsError, NoSolutionError
from spdcmaps.phasematch import EmissionCoord, PumpConfig
from spdcmaps.solvers import bisect_secant

import scalar_oracle

BBO = crystal.get_material("BBO")
LIIO3 = crystal.get_material("LiIO3")
BBO_SPEC = crystal.CrystalSpec(BBO, 0.6, math.radians(29.3), 0.0)
LIIO3_SPEC = crystal.CrystalSpec(LIIO3, 0.59, math.radians(51.95), 0.0)
PUMP_405 = PumpConfig(405.0)
PUMP_351 = PumpConfig(351.1)


# ------------------------------------------------------------- conjugate

def test_conjugate_degenerate_mirrors_azimuth():
    w_half = 0.5 * PUMP_405.omega
    for phi_deg in (0.0, 37.0, 90.0, 180.0, 270.0):
        s = EmissionCoord(w_half, math.radians(2.5), math.radians(phi_deg))
        i = phasematch.conjugate(s, PUMP_405)
        assert i.theta == pytest.approx(s.theta, abs=1e-12)
        dphi = (i.phi - s.phi) % (2.0 * math.pi)
        assert dphi == pytest.approx(math.pi, abs=1e-12)


def test_conjugate_energy_split():
    w_p = PUMP_405.omega
    s = EmissionCoord(0.6 * w_p, math.radians(2.0), 0.0)
    i = phasematch.conjugate(s, PUMP_405)
    assert i.omega == pytest.approx(0.4 * w_p, rel=1e-15)
    assert s.omega + i.omega == w_p


def test_conjugate_transverse_momentum_with_tilted_pump():
    pump = PumpConfig(405.0, theta_p=math.radians(7.0), phi_p=math.radians(25.0))
    k_p = pump.omega / crystal.C_NM_FS
    rng = np.random.default_rng(5)
    for _ in range(500):
        w_s = pump.omega * rng.uniform(0.42, 0.58)
        s = EmissionCoord(w_s, rng.uniform(0.0, 0.08),
                          rng.uniform(-math.pi, math.pi))
        i = phasematch.conjugate(s, pump)
        qs = s.transverse_q()
        qi = i.transverse_q()
        qp = pump.transverse_q()
        resid = math.hypot(qs[0] + qi[0] - qp[0], qs[1] + qi[1] - qp[1])
        assert resid < 1e-12 * k_p


def test_conjugate_involution():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        w_s = PUMP_405.omega * rng.uniform(0.4, 0.6)
        s = EmissionCoord(w_s, rng.uniform(0.0, 0.06),
                          rng.uniform(-math.pi, math.pi))
        back = phasematch.conjugate(phasematch.conjugate(s, PUMP_405), PUMP_405)
        assert back.omega == pytest.approx(s.omega, rel=1e-15)
        assert np.max(np.abs(back.direction() - s.direction())) < 1e-12


def test_conjugate_rejects_nonpositive_partner_frequency():
    with pytest.raises(KinematicsError):
        phasematch.conjugate(
            EmissionCoord(PUMP_405.omega * 1.01, 0.01, 0.0), PUMP_405)


def test_conjugate_rejects_evanescent_partner():
    # strongly red signal at wide angle forces |q_i| c > omega_i
    w_s = PUMP_405.omega * 0.7
    with pytest.raises(KinematicsError):
        phasematch.conjugate(EmissionCoord(w_s, math.radians(80.0), 0.0),
                             PUMP_405)


def test_emission_coord_validates_polar_angle():
    with pytest.raises(ValueError):
        EmissionCoord(2.0, math.pi / 2, 0.0)
    with pytest.raises(ValueError):
        EmissionCoord(2.0, -0.01, 0.0)


# ---------------------------------------------------------- pump internal

def test_pump_internal_normal_incidence():
    for spec, pump in ((BBO_SPEC, PUMP_405), (LIIO3_SPEC, PUMP_351)):
        state = phasematch.pump_internal_state(pump, spec)
        assert np.allclose(state.wavevector, [0.0, 0.0, 1.0], atol=1e-14)
        assert state.alpha == pytest.approx(spec.axis_theta, abs=1e-12)
        assert state.index == pytest.approx(
            crystal.n_e_angle(spec.material, pump.omega, spec.axis_theta),
            abs=1e-12)


def test_pump_internal_tilt_is_compressed():
    pump = PumpConfig(405.0, theta_p=math.radians(7.0), phi_p=0.0)
    state = phasematch.pump_internal_state(pump, BBO_SPEC)
    internal = math.acos(float(state.wavevector[2]))
    assert internal < math.radians(7.0)
    # close to the ordinary-index Snell estimate
    approx = math.asin(math.sin(math.radians(7.0)) / state.index)
    assert internal == pytest.approx(approx, abs=1e-6)


@pytest.mark.parametrize("mat, cut, nm", [("BBO", 29.3, 405.0),
                                          ("LiIO3", 51.95, 351.1)])
@pytest.mark.parametrize("phi_a", [0.0, 37.0, 90.0])
def test_pump_enters_through_the_photons_transit(mat, cut, nm, phi_a):
    # the stacked vector refraction at the z normal is the reference: the
    # component transit must reproduce it bitwise (up to the sign of zero)
    spec = crystal.CrystalSpec(crystal.get_material(mat), 1.0,
                               math.radians(cut), math.radians(phi_a))
    Z = np.array([0.0, 0.0, 1.0])
    for tilt in (0.0, 7.0, -30.0, 52.0, 85.0, 89.9):
        for phi_p in (0.0, 90.0, 217.0):
            pump = PumpConfig(nm, math.radians(tilt), math.radians(phi_p))
            K, n = vecgeom.refract_into_extraordinary(
                vecgeom.direction_from_angles(pump.theta_p, pump.phi_p), Z,
                1.0, pump.omega, spec)
            ca = float(vecgeom.dot3(K, spec.axis_direction()))
            state = phasematch.pump_internal_state(pump, spec)
            assert state.index == n, (tilt, phi_p)
            assert state.alpha == math.acos(min(1.0, max(-1.0, ca)))
            assert np.array_equal(state.wavevector, K), (tilt, phi_p)


# -------------------------------------------------------------- mismatch

def test_mismatch_zero_at_solved_ring_and_grows_away():
    delta = phasematch.degenerate_emission_angle(BBO_SPEC, PUMP_405)
    w_half = 0.5 * PUMP_405.omega

    def dk(theta):
        return phasematch.delta_kappa(
            EmissionCoord(w_half, theta, 0.0), PUMP_405, BBO_SPEC)

    assert abs(dk(delta)) < 1e-6
    lo, hi = dk(delta - 1e-3), dk(delta + 1e-3)
    assert lo * hi < 0.0
    assert min(abs(lo), abs(hi)) > 0.05


def test_mismatch_sign_at_axis_agrees_with_scan():
    w_half = 0.5 * PUMP_405.omega

    def dk(theta):
        return phasematch.delta_kappa(
            EmissionCoord(w_half, float(theta), 0.0), PUMP_405, BBO_SPEC)

    at_axis = dk(0.0)
    assert at_axis != 0.0
    # dense scan: the mismatch keeps the axis sign all the way to the ring
    thetas = np.linspace(1e-5, math.radians(3.0), 2000)
    vals = np.array([dk(t) for t in thetas])
    assert np.all(np.sign(vals) == np.sign(at_axis))
    # and crosses zero within the published search bracket
    wide = np.linspace(1e-5, math.radians(15.0), 4000)
    wvals = np.array([dk(t) for t in wide])
    crossings = np.nonzero(np.diff(np.sign(wvals)))[0]
    assert len(crossings) == 1
    lo, hi = wide[crossings[0]], wide[crossings[0] + 1]
    root = phasematch.degenerate_emission_angle(BBO_SPEC, PUMP_405)
    assert lo <= root <= hi


def test_mismatch_is_continuous_on_fine_grid():
    w_half = 0.5 * PUMP_405.omega
    h = 1e-4

    def dk(theta):
        return phasematch.delta_kappa(
            EmissionCoord(w_half, theta, 0.0), PUMP_405, BBO_SPEC)

    for theta in np.linspace(0.01, 0.2, 60):
        slope = abs(dk(theta + h) - dk(theta - h)) / (2.0 * h)
        jump = abs(dk(theta + h) - dk(theta))
        assert jump < 1e-2 * slope + 1e-9


def test_mismatch_oblique_pump_finite():
    pump = PumpConfig(405.0, theta_p=math.radians(7.0), phi_p=math.radians(90.0))
    w_half = 0.5 * pump.omega
    v = phasematch.delta_kappa(EmissionCoord(w_half, 0.05, 1.0), pump, BBO_SPEC)
    assert math.isfinite(v)


# ------------------------------------------------------- amplitude weight

def test_amplitude_weight_perfect_matching():
    w = phasematch.amplitude_weight(0.0, 0.6)
    assert w.magnitude == 1.0 and w.phase == 0.0


def test_amplitude_weight_first_null():
    w = phasematch.amplitude_weight(math.pi, 2.0)   # x = pi
    assert w.magnitude < 1e-12


def test_amplitude_weight_half_lobe():
    w = phasematch.amplitude_weight(math.pi, 1.0)   # x = pi/2
    assert w.magnitude == pytest.approx(2.0 / math.pi, abs=1e-15)
    assert w.phase == pytest.approx(math.pi / 2, abs=1e-15)


def test_amplitude_weight_parity():
    for dk in (0.3, 1.7, 2.9):
        plus = phasematch.amplitude_weight(dk, 1.0)
        minus = phasematch.amplitude_weight(-dk, 1.0)
        assert minus.magnitude == plus.magnitude
        if plus.magnitude > 0 and abs(dk) < math.pi:
            assert minus.phase == -plus.phase


# ------------------------------------------------- degenerate ring solve

def test_degenerate_angle_bbo_frozen():
    delta = phasematch.degenerate_emission_angle(BBO_SPEC, PUMP_405)
    assert math.degrees(delta) == pytest.approx(3.217150150351431, abs=1e-6)


def test_degenerate_angle_liio3_frozen():
    delta = phasematch.degenerate_emission_angle(LIIO3_SPEC, PUMP_351)
    assert math.degrees(delta) == pytest.approx(2.5547143268718444, abs=1e-6)


def test_degenerate_angle_azimuth_independent_at_normal_incidence():
    a = phasematch.degenerate_emission_angle(BBO_SPEC, PUMP_405, phi_target=0.0)
    b = phasematch.degenerate_emission_angle(BBO_SPEC, PUMP_405,
                                             phi_target=math.radians(123.0))
    assert a == pytest.approx(b, abs=1e-10)


def test_degenerate_angle_collinear_cut_returns_zero():
    # cut solving n_e(pump, alpha) = n_o(half frequency) matches on axis
    target = crystal.n_o(BBO, crystal.omega_from_nm(810.0))
    cut = bisect_secant(
        lambda a: crystal.n_e_angle(BBO, PUMP_405.omega, a) - target,
        math.radians(5.0), math.radians(85.0), xtol=1e-14)
    spec = crystal.CrystalSpec(BBO, 0.6, cut, 0.0)
    delta = phasematch.degenerate_emission_angle(spec, PUMP_405)
    assert abs(delta) < 1e-6


def test_degenerate_angle_solves_the_pump_state_once(monkeypatch):
    calls = []
    solve = phasematch.pump_internal_state

    def counted(*args):
        calls.append(args)
        return solve(*args)
    monkeypatch.setattr(phasematch, "pump_internal_state", counted)
    delta = phasematch.degenerate_emission_angle(BBO_SPEC, PUMP_405)
    assert math.degrees(delta) == pytest.approx(3.21715, abs=1e-5)
    assert len(calls) == 1


def test_degenerate_angle_no_crossing_raises():
    # a cut far from matching leaves the bracket sign-definite
    spec = crystal.CrystalSpec(BBO, 0.6, math.radians(5.0), 0.0)
    with pytest.raises(NoSolutionError):
        phasematch.degenerate_emission_angle(spec, PUMP_405)


def test_degenerate_search_bracket_exposed():
    lo, hi = phasematch.DEGENERATE_SEARCH_BRACKET
    assert math.degrees(lo) == pytest.approx(0.1)
    assert math.degrees(hi) == pytest.approx(15.0)


def test_pump_frequency_and_q_are_held_and_replace_recomputes_them():
    pump = PumpConfig(405.0, math.radians(3.0), math.radians(40.0))
    assert pump.omega is pump.omega
    assert pump.transverse_q() is pump.transverse_q()
    assert pump.omega == crystal.omega_from_nm(405.0)
    other = replace(pump, wavelength_nm=351.1)
    assert other.omega == crystal.omega_from_nm(351.1)
    tilted = pump.with_tilt(math.radians(5.0), 0.0)
    qx, qy = tilted.transverse_q()
    assert qx == pytest.approx(pump.omega / crystal.C_NM_FS
                               * math.sin(math.radians(5.0)), rel=1e-15)
    assert qy == 0.0
    assert pump == PumpConfig(405.0, math.radians(3.0), math.radians(40.0))


# ------------------------------------------------------- one law, checked

@pytest.mark.parametrize("field, kwargs", [
    ("omega", {"omega": 0.0}),
    ("omega", {"omega": -1.0}),
    ("omega", {"omega": math.nan}),
    ("omega", {"omega": math.inf}),
    ("phi", {"phi": math.nan}),
    ("phi", {"phi": math.inf}),
], ids=["omega-0", "omega-neg", "omega-nan", "omega-inf", "phi-nan",
        "phi-inf"])
def test_emission_coord_rejects_bad_omega_and_phi(field, kwargs):
    args = {"omega": 2.0, "theta": 0.05, "phi": 0.0, **kwargs}
    with pytest.raises(ValueError, match=field):
        EmissionCoord(**args)


@pytest.mark.parametrize("key, value", [
    ("wavelength_nm", 0.0), ("wavelength_nm", -351.1),
    ("wavelength_nm", math.nan), ("wavelength_nm", math.inf),
    ("theta_p", math.nan), ("theta_p", -math.inf), ("phi_p", math.nan),
    ("phase_offset", math.inf),
])
def test_pump_config_refuses_what_the_config_path_refuses(key, value):
    # unrefused, a zero wavelength divides by zero in omega, and a NaN
    # tilt gives a finite time_delay beside an all-NaN phase sweep
    args = {"wavelength_nm": 405.0, key: value}
    with pytest.raises(ConfigError) as exc:
        PumpConfig(**args)
    assert exc.value.key == key
    if key in ("theta_p", "phi_p"):
        with pytest.raises(ConfigError):
            PumpConfig(405.0).with_tilt(**{"theta_p": 0.1, "phi_p": 0.0,
                                           key: value})


def test_ring_solve_converts_no_angles_and_the_target_one(monkeypatch):
    calls = []
    angles = vecgeom.angles_from_direction
    monkeypatch.setattr(vecgeom, "angles_from_direction",
                        lambda v: calls.append(v) or angles(v))
    tilted = PumpConfig(405.0, math.radians(7.0), math.radians(90.0))
    for spec, pump in ((BBO_SPEC, PUMP_405), (LIIO3_SPEC, PUMP_351),
                       (BBO_SPEC, tilted)):
        phasematch.degenerate_emission_angle(spec, pump, math.radians(30.0))
    assert calls == []
    source = maps.SourceConfig(
        BBO_SPEC, BBO_SPEC.with_axis(BBO_SPEC.axis_theta, 0.5 * math.pi),
        PUMP_405)
    coord, delta = compensation.tracked_target(source)
    assert len(calls) == 1
    assert math.degrees(delta) == pytest.approx(3.217150150351431, abs=1e-6)
    assert coord.theta == pytest.approx(delta, abs=1e-15)


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from([("bbo", BBO_SPEC, PUMP_405),
                             ("liio3", LIIO3_SPEC, PUMP_351)]),
       theta_deg=st.floats(0.0, 10.0),
       phi=st.floats(-4.0 * math.pi, 4.0 * math.pi),
       frac=st.floats(0.45, 0.55))
def test_mismatch_matches_the_scalar_oracle(case, theta_deg, phi, frac):
    name, spec, pump = case
    signal = EmissionCoord(frac * pump.omega, math.radians(theta_deg), phi)
    got = phasematch.delta_kappa(signal, pump, spec)
    want = scalar_oracle.mismatch_per_mm(
        name, math.degrees(spec.axis_theta), pump.wavelength_nm, theta_deg,
        frac)
    assert abs(got - want) <= 1e-9


def test_mismatch_on_arrays_is_its_float_calls_bitwise():
    rng = np.random.default_rng(5)
    tilted = PUMP_405.with_tilt(math.radians(7.0), math.radians(90.0))
    for spec, pump in ((BBO_SPEC, PUMP_405), (LIIO3_SPEC, PUMP_351),
                       (BBO_SPEC, tilted)):
        state = phasematch.pump_internal_state(pump, spec)
        w_s = 0.48 * pump.omega
        sx, sy = vecgeom._transverse(rng.uniform(0.0, 0.1, 64),
                                     rng.uniform(-math.pi, math.pi, 64))
        got = phasematch._mismatch(pump, spec, state, w_s, sx, sy)
        want = [phasematch._mismatch(pump, spec, state, w_s, x, y)
                for x, y in zip(sx.tolist(), sy.tolist())]
        assert isinstance(got, np.ndarray) and np.isfinite(got).all()
        assert got.tobytes() == np.array(want).tobytes()


# ------------------------------------------------- the ring solve on floats

@settings(max_examples=300, deadline=None)
@given(theta_p=st.floats(0.0, math.radians(80.0)),
       phi_p=st.floats(-4.0 * math.pi, 4.0 * math.pi),
       delta=st.floats(0.0, math.radians(15.0)),
       phi=st.floats(-4.0 * math.pi, 4.0 * math.pi))
def test_float_cone_point_is_the_matrix_cone_point(theta_p, phi_p, delta,
                                                   phi):
    tilt = vecgeom.tilt_rotation(theta_p, phi_p)
    want = vecgeom.apply_rotation(
        tilt, vecgeom.direction_from_angles(delta, phi))
    if not want[2] > 0.0:
        theta = math.degrees(math.acos(max(-1.0, want[2])))
        with pytest.raises(KinematicsError) as err:
            phasematch._cone_point(tilt.tolist(), delta, phi)
        assert str(err.value) == (f"cone point at polar angle {theta:.6g} "
                                  f"deg does not leave through the exit face")
        return
    got = phasematch._cone_point(tilt.tolist(), delta, phi)
    assert [type(c) for c in got] == [float, float, float]
    assert np.max(np.abs(np.array(got) - want)) <= 1e-15


def test_ring_solve_builds_no_numpy_vectors(monkeypatch):
    calls = []
    for name in ("direction_from_angles", "apply_rotation"):
        monkeypatch.setattr(
            vecgeom, name,
            lambda *a, _f=getattr(vecgeom, name), _n=name:
                calls.append(_n) or _f(*a))
    tilted = PumpConfig(405.0, math.radians(7.0), math.radians(90.0))
    for spec, pump in ((BBO_SPEC, PUMP_405), (LIIO3_SPEC, PUMP_351),
                       (BBO_SPEC, tilted)):
        phasematch.degenerate_emission_angle(spec, pump, math.radians(30.0))
        compensation.tracked_target(maps.SourceConfig(spec, spec, pump))
    assert calls == []


def _parent_mismatch_per_mm(signal, pump, spec):
    """k_pz - k_sz - k_iz (1/mm) with the pump's k_z rebuilt from its index
    and transverse wavevector, and the idler's q from q_p - q_s."""
    c = crystal.C_NM_FS
    n_p = phasematch.pump_internal_state(pump, spec).index
    w_p, w_s = pump.omega, signal.omega
    w_i = w_p - w_s
    qpx, qpy = pump.transverse_q()
    qsx, qsy = signal.transverse_q()
    n_s = crystal._indices(spec.material, w_s)[1]
    n_i = crystal._indices(spec.material, w_i)[1]
    s_s2 = math.sin(signal.theta) ** 2
    s_i2 = ((qpx - qsx) ** 2 + (qpy - qsy) ** 2) * (c / w_i) ** 2
    return (math.sqrt((n_p * w_p / c) ** 2 - (qpx * qpx + qpy * qpy))
            - math.sqrt((w_s / c) ** 2 * (n_s * n_s - s_s2))
            - math.sqrt((w_i / c) ** 2 * (n_i * n_i - s_i2))) * 1e6


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from([(BBO_SPEC, PUMP_405), (LIIO3_SPEC, PUMP_351)]),
       theta_p=st.floats(0.0, math.radians(60.0)),
       phi_p=st.floats(-math.pi, math.pi),
       delta=st.floats(0.0, math.radians(6.0)),
       phi=st.floats(-math.pi, math.pi),
       frac=st.floats(0.47, 0.53))
def test_mismatch_reads_the_pump_kz_of_the_parent_law(case, theta_p, phi_p,
                                                      delta, phi, frac):
    # signals near the tilted pump's cone, so that the partner propagates
    spec, pump = case
    pump = pump.with_tilt(theta_p, phi_p)
    frame = vecgeom.tilt_rotation(theta_p, phi_p).tolist()
    ang = vecgeom.angles_from_direction(
        phasematch._cone_point(frame, delta, phi))
    signal = EmissionCoord(frac * pump.omega, ang.theta, ang.phi)
    got = phasematch.delta_kappa(signal, pump, spec)
    assert abs(got - _parent_mismatch_per_mm(signal, pump, spec)) <= 1e-9
