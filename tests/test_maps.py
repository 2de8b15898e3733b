"""Pointwise phase/delay kernels, grid sweeps, and profile fitting.

Frozen literals were produced by evaluating this package's own kernels at
pinned configurations and are regression anchors; the surrounding
property checks (oracle agreement, exactness identities, determinism) are
what actually validate the physics.
"""

import math
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spdcmaps import compensation, config, crystal, maps, phasematch, vecgeom
from spdcmaps.errors import (ConfigError, FitError, KinematicsError,
                             RangeError)
from spdcmaps.phasematch import EmissionCoord, PumpConfig

import scalar_oracle

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "configs")


def make_source(mat, cut_deg, lam_nm, d_mm, **kw):
    m = crystal.get_material(mat)
    c1 = crystal.CrystalSpec(m, d_mm, math.radians(cut_deg), 0.0)
    c2 = crystal.CrystalSpec(m, d_mm, math.radians(cut_deg), math.radians(90.0))
    return maps.SourceConfig(c1, c2, PumpConfig(lam_nm), **kw)


LI = make_source("LiIO3", 51.95, 351.1, 0.59)
BBO = make_source("BBO", 29.3, 405.0, 0.6)
W_LI = 0.5 * LI.pump.omega
W_BBO = 0.5 * BBO.pump.omega
L_MM = 1200.0


def coord_at(x_mm, y_mm, omega, L=L_MM):
    th, ph = vecgeom.detection_point_to_angles(x_mm, y_mm, L)
    return EmissionCoord(omega, float(th), float(ph))


# ------------------------------------------------------- pointwise phase

def test_phase_frozen_liio3_profile():
    center = math.degrees(maps.relative_phase(LI, coord_at(0.0, 0.0, W_LI)))
    edge_p = math.degrees(maps.relative_phase(LI, coord_at(60.0, 0.0, W_LI)))
    edge_m = math.degrees(maps.relative_phase(LI, coord_at(-60.0, 0.0, W_LI)))
    assert center == pytest.approx(1077098.8900481628, abs=1e-5)
    assert edge_p == pytest.approx(1078446.6040423552, abs=1e-5)
    assert edge_m == pytest.approx(edge_p, abs=1e-8)
    assert edge_p - center == pytest.approx(1347.7139941924, abs=1e-5)


def test_phase_frozen_bbo():
    center = math.degrees(maps.relative_phase(BBO, coord_at(0.0, 0.0, W_BBO)))
    edge = math.degrees(maps.relative_phase(BBO, coord_at(60.0, 0.0, W_BBO)))
    assert center == pytest.approx(869380.2819378691, abs=1e-5)
    assert edge == pytest.approx(870744.9443722473, abs=1e-5)


def test_phase_offset_additivity():
    a = math.radians(30.0)
    shifted = replace(LI, pump=replace(LI.pump, phase_offset=a))
    for x in (-45.0, 0.0, 33.0):
        c = coord_at(x, 12.0, W_LI)
        base = maps.relative_phase(LI, c)
        assert maps.relative_phase(shifted, c) - base == pytest.approx(
            a, abs=1e-10)


def test_phase_matches_scalar_trig_reference():
    for x in np.linspace(-60.0, 60.0, 21):
        vec = math.degrees(maps.relative_phase(LI, coord_at(x, 0.0, W_LI)))
        ref = scalar_oracle.horizontal_phase_deg("liio3", 0.59, 51.95, 351.1,
                                                 x, L_MM)
        assert abs(vec - ref) < 1e-6
    for x in (-50.0, 10.0, 50.0):
        vec = math.degrees(maps.relative_phase(BBO, coord_at(x, 0.0, W_BBO)))
        ref = scalar_oracle.horizontal_phase_deg("bbo", 0.6, 29.3, 405.0,
                                                 x, L_MM)
        assert abs(vec - ref) < 1e-6


def test_phase_symmetric_under_pair_swap():
    # evaluating at the partner's coordinate sums the same two terms
    sig = coord_at(25.0, -10.0, crystal.omega_from_nm(690.0))
    idl = phasematch.conjugate(sig, LI.pump)
    a = maps.relative_phase(LI, sig)
    b = maps.relative_phase(LI, idl)
    assert a == pytest.approx(b, rel=1e-12)


def test_phase_z_offset_term():
    lam = 690.0
    sig = coord_at(20.0, 5.0, crystal.omega_from_nm(lam))
    base = maps.relative_phase(LI, sig)
    on = replace(LI, include_z_offset_phase=True)
    w_i = LI.pump.omega - sig.omega
    d = LI.crystal1.length_mm   # equal plates: offset is mu-free
    expect = (sig.omega + w_i) * (d * 1e6 / crystal.C_NM_FS)
    got = maps.relative_phase(on, sig) - base
    assert got == pytest.approx(expect, rel=1e-9)
    for mu in (0.0, 1.0):
        assert maps.relative_phase(replace(on, mu=mu), sig) == pytest.approx(
            maps.relative_phase(on, sig), abs=1e-9)


def test_phase_rejects_impossible_partner():
    with pytest.raises(KinematicsError):
        maps.relative_phase(LI, EmissionCoord(LI.pump.omega * 1.5, 0.01, 0.0))


def test_pointwise_photon_grazing_the_face_is_a_named_error():
    # the largest polar angle below 90 degrees: its sine rounds to 1
    theta = math.nextafter(math.pi / 2, 0.0)
    assert math.sin(theta) == 1.0
    for source, w in ((LI, W_LI), (BBO, W_BBO)):
        coord = EmissionCoord(w, theta, 0.0)
        for call in (maps.time_delay, maps.time_intervals):
            with pytest.raises(KinematicsError,
                               match="^photon grazes the face$"):
                call(source, coord, "s")
        # the partner's check comes first
        with pytest.raises(KinematicsError,
                           match="^partner photon is evanescent in air"):
            maps.relative_phase(source, coord)


def test_relative_phase_of_a_grazing_signal_whose_partner_propagates():
    # off degeneracy the partner of a grazing signal stays in the light
    # cone, so relative_phase reaches its own finiteness check
    source = config.build_run_config(config.load_config_file(
        os.path.join(CONFIGS, "bbo_normal.yaml"))).source
    coord = EmissionCoord(0.4 * source.pump.omega,
                          math.nextafter(math.pi / 2, 0.0), 0.0)
    for call in (maps.relative_phase,
                 lambda source, coord: maps.time_delay(source, coord, "s")):
        with pytest.raises(KinematicsError, match="^photon grazes the face$"):
            call(source, coord)
    assert maps.time_delay(source, coord, "i") == pytest.approx(
        106.51707356700172, abs=1e-9)


# --------------------------------------------------- intervals and delay

def test_delay_frozen_values():
    assert maps.time_delay(BBO, EmissionCoord(W_BBO, 0.0, 0.0)) == \
        pytest.approx(-267.28680714228176, abs=1e-6)
    ring = math.radians(3.217150150351431)
    assert maps.time_delay(BBO, EmissionCoord(W_BBO, ring, 0.0)) == \
        pytest.approx(-265.14642565778286, abs=1e-6)
    assert maps.time_delay(LI, EmissionCoord(W_LI, 0.0, 0.0)) == \
        pytest.approx(-1056.7331737186423, abs=1e-6)


def test_delay_equals_interval_difference():
    for source, w in ((LI, W_LI), (BBO, W_BBO)):
        for x, y in ((0.0, 0.0), (40.0, 0.0), (-25.0, 33.0), (10.0, -55.0)):
            c = coord_at(x, y, w)
            t1, t2 = maps.time_intervals(source, c)
            dt = maps.time_delay(source, c)
            assert abs((t1 - t2) - dt) < 1e-12


# each equal-plate normal-incidence source with its degenerate ring angle
RINGS = [(src, phasematch.degenerate_emission_angle(src.crystal1, src.pump))
         for src in (LI, BBO)]


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from([0, 1]),
       convention=st.sampled_from([maps.GROUP_ALONG_RAY,
                                   maps.GROUP_ALONG_WAVEVECTOR]),
       mu=st.floats(0.0, 1.0),
       offset=st.floats(-5.0, 5.0),
       phi=st.floats(-math.pi, math.pi),
       photon=st.sampled_from("si"))
def test_delay_equals_interval_difference_near_the_ring(case, convention, mu,
                                                        offset, phi, photon):
    # equal plates: the pump's and the photon's birth segments are the
    # same legs in both crystals and cancel exactly, so t1 - t2 is dt up
    # to the rounding of t2 + dt, under either group convention
    source, ring = RINGS[case]
    src = replace(source, mu=mu, group_convention=convention)
    theta = max(0.0, ring + math.radians(offset))
    c = EmissionCoord(0.5 * src.pump.omega, theta, phi)
    t1, t2 = maps.time_intervals(src, c, photon)
    assert abs((t1 - t2) - maps.time_delay(src, c, photon)) < 1e-12


def test_leg_law_on_arrays_is_its_float_calls_bitwise():
    rng = np.random.default_rng(26)
    s, az = rng.uniform(0.0, 0.5, 64), rng.uniform(-math.pi, math.pi, 64)
    sx, sy = s * np.cos(az), s * np.sin(az)
    for convention in (maps.GROUP_ALONG_RAY, maps.GROUP_ALONG_WAVEVECTOR):
        src = replace(BBO, group_convention=convention)
        for spec in (src.crystal1, src.crystal2):
            for pol in ("o", "e"):
                cells = maps._leg_fs(src, spec, W_BBO, sx, sy, 0.37, pol)
                points = [maps._leg_fs(src, spec, W_BBO, x, y, 0.37, pol)
                          for x, y in zip(sx.tolist(), sy.tolist())]
                assert all(type(v) is float for v in points)
                assert cells.tolist() == points, (convention, pol)


def test_leg_law_rejects_a_bad_polarization():
    with pytest.raises(ValueError, match="polarization"):
        maps._leg_fs(BBO, BBO.crystal2, W_BBO, 0.0, 0.0, 0.6, "x")


def test_ordinary_leg_along_the_normal_is_the_plain_transit():
    # sqrt(n^2) / n is exactly 1, so the law at (0, 0) is d n_g / c with
    # no path factor: the pump's memoised transit through crystal 1
    for name in ("liio3_normal.yaml", "bbo_normal.yaml"):
        src = config.build_run_config(config.load_config_file(
            os.path.join(CONFIGS, name))).source
        c1, w_p = src.crystal1, src.pump.omega
        ng = crystal._principal_group(c1.material, w_p)[0]
        want = (1e6 / crystal.C_NM_FS) * (c1.length_mm * ng)
        assert maps._leg_fs(src, c1, w_p, 0.0, 0.0, c1.length_mm, "o") == want
        assert src._pump_transit1 == want
        n_o = crystal._indices(c1.material, w_p)[1]
        assert crystal._ordinary_kz(n_o, 0.0, 0.0) / n_o == 1.0


def test_delay_independent_of_birth_depth():
    c = coord_at(30.0, 20.0, W_BBO)
    vals = [maps.time_intervals(replace(BBO, mu=mu), c) for mu in
            (0.0, 0.25, 0.5, 1.0)]
    diffs = [t1 - t2 for t1, t2 in vals]
    assert max(diffs) - min(diffs) < 1e-12
    # and the intervals themselves do move with mu
    assert abs(vals[0][0] - vals[-1][0]) > 1.0


def _transit_pieces(source, coord):
    """Independent reconstruction of the extraordinary transit factors."""
    spec2 = source.crystal2
    k_air = vecgeom.direction_from_angles(coord.theta, coord.phi)
    K, n = vecgeom.refract_into_extraordinary(
        k_air, np.array([0.0, 0.0, 1.0]), 1.0, coord.omega, spec2)
    ray = crystal.walkoff_ray(K, spec2, coord.omega)
    cos_rho = float(vecgeom.dot3(K, ray))
    ca_ray = float(vecgeom.dot3(ray, spec2.axis_direction()))
    ng_eff = crystal.group_index(spec2.material, coord.omega, "e",
                                 cos_alpha=ca_ray) * cos_rho
    return ng_eff, float(ray[2])


def test_interval_boundary_pair_born_at_entry():
    # mu = 1: the pump crosses the full birth plate, the pair none of it
    src = replace(BBO, mu=1.0)
    c = coord_at(35.0, 0.0, W_BBO)
    t1, t2 = maps.time_intervals(src, c)
    k = 1e6 / crystal.C_NM_FS
    d = BBO.crystal1.length_mm
    w_p = BBO.pump.omega
    st1 = phasematch.pump_internal_state(BBO.pump, BBO.crystal1)
    st2 = phasematch.pump_internal_state(BBO.pump, BBO.crystal2)
    ng_pe1 = crystal.group_index(BBO.crystal1.material, w_p, "e",
                                 cos_alpha=math.cos(st1.alpha))
    ng_pe2 = crystal.group_index(BBO.crystal2.material, w_p, "e",
                                 cos_alpha=math.cos(st2.alpha))
    ng_po = crystal.group_index(BBO.crystal1.material, w_p, "o")
    ng_eff, rz = _transit_pieces(BBO, c)
    assert t1 == pytest.approx(k * (d * ng_pe1 + d * ng_eff / rz), abs=1e-9)
    assert t2 == pytest.approx(k * (d * ng_po + d * ng_pe2), abs=1e-9)


def test_interval_boundary_pair_born_at_exit():
    # mu = 0: the pair crosses its full birth plate on the ordinary branch
    src = replace(BBO, mu=0.0)
    c = coord_at(35.0, 0.0, W_BBO)
    t1, t2 = maps.time_intervals(src, c)
    k = 1e6 / crystal.C_NM_FS
    d = BBO.crystal1.length_mm
    s = math.sin(c.theta)
    n_o = BBO.crystal1.material.index_o(c.wavelength_nm)
    kz = math.sqrt(n_o * n_o - s * s) / n_o
    ng_o = crystal.group_index(BBO.crystal1.material, c.omega, "o")
    ng_po = crystal.group_index(BBO.crystal1.material, BBO.pump.omega, "o")
    ng_eff, rz = _transit_pieces(BBO, c)
    assert t1 == pytest.approx(k * (d * ng_o / kz + d * ng_eff / rz), abs=1e-9)
    assert t2 == pytest.approx(k * (d * ng_po + d * ng_o / kz), abs=1e-9)


def test_pointwise_transits_compute_one_group_index_per_call(monkeypatch):
    # the pump's group indices and the ordinary ones at a frequency are
    # fixed per source and frequency; only the extraordinary one along the
    # photon's ray is computed per call
    calls = []
    real = crystal.group_index

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(crystal, "group_index", counted)
    src = replace(BBO, mu=0.3)
    for fn in (maps.time_intervals, maps.time_delay):
        for photon in ("s", "i"):
            fn(src, coord_at(10.0, 5.0, W_BBO), photon)
            calls.clear()
            fn(src, coord_at(-20.0, 15.0, W_BBO), photon)
            assert len(calls) == 1


def test_warm_pointwise_transits_compute_no_fit_slope(monkeypatch):
    # both fit slopes are fixed per (material, omega) and memoised beside
    # the principal group indices, where group_index's angle path reads them
    src = replace(BBO, mu=0.3)
    runs = [(fn, photon) for fn in (maps.time_intervals, maps.time_delay)
            for photon in ("s", "i")]
    for fn, photon in runs:
        fn(src, coord_at(10.0, 5.0, W_BBO), photon)
    calls = []
    real = crystal._fit_slope
    monkeypatch.setattr(crystal, "_fit_slope",
                        lambda *a: calls.append(a) or real(*a))
    for fn, photon in runs:
        fn(src, coord_at(-20.0, 15.0, W_BBO), photon)
    assert calls == []


def test_partner_delay_is_delay_at_partner_coordinate():
    sig = coord_at(28.0, 14.0, crystal.omega_from_nm(690.0))
    idl = phasematch.conjugate(sig, LI.pump)
    assert maps.time_delay(LI, sig, photon="i") == \
        maps.time_delay(LI, idl, photon="s")
    with pytest.raises(ValueError):
        maps.time_delay(LI, sig, photon="x")


def test_delay_pair_symmetric_in_horizontal_plane():
    # the plane perpendicular to the second plate's axis plane is the
    # symmetry plane: both degenerate photons accumulate equal delays
    for phi in (0.0, math.pi):
        for th_deg in (0.5, 1.4, 2.9):
            c = EmissionCoord(W_BBO, math.radians(th_deg), phi)
            assert maps.time_delay(BBO, c, "s") == pytest.approx(
                maps.time_delay(BBO, c, "i"), abs=1e-12)
    # off that plane the two histories are genuinely different
    c = EmissionCoord(W_BBO, math.radians(2.0), math.pi / 2)
    assert abs(maps.time_delay(BBO, c, "s")
               - maps.time_delay(BBO, c, "i")) > 0.5


def test_delay_split_changes_sign_across_degeneracy():
    th, ph = vecgeom.detection_point_to_angles(30.0, 0.0, L_MM)
    splits = []
    for lam in (690.0, 702.2, 715.0):
        c = EmissionCoord(crystal.omega_from_nm(lam), float(th), float(ph))
        splits.append(maps.time_delay(LI, c, "s") - maps.time_delay(LI, c, "i"))
    assert splits[0] > 1.0 and splits[2] < -1.0
    assert abs(splits[1]) < 1e-6


def test_group_convention_changes_delay():
    c = EmissionCoord(W_LI, math.radians(2.0), 0.0)
    ray = maps.time_delay(LI, c)
    wv = maps.time_delay(replace(LI, group_convention="wavevector"), c)
    assert abs(ray - wv) > 1.0


# ----------------------------------------------------------- grid sweeps

def test_single_cell_sweep_matches_pointwise():
    gs = maps.GridSpec(1, 1, 23.0, 23.0, -7.0, -7.0)
    pm = maps.sweep_phase_map(LI, gs)
    c = coord_at(23.0, -7.0, W_LI)
    assert pm.values[0].shape == (1, 1)
    assert pm.values[0][0, 0] == math.degrees(maps.relative_phase(LI, c))
    dm = maps.sweep_delay_map(LI, gs)
    assert dm.values[0][0, 0] == maps.time_delay(LI, c, "s")
    assert dm.values[1][0, 0] == maps.time_delay(LI, c, "i")


def test_pointwise_calls_reproduce_every_sweep_cell():
    gs = maps.GridSpec(41, 41, -60.0, 60.0, -60.0, 60.0)
    for source, filter_nm in ((LI, None), (BBO, 702.2)):
        pm = maps.sweep_phase_map(source, gs, filter_center_nm=filter_nm)
        dm = maps.sweep_delay_map(source, gs, filter_center_nm=filter_nm)
        w = (crystal.omega_from_nm(filter_nm) if filter_nm
             else 0.5 * source.pump.omega)
        xs, ys = gs.axes()
        for i, y in enumerate(ys):
            # cell angles built as the sweep builds them, one row at a time
            th, ph = vecgeom.detection_point_to_angles(xs, y, L_MM)
            for j in range(gs.nx):
                c = EmissionCoord(w, float(th[j]), float(ph[j]))
                assert math.degrees(maps.relative_phase(source, c)) == \
                    pm.values[0][i, j]
                assert maps.time_delay(source, c, "s") == dm.values[0][i, j]
                assert maps.time_delay(source, c, "i") == dm.values[1][i, j]


def test_pointwise_calls_return_plain_floats():
    # the kernels run on 0-d values; no numpy scalar or 0-d array leaks
    for source, w in ((LI, W_LI), (BBO, W_BBO)):
        c = coord_at(25.0, -10.0, w)
        for value in (maps.relative_phase(source, c),
                      maps.time_delay(source, c, "s"),
                      maps.time_delay(source, c, "i")):
            assert type(value) is float
        for photon in "si":
            pair = maps.time_intervals(source, c, photon)
            assert type(pair) is tuple and len(pair) == 2
            assert all(type(t) is float for t in pair)


def test_transit_components_match_the_vector_path():
    # reference: the stacked air-side wavevector refracted through the
    # general-normal vector path, then the stacked surface-normal ray
    rng = np.random.default_rng(11)
    r = np.sqrt(rng.uniform(0.0, 0.95, 60))
    ph = rng.uniform(-math.pi, math.pi, 60)
    # extra rows: normal incidence, s^2 = 1 and s^2 > 1 (no wave in air),
    # a grazing direction, and NaN components
    sx = np.concatenate([r * np.cos(ph), [0.0, 1.0, 0.8, -0.3, np.nan]])
    sy = np.concatenate([r * np.sin(ph), [0.0, 0.0, 0.7, -0.95, np.nan]])
    sx, sy = sx.reshape(5, 13), sy.reshape(5, 13)
    s2 = sx * sx + sy * sy
    k_air = np.stack(np.broadcast_arrays(
        sx, sy, np.sqrt(np.where(s2 < 1.0, 1.0 - s2, np.nan))), axis=-1)
    Z = np.array([0.0, 0.0, 1.0])
    for mat, cut, nms in (("BBO", 29.3, (405.0, 702.2, 810.0)),
                          ("LiIO3", 51.95, (351.1, 702.2, 810.0))):
        for phi_a in (0.0, 37.0, 90.0):
            spec = crystal.CrystalSpec(crystal.get_material(mat), 1.0,
                                       math.radians(cut), math.radians(phi_a))
            for nm in nms:
                w = crystal.omega_from_nm(nm)
                K, n = vecgeom.refract_into_extraordinary(k_air, Z, 1.0, w, spec)
                ray, cos_rho, ca_ray, ca_k = crystal._surface_normal_ray(
                    K, spec, w)
                ref = {"n": n, "ca_k": ca_k, "ca_ray": ca_ray,
                       "cos_rho": cos_rho, "rx": ray[..., 0],
                       "ry": ray[..., 1], "rz": ray[..., 2],
                       "valid": np.isfinite(n) & (ray[..., 2] > 0.0)}
                t = maps._Transit(spec, w, sx, sy)
                for name, want in ref.items():
                    got = getattr(t, name)
                    assert got.shape == (5, 13), name
                    assert np.array_equal(got, want, equal_nan=True), \
                        (mat, phi_a, nm, name)
                assert np.count_nonzero(t.valid) == 62


def test_zero_d_transit_equals_its_array_row_bitwise():
    # the rows of the vector-path comparison above, one 0-d transit each
    rng = np.random.default_rng(11)
    r = np.sqrt(rng.uniform(0.0, 0.95, 60))
    ph = rng.uniform(-math.pi, math.pi, 60)
    sx = np.concatenate([r * np.cos(ph), [0.0, 1.0, 0.8, -0.3, np.nan]])
    sy = np.concatenate([r * np.sin(ph), [0.0, 0.0, 0.7, -0.95, np.nan]])
    # no wave in air: s^2 = 1, s^2 > 1 and the NaN row
    dark = ~(sx * sx + sy * sy < 1.0)
    for mat, cut, nms in (("BBO", 29.3, (405.0, 702.2, 810.0)),
                          ("LiIO3", 51.95, (351.1, 702.2, 810.0))):
        for phi_a in (0.0, 37.0, 90.0):
            spec = crystal.CrystalSpec(crystal.get_material(mat), 1.0,
                                       math.radians(cut), math.radians(phi_a))
            for nm in nms:
                w = crystal.omega_from_nm(nm)
                rows = vecgeom._Transit(spec, w, sx, sy)
                p_signs = set()
                for i in range(sx.size):
                    one = vecgeom._Transit(spec, w, sx[i], sy[i])
                    for name in vecgeom._Transit.__slots__:
                        got, want = getattr(one, name), getattr(rows, name)[i]
                        assert np.ndim(got) == 0
                        assert np.array_equal(got, want, equal_nan=True), \
                            (mat, phi_a, nm, i, name)
                    # the clamp keeps a NaN discriminant NaN
                    assert math.isnan(one.kz) == dark[i]
                    p_signs.add(np.sign(sx[i] * spec._axis[0]
                                        + sy[i] * spec._axis[1]))
                # hb = A p a_z takes both signs with p
                assert {-1.0, 1.0} <= p_signs


def test_pointwise_calls_make_no_zero_d_selection(monkeypatch):
    # np.where and np.maximum on a 0-d value cost microseconds where a
    # numpy-scalar operation costs a tenth of one; pointwise calls select
    # without them, sweeps with them
    seen = []
    for name in ("where", "maximum"):
        def spy(first, *args, _real=getattr(np, name), _name=name, **kw):
            seen.append((_name, isinstance(first, np.ndarray)
                         and first.ndim > 0))
            return _real(first, *args, **kw)
        monkeypatch.setattr(np, name, spy)
    tilt = (math.radians(52.0), math.radians(90.0))
    tilted = compensation.constrained_pump_state(
        BBO.pump.with_tilt(*tilt), BBO)
    cells = [(BBO, coord_at(25.0, -10.0, W_BBO)),
             (LI, coord_at(-40.0, 15.0, W_LI)),
             (tilted, EmissionCoord(W_BBO, math.radians(50.0),
                                    math.radians(90.0)))]
    for source, c in cells:
        fresh = replace(source)  # its pump states are solved afresh
        assert math.isfinite(maps.relative_phase(fresh, c))
        for photon in ("s", "i"):
            assert math.isfinite(maps.time_delay(fresh, c, photon))
        assert all(map(math.isfinite, maps.time_intervals(fresh, c)))
    assert [s for s in seen if not s[1]] == []
    maps.sweep_delay_map(BBO, maps.GridSpec(3, 2, -20.0, 20.0, -5.0, 5.0))
    assert seen and all(array for _, array in seen)


def test_pointwise_calls_take_no_numpy_root(monkeypatch):
    # a pointwise call runs its kernels on plain floats: crystal._sqrt
    # takes math.sqrt there, and np.sqrt only on the sweeps' arrays
    tilted = compensation.constrained_pump_state(
        BBO.pump.with_tilt(math.radians(52.0), math.radians(90.0)), BBO)
    cells = [(BBO, coord_at(25.0, -10.0, W_BBO)),
             (LI, coord_at(-40.0, 15.0, W_LI)),
             (tilted, EmissionCoord(W_BBO, math.radians(50.0),
                                    math.radians(90.0)))]
    calls = [(maps.relative_phase, ()), (maps.time_delay, ("s",)),
             (maps.time_delay, ("i",)), (maps.time_intervals, ())]
    for source, c in cells:  # fills the dispersion memo and pump states
        for fn, args in calls:
            fn(source, c, *args)
    roots = []
    sqrt = np.sqrt

    def spy(x, *args, **kw):
        roots.append(isinstance(x, np.ndarray) and x.ndim > 0)
        return sqrt(x, *args, **kw)
    monkeypatch.setattr(np, "sqrt", spy)
    for source, c in cells:
        for fn, args in calls:
            fn(source, c, *args)
            assert roots == [], (fn.__name__, args)
    maps.sweep_delay_map(BBO, maps.GridSpec(3, 2, -20.0, 20.0, -5.0, 5.0))
    assert roots and all(roots)


def test_transit_on_floats_holds_floats():
    for source, w in ((BBO, W_BBO), (LI, W_LI)):
        t = vecgeom._Transit(source.crystal2, w, 0.05, -0.02)
        for name in vecgeom._Transit.__slots__:
            assert type(getattr(t, name)) is float, name


def test_repeated_pointwise_calls_evaluate_no_sellmeier_fit(monkeypatch):
    # the principal indices are memoised per (material, omega), so once a
    # source has been used its pointwise calls reuse them
    c = coord_at(25.0, -10.0, W_BBO)
    calls = [(maps.relative_phase, ()), (maps.time_delay, ("s",)),
             (maps.time_delay, ("i",)), (maps.time_intervals, ("s",)),
             (maps.time_intervals, ("i",))]
    first = [fn(BBO, c, *args) for fn, args in calls]
    fits = []
    index = crystal.SellmeierFit.index

    def counted(self, lam_nm):
        fits.append(lam_nm)
        return index(self, lam_nm)
    monkeypatch.setattr(crystal.SellmeierFit, "index", counted)
    for _ in range(3):
        assert [fn(BBO, c, *args) for fn, args in calls] == first
    assert fits == []


def test_time_intervals_solves_the_pump_once_per_source(monkeypatch):
    solves = []
    solve = phasematch.pump_internal_state

    def counted(pump, spec):
        solves.append(spec)
        return solve(pump, spec)
    monkeypatch.setattr(phasematch, "pump_internal_state", counted)
    src = make_source("BBO", 29.3, 405.0, 0.6)
    for x in (0.0, 20.0, -35.0):
        for photon in "si":
            maps.time_intervals(src, coord_at(x, 5.0, W_BBO), photon)
    assert solves == [src.crystal1, src.crystal2]
    # replace() builds a new source, with its own pump states
    maps.time_intervals(replace(src, mu=0.25), coord_at(0.0, 0.0, W_BBO))
    assert len(solves) == 4


def test_sweep_worker_count_invariance():
    gs = maps.GridSpec(31, 29, -60.0, 60.0, -60.0, 60.0)
    ref = maps.sweep_phase_map(LI, gs, workers=1)
    for w in (2, 3, 8):
        assert maps.sweep_phase_map(LI, gs, workers=w).same_data(ref)
    dref = maps.sweep_delay_map(BBO, gs, workers=1)
    assert maps.sweep_delay_map(BBO, gs, workers=5).same_data(dref)


def _rows_one_at_a_time(sweep, source, gs, **kw):
    """The grid's rows swept as separate one-row grids, restacked."""
    planes = [sweep(source, maps.GridSpec(gs.nx, 1, gs.x_min, gs.x_max, y, y,
                                          mode=gs.mode), **kw).values
              for y in gs.axes()[1]]
    return [np.vstack(rows) for rows in zip(*planes)]


def _assert_rowwise_equal(source, gs, **kw):
    for sweep in (maps.sweep_phase_map, maps.sweep_delay_map):
        whole = sweep(source, gs, **kw).values
        for a, b in zip(whole, _rows_one_at_a_time(sweep, source, gs, **kw)):
            assert np.array_equal(a, b, equal_nan=True)


def test_sweep_ragged_last_chunk_matches_single_rows():
    nx = 1000
    rows = maps._CHUNK_CELLS // nx
    ny = rows + rows // 2 + 1
    assert rows > 1 and ny % rows != 0
    gs = maps.GridSpec(nx, ny, 0.5, 60.0, 0.0, 90.0, mode=maps.ANGULAR_MODE)
    # the far partner goes evanescent, so NA cells are compared too
    _assert_rowwise_equal(LI, gs, filter_center_nm=600.0)


def test_sweep_rows_wider_than_a_chunk_match_single_rows():
    gs = maps.GridSpec(maps._CHUNK_CELLS + 5, 2, -60.0, 60.0, -60.0, 60.0)
    _assert_rowwise_equal(BBO, gs)


def test_sweep_resolution_doubling_reproduces_cells():
    coarse = maps.sweep_phase_map(LI, maps.GridSpec(33, 17, -60, 60, -40, 40))
    fine = maps.sweep_phase_map(LI, maps.GridSpec(65, 33, -60, 60, -40, 40))
    assert np.array_equal(fine.values[0][::2, ::2], coarse.values[0])


def test_sweep_angular_mode():
    gs = maps.GridSpec(41, 3, -3.0, 3.0, 0.0, 180.0, mode=maps.ANGULAR_MODE)
    pm = maps.sweep_phase_map(LI, gs)
    assert pm.coord_names == ("theta_deg", "phi_deg")
    v = pm.values[0]
    assert np.all(np.isfinite(v))
    # signed polar angle at phi = 0 walks the same great circle as the
    # detection-plane horizontal line
    row0 = v[0, :]
    assert row0[0] == pytest.approx(row0[-1], abs=1e-6)


def test_sweep_marks_evanescent_partners():
    gs = maps.GridSpec(40, 1, 0.5, 60.0, 0.0, 0.0, mode=maps.ANGULAR_MODE)
    dm = maps.sweep_delay_map(LI, gs, filter_center_nm=600.0)
    dts, dti = dm.values
    assert np.all(np.isfinite(dts))           # detected photon always lands
    assert np.any(np.isnan(dti))              # far partner goes evanescent
    assert np.any(np.isfinite(dti))
    pm = maps.sweep_phase_map(LI, gs, filter_center_nm=600.0)
    assert np.array_equal(np.isnan(pm.values[0]), np.isnan(dti))


def test_sweep_metadata_snapshot():
    gs = maps.GridSpec(3, 3, -10, 10, -10, 10)
    pm = maps.sweep_phase_map(LI, gs)
    assert pm.metadata["filter_nm"] == pytest.approx(702.2)
    src = pm.metadata["source"]
    assert src["crystal2"]["axis_phi_deg"] == pytest.approx(90.0)
    assert src["detection_distance_mm"] == 1200.0
    assert pm.kind == "phase" and pm.mode == maps.DETECTION_MODE


def test_wrapped_phase_plane():
    gs = maps.GridSpec(5, 5, -30, 30, -30, 30)
    pm = maps.sweep_phase_map(LI, gs)
    w = pm.wrapped()
    assert np.all((w >= 0.0) & (w < 360.0))
    dm = maps.sweep_delay_map(LI, gs)
    with pytest.raises(ValueError):
        dm.wrapped()


def test_grid_spec_validation():
    with pytest.raises(ConfigError):
        maps.GridSpec(0, 5, 0, 1, 0, 1)
    with pytest.raises(ConfigError):
        maps.GridSpec(5, 5, 0, 1, 0, 1, mode="polar")
    for lo, hi in ((95.0, 95.0), (-90.0, 10.0)):
        with pytest.raises(ConfigError, match="grid"):
            maps.GridSpec(1, 1, lo, hi, 0, 0, mode=maps.ANGULAR_MODE)


def test_grid_spec_caps_the_cell_count():
    # a library sweep gets the CLI's named error before any plane exists
    with pytest.raises(ConfigError, match="2\\^24") as err:
        maps.GridSpec(4097, 4097, -60.0, 60.0, -60.0, 60.0)
    assert err.value.key == "grid"
    gs = maps.GridSpec(4096, 4096, -60.0, 60.0, -60.0, 60.0)
    assert gs.nx * gs.ny == 2 ** 24


@pytest.mark.parametrize("nx, ny", [
    (2.5, 3), (3, 2.5), (True, 3), (3, False), ("3", 3), (3.0, 3)])
def test_grid_spec_sizes_are_whole_numbers(nx, ny):
    # unrefused, a float or a bool reaches numpy when the sweep sizes its
    # planes, and a string fails the comparison: bare TypeErrors
    with pytest.raises(ConfigError, match="whole number") as err:
        maps.GridSpec(nx, ny, -60.0, 60.0, -60.0, 60.0)
    assert err.value.key == "grid"
    gs = maps.GridSpec(np.int64(3), 2, -60.0, 60.0, -60.0, 60.0)
    assert maps.sweep_phase_map(LI, gs).values[0].shape == (2, 3)


def test_source_config_validation():
    with pytest.raises(ConfigError):
        replace(LI, mu=1.5)
    with pytest.raises(ConfigError):
        replace(LI, detection_distance_mm=0.0)
    with pytest.raises(ConfigError):
        replace(LI, group_convention="phase")


@pytest.mark.parametrize("distance", [math.nan, math.inf])
def test_source_config_rejects_a_non_finite_detection_distance(distance):
    # unrefused, an infinite distance puts every detection-plane cell on
    # the axis
    with pytest.raises(ConfigError) as exc:
        replace(LI, detection_distance_mm=distance)
    assert exc.value.key == "detection_distance_mm"


# ------------------------------------------------------- profiles / fits

def _synthetic_grid(coeffs, nx=41, L=1200.0):
    xs = np.linspace(-60.0, 60.0, nx)
    ys = np.linspace(-10.0, 10.0, 3)
    t = np.arctan(xs / L)
    c0, c1, c2 = coeffs
    row = c0 + c1 * t + c2 * t * t
    vals = np.tile(row, (3, 1))
    return maps.MapGrid(
        kind="phase", mode=maps.DETECTION_MODE, coord1=xs, coord2=ys,
        coord_names=("x_mm", "y_mm"), value_names=("phase_deg",),
        values=(vals,), metadata={"source": {"detection_distance_mm": L}})


def test_fit_recovers_exact_quadratic():
    fit = maps.fit_quadratic_profile(_synthetic_grid((5.0, 3.0, 7.0)))
    assert fit.c0 == pytest.approx(5.0, abs=1e-10)
    assert fit.c1 == pytest.approx(3.0, abs=1e-10)
    assert fit.c2 == pytest.approx(7.0, abs=1e-10)
    assert fit.rms_residual < 1e-10


def test_fit_pure_linear_has_no_curvature():
    fit = maps.fit_quadratic_profile(_synthetic_grid((2.0, 4.0, 0.0)))
    assert abs(fit.c2) < 1e-10
    assert fit.c1 == pytest.approx(4.0, abs=1e-10)


def test_fit_real_map_profile():
    gs = maps.GridSpec(65, 5, -60.0, 60.0, -10.0, 10.0)
    pm = maps.sweep_phase_map(LI, gs)
    fit = maps.fit_quadratic_profile(pm, "y=0")
    assert fit.rms_residual < 0.01 * fit.span
    assert fit.c2 > 0.0                    # curvature opens upward
    assert abs(fit.c1) * 0.05 < 0.01 * fit.span   # near-even profile
    assert fit.evaluate(0.0) == pytest.approx(fit.c0)
    assert fit.slope(0.01) == pytest.approx(fit.c1 + 0.02 * fit.c2)


def test_profile_line_column_variant():
    gs = maps.GridSpec(9, 21, -20.0, 20.0, -60.0, 60.0)
    pm = maps.sweep_phase_map(LI, gs)
    th, vals = maps.profile_line(pm, "x=0")
    assert len(th) == 21 and len(vals) == 21
    assert th[0] == pytest.approx(-math.atan(60.0 / 1200.0))


def test_profile_line_angular_variant():
    gs = maps.GridSpec(21, 5, -3.0, 3.0, 0.0, 180.0, mode=maps.ANGULAR_MODE)
    pm = maps.sweep_phase_map(LI, gs)
    th, vals = maps.profile_line(pm, "phi=90")
    assert th[-1] == pytest.approx(math.radians(3.0))
    assert len(vals) == 21


def test_profile_line_rejects_bad_spec():
    gs = maps.GridSpec(9, 9, -20, 20, -20, 20)
    pm = maps.sweep_phase_map(LI, gs)
    with pytest.raises(FitError):
        maps.profile_line(pm, "phi=45")
    with pytest.raises(FitError):
        maps.profile_line(pm, "diag")
    ang = maps.sweep_phase_map(
        LI, maps.GridSpec(9, 3, -2, 2, 0, 90, mode=maps.ANGULAR_MODE))
    with pytest.raises(FitError):
        maps.profile_line(ang, "y=0")
    for bad in ("phi=north", "phi=nan", "phi=inf", "phi=-inf"):
        with pytest.raises(FitError, match="bad azimuth"):
            maps.profile_line(ang, bad)


def test_fit_requires_enough_valid_samples():
    g = _synthetic_grid((1.0, 0.0, 1.0), nx=7)
    g.values[0][:, :4] = np.nan
    with pytest.raises(FitError):
        maps.fit_quadratic_profile(g)


# ------------------------------------------- pointwise failures and counts

@settings(max_examples=300, deadline=None)
@given(mat=st.sampled_from(["BBO", "LiIO3"]),
       axis_theta=st.floats(0.0, math.pi),
       axis_phi=st.floats(-math.pi, math.pi),
       frac=st.floats(0.001, 0.999),
       r=st.floats(0.0, 0.999999),
       az=st.floats(-math.pi, math.pi))
def test_transit_from_air_needs_no_root_guard(mat, axis_theta, axis_phi,
                                              frac, r, az):
    # the _Transit argument: from air (|s| < 1) the quadratic always has
    # exactly one positive root and the ray leaves forward, so the bare
    # root equals the guarded one bitwise
    m = crystal.get_material(mat)
    lo, hi = m.valid_nm
    w = crystal.omega_from_nm(lo + frac * (hi - lo))
    spec = crystal.CrystalSpec(m, 1.0, axis_theta, axis_phi)
    sx = np.array([r * math.cos(az), 0.0, -r * math.sin(az)])
    sy = np.array([r * math.sin(az), r, r * math.cos(az)])
    t2 = sx * sx + sy * sy
    assert np.all(t2 < 1.0)
    ax, ay, az_ = spec._axis
    _, n_o, n_ep = crystal._indices(m, w)
    p = sx * ax + sy * ay
    bare, disc = vecgeom._larger_root(p, az_, t2, n_o, n_ep)
    assert np.all(np.isfinite(bare)) and np.all(bare > 0.0)
    assert np.all(disc > 0.0)
    assert np.array_equal(bare, vecgeom._forward_root(p, az_, t2, n_o, n_ep))
    t = maps._Transit(spec, w, sx, sy)
    assert np.all(np.isfinite(t.n)) and np.all(t.rz > 0.0)
    assert np.all(t.valid)


@pytest.mark.parametrize("ratio", [1.0, 1.5])
def test_pointwise_partner_frequency_not_positive(ratio):
    c = EmissionCoord(LI.pump.omega * ratio, 0.01, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: maps.relative_phase(LI, c),
                     lambda: maps.time_delay(LI, c, "i"),
                     lambda: maps.time_intervals(LI, c, "i")):
            with pytest.raises(KinematicsError, match="partner frequency"):
                call()


def test_pointwise_evanescent_partner_is_a_kinematics_error():
    # BBO at 702.2 nm: the 956.9 nm partner leaves air above about 47 deg,
    # while the detected photon itself still lands
    gs = maps.GridSpec(9, 9, 0.0, 80.0, -180.0, 180.0,
                       mode=maps.ANGULAR_MODE)
    pm = maps.sweep_phase_map(BBO, gs, filter_center_nm=702.2)
    dm = maps.sweep_delay_map(BBO, gs, filter_center_nm=702.2)
    w = crystal.omega_from_nm(702.2)
    xs, ys = gs.axes()
    th, ph = np.deg2rad(xs), np.deg2rad(ys)
    nan_cells = 0
    for i in range(gs.ny):
        for j in range(gs.nx):
            c = EmissionCoord(w, float(th[j]), float(ph[i]))
            assert maps.time_delay(BBO, c, "s") == dm.values[0][i, j]
            if np.isfinite(pm.values[0][i, j]):
                assert math.degrees(maps.relative_phase(BBO, c)) == \
                    pm.values[0][i, j]
                assert maps.time_delay(BBO, c, "i") == dm.values[1][i, j]
                continue
            nan_cells += 1
            assert np.isnan(dm.values[1][i, j])
            for call in (lambda: maps.relative_phase(BBO, c),
                         lambda: maps.time_delay(BBO, c, "i"),
                         lambda: maps.time_intervals(BBO, c, "i")):
                with pytest.raises(KinematicsError, match="evanescent"):
                    call()
            maps.time_intervals(BBO, c, "s")
    assert 0 < nan_cells < gs.nx * gs.ny


def test_pointwise_calls_solve_no_conjugate_and_no_pump_frequency(
        monkeypatch):
    c = coord_at(25.0, -10.0, W_BBO)
    calls = [(maps.relative_phase, ()), (maps.time_delay, ("s",)),
             (maps.time_delay, ("i",)), (maps.time_intervals, ("s",)),
             (maps.time_intervals, ("i",))]
    seen = []
    conjugate, omega_from_nm = phasematch.conjugate, crystal.omega_from_nm
    monkeypatch.setattr(phasematch, "conjugate",
                        lambda *a: seen.append("conjugate") or conjugate(*a))
    first = [fn(BBO, c, *args) for fn, args in calls]
    # the pump frequency is held by the source's PumpConfig once read
    monkeypatch.setattr(crystal, "omega_from_nm",
                        lambda *a: seen.append("omega") or omega_from_nm(*a))
    for _ in range(3):
        assert [fn(BBO, c, *args) for fn, args in calls] == first
    assert seen == []


def test_each_operation_applies_the_conservation_law_once(monkeypatch):
    calls = []
    partner = phasematch._partner
    monkeypatch.setattr(phasematch, "_partner",
                        lambda *a: calls.append(a) or partner(*a))
    sig = coord_at(25.0, -10.0, W_BBO)
    one_block = maps.GridSpec(16, 16, -30.0, 30.0, -30.0, 30.0)
    for name, op in (
            ("conjugate", lambda: phasematch.conjugate(sig, BBO.pump)),
            ("delta_kappa",
             lambda: phasematch.delta_kappa(sig, BBO.pump, BBO.crystal1)),
            ("relative_phase", lambda: maps.relative_phase(BBO, sig)),
            ("phase sweep", lambda: maps.sweep_phase_map(BBO, one_block)),
            ("delay sweep", lambda: maps.sweep_delay_map(BBO, one_block))):
        calls.clear()
        op()
        assert len(calls) == 1, name


@pytest.mark.parametrize("x_min, x_max", [
    (0.0, 89.99999999), (-89.9999999, 10.0)])
def test_grid_spec_rejects_a_polar_sine_that_rounds_to_one(x_min, x_max):
    top = max(abs(x_min), abs(x_max))
    assert top < 90.0 and np.sin(np.deg2rad(top)) == 1.0
    with pytest.raises(ConfigError, match="sine") as exc:
        maps.GridSpec(3, 3, x_min, x_max, -10.0, 10.0, mode=maps.ANGULAR_MODE)
    assert exc.value.key == "grid"
    # the next angle down keeps a sine below 1, and the same window in mm
    # on the detection plane is no angle at all
    assert np.sin(np.deg2rad(89.999999)) < 1.0
    maps.GridSpec(3, 3, 0.0, 89.999999, -10.0, 10.0, mode=maps.ANGULAR_MODE)
    maps.GridSpec(3, 3, x_min, x_max, -10.0, 10.0)


@pytest.mark.parametrize("window, mode", [
    ((-1e308, 1e308, -60.0, 60.0), maps.DETECTION_MODE),
    ((-60.0, 60.0, -1e308, 1e308), maps.DETECTION_MODE),
    ((0.0, 5.0, -1e308, 1e308), maps.ANGULAR_MODE)])
def test_grid_spec_rejects_a_window_whose_span_overflows(window, mode):
    # each bound is finite, their difference is not: linspace would
    # spread NaN and inf over the axis
    with pytest.raises(ConfigError, match="span") as exc:
        maps.GridSpec(5, 5, *window, mode=mode)
    assert exc.value.key == "grid"
    # half the bounds span at most 1e308, which is finite
    maps.GridSpec(5, 5, *(0.5 * b for b in window), mode=mode)


def test_sweep_refuses_a_window_whose_farthest_corner_grazes():
    # hypot(60, 60) / 5e-324 overflows; unrefused, the warning escapes
    # the sweep, or the grazing cells come out NaN with no partner at fault
    source = replace(BBO, detection_distance_mm=5e-324)
    with pytest.raises(ConfigError, match="sine below 1") as exc:
        maps.sweep_phase_map(source, maps.GridSpec(4, 3, -60, 60, -60, 60))
    assert exc.value.key == "grid"


@pytest.mark.parametrize("filter_nm", [0.0, math.nan, math.inf, -5.0])
def test_sweep_refuses_a_filter_centre_not_finite_and_positive(filter_nm):
    # only None selects the degenerate signal; 0.0 used to as well
    gs = maps.GridSpec(3, 3, -10, 10, -10, 10)
    for sweep in (maps.sweep_phase_map, maps.sweep_delay_map):
        with pytest.raises(ConfigError) as exc:
            sweep(BBO, gs, filter_center_nm=filter_nm)
        assert exc.value.key == "filter_center_nm"


# ------------------------------------------------------------- symmetries

# (material, pump nm): each shipped material at its shipped pump
_PUMPS = (("BBO", 405.0), ("LiIO3", 351.1))

# 10x the largest gap of a 10 000-draw calibration of each property
MIRROR_PHASE_REL = 4.4e-15
MIRROR_DELAY_FS = 5.5e-11
FLIP_PHASE_REL = 3.3e-15


def _mirror_source(pump, cut1_deg, cut2_deg, d1, d2, tilt_deg,
                   axis1_deg=None):
    """Crystal 2 cut in the y-z plane, crystal 1 in the x-z plane (or at
    axis1_deg, (polar, azimuth)), and the pump tilted by tilt_deg in the
    y-z plane (phi_p 90 deg) with co-rotated axes."""
    m = crystal.get_material(pump[0])
    ax1 = (cut1_deg, 0.0) if axis1_deg is None else axis1_deg
    c1 = crystal.CrystalSpec(m, d1, *map(math.radians, ax1))
    c2 = crystal.CrystalSpec(m, d2, math.radians(cut2_deg), math.radians(90.0))
    p = PumpConfig(pump[1], math.radians(tilt_deg), math.radians(90.0))
    return compensation.constrained_pump_state(
        p, maps.SourceConfig(c1, c2, PumpConfig(pump[1])))


def _cone_coord(source, offset_deg, psi_deg, detune):
    """The signal at frequency (1 + detune) omega_p / 2, offset_deg from
    the pump's external direction at cone azimuth psi_deg."""
    c = phasematch.degenerate_coord(source.pump, math.radians(offset_deg),
                                    math.radians(psi_deg))
    return replace(c, omega=c.omega * (1.0 + detune))


def _phase_and_delays(source, coord):
    """(phase, dt_s, dt_i) at coord; None where the partner is evanescent."""
    try:
        return (maps.relative_phase(source, coord),
                maps.time_delay(source, coord, "s"),
                maps.time_delay(source, coord, "i"))
    except KinematicsError:
        return None


_SOURCE_DRAWS = dict(
    pump=st.sampled_from(_PUMPS), cut1=st.floats(20.0, 40.0),
    cut2=st.floats(20.0, 40.0), d1=st.floats(0.1, 2.0),
    d2=st.floats(0.1, 2.0), tilt=st.floats(0.0, 60.0),
    offset=st.floats(0.0, 8.0), psi=st.floats(-180.0, 180.0),
    detune=st.floats(-0.03, 0.03))


@settings(max_examples=60, deadline=None)
@given(**_SOURCE_DRAWS)
def test_maps_mirror_under_phi_to_180_minus_phi(pump, cut1, cut2, d1, d2,
                                                tilt, offset, psi, detune):
    """With the pump and crystal 2's axis in the y-z plane, x -> -x maps
    the source onto itself: the phase and both delays at (theta, 180 deg -
    phi) equal those at (theta, phi).  A term that mixes x and y, such as
    t.rx * ay in _phase_values, breaks this.  A flipped sign on t.rx, on
    t.ry or on either transverse term of _partner does not, since each
    such term stays even under x -> -x; nor does the walkoff term that
    _phase_values counts twice.  The phi -> -phi property below catches a
    flipped sign on _partner's y term."""
    source = _mirror_source(pump, cut1, cut2, d1, d2, tilt)
    coord = _cone_coord(source, offset, psi, detune)
    here = _phase_and_delays(source, coord)
    assume(here is not None)
    there = _phase_and_delays(source, replace(coord, phi=math.pi - coord.phi))
    assert abs(there[0] - here[0]) <= MIRROR_PHASE_REL * abs(here[0])
    assert abs(there[1] - here[1]) <= MIRROR_DELAY_FS
    assert abs(there[2] - here[2]) <= MIRROR_DELAY_FS


@settings(max_examples=40, deadline=None)
@given(**_SOURCE_DRAWS, axis_theta=st.floats(0.0, 90.0),
       axis_phi=st.floats(-180.0, 180.0))
def test_crystal1_axis_does_not_enter_the_maps(pump, cut1, cut2, d1, d2,
                                               tilt, offset, psi, detune,
                                               axis_theta, axis_phi):
    # crystal 1 carries only the pump's ordinary leg into the maps
    source = _mirror_source(pump, cut1, cut2, d1, d2, tilt)
    moved = _mirror_source(pump, cut1, cut2, d1, d2, tilt,
                           (axis_theta, axis_phi))
    coord = _cone_coord(source, offset, psi, detune)
    here = _phase_and_delays(source, coord)
    assume(here is not None)
    assert list(map(float.hex, _phase_and_delays(moved, coord))) == \
        list(map(float.hex, here))


@settings(max_examples=40, deadline=None)
@given(pump=st.sampled_from(_PUMPS), cut2=st.floats(20.0, 40.0),
       d2=st.floats(0.1, 2.0), theta=st.floats(0.0, 8.0),
       phi=st.floats(-180.0, 180.0))
def test_degenerate_normal_incidence_phase_keeps_phi_to_minus_phi(
        pump, cut2, d2, theta, phi):
    # the pair swap s -> -s composed with the x mirror
    source = _mirror_source(pump, 30.0, cut2, 0.6, d2, 0.0)
    w = 0.5 * source.pump.omega
    a = maps.relative_phase(
        source, EmissionCoord(w, math.radians(theta), math.radians(phi)))
    b = maps.relative_phase(
        source, EmissionCoord(w, math.radians(theta), -math.radians(phi)))
    assert abs(b - a) <= FLIP_PHASE_REL * abs(a)


# ------------------------------------------- one cell record, many planes

@pytest.mark.parametrize("photon", [None, "S", "si", ""])
def test_pointwise_photon_must_be_s_or_i(photon):
    c = coord_at(10.0, 5.0, W_BBO)
    for fn in (maps.time_delay, maps.time_intervals):
        with pytest.raises(ValueError, match="photon must be 's' or 'i'"):
            fn(BBO, c, photon)


@pytest.mark.parametrize("source, want", [
    (LI, -523.3898949872264), (BBO, -128.7973867122505)])
def test_partner_alone_builds_no_transit_of_the_signal(source, want):
    # a signal at 0.06 omega_p (5852 nm in LiIO3, 6750 nm in BBO) lies
    # outside crystal 2's dispersion window, its partner inside it
    c = EmissionCoord(0.06 * source.pump.omega, math.radians(2.0),
                      math.radians(30.0))
    assert maps.time_delay(source, c, "i") == want
    assert all(map(math.isfinite, maps.time_intervals(source, c, "i")))
    for call in (lambda: maps.relative_phase(source, c),
                 lambda: maps.time_delay(source, c, "s"),
                 lambda: maps.time_intervals(source, c, "s")):
        with pytest.raises(RangeError, match="outside validity range"):
            call()


def test_every_sweep_solves_the_partner_before_any_transit():
    # 200 nm lies below BBO's window and above the 405 nm pump's
    # frequency: the partner's frequency is negative, and every kind
    # says so first
    gs = maps.GridSpec(5, 5, -20.0, 20.0, -20.0, 20.0)
    for sweep in (maps.sweep_phase_map, maps.sweep_delay_map,
                  lambda source, gs, **kw: maps.sweep_maps(
                      source, gs, ("delay", "phase"), **kw)):
        with pytest.raises(KinematicsError, match="partner frequency"):
            sweep(BBO, gs, filter_center_nm=200.0)


@pytest.mark.parametrize("source, gs, filt", [
    (LI, maps.GridSpec(23, 2 * maps._CHUNK_CELLS // 23 + 5, -60.0, 60.0,
                       -60.0, 60.0), None),
    (BBO, maps.GridSpec(33, 21, 0.0, 80.0, -180.0, 180.0,
                        mode=maps.ANGULAR_MODE), 702.2)])
def test_sweep_maps_planes_are_the_one_kind_sweeps(source, gs, filt):
    phase = maps.sweep_phase_map(source, gs, filter_center_nm=filt)
    delay = maps.sweep_delay_map(source, gs, filter_center_nm=filt)
    assert np.isnan(delay.values[1]).any() == (filt is not None)
    for kinds, want in ((("phase", "delay"), (phase, delay)),
                        (("delay", "phase"), (delay, phase)),
                        (("phase",), (phase,))):
        grids = maps.sweep_maps(source, gs, kinds, filter_center_nm=filt,
                                workers=1)
        assert len(grids) == len(want)
        for grid, ref in zip(grids, want):
            assert grid.same_data(ref) and grid.metadata == ref.metadata


def test_sweep_maps_builds_each_transit_once_per_block(monkeypatch):
    transits, partners = [], []
    transit, partner = maps._Transit, phasematch._partner
    monkeypatch.setattr(maps, "_Transit",
                        lambda *a: transits.append(a) or transit(*a))
    monkeypatch.setattr(phasematch, "_partner",
                        lambda *a: partners.append(a) or partner(*a))
    gs = maps.GridSpec(2000, 9, -30.0, 30.0, -30.0, 30.0)
    blocks = len(maps._row_blocks(gs.ny, gs.nx))
    assert blocks == 3
    for sweep in (lambda: maps.sweep_maps(BBO, gs, ("phase", "delay"),
                                          workers=1),
                  lambda: maps.sweep_phase_map(BBO, gs, workers=1),
                  lambda: maps.sweep_delay_map(BBO, gs, workers=1)):
        transits.clear()
        partners.clear()
        sweep()
        assert (len(transits), len(partners)) == (2 * blocks, blocks)


@pytest.mark.parametrize("kinds", [(), [], iter(()), ("phase", "wrapped"),
                                   ("Delay",), "phase"])
def test_sweep_maps_refuses_unknown_kinds_before_any_plane(kinds,
                                                          monkeypatch):
    def no_plane(*args, **kwargs):
        raise AssertionError("a plane was allocated")
    monkeypatch.setattr(np, "empty", no_plane)
    gs = maps.GridSpec(3, 2, -20.0, 20.0, -5.0, 5.0)
    with pytest.raises(ValueError, match="kinds"):
        maps.sweep_maps(LI, gs, kinds)
