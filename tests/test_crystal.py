"""Dispersion, group index, and walkoff checks.

Frozen literals here were produced by direct evaluation of the shipped
coefficient sets; they pin the registry against accidental edits.  The
live oracles (re-transcribed closed forms, symbolic derivatives) guard
the code paths themselves.
"""

import math
import struct
from dataclasses import replace

import numpy as np
import pytest

from spdcmaps import crystal
from spdcmaps.errors import ConfigError, RangeError

BBO = crystal.get_material("BBO")
LIIO3 = crystal.get_material("LiIO3")

W_810 = crystal.omega_from_nm(810.0)
W_405 = crystal.omega_from_nm(405.0)
W_702 = crystal.omega_from_nm(702.2)
W_351 = crystal.omega_from_nm(351.1)

# dispersionless stand-in: n = 1.6 for both branches, no wavelength pull
FLAT = crystal.Material(
    name="flat",
    ordinary=crystal.SellmeierFit(a=2.56, poles=()),
    extraordinary=crystal.SellmeierFit(a=2.56, poles=()),
    valid_nm=(200.0, 2000.0))


# ------------------------------------------------------------ registry

def test_available_materials():
    assert crystal.available_materials() == ["BBO", "LiIO3"]


def test_get_material_case_insensitive():
    assert crystal.get_material("bbo") is BBO
    assert crystal.get_material("liio3") is LIIO3


def test_get_material_unknown_raises():
    with pytest.raises(ConfigError, match="available"):
        crystal.get_material("quartz")


# ----------------------------------------------------- index regression

def test_bbo_ordinary_810_frozen_and_direct():
    n = crystal.n_o(BBO, W_810)
    assert n == pytest.approx(1.660258317317175, abs=1e-12)
    L = 0.810 ** 2
    direct = math.sqrt(2.7359 + 0.01878 / (L - 0.01822) - 0.01354 * L)
    assert n == pytest.approx(direct, abs=1e-12)


def test_liio3_ordinary_frozen_and_direct():
    n1 = crystal.n_o(LIIO3, W_702)
    n2 = crystal.n_o(LIIO3, W_351)
    assert n1 == pytest.approx(1.874385742434544, abs=1e-12)
    assert n2 == pytest.approx(1.985791960906279, abs=1e-12)
    L = 0.7022 ** 2
    assert n1 == pytest.approx(math.sqrt(3.4095 + 0.047664 / (L - 0.033991)),
                               abs=1e-12)


def test_bbo_principal_extraordinary_direct():
    L = 0.405 ** 2
    direct = math.sqrt(2.3753 + 0.01224 / (L - 0.01667) - 0.01516 * L)
    assert crystal.n_e_principal(BBO, W_405) == pytest.approx(direct, abs=1e-12)


def test_angle_tuned_index_frozen_and_direct():
    a = math.radians(29.3)
    n = crystal.n_e_angle(BBO, W_405, a)
    assert n == pytest.approx(1.659309550731765, abs=1e-12)
    no = crystal.n_o(BBO, W_405)
    ne = crystal.n_e_principal(BBO, W_405)
    direct = 1.0 / math.sqrt(math.cos(a) ** 2 / no ** 2
                             + math.sin(a) ** 2 / ne ** 2)
    assert n == pytest.approx(direct, abs=1e-13)


def test_angle_tuned_index_endpoints():
    for mat, w in ((BBO, W_405), (LIIO3, W_351)):
        assert crystal.n_e_angle(mat, w, 0.0) == pytest.approx(
            crystal.n_o(mat, w), abs=1e-12)
        assert crystal.n_e_angle(mat, w, math.pi / 2) == pytest.approx(
            crystal.n_e_principal(mat, w), abs=1e-12)


def test_angle_tuned_index_monotone_decreasing():
    alphas = np.linspace(0.0, math.pi / 2, 200)
    for mat, w in ((BBO, W_405), (BBO, W_810), (LIIO3, W_351)):
        n = np.array([crystal.n_e_angle(mat, w, a) for a in alphas])
        assert np.all(np.diff(n) < 0.0)


def test_extraordinary_below_ordinary_everywhere():
    for mat in (BBO, LIIO3):
        lo, hi = mat.valid_nm
        lam = np.linspace(lo, hi, 1000)
        assert np.all(mat.index_e_principal(lam) < mat.index_o(lam))


# ----------------------------------------------------------- validation

def test_scalar_out_of_range_raises():
    with pytest.raises(RangeError):
        BBO.index_o(190.0)
    with pytest.raises(RangeError):
        crystal.n_o(LIIO3, crystal.omega_from_nm(6000.0))


def test_array_out_of_range_marks_nan():
    n = BBO.index_o(np.array([810.0, 10.0, 405.0]))
    assert np.isfinite(n[0]) and np.isfinite(n[2])
    assert np.isnan(n[1])


def test_kernel_sqrt_is_numpys_root_on_floats_and_arrays():
    # the 0-d path takes math.sqrt, the sweeps np.sqrt: both are the
    # correctly rounded root, so a pointwise call keeps its sweep cell's bits
    values = [0.0, -0.0, 5e-324, 1e308, math.inf, math.nan, 2.0, 0.1]
    for x in values:
        got = crystal._sqrt(x)
        assert type(got) is float
        assert struct.pack("<d", got) == struct.pack("<d", np.sqrt(x)), x
    assert math.isnan(crystal._sqrt(-1.0))
    arr = np.array(values + [-1.0, -math.inf]).reshape(2, 5)
    with np.errstate(invalid="ignore"):
        want = np.sqrt(arr)
        got = crystal._sqrt(arr)
    assert type(got) is np.ndarray
    assert got.tobytes() == want.tobytes()


def test_wavelength_frequency_roundtrip():
    lam = 527.5
    assert crystal.nm_from_omega(crystal.omega_from_nm(lam)) == pytest.approx(
        lam, abs=1e-12)


# ---------------------------------------------------------- group index

def _sympy_group_index(fit, lam_nm):
    import sympy as sp
    lam = sp.symbols("lam", positive=True)
    L = (lam * sp.Rational(1, 1000)) ** 2
    n2 = sp.Float(fit.a, 30) + sp.Float(fit.d_lam2, 30) * L
    for b, c, lam2_num in fit.poles:
        n2 += (sp.Float(b, 30) * (L if lam2_num else 1)) / (L - sp.Float(c, 30))
    n = sp.sqrt(n2)
    ng = n - lam * sp.diff(n, lam)
    return float(ng.subs(lam, sp.Float(lam_nm, 30)).evalf(30))


def test_group_index_matches_symbolic_derivative():
    cases = [(BBO.ordinary, 810.0), (BBO.ordinary, 405.0),
             (BBO.extraordinary, 810.0),
             (LIIO3.ordinary, 702.2), (LIIO3.extraordinary, 351.1)]
    for fit, lam in cases:
        mat = crystal.Material("tmp", fit, fit, (200.0, 6000.0))
        got = crystal.group_index(mat, crystal.omega_from_nm(lam), "o")
        ref = _sympy_group_index(fit, lam)
        assert abs(got - ref) / ref < 1e-8


def test_group_index_angle_tuned_matches_symbolic():
    import sympy as sp
    lam_s, ca = sp.symbols("lam ca", positive=True)

    def n2_expr(fit, lam):
        L = (lam * sp.Rational(1, 1000)) ** 2
        e = sp.Float(fit.a, 30) + sp.Float(fit.d_lam2, 30) * L
        for b, c, lam2_num in fit.poles:
            e += (sp.Float(b, 30) * (L if lam2_num else 1)) / (L - sp.Float(c, 30))
        return e

    no = sp.sqrt(n2_expr(BBO.ordinary, lam_s))
    ne = sp.sqrt(n2_expr(BBO.extraordinary, lam_s))
    ca_v = sp.Float(math.cos(math.radians(29.3)), 30)
    n = 1 / sp.sqrt(ca_v ** 2 / no ** 2 + (1 - ca_v ** 2) / ne ** 2)
    ng = n - lam_s * sp.diff(n, lam_s)
    ref = float(ng.subs(lam_s, sp.Float(810.0, 30)).evalf(30))
    got = crystal.group_index(BBO, W_810, "e",
                              cos_alpha=math.cos(math.radians(29.3)))
    assert abs(got - ref) / ref < 1e-8
    assert got == pytest.approx(1.652466267225496, abs=1e-10)


def test_group_index_frozen_ordinary():
    got = crystal.group_index(BBO, W_810, "o")
    assert got == pytest.approx(1.683848507896134, abs=1e-10)
    assert got > crystal.n_o(BBO, W_810)   # normal dispersion


def test_group_index_dispersionless_equals_phase_index():
    w = crystal.omega_from_nm(800.0)
    assert crystal.group_index(FLAT, w, "o") == pytest.approx(1.6, abs=1e-12)
    assert crystal.group_index(FLAT, w, "e", cos_alpha=0.3) == pytest.approx(
        1.6, abs=1e-12)


def test_group_index_along_axis_equals_ordinary():
    for w in (W_810, W_405):
        ge = crystal.group_index(BBO, w, "e", cos_alpha=1.0)
        go = crystal.group_index(BBO, w, "o")
        assert abs(ge - go) < 1e-10


def test_group_index_rejects_bad_polarization():
    with pytest.raises(ValueError):
        crystal.group_index(BBO, W_810, "x")


def test_index_smooth_in_wavelength():
    # derivative estimates from two step sizes agree to 4 significant figures
    for mat, lam in ((BBO, 810.0), (LIIO3, 702.2)):
        d1 = (mat.index_o(lam + 0.1) - mat.index_o(lam - 0.1)) / 0.2
        d2 = (mat.index_o(lam + 0.05) - mat.index_o(lam - 0.05)) / 0.1
        assert abs(d1 - d2) / abs(d2) < 1e-4


# -------------------------------------------------------------- walkoff

def test_walkoff_angle_direct_expression():
    a = math.radians(29.3)
    rho = crystal.walkoff_angle(BBO, W_405, math.cos(a))
    no = crystal.n_o(BBO, W_405)
    ne = crystal.n_e_principal(BBO, W_405)
    n = crystal.n_e_angle(BBO, W_405, a)
    direct = math.atan(0.5 * n * n * (1 / ne ** 2 - 1 / no ** 2)
                       * math.sin(2 * a))
    assert float(rho) == pytest.approx(direct, abs=1e-15)
    assert direct > 0.0   # ray leans away from the axis


def test_walkoff_vanishes_at_symmetry_angles():
    assert float(crystal.walkoff_angle(BBO, W_405, 1.0)) == 0.0
    assert abs(float(crystal.walkoff_angle(BBO, W_405, 0.0))) < 1e-15


def test_walkoff_ray_geometry():
    spec = crystal.CrystalSpec(BBO, 0.6, math.radians(29.3), math.radians(90.0))
    axis = spec.axis_direction()
    rng = np.random.default_rng(31)
    for _ in range(300):
        th = rng.uniform(0.0, 0.5)
        ph = rng.uniform(-math.pi, math.pi)
        k = np.array([math.sin(th) * math.cos(ph),
                      math.sin(th) * math.sin(ph), math.cos(th)])
        r = crystal.walkoff_ray(k, spec, W_405)
        ca = float(np.dot(k, axis))
        rho = float(crystal.walkoff_angle(BBO, W_405, ca))
        assert abs(float(np.linalg.norm(r)) - 1.0) < 1e-12       # unit
        assert float(np.dot(r, k)) == pytest.approx(math.cos(rho), abs=1e-12)
        # coplanar with (k, axis): vanishing triple product
        assert abs(float(np.dot(np.cross(k, axis), r))) < 1e-12
        # leans away from the axis
        assert math.acos(np.clip(np.dot(r, axis), -1, 1)) >= \
            math.acos(np.clip(ca, -1, 1)) - 1e-15


def test_surface_normal_ray_is_k_turned_by_walkoff_angle():
    # reference ray: k turned by rho away from the axis in their common
    # plane, k itself where that plane is undefined
    def turned(k, axis, rho):
        perp = axis - float(np.dot(k, axis)) * k
        pn = float(np.linalg.norm(perp))
        if pn < 1e-15:
            return k
        return math.cos(rho) * k - math.sin(rho) * perp / pn

    rng = np.random.default_rng(7)
    for mat, theta_a, ws in ((BBO, 29.3, (W_405, W_702, W_810)),
                             (LIIO3, 51.95, (W_351, W_702, W_810))):
        for phi_a in (0.0, 37.0, 90.0):
            ta, pa = math.radians(theta_a), math.radians(phi_a)
            spec = crystal.CrystalSpec(mat, 1.0, ta, pa)
            axis = spec.axis_direction()
            across = np.array([math.cos(ta) * math.cos(pa),
                               math.cos(ta) * math.sin(pa), -math.sin(ta)])
            ks = [axis, across]
            for _ in range(20):
                th, ph = rng.uniform(0.0, 1.2), rng.uniform(-math.pi, math.pi)
                ks.append(np.array([math.sin(th) * math.cos(ph),
                                    math.sin(th) * math.sin(ph), math.cos(th)]))
            for w in ws:
                for k in ks:
                    ca = k[0] * axis[0] + k[1] * axis[1] + k[2] * axis[2]
                    rho = float(crystal.walkoff_angle(mat, w, ca))
                    ray, cos_rho, ca_ray, _ = crystal._surface_normal_ray(
                        k, spec, w)
                    assert np.max(np.abs(ray - turned(k, axis, rho))) <= 1e-14
                    assert abs(cos_rho - float(np.dot(ray, k))) <= 1e-14
                    assert abs(ca_ray - float(np.dot(ray, axis))) <= 1e-14
                    assert np.array_equal(crystal.walkoff_ray(k, spec, w), ray)


def test_walkoff_ray_along_axis_passthrough():
    spec = crystal.CrystalSpec(BBO, 0.6, math.radians(29.3), 0.0)
    k = spec.axis_direction()
    r = crystal.walkoff_ray(k, spec, W_405)
    assert np.array_equal(r, k)


def test_walkoff_ray_batch_matches_scalar():
    spec = crystal.CrystalSpec(BBO, 0.6, math.radians(29.3), math.radians(90.0))
    ks = np.array([[0.0, 0.0, 1.0],
                   [math.sin(0.04), 0.0, math.cos(0.04)]])
    batch = crystal.walkoff_ray(ks, spec, W_405)
    for i in range(2):
        single = crystal.walkoff_ray(ks[i], spec, W_405)
        assert np.array_equal(batch[i], single)


# ----------------------------------------------------------- crystal spec

def test_crystal_spec_rejects_bad_length():
    with pytest.raises(ConfigError):
        crystal.CrystalSpec(BBO, 0.0, 0.1, 0.0)
    with pytest.raises(ConfigError):
        crystal.CrystalSpec(BBO, -1.0, 0.1, 0.0)


def test_crystal_spec_axis_direction():
    spec = crystal.CrystalSpec(LIIO3, 0.59, math.radians(51.95),
                               math.radians(90.0))
    v = spec.axis_direction()
    assert v[1] == pytest.approx(math.sin(math.radians(51.95)), abs=1e-15)
    assert v[2] == pytest.approx(math.cos(math.radians(51.95)), abs=1e-15)


def test_crystal_spec_axis_is_held_per_instance():
    def fresh(theta, phi):
        st = np.sin(theta)
        v = np.array([st * np.cos(phi), st * np.sin(phi), np.cos(theta)])
        v[np.abs(v) < 1e-15] = 0.0
        return v

    spec = crystal.CrystalSpec(BBO, 0.6, math.radians(29.3), math.radians(90.0))
    want = fresh(spec.axis_theta, spec.axis_phi)
    assert want[0] == 0.0
    got = spec.axis_direction()
    assert np.array_equal(got, want)
    got[:] = 7.0  # the caller's copy, not the held axis
    assert np.array_equal(spec.axis_direction(), want)
    for copy in (spec.with_axis(0.4, 0.1), replace(spec, axis_phi=0.0)):
        assert np.array_equal(copy.axis_direction(),
                              fresh(copy.axis_theta, copy.axis_phi))
    assert np.array_equal(spec.axis_direction(), want)


def test_equal_materials_share_one_index_memo_entry():
    raw = {"materials": {"flat": {
        "n_o": {"a": 2.56},
        "n_e": {"a": 2.25, "poles": [{"b": 0.01, "c": 0.02}]},
        "valid_nm": [200, 2000]}}}
    m1 = crystal._load_registry_dict(raw)["flat"]
    m2 = crystal._load_registry_dict(raw)["flat"]
    assert m1 == m2 and m1 is not m2
    # the generated dataclass hash, so equal materials hash equal
    assert hash(m1) == hash(m2) == hash(
        (m1.name, m1.ordinary, m1.extraordinary, m1.valid_nm))
    w = crystal.omega_from_nm(777.7)
    before = crystal._indices.cache_info()
    first = crystal._indices(m1, w)
    assert crystal._indices(m2, w) is first
    after = crystal._indices.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)


def test_crystal_spec_with_axis_copies():
    spec = crystal.CrystalSpec(BBO, 0.6, 0.3, 0.0)
    new = spec.with_axis(0.4, 0.1)
    assert new.material is BBO and new.length_mm == 0.6
    assert (new.axis_theta, new.axis_phi) == (0.4, 0.1)


def test_crystal_length_cap():
    assert crystal.CrystalSpec(BBO, crystal.MAX_LENGTH_MM, 0.3, 0.0) \
        .length_mm == 1000.0
    for length in (math.nextafter(1000.0, math.inf), 1e302, math.inf):
        with pytest.raises(ConfigError) as exc:
            crystal.CrystalSpec(BBO, length, 0.3, 0.0)
        assert exc.value.key == "length_mm"


@pytest.mark.parametrize("key, value", [
    ("length_mm", math.nan), ("axis_theta", math.nan),
    ("axis_theta", math.inf), ("axis_phi", -math.inf), ("axis_phi", math.nan),
])
def test_crystal_spec_refuses_non_finite_inputs(key, value):
    # unrefused, a NaN plate makes an all-NA map whose pointwise call
    # blames a photon grazing the face
    args = {"material": BBO, "length_mm": 0.6, "axis_theta": 0.5,
            "axis_phi": 0.0, key: value}
    with pytest.raises(ConfigError) as exc:
        crystal.CrystalSpec(**args)
    assert exc.value.key == key
