"""Direction algebra, rotations, refraction: examples and properties."""

import math

import numpy as np
import pytest

from spdcmaps import crystal, vecgeom
from spdcmaps.errors import RefractionError

Z = np.array([0.0, 0.0, 1.0])
BBO = crystal.get_material("BBO")
BBO_SPEC = crystal.CrystalSpec(BBO, 0.6, math.radians(29.3), 0.0)
W_405 = crystal.omega_from_nm(405.0)


# ------------------------------------------------------------ directions

def test_direction_from_angles_axis_cases():
    assert np.array_equal(vecgeom.direction_from_angles(0.0, 0.0), Z)
    v = vecgeom.direction_from_angles(math.pi / 2, 0.0)
    assert np.allclose(v, [1.0, 0.0, 0.0], atol=1e-12)


def test_direction_from_angles_oblique_example():
    v = vecgeom.direction_from_angles(math.radians(51.95), math.radians(90.0))
    assert np.allclose(v, [0.0, 0.788, 0.616], atol=1e-3)
    assert abs(vecgeom.norm3(v) - 1.0) < 1e-14


def test_direction_from_angles_broadcasts():
    th = np.array([0.0, 0.3, 0.7])
    v = vecgeom.direction_from_angles(th, 0.25)
    assert v.shape == (3, 3)
    assert np.allclose(vecgeom.norm3(v), 1.0, atol=1e-14)


def test_angles_from_direction_inverts():
    rng = np.random.default_rng(42)
    for _ in range(2000):
        th = rng.uniform(0.0, math.pi)
        ph = rng.uniform(-math.pi, math.pi)
        v = vecgeom.direction_from_angles(th, ph)
        t2, p2 = vecgeom.angles_from_direction(v)
        v2 = vecgeom.direction_from_angles(t2, p2)
        assert np.max(np.abs(v2 - v)) < 1e-12


def test_angles_from_direction_pole_convention():
    th, ph = vecgeom.angles_from_direction(Z)
    assert th == 0.0 and ph == 0.0
    th, ph = vecgeom.angles_from_direction(np.array([0.0, 0.0, -1.0]))
    assert ph == 0.0 and abs(th - math.pi) < 1e-15


def test_spherical_angles_is_a_named_pair():
    a = vecgeom.SphericalAngles(0.25, -1.5)
    assert isinstance(a, tuple) and a == (0.25, -1.5)
    th, ph = a
    assert (a.theta, a.phi) == (th, ph) == (0.25, -1.5)


def test_angles_from_direction_rejects_non_unit():
    with pytest.raises(ValueError):
        vecgeom.angles_from_direction(np.array([0.0, 0.0, 2.0]))
    with pytest.raises(ValueError):
        vecgeom.angles_from_direction(np.zeros(3))


def test_angles_from_direction_takes_one_vector_and_phi_up_to_pi():
    with pytest.raises(ValueError, match="single 3-vector"):
        vecgeom.angles_from_direction(np.zeros((2, 3)))
    # arctan2(-0.0, -1.0) is -pi, outside (-pi, pi]
    th, ph = vecgeom.angles_from_direction(np.array([-1.0, -0.0, 0.0]))
    assert th == 0.5 * math.pi and ph == math.pi


# ------------------------------------------------------------- rotations

def test_pump_frame_identity_at_normal_incidence():
    assert np.array_equal(vecgeom.pump_frame_rotation(0.0, 0.0), np.eye(3))


def test_pump_frame_90_deg_rows():
    R = vecgeom.pump_frame_rotation(math.pi / 2, 0.0)
    expect = np.array([[0.0, 0.0, 1.0],
                       [0.0, 1.0, 0.0],
                       [-1.0, 0.0, 0.0]])
    assert np.allclose(R, expect, atol=1e-12)


def test_rotation_orthogonality():
    rng = np.random.default_rng(7)
    for _ in range(500):
        th = rng.uniform(0.0, math.pi)
        ph = rng.uniform(-math.pi, math.pi)
        for R in (vecgeom.pump_frame_rotation(th, ph),
                  vecgeom.tilt_rotation(th, ph)):
            assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-12
            assert abs(np.linalg.det(R) - 1.0) < 1e-12


def test_tilt_rotation_zero_is_identity_bitwise():
    assert np.array_equal(vecgeom.tilt_rotation(0.0, 1.234), np.eye(3))


def test_tilt_rotation_carries_z_to_target():
    rng = np.random.default_rng(11)
    for _ in range(200):
        th = rng.uniform(0.0, 1.5)
        ph = rng.uniform(-math.pi, math.pi)
        got = vecgeom.apply_rotation(vecgeom.tilt_rotation(th, ph), Z)
        assert np.max(np.abs(got - vecgeom.direction_from_angles(th, ph))) < 1e-12


def test_apply_rotation_matches_matmul():
    rng = np.random.default_rng(3)
    R = vecgeom.pump_frame_rotation(0.4, -1.1)
    v = rng.normal(size=(17, 3))
    assert np.allclose(vecgeom.apply_rotation(R, v), v @ R.T, atol=1e-14)


def test_single_vector_path_equals_the_batch_rows_bitwise():
    # a single vector packs its 0-d components, a batch broadcasts and
    # stacks them; both run the same component expressions
    rng = np.random.default_rng(29)
    th = rng.uniform(0.0, math.pi, 200)
    ph = rng.uniform(-math.pi, math.pi, 200)
    dirs = vecgeom.direction_from_angles(th, ph)
    for _ in range(5):
        R = vecgeom.tilt_rotation(rng.uniform(0.0, 1.5),
                                  rng.uniform(-math.pi, math.pi))
        rotated = vecgeom.apply_rotation(R, dirs)
        # the batch form of angles_from_direction's clamp and arctan2
        thetas = np.arccos(np.clip(rotated[:, 2], -1.0, 1.0))
        phis = np.arctan2(rotated[:, 1], rotated[:, 0])
        for i in range(len(th)):
            d = vecgeom.direction_from_angles(float(th[i]), float(ph[i]))
            assert d.shape == (3,) and d.tobytes() == dirs[i].tobytes()
            r = vecgeom.apply_rotation(R, d)
            assert r.shape == (3,) and r.tobytes() == rotated[i].tobytes()
            a = vecgeom.angles_from_direction(r)
            assert type(a.theta) is float and type(a.phi) is float
            assert a.theta.hex() == float(thetas[i]).hex()
            assert a.phi.hex() == float(phis[i]).hex()
            with pytest.raises(ValueError, match="unit length"):
                vecgeom.angles_from_direction((1.0 + 1e-6) * r)


# ------------------------------------------------------ snell refraction

def test_refract_ordinary_normal_incidence_passthrough():
    k = vecgeom.refract_ordinary(Z, Z, 1.0, 1.66)
    assert np.allclose(k, Z, atol=1e-15)


def test_refract_ordinary_30_deg_example():
    k_in = vecgeom.direction_from_angles(math.radians(30.0), 0.0)
    k = vecgeom.refract_ordinary(k_in, Z, 1.0, 1.66)
    got = math.degrees(math.asin(math.hypot(k[0], k[1])))
    assert abs(got - math.degrees(math.asin(math.sin(math.radians(30.0)) / 1.66))) < 1e-12
    assert abs(got - 17.53) < 0.01
    assert abs(vecgeom.norm3(k) - 1.0) < 1e-14


def test_refract_ordinary_tangential_continuity():
    rng = np.random.default_rng(19)
    th = rng.uniform(0.0, 1.2, size=5000)
    ph = rng.uniform(-math.pi, math.pi, size=5000)
    k_in = vecgeom.direction_from_angles(th, ph)
    n_in, n_out = 1.0, 1.66
    k = vecgeom.refract_ordinary(k_in, Z, n_in, n_out)
    resid = np.abs(n_in * k_in[:, :2] - n_out * k[:, :2]).max()
    assert resid < 1e-12
    assert np.abs(vecgeom.norm3(k) - 1.0).max() < 1e-12


def test_refract_ordinary_total_internal_reflection():
    k_in = vecgeom.direction_from_angles(math.radians(45.0), 0.0)
    with pytest.raises(RefractionError):
        vecgeom.refract_ordinary(k_in, Z, 1.66, 1.0)


def test_refract_ordinary_batch_marks_tir_rows_nan():
    k_in = vecgeom.direction_from_angles(
        np.array([math.radians(10.0), math.radians(45.0)]), 0.0)
    k = vecgeom.refract_ordinary(k_in, Z, 1.66, 1.0)
    assert np.all(np.isfinite(k[0]))
    assert np.all(np.isnan(k[1]))


def test_refract_ordinary_scalar_is_a_one_row_batch():
    k_in = vecgeom.direction_from_angles(
        np.array([math.radians(10.0), math.radians(45.0)]), 0.3)
    batch = vecgeom.refract_ordinary(k_in, Z, 1.66, 1.0)
    assert np.array_equal(vecgeom.refract_ordinary(k_in[0], Z, 1.66, 1.0),
                          batch[0])
    with pytest.raises(RefractionError, match="n_in/n_out sin = 1.17"):
        vecgeom.refract_ordinary(k_in[1], Z, 1.66, 1.0)


# ----------------------------------------------- extraordinary refraction

def test_extraordinary_normal_incidence_keeps_direction():
    K, n = vecgeom.refract_into_extraordinary(Z, Z, 1.0, W_405, BBO_SPEC)
    assert np.allclose(K, Z, atol=1e-12)
    alpha = math.acos(float(np.clip(vecgeom.dot3(K, BBO_SPEC.axis_direction()), -1, 1)))
    assert abs(n - crystal.n_e_angle(BBO, W_405, alpha)) < 1e-10


def test_extraordinary_axis_along_normal_gives_ordinary_index():
    spec = crystal.CrystalSpec(BBO, 0.6, 0.0, 0.0)
    K, n = vecgeom.refract_into_extraordinary(Z, Z, 1.0, W_405, spec)
    assert np.allclose(K, Z, atol=1e-12)
    assert abs(n - crystal.n_o(BBO, W_405)) < 1e-10


def _bisection_oracle(theta_ext, phi_ext, spec, omega):
    """Brute-force solve of the self-consistent internal direction.

    The internal wavevector lies in the plane of incidence:
    K = sin(psi) t_hat + cos(psi) z_hat with n(psi) sin(psi) = sin(theta_ext).
    Scan a dense psi grid for the sign change, then bisect.
    """
    k_in = vecgeom.direction_from_angles(theta_ext, phi_ext)
    t = k_in - k_in[2] * Z
    tn = math.sqrt(float(vecgeom.dot3(t, t)))
    t_hat = t / tn
    axis = spec.axis_direction()
    lam = crystal.nm_from_omega(omega)
    mat = spec.material

    def g(psi):
        K = np.sin(psi)[..., None] * t_hat + np.cos(psi)[..., None] * Z
        ca = vecgeom.dot3(K, axis)
        return mat.index_e(lam, ca) * np.sin(psi) - tn

    psi = np.linspace(1e-9, 1.0, 1_000_000)
    val = g(psi)
    idx = int(np.nonzero(np.diff(np.sign(val)))[0][0])
    lo, hi = psi[idx], psi[idx + 1]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if g(np.asarray(mid)) > 0:
            hi = mid
        else:
            lo = mid
    psi_star = 0.5 * (lo + hi)
    return math.sin(psi_star) * t_hat + math.cos(psi_star) * Z


@pytest.mark.parametrize("theta_deg,phi_deg,axis_phi_deg", [
    (20.0, 0.0, 0.0),     # coplanar with the optic axis
    (20.0, 35.0, 90.0),   # skew geometry
    (5.0, 180.0, 90.0),
    (60.0, 0.0, 0.0),
    (45.0, -120.0, 90.0),
])
def test_extraordinary_oblique_matches_bisection_oracle(theta_deg, phi_deg,
                                                        axis_phi_deg):
    spec = crystal.CrystalSpec(BBO, 0.6, math.radians(29.3),
                               math.radians(axis_phi_deg))
    k_in = vecgeom.direction_from_angles(math.radians(theta_deg),
                                         math.radians(phi_deg))
    K, n = vecgeom.refract_into_extraordinary(k_in, Z, 1.0, W_405, spec)
    K_ref = _bisection_oracle(math.radians(theta_deg), math.radians(phi_deg),
                              spec, W_405)
    assert np.max(np.abs(K - K_ref)) < 1e-8


def test_extraordinary_ellipsoid_self_consistency():
    rng = np.random.default_rng(23)
    for _ in range(300):
        th = rng.uniform(0.0, 1.2)
        ph = rng.uniform(-math.pi, math.pi)
        k_in = vecgeom.direction_from_angles(th, ph)
        K, n = vecgeom.refract_into_extraordinary(k_in, Z, 1.0, W_405, BBO_SPEC)
        alpha = math.acos(float(np.clip(vecgeom.dot3(K, BBO_SPEC.axis_direction()), -1, 1)))
        assert abs(n - crystal.n_e_angle(BBO, W_405, alpha)) < 1e-10
        assert abs(float(vecgeom.norm3(K)) - 1.0) < 1e-12


def test_extraordinary_tangential_continuity_batch():
    rng = np.random.default_rng(29)
    th = rng.uniform(0.0, 1.2, size=3000)
    ph = rng.uniform(-math.pi, math.pi, size=3000)
    k_in = vecgeom.direction_from_angles(th, ph)
    K, n = vecgeom.refract_into_extraordinary(k_in, Z, 1.0, W_405, BBO_SPEC)
    resid = np.abs(1.0 * k_in[:, :2] - n[:, None] * K[:, :2]).max()
    assert resid < 1e-12


def test_forward_root_is_the_written_out_quadratic():
    # the quadratic once more, one scalar element at a time, as the
    # reference the shared array helper must match bitwise
    _, n_o, n_ep = crystal._indices(BBO, W_405)
    rng = np.random.default_rng(5)
    p = rng.uniform(-1.5, 1.5, 400)
    q = rng.uniform(-1.0, 1.0, 400)
    t2 = rng.uniform(0.0, 4.0, 400)
    inv_e2 = 1.0 / (n_ep * n_ep)
    A = 1.0 / (n_o * n_o) - inv_e2
    want = []
    for pi, qi, ti in zip(p.tolist(), q.tolist(), t2.tolist()):
        qa = A * qi * qi + inv_e2
        hb = A * pi * qi
        c = A * pi * pi + ti * inv_e2 - 1.0
        disc = hb * hb - qa * c
        kz = math.nan
        if disc >= 0.0:
            root = math.sqrt(disc)
            kz = -c / (hb + root) if hb > 0.0 else (root - hb) / qa
        want.append(kz if kz > 0.0 else math.nan)
    got = vecgeom._forward_root(p, q, t2, n_o, n_ep)
    assert np.array_equal(got, want, equal_nan=True)
    hb = A * p * q
    for branch in (hb > 0.0, hb <= 0.0):
        assert np.isfinite(got[branch]).any() and np.isnan(got[branch]).any()


def test_extraordinary_dense_incidence_raises_tir():
    k_in = vecgeom.direction_from_angles(math.radians(75.0), 0.0)
    with pytest.raises(RefractionError):
        vecgeom.refract_into_extraordinary(k_in, Z, 2.5, W_405, BBO_SPEC)


def test_extraordinary_batch_nan_rows_stay_nan():
    k_in = np.array([[0.0, 0.0, 1.0], [np.nan, np.nan, np.nan]])
    K, n = vecgeom.refract_into_extraordinary(k_in, Z, 1.0, W_405, BBO_SPEC)
    assert np.all(np.isfinite(K[0])) and np.isfinite(n[0])
    assert np.all(np.isnan(K[1])) and np.isnan(n[1])


# --------------------------------------------------------- detection map

def test_detection_point_on_axis():
    th, ph = vecgeom.detection_point_to_angles(0.0, 0.0, 1200.0)
    assert th == 0.0


def test_detection_point_example():
    th, ph = vecgeom.detection_point_to_angles(62.9, 0.0, 1200.0)
    assert abs(math.degrees(th) - 3.00) < 0.01
    assert ph == 0.0


def test_detection_point_quadrants():
    th, ph = vecgeom.detection_point_to_angles(0.0, -62.9, 1200.0)
    assert abs(math.degrees(ph) + 90.0) < 1e-12
    th2, ph2 = vecgeom.detection_point_to_angles(-30.0, 0.0, 1200.0)
    assert abs(abs(math.degrees(ph2)) - 180.0) < 1e-12


def test_detection_point_rejects_bad_distance():
    with pytest.raises(ValueError):
        vecgeom.detection_point_to_angles(1.0, 1.0, 0.0)


def test_transit_looks_up_its_dispersion_once(monkeypatch):
    # the transit hands the indices it read to the surface normal
    calls = []
    real = crystal._indices

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(crystal, "_indices", counted)
    monkeypatch.setattr(vecgeom, "_indices", counted)
    for sx, sy in ((0.1, -0.2), (np.array([0.0, 0.3]), np.array([0.5, 0.0]))):
        calls.clear()
        vecgeom._Transit(BBO_SPEC, W_405, sx, sy)
        assert calls == [(BBO, W_405)]
