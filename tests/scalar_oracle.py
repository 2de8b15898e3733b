"""Independent scalar-trigonometry reference for horizontal-plane phases.

Test helper only.  Everything here is computed with plain Python floats
and the math module -- no numpy, no shared vector code with the package
under test -- so agreement between the two implementations is a
meaningful cross-check.  The dispersion coefficients are deliberately
transcribed a second time from the same published sets.
"""

import math

C_NM_FS = 299.792458

# squared-index coefficient sets (ordinary, extraordinary principal);
# 3-tuples: a + b/(L - c); 4-tuples add d*L, with L the squared
# wavelength in micrometers
_SETS = {
    "liio3": ((3.4095, 0.047664, 0.033991),
              (2.9163, 0.034514, 0.031034)),
    "bbo": ((2.7359, 0.01878, 0.01822, -0.01354),
            (2.3753, 0.01224, 0.01667, -0.01516)),
}


def _index(lam_nm, coef):
    L = (lam_nm * 1e-3) ** 2
    if len(coef) == 3:
        a, b, c = coef
        return math.sqrt(a + b / (L - c))
    a, b, c, d = coef
    return math.sqrt(a + b / (L - c) + d * L)


def _n_e_alpha(lam_nm, sets, cos_a):
    no = _index(lam_nm, sets[0])
    ne = _index(lam_nm, sets[1])
    c2 = cos_a * cos_a
    return 1.0 / math.sqrt(c2 / (no * no) + (1.0 - c2) / (ne * ne))


def horizontal_phase_deg(material, length_mm, axis_polar_deg, pump_nm,
                         x_mm, distance_mm, signal_nm=None,
                         offset_deg=0.0):
    """Relative phase (degrees) at detection point (x, 0), normal pump.

    The second plate's optic axis lies in the plane perpendicular to the
    horizontal, tipped axis_polar_deg from the face normal.  For each of
    the two photons the internal extraordinary index is iterated to
    self-consistency, the walkoff ray is written with angle-addition
    identities, and the per-photon phase accumulates scalar terms only.
    """
    sets = _SETS[material]
    beta = math.radians(axis_polar_deg)
    cos_b = math.cos(beta)
    w_p = 2.0 * math.pi * C_NM_FS / pump_nm
    w_s = (2.0 * math.pi * C_NM_FS / signal_nm) if signal_nm \
        else 0.5 * w_p
    w_i = w_p - w_s
    theta = math.atan(x_mm / distance_mm)     # signed polar angle
    sx_s = math.sin(theta)
    sx_i = -w_s * sx_s / w_i                  # transverse-momentum balance

    total = 0.0
    for w, sx in ((w_s, sx_s), (w_i, sx_i)):
        lam = 2.0 * math.pi * C_NM_FS / w
        no = _index(lam, sets[0])
        nep = _index(lam, sets[1])
        n = no
        for _ in range(200):
            kx = sx / n
            cos_a = math.sqrt(1.0 - kx * kx) * cos_b
            n_new = _n_e_alpha(lam, sets, cos_a)
            if abs(n_new - n) < 1e-13:
                n = n_new
                break
            n = n_new
        kx = sx / n
        kz = math.sqrt(1.0 - kx * kx)
        alpha = math.acos(kz * cos_b)
        rho = math.atan(0.5 * n * n
                        * (1.0 / (nep * nep) - 1.0 / (no * no))
                        * math.sin(2.0 * alpha))
        sin_a = math.sin(alpha)
        ray_x = kx * math.sin(alpha + rho) / sin_a
        ray_z = (kz * math.sin(alpha + rho)
                 - math.sin(rho) * cos_b) / sin_a
        term = n * math.cos(rho) + ray_x * sx
        total += (w * length_mm * 1e6 / (C_NM_FS * ray_z)) * term
    return math.degrees(total) + offset_deg


def mismatch_per_mm(material, axis_polar_deg, pump_nm, theta_s_deg,
                    signal_frac):
    """Longitudinal mismatch k_pz - k_sz - k_iz (1/mm), normal-incidence pump.

    The pump runs along the face normal at the extraordinary index of the
    cut, n_e(alpha = axis_polar_deg).  The signal (omega_s = signal_frac
    omega_p) leaves at external polar angle theta_s; transverse-momentum
    balance puts the idler at sine omega_s sin(theta_s) / omega_i on the
    opposite side, whatever the azimuth.  Both are ordinary, so each has
    k_z = (omega/c) sqrt(n_o^2 - sin^2).
    """
    sets = _SETS[material]
    w_p = 2.0 * math.pi * C_NM_FS / pump_nm
    w_s = signal_frac * w_p
    w_i = w_p - w_s
    sin_s = math.sin(math.radians(theta_s_deg))
    sin_i = w_s * sin_s / w_i
    n_p = _n_e_alpha(pump_nm, sets, math.cos(math.radians(axis_polar_deg)))
    k_z = n_p * w_p / C_NM_FS
    for w, sin in ((w_s, sin_s), (w_i, sin_i)):
        n_o = _index(2.0 * math.pi * C_NM_FS / w, sets[0])
        k_z -= (w / C_NM_FS) * math.sqrt(n_o * n_o - sin * sin)
    return k_z * 1e6
