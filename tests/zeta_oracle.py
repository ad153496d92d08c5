"""The Weierstrass zeta Laurent series, kept as a test oracle for the quasi-periods.

zeta(z) = 1/z - sum_k G_{2k+2} z^{2k+1} inside 0.72 of the shortest lattice vector,
and the duplication formula outside it.  The package takes eta_i from E2 instead;
eta_i = 2 zeta(omega_i / 2) by this route checks it through the G_w of the test-side
divisor-sum q-series (g_oracle), which share nothing with the E2 sum but the nome.
"""

from mpmath import mp, mpf

from shiftedconv.lattice import Lattice, LatticeError

from g_oracle import eisenstein_numbers

RADIUS_RATIO = mpf(0.72)


def _lambda_min(lat: Lattice):
    """Length of the shortest lattice vector: omega1 of the Gauss-reduced basis."""
    return abs(lat.omega1)


def laurent_numbers(lat: Lattice, r):
    """[G_4, ..., G_w] with w enough for the Laurent series at |z| <= r * lambda_min."""
    w_needed = int((mp.dps + 8) * mp.log(10) / mp.log(1 / r)) + 6 if r > 0 else 4
    return eisenstein_numbers(lat, max(4, w_needed + w_needed % 2))


def _check_radius(lat: Lattice, z):
    if abs(z) / _lambda_min(lat) > RADIUS_RATIO:
        raise LatticeError("point outside the Laurent series' safe radius")


def _zeta_series(lat: Lattice, z, gs):
    """Weierstrass zeta via its Laurent expansion; |z| must be within the safe radius."""
    _check_radius(lat, z)
    acc = 1 / z
    zp = z ** 3
    z2 = z * z
    for g in gs:  # g = G_{2k+2}, term -G_{2k+2} z^{2k+1}
        acc -= g * zp
        zp *= z2
    return acc


def _wp_and_derivative(lat: Lattice, z, gs):
    """(wp(z), wp'(z)) by the same Laurent data; same radius constraint as the zeta series."""
    _check_radius(lat, z)
    wp = 1 / (z * z)
    wpd = -2 / (z * z * z)
    zp = z * z
    z2 = z * z
    k = 1
    for g in gs:
        wp += (2 * k + 1) * g * zp
        wpd += (2 * k + 1) * (2 * k) * g * zp / z
        zp *= z2
        k += 1
    return wp, wpd


def weierstrass_zeta(lat: Lattice, z, gs):
    """zeta(Lambda; z) for any z, by duplication when outside the series radius.

    zeta(2u) = 2 zeta(u) + wp''(u) / (2 wp'(u)), with wp'' = 6 wp^2 - g2/2.  Every
    series point of the duplication chain lies within min(|z| / lambda_min, 0.72), so
    gs = laurent_numbers(lat, r) for that r serves the whole chain.
    """
    if abs(z) / _lambda_min(lat) <= RADIUS_RATIO:
        return _zeta_series(lat, z, gs)
    u = z / 2
    zu = weierstrass_zeta(lat, u, gs)
    wp, wpd = _wp_and_derivative_any(lat, u, gs)
    g2 = 60 * gs[0]
    wpdd = 6 * wp * wp - g2 / 2
    if abs(wpd) < mpf(10) ** (-mp.dps // 2):
        raise LatticeError("duplication hit a critical point of wp")
    return 2 * zu + wpdd / (2 * wpd)


def _wp_and_derivative_any(lat: Lattice, z, gs):
    """(wp, wp') at any z: Laurent series inside the safe radius, duplication outside."""
    if abs(z) / _lambda_min(lat) <= RADIUS_RATIO:
        return _wp_and_derivative(lat, z, gs)
    u = z / 2
    wp, wpd = _wp_and_derivative_any(lat, u, gs)
    g2 = 60 * gs[0]
    if abs(wpd) < mpf(10) ** (-mp.dps // 2):
        raise LatticeError("duplication hit a critical point of wp")
    wpdd = 6 * wp * wp - g2 / 2
    lam = wpdd / (2 * wpd)
    # lam' = (wp''' wp' - wp''^2) / (2 wp'^2) with wp''' = 12 wp wp'
    lamd = (12 * wp * wpd * wpd - wpdd * wpdd) / (2 * wpd * wpd)
    return lam * lam - 2 * wp, lam * lamd - wpd
