"""The lattice sums G_w two ways, and the mock form's R from them, kept as test oracles.

`eisenstein_numbers`: G_w(Lambda) = omega1^-w (2 zeta(w) + 2 (2 pi i)^w / (w-1)!
sum sigma_{w-1}(n) q^n) at q = e^(2 pi i tau), at the ambient precision.  `g_numbers`:
G_w exactly from g2 and g3 by the wp recursion; the two routes share nothing but the
periods.  `zeta_composition`: R = zeta(E) by the Laurent series of zeta, the route the
package's `mockform.mock_parts` replaced with the modular parametrization.  Nothing here
is cached.
"""

import math
from fractions import Fraction

from mpmath import mp, mpf

from shiftedconv.curves import EllipticCurveModel
from shiftedconv.lattice import Lattice, LatticeError
from shiftedconv.newform import an_coefficients, eichler_integral


def _series_horizon(w: int, log_qinv: float, digits: int) -> int:
    """First n past the peak where n^(w-1) |q|^n has dropped by 10^-(digits)."""
    peak = max(1, int((w - 1) / log_qinv))
    peak_log = (w - 1) * math.log(peak) - log_qinv * peak
    target = peak_log - digits * math.log(10)
    n = peak
    while (w - 1) * math.log(n + 1) - log_qinv * (n + 1) > target:
        n += 1 + n // 8
    return n + 8


def eisenstein_numbers(lat: Lattice, w_max: int) -> list:
    """[G_4(L), G_6(L), ..., G_{w_max}(L)] via the weight-w q-series at tau."""
    if w_max < 4:
        return []
    if w_max % 2:
        raise ValueError("w_max must be even")
    q = mp.expjpi(2 * lat.tau)
    log_qinv = -mp.log(abs(q))
    tol = mpf(10) ** (-(mp.dps + 5))
    n_cap = _series_horizon(w_max, float(log_qinv), mp.dps + 10)
    divs = [[] for _ in range(n_cap + 1)]
    for d in range(1, n_cap + 1):
        for m in range(d, n_cap + 1, d):
            divs[m].append(d)
    pow_cache = [mpf(d) ** 3 for d in range(n_cap + 1)]  # d^(w-1) maintained incrementally
    qn = [q ** n for n in range(n_cap + 1)]
    inv_o2 = 1 / (lat.omega1 * lat.omega1)
    gs = []
    for w in range(4, w_max + 1, 2):
        if w > 4:
            for d in range(1, n_cap + 1):
                pow_cache[d] *= d * d
        pref = 2 * (-1) ** (w // 2) * (2 * mp.pi) ** w / mp.factorial(w - 1)
        total = mp.mpc(0)
        peak = int((w - 1) / log_qinv) + 1
        biggest = mpf(0)
        for n in range(1, n_cap + 1):
            sig = mp.fsum(pow_cache[d] for d in divs[n])
            term = sig * qn[n]
            total += term
            biggest = max(biggest, abs(term))
            if n > peak and abs(term) < tol * max(1, biggest):
                break
        else:
            raise LatticeError(f"q-series for G_{w} did not converge within {n_cap} terms")
        gs.append((2 * mp.zeta(w) + pref * total) * inv_o2 ** (w // 2))
    return gs


def g_numbers(model: EllipticCurveModel, w_max: int) -> list:
    """[G_4, G_6, ..., G_{w_max}] of the model's period lattice, exact over Q.

    With wp(z) = z^-2 + sum_{k>=2} c_k z^(2k-2): c_2 = g2/20, c_3 = g3/28,
    c_k = 3/((2k+1)(k-3)) sum_{m=2}^{k-2} c_m c_{k-m} for k >= 4, and G_2k = c_k/(2k-1)
    (Silverman, The Arithmetic of Elliptic Curves, VI.3).
    """
    if w_max < 4:
        return []
    if w_max % 2:
        raise ValueError("w_max must be even")
    g2, g3 = model.short_invariants()
    c = {2: g2 / 20, 3: g3 / 28}
    for k in range(4, w_max // 2 + 1):
        c[k] = Fraction(3, (2 * k + 1) * (k - 3)) * sum(c[m] * c[k - m] for m in range(2, k - 1))
    return [c[k] / (2 * k - 1) for k in range(2, w_max // 2 + 1)]


def zeta_composition(model: EllipticCurveModel, n_max: int):
    """R = 1/E - sum_{k>=1} G_{2k+2} E^{2k+1}, exact through q^{n_max}.

    The powers are taken of the integer series L E, L = lcm(1 .. n_max + 2), and scaled
    by G_{2k+2}/L^{2k+1}.
    """
    t = n_max + 1
    eich = eichler_integral(an_coefficients(model, n_max + 2))    # known below n_max + 3
    scale = math.lcm(*range(1, n_max + 3))
    power = (eich * scale).truncate(t)
    square = power * power
    r = eich.invert()                                             # known below n_max + 1
    for k, g in enumerate(g_numbers(model, 2 * ((n_max - 1) // 2) + 2), start=1):
        power = (power * square).truncate(t)                      # (L E)^{2k+1}
        r = r - power * (g / scale ** (2 * k + 1))
    return r
