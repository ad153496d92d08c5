"""The lattice sums G_w by the weight-w divisor-sum q-series, kept as a test oracle.

G_w(Lambda) = omega1^-w (2 zeta(w) + 2 (2 pi i)^w / (w-1)! sum sigma_{w-1}(n) q^n) at
q = e^(2 pi i tau).  The package takes G_w exactly from g2 and g3 by the wp recursion
(lattice.g_numbers); this route shares nothing with it but the periods.  It works at
the ambient precision and caches nothing.
"""

import math

from mpmath import mp, mpf

from shiftedconv.lattice import Lattice, LatticeError


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
