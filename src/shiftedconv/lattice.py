"""Period lattices: AGM periods, Eisenstein numbers, quasi-periods, and S(Lambda)."""

from __future__ import annotations

from dataclasses import dataclass, field

from mpmath import mp, mpf, mpc

from .config import memo
from .curves import EllipticCurveModel


class LatticeError(ArithmeticError):
    """Numerical failure while constructing lattice data."""


@dataclass
class Lattice:
    """Generators with Im(omega2/omega1) > 0, reduced so omega1 is a shortest vector."""

    omega1: mpc
    omega2: mpc
    tau: mpc
    volume: mpf
    eta1: mpc = None
    eta2: mpc = None
    s_lambda: mpc = None
    precision_digits: int = 0
    _g_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def lambda_min(self):
        return abs(self.omega1)


def _reduce_basis(omega1, omega2):
    """Gauss-reduce so that |Re tau| <= 1/2 and |tau| >= 1 (then omega1 is shortest)."""
    for _ in range(200):
        tau = omega2 / omega1
        m = mp.nint(tau.real)
        if m != 0:
            omega2 = omega2 - int(m) * omega1
            tau = omega2 / omega1
        if abs(tau) < 1 - mpf(10) ** (-mp.dps + 8):
            omega1, omega2 = omega2, -omega1
        else:
            break
    else:
        raise LatticeError("basis reduction did not terminate")
    if (omega2 / omega1).imag <= 0:
        raise LatticeError("orientation lost during reduction")
    return omega1, omega2


def compute_periods(model: EllipticCurveModel, precision_digits: int) -> Lattice:
    """Period lattice of the invariant differential, by the AGM.

    Discriminant > 0: rectangular lattice from the three real 2-division values.
    Discriminant < 0: one real 2-division value; the complex-conjugate pair enters
    through A = |e1 - e2|.  The result is validated downstream by reproducing g2, g3.
    """
    if precision_digits < 30:
        raise ValueError("precision_digits must be >= 30")
    g2q, g3q = model.short_invariants()
    with mp.workdps(precision_digits + 20):
        g2 = mpf(g2q.numerator) / g2q.denominator
        g3 = mpf(g3q.numerator) / g3q.denominator
        roots = mp.polyroots([4, 0, -g2, -g3], extraprec=60)
        if model.discriminant > 0:
            es = sorted((r.real for r in roots), reverse=True)
            e1, e2, e3 = es
            omega1 = mp.pi / mp.agm(mp.sqrt(e1 - e3), mp.sqrt(e1 - e2))
            omega2 = mp.pi * mpc(0, 1) / mp.agm(mp.sqrt(e1 - e3), mp.sqrt(e2 - e3))
        else:
            e1 = min(roots, key=lambda r: abs(r.imag)).real
            a = mp.sqrt(3 * e1 * e1 - g2 / 4)
            omega1 = 2 * mp.pi / mp.agm(2 * mp.sqrt(a), mp.sqrt(2 * a + 3 * e1))
            omega2 = omega1 / 2 + mp.pi * mpc(0, 1) / mp.agm(2 * mp.sqrt(a), mp.sqrt(2 * a - 3 * e1))
        omega1, omega2 = _reduce_basis(mpc(omega1), mpc(omega2))
        tau = omega2 / omega1
        volume = abs((mp.conj(omega1) * omega2).imag)
        lat = Lattice(omega1, omega2, tau, volume, precision_digits=precision_digits)
        # reproducing the short Weierstrass invariants certifies the AGM branch
        g4, g6 = eisenstein_numbers(lat, 6)
        err = max(abs(60 * g4 - g2), abs(140 * g6 - g3)) / max(abs(g2), abs(g3), mpf(1))
        if err > mpf(10) ** (-(precision_digits + 5)):
            raise LatticeError(f"{model.label}: lattice fails to reproduce g2/g3 (rel err {err})")
    return lat


def eisenstein_numbers(lat: Lattice, w_max: int) -> list:
    """[G_4(L), G_6(L), ..., G_{w_max}(L)] via the weight-2k q-series at tau.

    Missing weights are filled at the lattice's own precision plus 25 digits, so a
    cached G_w does not depend on the ambient precision or on the order of requests.
    """
    if w_max < 4:
        return []
    if w_max % 2:
        raise ValueError("w_max must be even")
    cached = lat._g_cache
    need = [w for w in range(4, w_max + 1, 2) if w not in cached]
    if need:
        with mp.workdps(lat.precision_digits + 25):
            _fill_g_cache(lat, max(need))
    return [cached[w] for w in range(4, w_max + 1, 2)]


def _series_horizon(w: int, log_qinv: float, digits: int) -> int:
    """First n past the peak where n^(w-1) |q|^n has dropped by 10^-(digits)."""
    import math
    peak = max(1, int((w - 1) / log_qinv))
    peak_log = (w - 1) * math.log(peak) - log_qinv * peak
    target = peak_log - digits * math.log(10)
    n = peak
    while (w - 1) * math.log(n + 1) - log_qinv * (n + 1) > target:
        n += 1 + n // 8
    return n + 8


def _fill_g_cache(lat: Lattice, w_max: int) -> None:
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
    for w in range(4, w_max + 1, 2):
        if w > 4:
            for d in range(1, n_cap + 1):
                pow_cache[d] *= d * d
        if w in lat._g_cache:
            continue
        # G_w(tau) = 2 zeta(w) + 2 (2 pi i)^w / (w-1)! * sum sigma_{w-1}(n) q^n
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
        g_tau = 2 * mp.zeta(w) + pref * total
        lat._g_cache[w] = g_tau * inv_o2 ** (w // 2)


def _e2(tau):
    """E2(tau) = 1 - 24 sum n q^n / (1 - q^n), summed until a term drops below 10^-(dps+5)."""
    q = mp.expjpi(2 * tau)
    tol = mpf(10) ** (-(mp.dps + 5))
    total = mpc(0)
    qn = mpc(1)
    for n in range(1, 10 * mp.dps + 100):
        qn *= q
        term = n * qn / (1 - qn)
        total += term
        if abs(term) < tol:
            return 1 - 24 * total
    raise LatticeError(f"E2 q-series did not converge at tau = {mp.nstr(tau, 5)}")


def quasi_periods(lat: Lattice) -> tuple:
    """eta_i = 2 zeta(omega_i / 2) from E2, with the Legendre relation enforced as a check.

    eta(omega) = (pi^2/3) E2(omega'/omega) / omega for an oriented basis (omega, omega'):
    eta1 from the basis (omega1, omega2) at tau, eta2 from (omega2, -omega1) at -1/tau.
    """
    with mp.workdps(lat.precision_digits + 15):
        c = mp.pi ** 2 / 3
        eta1 = c * _e2(lat.tau) / lat.omega1
        eta2 = c * _e2(-1 / lat.tau) / lat.omega2
        resid = abs(lat.omega1 * eta2 - lat.omega2 * eta1 + 2 * mp.pi * mpc(0, 1))
        if resid > mpf(10) ** (-(lat.precision_digits - 10)):
            raise LatticeError(f"Legendre relation residual too large: {resid}")
    lat.eta1, lat.eta2 = eta1, eta2
    return eta1, eta2


def s_lambda(lat: Lattice):
    """S(Lambda) from eta_1 = S omega_1 + (pi/vol) conj(omega_1); cross-checked on omega_2."""
    if lat.eta1 is None:
        quasi_periods(lat)
    with mp.workdps(lat.precision_digits + 15):
        c = mp.pi / lat.volume
        s = (lat.eta1 - c * mp.conj(lat.omega1)) / lat.omega1
        resid = abs(lat.eta2 - (s * lat.omega2 + c * mp.conj(lat.omega2)))
        if resid > mpf(10) ** (-(lat.precision_digits - 12)) * (1 + abs(lat.eta2)):
            raise LatticeError(f"quasi-period relations inconsistent: {resid}")
    lat.s_lambda = s
    return s


@memo
def build_lattice(model: EllipticCurveModel, precision_digits: int) -> Lattice:
    """Fully populated Lattice (periods, volume, quasi-periods, S), cached."""
    lat = compute_periods(model, precision_digits)
    quasi_periods(lat)
    s_lambda(lat)
    return lat

