"""The Lambert-series E_k loop the lattice used before its fixed-point sums, kept as a
test oracle: a complex division and a complex abs on every term, summed until a term
drops below 10^-(dps+5)."""

from mpmath import mp, mpf, mpc

from shiftedconv.lattice import LatticeError

_E_K_CONSTANT = {2: -24, 4: 240, 6: -504}


def _e_k(k, tau):
    """E_k(tau) = 1 + C_k sum n^(k-1) q^n / (1 - q^n) for k = 2, 4, 6.

    C_k = -24, 240, -504; summed until a term drops below 10^-(dps+5).
    """
    q = mp.expjpi(2 * tau)
    tol = mpf(10) ** (-(mp.dps + 5))
    total = mpc(0)
    qn = mpc(1)
    for n in range(1, 10 * mp.dps + 100):
        qn *= q
        term = n ** (k - 1) * qn / (1 - qn)
        total += term
        if abs(term) < tol:
            return 1 + _E_K_CONSTANT[k] * total
    raise LatticeError(f"E{k} q-series did not converge at tau = {mp.nstr(tau, 5)}")
