"""The per-vector q-expansion of a vector Eisenstein orbit sum, kept as a test oracle.

`EisensteinBasis.combo_qexp` folds a combination into one histogram per row of
(Z/N)^2 and expands each row once.  This module expands every vector separately,
by the Lipschitz formula, as the package did before, so the two can be compared
term by term.
"""

from mpmath import mp

from shiftedconv.eisenstein import _kappa, _zeta_table


def _vector_qexp_array(v, N: int, top: int, acc: list, coeff) -> None:
    """Accumulate coeff * (nonconstant part of G2^v) into acc[rm] for rm < top.

    By the Lipschitz formula, G2^v = [c1=0] kappa(c2)
        - (4 pi^2/N^2) sum_{m>0, m=+-c1 (N)} sum_{r>=1} r zeta_N^{+-r c2} q^{rm/N}.
    """
    c1, c2 = v[0] % N, v[1] % N
    zeta = _zeta_table(N, mp.prec)
    pref = -4 * mp.pi ** 2 / N ** 2 * coeff
    for sign in (1, -1):
        m0 = (sign * c1) % N
        sc2 = (sign * c2) % N
        for m in range(m0 if m0 else N, top, N):
            for r in range(1, (top - 1) // m + 1):
                acc[r * m] += pref * r * zeta[(r * sc2) % N]


def combo_qexp_per_vector(basis, combo: dict, n_max: int) -> list:
    """Coefficients of q^0 .. q^n_max of the combination, one vector at a time.

    Works at the basis's working precision, digits + 15, and returns complex values;
    the fractional exponents are not inspected.
    """
    N = basis.level
    with mp.workdps(basis.digits + 15):
        top = N * (n_max + 1)
        acc = [mp.mpc(0)] * top
        const = mp.mpc(0)
        for i, coeff in combo.items():
            for v in basis.orbits[i]:
                if v[0] % N == 0:
                    const += coeff * _kappa(v[1], N)
                _vector_qexp_array(v, N, top, acc, coeff)
        return [const] + [acc[N * e] for e in range(1, n_max + 1)]
