"""Per-vector evaluations of the vector Eisenstein orbit sums, kept as test oracles.

`EisensteinBasis` counts each orbit's signed vectors in one histogram per row of
(Z/N)^2 and expands it over Z[zeta_N] in exact integers, with the constant terms
kappa(s) as elements of Z[zeta_N].  This module takes every vector separately, in
mpmath, with its own roots of unity and kappa(s) from the sine formula:
`combo_qexp_per_vector` expands each vector by the Lipschitz formula, to be compared
term by term with the exact expansion, and `cusp_constant_per_vector` evaluates each
slashed vector with `vector_eval`, to be compared with the exact cusp values.
"""

from functools import lru_cache

from mpmath import mp, mpf, mpc

from shiftedconv.eisenstein import _scaling_matrix


def _roots(N: int) -> list:
    """[e^{2 pi i k / N} for k in 0..N-1] at the working precision."""
    return _roots_at(N, mp.prec)


@lru_cache(maxsize=None)
def _roots_at(N: int, prec: int) -> list:
    with mp.workprec(prec):
        return [mp.expjpi(mpf(2 * k) / N) for k in range(N)]


def _kappa(c2: int, N: int):
    """Constant term of G2^{(0, c2)}: pi^2/3 at c2 = 0, else pi^2 / (N sin(pi c2 / N))^2."""
    c2 %= N
    return mp.pi ** 2 / 3 if c2 == 0 else (mp.pi / (N * mp.sinpi(mpf(c2) / N))) ** 2


def numeric_combo(basis, combo) -> dict:
    """{orbit i: its coefficient} of an exact combination (scale, {i: w_i}) of the basis.

    The basis combines the orbits' integer rows, which are 6 N^4 / pi^2 times the
    orbit sums, so orbit i's sum enters with 6 N^4 scale w_i(zeta_N) / pi^2.
    """
    N, (scale, w) = basis.level, combo
    zeta = _roots(N)
    return {i: 6 * N ** 4 * mpf(scale.numerator) / scale.denominator
            * mp.fsum(h * zeta[t] for t, h in enumerate(row.tolist()) if h) / mp.pi ** 2
            for i, row in w.items()}


def vector_eval(v, N: int, z, tol_digits: int, qpow: dict = None):
    """Numerical value of the completed G2^v at a point z in the upper half-plane.

    `qpow` optionally shares e^{2 pi i m z / N} powers between calls at the same z.
    """
    c1, c2 = v[0] % N, v[1] % N
    if qpow is None:
        qpow = {}
    if 1 not in qpow:
        qpow[1] = mp.expjpi(2 * z / N)
    q1n = qpow[1]
    tol = mpf(10) ** (-tol_digits)
    total = mp.mpc(0)
    if c1 == 0:
        total += _kappa(c2, N)
    zeta = _roots(N)
    pref = -4 * mp.pi ** 2 / N ** 2
    for sign in (1, -1):
        m0 = (sign * c1) % N
        sc2 = (sign * c2) % N
        m = m0 if m0 else N
        while True:
            if m not in qpow:
                qpow[m] = q1n ** m
            qm = qpow[m]
            if abs(qm) * m * 4 < tol * (1 - abs(q1n) ** N):
                break
            r = 1
            qrm = qm
            while abs(qrm) * r * 4 > tol:
                total += pref * r * zeta[(r * sc2) % N] * qrm
                r += 1
                qrm *= qm
            m += N
    return total - mp.pi / (N * N * z.imag)


def _vector_qexp_array(v, N: int, top: int, acc: list, coeff) -> None:
    """Accumulate coeff * (nonconstant part of G2^v) into acc[rm] for rm < top.

    By the Lipschitz formula, G2^v = [c1=0] kappa(c2)
        - (4 pi^2/N^2) sum_{m>0, m=+-c1 (N)} sum_{r>=1} r zeta_N^{+-r c2} q^{rm/N}.
    """
    c1, c2 = v[0] % N, v[1] % N
    zeta = _roots(N)
    pref = -4 * mp.pi ** 2 / N ** 2 * coeff
    for sign in (1, -1):
        m0 = (sign * c1) % N
        sc2 = (sign * c2) % N
        for m in range(m0 if m0 else N, top, N):
            for r in range(1, (top - 1) // m + 1):
                acc[r * m] += pref * r * zeta[(r * sc2) % N]


def combo_qexp_per_vector(basis, combo, n_max: int, digits: int) -> list:
    """Coefficients of q^0 .. q^n_max of the exact combination, one vector at a time.

    Works at digits + 15 working digits and returns complex values; the fractional
    exponents are not inspected.
    """
    N = basis.level
    with mp.workdps(digits + 15):
        top = N * (n_max + 1)
        acc = [mp.mpc(0)] * top
        const = mp.mpc(0)
        for i, coeff in numeric_combo(basis, combo).items():
            for v in basis.orbits[i]:
                if v[0] % N == 0:
                    const += coeff * _kappa(v[1], N)
                _vector_qexp_array(v, N, top, acc, coeff)
        return [const] + [acc[N * e] for e in range(1, n_max + 1)]


def cusp_constant_per_vector(basis, combo, cusp, digits: int):
    """The limit of the completed combination up the cusp, one `vector_eval` per slashed
    vector, to about 10^-digits.

    At the heights y and 2 y, y = 2 N (0.3665 digits + 4), each series is below
    10^-(digits + 10) and the completion is exactly a multiple of 1/y, so one
    Richardson step removes it.
    """
    N = basis.level
    a, b, c, d = _scaling_matrix(cusp)
    with mp.workdps(digits + 10):
        coeffs = numeric_combo(basis, combo)
        y0 = mpf(N) * (digits * 2.303 / 6.283 + 4)
        vals = []
        for k in (2, 4):
            z = mpc(0, y0 * k)
            qpow = {}
            tot = mp.mpc(0)
            for i, coeff in coeffs.items():
                for v in basis.orbits[i]:
                    w = ((v[0] * a + v[1] * c) % N, (v[0] * b + v[1] * d) % N)
                    tot += coeff * vector_eval(w, N, z, digits + 8, qpow)
            vals.append(tot)
        return 2 * vals[1] - vals[0]
