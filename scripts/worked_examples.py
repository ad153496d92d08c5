#!/usr/bin/env python3
"""Worked-example tables for one curve: S, the mock form, F^inf, and the
shifted convolution L-values by both routes."""

import argparse

import mpmath
from mpmath import mp

from shiftedconv.curves import get_curve
from shiftedconv.eisenstein import infinity_indicator
from shiftedconv.lattice import build_lattice
from shiftedconv.mockform import zhat_plus
from shiftedconv.shifted import alpha_constant, d_direct, l_series_closed_form


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--label", default="11a1")
    ap.add_argument("--digits", type=int, default=64)
    ap.add_argument("--h-max", type=int, default=10)
    ap.add_argument("--terms", type=int, default=100_000)
    args = ap.parse_args()

    mp.dps = args.digits
    model = get_curve(args.label)
    lat = build_lattice(model, args.digits)
    print(f"curve {model.label}: N = {model.conductor}, a-invariants {model.ainvs}")
    print(f"  vol(Lambda) = {mpmath.nstr(lat.volume, 20)}")
    print(f"  S(Lambda)   = {mpmath.nstr(lat.s_lambda.real, 20)}")

    z = zhat_plus(model, args.h_max + 1, args.digits)
    print("mock modular form:")
    for n in range(-1, min(args.h_max, 8) + 1):
        print(f"  q^{n:<3} {mpmath.nstr(z[n], 15)}")

    finf = infinity_indicator(model.conductor, args.h_max, args.digits)
    nz = [(e, finf[e]) for e in range(args.h_max + 1) if abs(finf[e]) > mp.mpf("1e-40")]
    print("F^inf:", " + ".join(f"({mpmath.nstr(c, 10)})q^{e}" for e, c in nz))

    alpha = alpha_constant(model, args.terms, args.digits)
    print(f"alpha = {mpmath.nstr(alpha, 8)}")

    closed = l_series_closed_form(model, args.h_max, args.digits, args.terms)
    print(" h | direct (Cesaro)       | closed form")
    for h in range(1, args.h_max + 1):
        dv = d_direct(model, h, args.terms)
        print(f" {h:2d} | {dv.value:+.6f} +- {dv.error_estimate:.4f} | "
              f"{mpmath.nstr(closed.entries[h], 10)}")


if __name__ == "__main__":
    main()
