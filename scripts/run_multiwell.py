#!/usr/bin/env python3
"""Two-well spectrum vs per-well predicted lattices, with Jordan-pair report.

Default symbol: (1 + 0.3i) |z^2 - 1|^2, wells at z = +/-1 sharing level 0.
Each well's lattice comes from its order-`--order`, degree-`--degree`
quantum normal form where its Hessian is diagonal, and from the
leading-order quadratic lattice otherwise; the route follows the symbol.
"""

import argparse

import numpy as np

from bargspec.bargmann import MonomialSymbol
from bargspec.spectral import multiwell_compare


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--hbar", type=float, default=0.02)
    ap.add_argument("--order", type=int, default=3)
    ap.add_argument("--degree", type=int, default=12)
    args = ap.parse_args()

    c = 1 + 0.3j
    sym = MonomialSymbol({(2, 2): c, (2, 0): -c, (0, 2): -c, (0, 0): c})
    rep = multiwell_compare(sym, args.hbar, wells=[1.0, -1.0], order=args.order, degree=args.degree)
    print(f"window radius {rep.window_radius:.4f}, n_max {rep.spectrum.n_max_used}")
    for i, w, l, dist in rep.matches:
        ev = rep.eigenvalues[i]
        pred = rep.wells[w].lattice[l]
        print(
            f"  eigenvalue {ev:.10f} -> well {rep.wells[w].location:+.0f} level {l} "
            f"(prediction {pred:.10f}, residual {dist:.3e})"
        )
    print(f"max residual: {rep.residuals.max():.3e}  (1e-3 hbar = {1e-3 * args.hbar:.1e})")
    if rep.jordan_pairs:
        print("near-degenerate pairs (Jordan-block candidates, reported only):")
        sector = dict(zip(rep.spectrum.eigenvalues.tolist(), rep.spectrum.sectors.tolist()))
        for i, j, gap, nn in rep.jordan_pairs:
            if sector[rep.eigenvalues[i]] != sector[rep.eigenvalues[j]]:
                print(f"  ({i},{j}): gap {gap:.2e}, different sectors (normal by structure, nonnormality 0.0)")
            else:
                print(f"  ({i},{j}): gap {gap:.2e}, subspace nonnormality {nn:.2e}")
    else:
        print("no near-degenerate pairs flagged")


if __name__ == "__main__":
    main()
