#!/usr/bin/env python3
"""Decay study: distance of the translation transport from its braid limit.

Sweeps the chamber depth and prints the log-residual per depth together with
the fitted slope and the slope that the braid-limit check reads (between the
depths a and 2a of ``braid_limit_slope``), both of which should track log(p).
"""

import argparse
import math

import numpy as np

from qkzconn import HeckeParams, default_params, spin_rep
from qkzconn.params import sample_phi
from qkzconn.qkz import braid_limit_residual, braid_limit_slope


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=3)
    parser.add_argument("--p", type=float, default=0.35)
    parser.add_argument("--kappa", type=float, default=0.27)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--depths", type=str, default="4,6,8,10,12,16,20,30,40")
    args = parser.parse_args()

    ep = default_params(args.p, args.kappa)
    rng = np.random.default_rng(args.seed)
    phi = sample_phi(rng)
    rep = spin_rep(HeckeParams(elliptic=ep, n=args.n), phi)
    lam = (1,) + (0,) * (args.n - 1)

    depths = [float(d) for d in args.depths.split(",")]
    rows = []
    for depth in depths:
        res = braid_limit_residual(rep, lam, depth)
        rows.append((depth, res))
        print(f"depth {depth:6.1f}   residual {res:.3e}   log10 {math.log10(max(res, 1e-300)):7.2f}")

    # fit the slope on the clean decay regime (residual above the noise floor)
    clean = [(d, r) for d, r in rows if r > 1e-13]
    if len(clean) >= 2:
        xs = np.array([d for d, _ in clean])
        ys = np.array([math.log(r) for _, r in clean])
        slope = float(np.polyfit(xs, ys, 1)[0])
        print(f"fitted log-slope {slope:.4f} vs log p = {ep.nome.log_p:.4f}")
    print(f"check's window slope {braid_limit_slope(rep, lam):.4f} vs log p = {ep.nome.log_p:.4f}")


if __name__ == "__main__":
    main()
