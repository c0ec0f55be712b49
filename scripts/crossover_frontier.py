#!/usr/bin/env python3
"""Map the tilt threshold where the quantum-coin method overtakes the
yield-inversion method.

For each strength of the secondary flaw (rotation theta or leak mu) the
two methods are compared at a fixed loss and the encoding tilt delta is
bisected to the value where their key rates tie.  Below the frontier the
coin method wins, above it the yield method does.
"""

import argparse

from flawedqkd import CrossoverConfig, find_crossover
from flawedqkd.cli import crossover_csv


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sweep-param", choices=("theta", "mu"), default="mu")
    ap.add_argument(
        "--sweep-values",
        default="1e-9,3e-9,1e-8,3e-8,1e-7,3e-7,1e-6,3e-6,1e-5",
        help="comma-separated grid for the swept flaw",
    )
    ap.add_argument("--fixed-value", type=float, default=1e-6, help="the other flaw's strength")
    ap.add_argument("--compare-loss", type=float, default=20.0)
    ap.add_argument("--pd", type=float, default=1e-7)
    ap.add_argument("--theta-mode", choices=("independent", "dependent"), default="dependent")
    args = ap.parse_args(argv)

    swept = args.sweep_param
    fixed = "mu" if swept == "theta" else "theta"
    config = CrossoverConfig(
        fixed_param=fixed,
        fixed_value=args.fixed_value,
        swept_param=swept,
        swept_values=tuple(float(v) for v in args.sweep_values.split(",") if v),
        compare_loss_db=args.compare_loss,
        theta_mode=args.theta_mode,
        p_d=args.pd,
    )
    print(crossover_csv(find_crossover(config), config.compare_loss_db), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
