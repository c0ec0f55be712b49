#!/usr/bin/env python3
"""Compare the two transmission-rate solvers on a leaky device.

The closed-form interval solver treats each coordinate bound independently
and so over-covers; the vertex enumerator solves the same constraints as a
polytope and is never looser.  This script prints, per loss, the phase
error bound from each solver and the key rate it leads to.
"""

import argparse
import sys

from flawedqkd import (
    PAPER_FAITHFUL,
    VERTEX_LP,
    ChannelModel,
    DeviceModel,
    SweepConfig,
    run_sweep,
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--delta", type=float, default=0.063)
    ap.add_argument("--theta", type=float, default=1e-3)
    ap.add_argument("--theta-mode", choices=("independent", "dependent"), default="dependent")
    ap.add_argument("--mu", type=float, default=1e-7)
    ap.add_argument("--pd", type=float, default=ChannelModel.p_d)
    ap.add_argument("--loss-start", type=float, default=0.0)
    ap.add_argument("--loss-stop", type=float, default=20.0)
    ap.add_argument("--loss-step", type=float, default=1.0)
    args = ap.parse_args(argv)

    try:
        device = DeviceModel(
            delta=args.delta, theta_hat=args.theta, theta_mode=args.theta_mode, mu=args.mu
        )
        box, vert = (
            run_sweep(SweepConfig(device, args.loss_start, args.loss_stop, args.loss_step,
                                  args.pd, methods=("lt",), solver=solver))
            for solver in (PAPER_FAITHFUL, VERTEX_LP)
        )
    except ValueError as exc:
        ap.error(str(exc))
    failed = next((r.error for pair in zip(box, vert) for r in pair if r.error is not None), None)
    if failed is not None:
        print(f"numerical failure: {failed}", file=sys.stderr)
        return 3

    print("loss_db,e_x_interval,e_x_vertex,rate_interval,rate_vertex,rate_gain")
    for b, v in zip(box, vert):
        gain = v.rate - b.rate
        print(
            f"{b.loss_db:.10g},{b.e_x:.10g},{v.e_x:.10g},"
            f"{b.rate:.10g},{v.rate:.10g},{gain:.10g}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
