#!/usr/bin/env python3
"""Compare the two transmission-rate solvers on a leaky device.

The closed-form interval solver treats each coordinate bound independently
and so over-covers; the vertex enumerator solves the same constraints as a
polytope and is never looser.  This script prints, per loss, the phase
error bound from each solver and the key rate it leads to.
"""

import argparse

from flawedqkd import (
    PAPER_FAITHFUL,
    VERTEX_LP,
    ChannelModel,
    DeviceModel,
    ProtocolProbabilities,
    SweepConfig,
    key_rate_lt,
    loss_grid,
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--delta", type=float, default=0.063)
    ap.add_argument("--theta", type=float, default=1e-3)
    ap.add_argument("--theta-mode", choices=("independent", "dependent"), default="dependent")
    ap.add_argument("--mu", type=float, default=1e-7)
    ap.add_argument("--pd", type=float, default=1e-7)
    ap.add_argument("--loss-start", type=float, default=0.0)
    ap.add_argument("--loss-stop", type=float, default=20.0)
    ap.add_argument("--loss-step", type=float, default=1.0)
    args = ap.parse_args(argv)

    probs = ProtocolProbabilities()
    start, stop, step = args.loss_start, args.loss_stop, args.loss_step
    try:
        device = DeviceModel(
            delta=args.delta, theta_hat=args.theta, theta_mode=args.theta_mode, mu=args.mu
        )
        # The sweep's own rules for the range, and one channel for them all.
        SweepConfig(device, start, stop, step, args.pd, probs=probs)
        ChannelModel(start, p_d=args.pd)
    except ValueError as exc:
        ap.error(str(exc))

    print("loss_db,e_x_interval,e_x_vertex,rate_interval,rate_vertex,rate_gain")
    for loss in loss_grid(start, stop, step):
        channel = ChannelModel(loss, p_d=args.pd)
        box = key_rate_lt(device, channel, probs, PAPER_FAITHFUL)
        vert = key_rate_lt(device, channel, probs, VERTEX_LP)
        gain = vert.rate - box.rate
        print(
            f"{loss:.10g},{box.e_x:.10g},{vert.e_x:.10g},"
            f"{box.rate:.10g},{vert.rate:.10g},{gain:.10g}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
