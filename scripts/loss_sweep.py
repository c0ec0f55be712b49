#!/usr/bin/env python3
"""Rate-versus-loss curves for a family of flawed devices.

Runs both estimation methods over a loss grid for each device in a small
built-in family (clean, tilted, rotated, leaky, everything at once) and
writes one CSV per device, or a single combined CSV with a device column.

Example:
    python3 scripts/loss_sweep.py --loss-range 0:60:0.5 --out-dir results/
"""

import argparse
import os
import sys

from flawedqkd import ChannelModel, DeviceModel, SweepConfig, run_sweep
from flawedqkd.cli import sweep_csv

DEVICE_FAMILY = {
    "clean": DeviceModel(),
    "tilted": DeviceModel(delta=0.126),
    "rotated": DeviceModel(theta_hat=1e-3, theta_mode="dependent"),
    "leaky": DeviceModel(mu=1e-7),
    "all-flaws": DeviceModel(delta=0.063, theta_hat=1e-3, theta_mode="dependent", mu=1e-7),
}


def parse_range(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--loss-range needs start:stop:step, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    return start, stop, step


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--loss-range", default="0:60:0.5", help="start:stop:step in dB")
    ap.add_argument("--pd", type=float, default=1e-7)
    ap.add_argument("--f-ec", type=float, default=1.16)
    ap.add_argument("--solver", default="paper_faithful")
    ap.add_argument(
        "--devices",
        default=",".join(DEVICE_FAMILY),
        help="comma-separated subset of: " + ", ".join(DEVICE_FAMILY),
    )
    ap.add_argument("--out-dir", default=None, help="write one CSV per device here")
    args = ap.parse_args(argv)

    names = [n for n in args.devices.split(",") if n]
    unknown = [n for n in names if n not in DEVICE_FAMILY]
    if unknown:
        ap.error(f"unknown device names: {unknown}")

    try:
        start, stop, step = parse_range(args.loss_range)
        configs = {
            name: SweepConfig(
                DEVICE_FAMILY[name], start, stop, step, args.pd, args.f_ec, solver=args.solver
            )
            for name in names
        }
        # The sweep's own rules for the range, and one channel for them all.
        ChannelModel(start, args.pd, args.f_ec)
    except ValueError as exc:
        ap.error(str(exc))

    for name, config in configs.items():
        text = sweep_csv(run_sweep(config))
        if args.out_dir:
            os.makedirs(args.out_dir, exist_ok=True)
            path = os.path.join(args.out_dir, f"sweep_{name}.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"wrote {path}", file=sys.stderr)
        else:
            # prefix every data row with the device name so the combined
            # stream stays a valid CSV
            lines = text.splitlines()
            if name == names[0]:
                print("device," + lines[0])
            for line in lines[1:]:
                print(f"{name},{line}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
