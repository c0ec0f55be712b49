#!/usr/bin/env python3
"""Rate-versus-loss curves for a family of flawed devices.

Runs `flawedqkd sweep`, both estimation methods by default, over a loss
grid for each device in a small built-in family (clean, tilted, rotated,
leaky, everything at once) and writes one CSV per device, or a single
combined CSV with a device column.  Any other argument, such as --pd,
--f-ec or --solver, is passed on to every sweep.

Example:
    python3 scripts/loss_sweep.py --loss-range 0:60:0.5 --out-dir results/
"""

import argparse
import contextlib
import io
import os
import sys

from flawedqkd import cli

# Each device's flags of `flawedqkd sweep`.
DEVICE_FAMILY = {
    "clean": "",
    "tilted": "--delta 0.126",
    "rotated": "--theta 1e-3 --theta-mode dependent",
    "leaky": "--mu 1e-7",
    "all-flaws": "--delta 0.063 --theta 1e-3 --theta-mode dependent --mu 1e-7",
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--loss-range", default="0:60:0.5", help="start:stop:step in dB")
    ap.add_argument("--devices", default=",".join(DEVICE_FAMILY),
                    help="comma-separated subset of: " + ", ".join(DEVICE_FAMILY))
    ap.add_argument("--out-dir", default=None, help="write one CSV per device here")
    args, sweep_args = ap.parse_known_args(argv)

    names = [n for n in args.devices.split(",") if n]
    unknown = [n for n in names if n not in DEVICE_FAMILY]
    if unknown:
        ap.error(f"unknown device names: {unknown}")

    # Every sweep runs before anything is written, so a failing one leaves
    # stdout empty.
    texts = {}
    for name in names:
        sweep = ["sweep", f"--loss-range={args.loss_range}", *DEVICE_FAMILY[name].split()]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(sweep + sweep_args)
        if code != 0:
            raise SystemExit(code)
        texts[name] = out.getvalue()
    if not all(text.startswith("loss_db,") for text in texts.values()):
        ap.error("the sweeps must print CSV; --format json is not supported")

    for name, text in texts.items():
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
