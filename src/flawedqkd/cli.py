"""Command-line front end: single points, loss sweeps and the crossover
search, with CSV or JSON output.

Output is deterministic: identical configuration produces byte-identical
text, with numbers rendered at 10 significant digits and rows ordered by
loss, then method.  Exit codes: 0 on success, 2 for invalid arguments, 3
when the numerical procedure itself fails (singular system, infeasible
statistics).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from itertools import chain, compress, count, repeat
from operator import is_not, itemgetter
from typing import Any, Iterable, Iterator, Sequence

from .channel import ProtocolProbabilities, check
from .engine import (
    CROSSOVER_PARAMS,
    METHODS,
    CrossoverConfig,
    CrossoverRecord,
    Sweep,
    SweepConfig,
    SweepRow,
    find_crossover,
    run_sweep,
)
from .errors import EstimatorError
from .lt_estimator import PAPER_FAITHFUL, VERTEX_LP
from .qstates import THETA_MODES, DeviceModel

_SOLVER_FLAGS = {"paper": PAPER_FAITHFUL, "vertex-lp": VERTEX_LP}
_FORMATS = ("csv", "json")
_LOSS = "--loss (or 'loss' in the config file)"  # the rate command's loss, as a user names it


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _num(x: float) -> float:
    # Round-trip through the 10-significant-digit rendering so CSV and
    # JSON carry the same values.
    return float(_fmt(x))


# Column order of each output record: its named-tuple fields, less the
# sweep's error message, which only the JSON form carries.
_SWEEP_FIELDS = SweepRow._fields[:7]
_CROSSOVER_FIELDS = CrossoverRecord._fields


def _cell(x: str | float | None) -> str:
    if isinstance(x, str):
        return x
    return "" if x is None else _fmt(x)


def _value(x: str | float | None) -> str | float | None:
    if isinstance(x, str) or x is None:
        return x
    return _num(x)


def _item(record: tuple, names: tuple[str, ...]) -> dict[str, Any]:
    return dict(zip(names, map(_value, record)))


def _texts(values: list) -> list[str]:
    # Each value rendered as _fmt does, by one % over the whole column.
    return ("%.10g\n" * len(values) % tuple(values)).split("\n")[:-1]


def _failed(errors: list) -> Iterator[int]:
    return compress(count(), map(is_not, errors, repeat(None)))


def sweep_csv(sweep: Sweep) -> str:
    # Each row from the columns: loss, eta and a shared e_z rendered once per
    # loss, rate as rate_raw's text or 0 where rate_raw < 0, empty cells where failed.
    losses, etas = _texts(sweep.losses), _texts(sweep.etas)
    shared = {id(r.e_z): r.e_z for r in sweep.rates.values()}
    e_z = {key: _texts(column.tolist()) for key, column in shared.items()}
    columns: list[list[str]] = []
    for method, r in sweep.rates.items():
        e_x, raw = _texts(r.e_x.tolist()), _texts(r.rate_raw.tolist())
        rate = ["0" if w < 0.0 else text for w, text in zip(r.rate_raw.tolist(), raw)]
        lines = list(map(",".join, zip(losses, etas, repeat(method), e_z[id(r.e_z)], e_x, raw,
                                       rate)))
        for i in _failed(r.errors):
            lines[i] = f"{losses[i]},{etas[i]},{method},,,,"
        columns.append(lines)
    return "\n".join([",".join(_SWEEP_FIELDS), *chain.from_iterable(zip(*columns))]) + "\n"


def _failures(sweep: Sweep) -> list[tuple[float, str, EstimatorError]]:
    # Each failed row's loss, method and error, in row order (a stable sort).
    failed = [(i, m, r.errors[i]) for m, r in sweep.rates.items() for i in _failed(r.errors)]
    return [(sweep.losses[i], m, error) for i, m, error in sorted(failed, key=itemgetter(0))]


def sweep_json(rows: Iterable[SweepRow]) -> str:
    payload = [_item(r, _SWEEP_FIELDS if r.error is None else SweepRow._fields) for r in rows]
    return json.dumps(payload, indent=2) + "\n"


def crossover_csv(records: Sequence[CrossoverRecord], compare_loss_db: float) -> str:
    lines = [f"# compare_loss_db={_fmt(compare_loss_db)}", ",".join(_CROSSOVER_FIELDS)]
    lines += (",".join(map(_cell, r)) for r in records)
    return "\n".join(lines) + "\n"


def crossover_json(records: Sequence[CrossoverRecord], compare_loss_db: float) -> str:
    payload = {
        "compare_loss_db": _num(compare_loss_db),
        "records": [_item(r, _CROSSOVER_FIELDS) for r in records],
    }
    return json.dumps(payload, indent=2) + "\n"


def _is_number(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


_NUMBER = (_is_number, "a number")
_STRING = (lambda x: isinstance(x, str), "a string")

# Every setting: the dest of its flag, its config-file key (a dotted key is
# an entry of a section) and the JSON kind that key must hold.  The key's
# last part names the setting; it is the field of the library config that
# takes the setting and holds its default.  --loss-range gives loss_start,
# loss_stop and loss_step together, so no flag has those three dests.
_SETTINGS = {
    "delta": ("device.delta", _NUMBER),
    "theta": ("device.theta_hat", _NUMBER),
    "theta_mode": ("device.theta_mode", _STRING),
    "mu": ("device.mu", _NUMBER),
    "pza": ("probs.p_za", _NUMBER),
    "pzb": ("probs.p_zb", _NUMBER),
    "pd": ("channel.p_d", _NUMBER),
    "f_ec": ("channel.f_ec", _NUMBER),
    "format": ("format", (lambda x: x in _FORMATS, "'csv' or 'json'")),
    "loss": ("loss", _NUMBER),
    "loss_start": ("loss_start", _NUMBER),
    "loss_stop": ("loss_stop", _NUMBER),
    "loss_step": ("loss_step", _NUMBER),
    "jobs": ("jobs", _NUMBER),
    "method": ("methods", (lambda x: isinstance(x, (str, list)), "a string or a list")),
    "solver": ("solver", _STRING),
    "sweep_param": ("swept_param", _STRING),
    "sweep_values": (
        "swept_values",
        (lambda x: isinstance(x, list) and all(map(_is_number, x)), "a list of numbers"),
    ),
    "compare_loss": ("compare_loss_db", _NUMBER),
    "bisect_tol": ("bisection_tolerance", _NUMBER),
}
_KINDS = {tuple(key.split(".")): kind for key, kind in _SETTINGS.values()}
_SECTIONS = {path[0] for path in _KINDS if len(path) > 1}


def _file_entries(data: dict[str, Any]) -> Iterator[tuple[tuple[str, ...], Any]]:
    # Each key path of the file and its value, in file order.
    for key, value in data.items():
        if key not in _SECTIONS:
            yield (key,), value
        elif isinstance(value, dict):
            yield from (((key, inner), v) for inner, v in value.items())
        else:
            raise ValueError(f"config key {key!r} must be an object, got {value!r}")


def _load_config_file(path: str) -> dict[str, Any]:
    """The settings a config file gives, by name; a null value gives none."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    settings = {}
    for keys, value in _file_entries(data):
        # A misspelled key would otherwise be ignored and run the defaults.
        if keys not in _KINDS:
            raise ValueError(f"unknown config key {'.'.join(keys)!r}")
        valid, kind = _KINDS[keys]
        if value is not None and not valid(value):
            raise ValueError(f"config key {'.'.join(keys)!r} must be {kind}, got {value!r}")
        if value is not None:
            settings[keys[-1]] = value
    return settings


def _parse_loss_range(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--loss-range needs start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ValueError(f"--loss-range needs numeric start:stop:step, got {text!r}")
    return start, stop, step


def _parse_values(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(",") if p != "")
    except ValueError:
        raise ValueError(f"expected comma-separated numbers, got {text!r}")


def _settings(given: dict[str, Any]) -> dict[str, Any]:
    """The config file's settings with the flags given laid over them."""
    path = given.pop("config", None)
    settings = _load_config_file(path) if path else {}
    for dest, value in given.items():
        if dest == "loss_range":
            settings.update(zip(("loss_start", "loss_stop", "loss_step"), _parse_loss_range(value)))
        else:
            name = _SETTINGS[dest][0].rpartition(".")[2]
            settings[name] = _parse_values(value) if dest == "sweep_values" else value
    if "solver" in settings:
        settings["solver"] = _SOLVER_FLAGS.get(settings["solver"], settings["solver"])
    if "methods" in settings:
        m = settings["methods"]
        settings["methods"] = tuple(m) if isinstance(m, list) else METHODS if m == "both" else (m,)
    return settings


def _build(cls: Any, settings: dict[str, Any], **values: Any) -> Any:
    # cls from the settings named like its fields and the values given;
    # its own defaults fill in the rest.
    named = {f.name: settings[f.name] for f in fields(cls) if f.name in settings}
    return cls(**{**named, **values})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flawedqkd",
        description="Key rates for QKD sources with preparation flaws and leakage",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # A flag left out stays out of the namespace: the config file, then the
    # library configs' defaults, fill its setting in.
    shared = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    shared.add_argument("--delta", type=float, help="encoding phase deviation, radians")
    shared.add_argument("--theta", type=float, help="polarization rotation magnitude, radians")
    shared.add_argument("--theta-mode", choices=THETA_MODES)
    shared.add_argument("--mu", type=float, help="back-reflected probe intensity")
    shared.add_argument("--pd", type=float, help="dark count probability per detector per gate")
    shared.add_argument("--f-ec", type=float, help="error correction inefficiency")
    shared.add_argument("--pza", type=float, help="Alice Z-basis probability")
    shared.add_argument("--pzb", type=float, help="Bob Z-basis probability")
    shared.add_argument("--format", choices=_FORMATS)
    shared.add_argument("--solver", choices=tuple(_SOLVER_FLAGS))
    shared.add_argument("--config", help="JSON config file; flags override file values")

    def command(name: str, text: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, parents=[shared], help=text, argument_default=argparse.SUPPRESS)

    rate = command("rate", "single key-rate point")
    rate.add_argument("--loss", type=float, help="overall system loss, dB")
    rate.add_argument("--method", choices=(*METHODS, "both"))

    sweep = command("sweep", "key rate versus loss")
    sweep.add_argument("--loss-range", help="start:stop:step in dB")
    sweep.add_argument("--method", choices=(*METHODS, "both"))
    sweep.add_argument("--jobs", type=int, help="accepted and ignored; sweeps run serially")

    crossover = command("crossover", "delta where both methods tie")
    crossover.add_argument("--sweep-param", choices=CROSSOVER_PARAMS)
    crossover.add_argument("--sweep-values", help="comma-separated grid")
    crossover.add_argument("--compare-loss", type=float, help="comparison loss, dB")
    crossover.add_argument("--bisect-tol", type=float, help="delta tolerance")

    return parser


def _sweep(settings: dict[str, Any]) -> Sweep:
    device = _build(DeviceModel, settings)
    probs = _build(ProtocolProbabilities, settings)
    return run_sweep(_build(SweepConfig, settings, device=device, probs=probs))


def _run_rate(settings: dict[str, Any]) -> str:
    if "loss" not in settings:
        raise ValueError(f"rate needs {_LOSS}")
    loss = settings["loss"]
    # Checked here, so that the message names the setting the user gave
    # rather than the sweep field or channel field it is passed on as.
    check(**{_LOSS: loss})
    # One point: the sweep's range and jobs, if the file holds them, are not read.
    settings.update(loss_start=loss, loss_stop=loss, loss_step=1.0)
    settings.pop("jobs", None)
    sweep = _sweep(settings)
    # A single point has nothing to salvage: its first failure fails the command.
    for _, _, error in _failures(sweep)[:1]:
        raise error
    return sweep_json(sweep) if settings.get("format") == "json" else sweep_csv(sweep)


def _run_sweep(settings: dict[str, Any]) -> str:
    if not {"loss_start", "loss_stop", "loss_step"} <= settings.keys():
        raise ValueError(
            "sweep needs --loss-range (or loss_start/loss_stop/loss_step in the config file)"
        )
    sweep = _sweep(settings)
    for loss, method, error in _failures(sweep):
        print(f"warning: loss={_fmt(loss)} method={method}: {error}", file=sys.stderr)
    return sweep_json(sweep) if settings.get("format") == "json" else sweep_csv(sweep)


def _run_crossover(settings: dict[str, Any]) -> str:
    if "swept_param" not in settings:
        raise ValueError("crossover needs --sweep-param")
    if "swept_values" not in settings:
        raise ValueError("crossover needs --sweep-values")
    config = _build(
        CrossoverConfig,
        settings,
        swept_values=tuple(settings["swept_values"]),
        device=_build(DeviceModel, settings),
        probs=_build(ProtocolProbabilities, settings),
    )
    records = find_crossover(config)
    if settings.get("format") == "json":
        return crossover_json(records, config.compare_loss_db)
    return crossover_csv(records, config.compare_loss_db)


_HANDLERS = {"rate": _run_rate, "sweep": _run_sweep, "crossover": _run_crossover}

# Built by the first main call and kept for the rest of the process.
_parser: argparse.ArgumentParser | None = None


def _parse(argv: Sequence[str]) -> tuple[str, dict[str, Any]]:
    # A line that starts with a command is parsed once, by that command's own
    # parser.  Any other line, and one with a token that parser leaves, goes
    # through the full parser, which prints argparse's usage and message.
    commands = next(a for a in _parser._actions if a.dest == "command").choices
    if argv and argv[0] in commands:
        namespace, extras = commands[argv[0]].parse_known_args(argv[1:])
        if not extras:
            return argv[0], vars(namespace)
    given = vars(_parser.parse_args(argv))
    return given.pop("command"), given


def main(argv: Sequence[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    command, given = _parse(sys.argv[1:] if argv is None else argv)
    try:
        output = _HANDLERS[command](_settings(given))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EstimatorError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(output)
    return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
