"""Command-line front end: single points, loss sweeps, crossover search,
and concentration-bound arithmetic, with CSV or JSON output.

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
from typing import Any, Sequence

from .channel import ProtocolProbabilities
from .engine import (
    CROSSOVER_PARAMS,
    METHODS,
    CrossoverConfig,
    CrossoverRecord,
    SweepConfig,
    SweepRow,
    find_crossover,
    run_sweep,
)
from .errors import EstimatorError
from .finite_stats import AzumaBudget, azuma_deviation, count_interval
from .lt_estimator import PAPER_FAITHFUL, SOLVER_MODES
from .qstates import DeviceModel

_SOLVER_FLAGS = {"paper": PAPER_FAITHFUL, "vertex-lp": "vertex_lp"}


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _num(x: float) -> float:
    # Round-trip through the 10-significant-digit rendering so CSV and
    # JSON carry the same values.
    return float(_fmt(x))


# Column order of each output record: its dataclass fields, less the
# sweep's error message, which only the JSON form carries.
_SWEEP_FIELDS = tuple(f.name for f in fields(SweepRow) if f.name != "error")
_CROSSOVER_FIELDS = tuple(f.name for f in fields(CrossoverRecord))


def _cell(x: str | float | None) -> str:
    if isinstance(x, str):
        return x
    return "" if x is None else _fmt(x)


def _value(x: str | float | None) -> str | float | None:
    if isinstance(x, str) or x is None:
        return x
    return _num(x)


def _csv(preamble: list[str], records: Sequence[Any], names: tuple[str, ...]) -> str:
    lines = [*preamble, ",".join(names)]
    lines += [",".join(_cell(getattr(r, n)) for n in names) for r in records]
    return "\n".join(lines) + "\n"


def _item(record: Any, names: tuple[str, ...]) -> dict[str, Any]:
    return {n: _value(getattr(record, n)) for n in names}


def sweep_csv(rows: Sequence[SweepRow]) -> str:
    return _csv([], rows, _SWEEP_FIELDS)


def sweep_json(rows: Sequence[SweepRow]) -> str:
    payload = []
    for r in rows:
        item = _item(r, _SWEEP_FIELDS)
        if r.error is not None:
            item["error"] = r.error
        payload.append(item)
    return json.dumps(payload, indent=2) + "\n"


def crossover_csv(records: Sequence[CrossoverRecord], compare_loss_db: float) -> str:
    return _csv([f"# compare_loss_db={_fmt(compare_loss_db)}"], records, _CROSSOVER_FIELDS)


def crossover_json(records: Sequence[CrossoverRecord], compare_loss_db: float) -> str:
    payload = {
        "compare_loss_db": _num(compare_loss_db),
        "records": [_item(r, _CROSSOVER_FIELDS) for r in records],
    }
    return json.dumps(payload, indent=2) + "\n"


def _load_config_file(path: str) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return data


def _cfg(cfg: dict[str, Any], *path: str) -> Any:
    node: Any = cfg
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def _pick(flag: Any, file_value: Any, default: Any) -> Any:
    if flag is not None:
        return flag
    if file_value is not None:
        return file_value
    return default


def _solver_from(name: str | None, cfg: dict[str, Any]) -> str:
    raw = _pick(
        None if name is None else _SOLVER_FLAGS[name], _cfg(cfg, "solver"), PAPER_FAITHFUL
    )
    resolved = _SOLVER_FLAGS.get(raw, raw)
    if resolved not in SOLVER_MODES:
        raise ValueError(f"unknown solver {raw!r}")
    return resolved


def _device_from(args: argparse.Namespace, cfg: dict[str, Any]) -> DeviceModel:
    return DeviceModel(
        delta=_pick(args.delta, _cfg(cfg, "device", "delta"), 0.0),
        theta_hat=_pick(args.theta, _cfg(cfg, "device", "theta_hat"), 0.0),
        theta_mode=_pick(args.theta_mode, _cfg(cfg, "device", "theta_mode"), "dependent"),
        mu=_pick(args.mu, _cfg(cfg, "device", "mu"), 0.0),
    )


def _probs_from(args: argparse.Namespace, cfg: dict[str, Any]) -> ProtocolProbabilities:
    return ProtocolProbabilities(
        p_za=_pick(args.pza, _cfg(cfg, "probs", "p_za"), 0.5),
        p_zb=_pick(args.pzb, _cfg(cfg, "probs", "p_zb"), 0.5),
    )


def _channel_template(args: argparse.Namespace, cfg: dict[str, Any]) -> tuple[float, float]:
    p_d = _pick(args.pd, _cfg(cfg, "channel", "p_d"), 1e-7)
    f_ec = _pick(args.f_ec, _cfg(cfg, "channel", "f_ec"), 1.16)
    return p_d, f_ec


def _methods_from(flag: str | None, cfg: dict[str, Any]) -> tuple[str, ...]:
    raw = _pick(flag, _cfg(cfg, "methods"), "both")
    if isinstance(raw, (list, tuple)):
        return tuple(raw)
    if raw == "both":
        return METHODS
    return (raw,)


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flawedqkd",
        description="Key rates for QKD sources with preparation flaws and leakage",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--delta", type=float, default=None, help="encoding phase deviation, radians")
    shared.add_argument("--theta", type=float, default=None, help="polarization rotation magnitude, radians")
    shared.add_argument("--theta-mode", choices=("independent", "dependent"), default=None)
    shared.add_argument("--mu", type=float, default=None, help="back-reflected probe intensity")
    shared.add_argument("--pd", type=float, default=None, help="dark count probability per detector per gate")
    shared.add_argument("--f-ec", type=float, default=None, help="error correction inefficiency")
    shared.add_argument("--pza", type=float, default=None, help="Alice Z-basis probability")
    shared.add_argument("--pzb", type=float, default=None, help="Bob Z-basis probability")
    shared.add_argument("--format", choices=("csv", "json"), default=None)
    shared.add_argument("--config", default=None, help="JSON config file; flags override file values")

    rate = sub.add_parser("rate", parents=[shared], help="single key-rate point")
    rate.add_argument("--loss", type=float, default=None, help="overall system loss, dB")
    rate.add_argument("--method", choices=("lt", "lp", "both"), default=None)
    rate.add_argument("--solver", choices=tuple(_SOLVER_FLAGS), default=None)

    sweep = sub.add_parser("sweep", parents=[shared], help="key rate versus loss")
    sweep.add_argument("--loss-range", default=None, help="start:stop:step in dB")
    sweep.add_argument("--method", choices=("lt", "lp", "both"), default=None)
    sweep.add_argument("--solver", choices=tuple(_SOLVER_FLAGS), default=None)
    sweep.add_argument(
        "--jobs", type=int, default=None, help="accepted and ignored; sweeps run serially"
    )

    crossover = sub.add_parser(
        "crossover", parents=[shared], help="delta where both methods tie"
    )
    crossover.add_argument("--sweep-param", choices=CROSSOVER_PARAMS, default=None)
    crossover.add_argument("--sweep-values", default=None, help="comma-separated grid")
    crossover.add_argument("--compare-loss", type=float, default=None, help="comparison loss, dB")
    crossover.add_argument("--bisect-tol", type=float, default=None, help="delta tolerance")
    crossover.add_argument("--solver", choices=tuple(_SOLVER_FLAGS), default=None)

    azuma = sub.add_parser("azuma", help="concentration interval for an observed count")
    azuma.add_argument("--n-trials", type=int, required=True)
    azuma.add_argument("--eps", type=float, required=True)
    azuma.add_argument("--eps-hat", type=float, required=True)
    azuma.add_argument("--observed", type=float, required=True)
    azuma.add_argument("--format", choices=("csv", "json"), default="csv")

    return parser


def _sweep_config(
    args: argparse.Namespace, cfg: dict[str, Any], start: float, stop: float, step: float, jobs: int = 1
) -> SweepConfig:
    p_d, f_ec = _channel_template(args, cfg)
    return SweepConfig(
        device=_device_from(args, cfg),
        p_d=p_d,
        f_ec=f_ec,
        probs=_probs_from(args, cfg),
        loss_start=start,
        loss_stop=stop,
        loss_step=step,
        methods=_methods_from(args.method, cfg),
        solver=_solver_from(args.solver, cfg),
        jobs=jobs,
    )


def _run_rate(args: argparse.Namespace, cfg: dict[str, Any], fmt: str) -> str:
    loss = _pick(args.loss, _cfg(cfg, "loss"), None)
    if loss is None:
        raise ValueError("rate needs --loss (or 'loss' in the config file)")
    rows = run_sweep(_sweep_config(args, cfg, loss, loss, 1.0))
    # A single point has nothing to salvage: its first failure fails the command.
    for r in rows:
        if r.error is not None:
            raise EstimatorError(r.error)
    return sweep_csv(rows) if fmt == "csv" else sweep_json(rows)


def _run_sweep(args: argparse.Namespace, cfg: dict[str, Any], fmt: str) -> str:
    if args.loss_range is not None:
        start, stop, step = _parse_loss_range(args.loss_range)
    else:
        start, stop, step = (_cfg(cfg, k) for k in ("loss_start", "loss_stop", "loss_step"))
        if start is None or stop is None or step is None:
            raise ValueError(
                "sweep needs --loss-range (or loss_start/loss_stop/loss_step in the config file)"
            )
    jobs = _pick(args.jobs, _cfg(cfg, "jobs"), 1)
    rows = run_sweep(_sweep_config(args, cfg, start, stop, step, jobs))
    for r in rows:
        if r.error is not None:
            print(
                f"warning: loss={_fmt(r.loss_db)} method={r.method}: {r.error}",
                file=sys.stderr,
            )
    return sweep_csv(rows) if fmt == "csv" else sweep_json(rows)


def _run_crossover(args: argparse.Namespace, cfg: dict[str, Any], fmt: str) -> str:
    swept_param = _pick(args.sweep_param, _cfg(cfg, "swept_param"), None)
    if swept_param is None:
        raise ValueError("crossover needs --sweep-param")
    raw_values = _pick(
        None if args.sweep_values is None else _parse_values(args.sweep_values),
        _cfg(cfg, "swept_values"),
        None,
    )
    if raw_values is None:
        raise ValueError("crossover needs --sweep-values")
    fixed_param = "mu" if swept_param == "theta" else "theta"
    fixed_flag = {"mu": args.mu, "theta": args.theta}[fixed_param]
    fixed_value = _pick(fixed_flag, _cfg(cfg, "fixed_value"), 0.0)
    p_d, f_ec = _channel_template(args, cfg)
    config = CrossoverConfig(
        fixed_param=fixed_param,
        fixed_value=fixed_value,
        swept_param=swept_param,
        swept_values=tuple(raw_values),
        compare_loss_db=_pick(args.compare_loss, _cfg(cfg, "compare_loss_db"), 20.0),
        bisection_tolerance=_pick(args.bisect_tol, _cfg(cfg, "bisection_tolerance"), 1e-10),
        theta_mode=_pick(args.theta_mode, _cfg(cfg, "device", "theta_mode"), "dependent"),
        p_d=p_d,
        f_ec=f_ec,
        probs=_probs_from(args, cfg),
        solver=_solver_from(args.solver, cfg),
    )
    records = find_crossover(config)
    if fmt == "csv":
        return crossover_csv(records, config.compare_loss_db)
    return crossover_json(records, config.compare_loss_db)


def _run_azuma(args: argparse.Namespace) -> str:
    budget = AzumaBudget(args.n_trials, args.eps, args.eps_hat)
    low, high = count_interval(args.observed, budget)
    values = {
        "n_trials": budget.n_trials,
        "observed": args.observed,
        "epsilon": budget.epsilon,
        "epsilon_hat": budget.epsilon_hat,
        "f_eps": azuma_deviation(budget.n_trials, budget.epsilon),
        "f_eps_hat": azuma_deviation(budget.n_trials, budget.epsilon_hat),
        "low": low,
        "high": high,
    }
    if args.format == "csv":
        return ",".join(values) + "\n" + ",".join(_fmt(v) for v in values.values()) + "\n"
    # The trial count stays an integer in JSON.
    payload = {k: v if k == "n_trials" else _num(v) for k, v in values.items()}
    return json.dumps(payload, indent=2) + "\n"


_HANDLERS = {"rate": _run_rate, "sweep": _run_sweep, "crossover": _run_crossover}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "azuma":
            output = _run_azuma(args)
        else:
            cfg = _load_config_file(args.config) if args.config else {}
            fmt = _pick(args.format, _cfg(cfg, "format"), "csv")
            output = _HANDLERS[args.command](args, cfg, fmt)
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
