"""The package's public names, and every use of them outside the library.

The benchmark and the scripts import the package by name; a name they use
must keep resolving, with the keyword arguments they pass.
"""

import ast
import importlib
import inspect
import types
from pathlib import Path

import pytest

import flawedqkd
from flawedqkd.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]
CONSUMERS = sorted(
    [ROOT / "bench" / "check.py", ROOT / "bench" / "worker.py", *(ROOT / "scripts").glob("*.py")]
)

EXPORTED = {
    "BlochVector",
    "ChannelModel",
    "CrossoverConfig",
    "CrossoverRecord",
    "DegenerateStateError",
    "DeviceModel",
    "EstimatorError",
    "FOUR_SETTINGS",
    "GridRates",
    "InfeasibleStatisticsError",
    "KeyRatePoint",
    "NoDetectionError",
    "PAPER_FAITHFUL",
    "PreparedDevice",
    "ProtocolProbabilities",
    "QubitKet",
    "SETTING_0X",
    "SETTING_0Z",
    "SETTING_1X",
    "SETTING_1Z",
    "SOLVER_MODES",
    "Setting",
    "SingularSystemError",
    "StateDecomposition",
    "SweepConfig",
    "SweepRow",
    "THREE_SETTINGS",
    "VERTEX_LP",
    "actual_decomposition",
    "binary_entropy",
    "bloch_vector",
    "coin_imbalance",
    "evaluate_grid",
    "find_crossover",
    "full_overlap",
    "key_rate_lp",
    "key_rate_lt",
    "loss_grid",
    "mode_angles",
    "prepare",
    "qubit_state",
    "run_sweep",
    "system_efficiency",
    "tha_coefficients",
    "virtual_decomposition",
    "z_basis_yield",
}


def test_package_exports_exactly_the_listed_names():
    public = {
        name
        for name, value in vars(flawedqkd).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == EXPORTED


def _package_uses(path):
    """(module, attribute, keywords, line) of every package name a file
    uses: imported from a package module, read as an attribute of the
    imported package, or called; keywords holds a call's keyword names."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases, imported = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or a.name for a in node.names if a.name == "flawedqkd"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("flawedqkd"):
            for a in node.names:
                imported[a.asname or a.name] = (node.module, a.name)
    calls = {
        id(node.func): [k.arg for k in node.keywords if k.arg is not None]
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in {m for m, _ in imported.values()}:
            for a in node.names:
                yield node.module, a.name, [], node.lineno
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases):
            yield "flawedqkd", node.attr, calls.get(id(node), []), node.lineno
        elif isinstance(node, ast.Name) and node.id in imported and id(node) in calls:
            yield (*imported[node.id], calls[id(node)], node.lineno)


@pytest.mark.parametrize("path", CONSUMERS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_name_used_outside_the_library_resolves(path):
    uses = list(_package_uses(path))
    assert uses, path
    for module, name, keywords, line in uses:
        where = f"{path.name}:{line}: {module}.{name}"
        target = importlib.import_module(module)
        assert hasattr(target, name), where
        if keywords:
            inspect.signature(getattr(target, name)).bind_partial(
                **dict.fromkeys(keywords)
            )


def test_worker_passes_jobs_to_the_sweep_config():
    uses = _package_uses(ROOT / "bench" / "worker.py")
    assert any(name == "SweepConfig" and "jobs" in keywords for _, name, keywords, _ in uses)


def test_cli_has_exactly_three_subcommands(capsys):
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert set(sub.choices) == {"rate", "sweep", "crossover"}
    with pytest.raises(SystemExit) as exc:
        main(["azuma", "--n-trials", "1000", "--eps", "1e-3", "--eps-hat", "1e-3",
              "--observed", "500"])
    assert exc.value.code == 2
    assert "invalid choice: 'azuma'" in capsys.readouterr().err
