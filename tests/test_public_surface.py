"""The package's public names, every use of them outside the library, and
what the library itself imports.

The benchmark and the scripts import the package by name; a name they use
must keep resolving, with the keyword arguments they pass.
"""

import ast
import importlib
import inspect
import sys
import types
from pathlib import Path

import pytest

import flawedqkd
from flawedqkd.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "flawedqkd").glob("*.py"))
CONSUMERS = sorted(
    [ROOT / "bench" / "check.py", ROOT / "bench" / "worker.py", *(ROOT / "scripts").glob("*.py")]
)

EXPORTED = {
    "ChannelModel",
    "CrossoverConfig",
    "CrossoverRecord",
    "DegenerateStateError",
    "DeviceModel",
    "EstimatorError",
    "GridRates",
    "InfeasibleStatisticsError",
    "NoDetectionError",
    "PAPER_FAITHFUL",
    "PreparedDevice",
    "ProtocolProbabilities",
    "SOLVER_MODES",
    "SingularSystemError",
    "SweepConfig",
    "SweepRow",
    "VERTEX_LP",
    "binary_entropy",
    "coin_imbalance",
    "evaluate_grid",
    "find_crossover",
    "key_rate_lp",
    "key_rate_lt",
    "loss_grid",
    "prepare",
    "run_sweep",
    "system_efficiency",
    "tha_coefficients",
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


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_library_imports_only_the_standard_library_and_numpy(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names]
    modules += [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 0]
    for module in modules:
        top = module.split(".")[0]
        assert top in sys.stdlib_module_names or top == "numpy", f"{path.name}: {module}"
