"""One written domain per parameter, enforced alike on every path.

Each numeric parameter's rules live in ``channel.DOMAINS`` and
``channel.check`` raises their errors; methods and solvers are checked by
``grid.check_estimators``.  So every public entry that takes a parameter
refuses a bad value with the same message, and no module keeps a copy of
a domain's check of its own.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flawedqkd import (
    ChannelModel,
    CrossoverConfig,
    DeviceModel,
    ProtocolProbabilities,
    SweepConfig,
    evaluate_grid,
    prepare,
    tha_coefficients,
)
from flawedqkd.channel import DOMAINS, FLOAT_LIMIT, check

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "flawedqkd").glob("*.py"))

PROBS = ProtocolProbabilities()
PREPARED = prepare(DeviceModel(delta=0.05), PROBS)
ETA = np.array([0.1])
LEAK_FREE = DeviceModel(theta_hat=1e-6)


def _tuple(delta=0.0, theta_hat=0.0, mu=0.0):
    # A device given to prepare as a parameter tuple, not a DeviceModel.
    return prepare([(delta, theta_hat, True, mu)], PROBS)


# Each parameter that more than one public entry takes, and those entries.
ENTRIES = {
    "delta": (lambda v: DeviceModel(delta=v), lambda v: _tuple(delta=v)),
    "theta_hat": (lambda v: DeviceModel(theta_hat=v), lambda v: _tuple(theta_hat=v)),
    "mu": (lambda v: DeviceModel(mu=v), lambda v: _tuple(mu=v), tha_coefficients),
    "p_d": (lambda v: ChannelModel(10.0, p_d=v),
            lambda v: evaluate_grid(PREPARED, ETA, v, 1.16),
            lambda v: SweepConfig(DeviceModel(), 0.0, 10.0, 1.0, p_d=v),
            lambda v: CrossoverConfig("mu", (1e-9,), LEAK_FREE, p_d=v)),
    "f_ec": (lambda v: ChannelModel(10.0, f_ec=v),
             lambda v: evaluate_grid(PREPARED, ETA, 1e-7, v),
             lambda v: SweepConfig(DeviceModel(), 0.0, 10.0, 1.0, f_ec=v),
             lambda v: CrossoverConfig("mu", (1e-9,), LEAK_FREE, f_ec=v)),
    "solver": (lambda v: SweepConfig(DeviceModel(), 0.0, 10.0, 1.0, solver=v),
               lambda v: CrossoverConfig("mu", (1e-9,), LEAK_FREE, solver=v),
               lambda v: evaluate_grid(PREPARED, ETA, 1e-7, 1.16, solver=v)),
    "methods": (lambda v: SweepConfig(DeviceModel(), 0.0, 10.0, 1.0, methods=v),
                lambda v: evaluate_grid(PREPARED, ETA, 1e-7, 1.16, methods=v)),
}

BAD_VALUES = [
    ("delta", math.nan), ("delta", -0.1), ("delta", math.pi),
    ("theta_hat", math.nan), ("theta_hat", math.pi / 2), ("theta_hat", -1e-3),
    ("mu", math.nan), ("mu", -1.0), ("mu", math.inf), ("mu", FLOAT_LIMIT),
    ("p_d", math.nan), ("p_d", 1.0), ("p_d", -1e-9),
    ("f_ec", math.nan), ("f_ec", 0.5), ("f_ec", math.inf), ("f_ec", FLOAT_LIMIT),
    # "paper" is the CLI's flag for the solver, not its name.
    ("solver", "simplex"), ("solver", "paper"),
    ("methods", ("qq",)), ("methods", ("lt", "LP")), ("methods", ()),
]


@pytest.mark.parametrize(
    "name, value", BAD_VALUES,
    ids=[f"{name}-{'int-past-float-range' if v is FLOAT_LIMIT else v}" for name, v in BAD_VALUES],
)
def test_every_entry_refuses_a_bad_value_in_the_same_words(name, value):
    messages = set()
    for build in ENTRIES[name]:
        with pytest.raises(ValueError) as exc:
            build(value)
        messages.add(str(exc.value))
    assert len(messages) == 1, messages
    if name in DOMAINS:
        with pytest.raises(ValueError) as exc:
            check(**{name: value})
        assert messages == {str(exc.value)}
        assert str(exc.value).startswith(f"{name} must ")


def test_check_names_the_first_bad_value_in_the_order_given():
    with pytest.raises(ValueError, match=r"^p_d must lie in \[0, 1\), got 2$"):
        check(loss_db=1.0, p_d=2, f_ec=0.0)
    with pytest.raises(ValueError, match=r"^mu must be nonnegative, got nan$"):
        check(mu=math.nan)
    check(loss_db=math.inf, mu=FLOAT_LIMIT - 1, eta=1.0, jobs=1)
    for name, ((_, wording), *_) in DOMAINS.items():
        with pytest.raises(ValueError) as exc:
            check(**{name: math.nan})
        assert str(exc.value) == f"{name} {wording}, got nan"


# Where a check runs once per device or per grid point, one inline
# comparison guards it and the table is read only to raise.
GUARDED = {
    "delta": lambda v: _tuple(delta=v),
    "theta_hat": lambda v: _tuple(theta_hat=v),
    "mu": tha_coefficients,
    "eta": lambda v: evaluate_grid(PREPARED, np.array([v]), 1e-7, 1.16),
}
EDGES = [0.0, -0.0, -5e-324, 1.0, math.nextafter(1.0, 2.0), math.pi, math.nextafter(math.pi, 0.0),
         math.pi / 2, math.nextafter(math.pi / 2, 0.0), FLOAT_LIMIT - 1, FLOAT_LIMIT, 10**400]


@given(st.sampled_from(sorted(GUARDED)), st.floats() | st.sampled_from(EDGES))
def test_fast_path_guards_refuse_exactly_what_the_table_refuses(name, value):
    def message(build):
        try:
            build(value)
        except ValueError as exc:
            return str(exc)
        return None

    assert message(GUARDED[name]) == message(lambda v: check(**{name: v}))


WORDINGS = {wording for rules in DOMAINS.values() for _, wording in rules}


def _raised_messages(tree):
    """(line, enclosing function, message parts) of each ValueError raised
    with a message; a part is the text between substitutions, or None for
    a substitution."""
    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else function
            if (isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call)
                    and getattr(child.exc.func, "id", None) == "ValueError" and child.exc.args):
                message = child.exc.args[0]
                parts = message.values if isinstance(message, ast.JoinedStr) else [message]
                yield child.lineno, function, [
                    p.value if isinstance(p, ast.Constant) else None for p in parts
                ]
            yield from visit(child, inner)
    return visit(tree, None)


def _domain_copies(tree):
    """Lines of the raises outside check whose message starts with a DOMAINS
    parameter name, or with a substituted name and a DOMAINS wording."""
    for line, function, parts in _raised_messages(tree):
        head = parts[0]
        if isinstance(head, str):
            copy = any(head == name or head.startswith(f"{name} ") for name in DOMAINS)
        else:
            tail = parts[1] if len(parts) > 1 and isinstance(parts[1], str) else ""
            copy = any(tail.startswith(f" {wording}") for wording in WORDINGS)
        if copy and function != "check":
            yield line


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_no_module_keeps_its_own_copy_of_a_domain(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    copies = list(_domain_copies(tree))
    assert not copies, f"{path.name}: lines {copies} raise a DOMAINS error outside check"
    checks = [node for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == "check"]
    assert len(checks) == (path.name == "channel.py")


def test_the_copy_finder_finds_the_copies_it_is_for():
    # Copies of the kinds the table replaced: a literal name, a name
    # substituted in a loop, and a relation worded from a parameter name.
    source = '''
def __post_init__(self):
    for name in ("loss_start", "loss_stop"):
        raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
    raise ValueError(f"loss_step must be positive, got {self.loss_step}")
    raise ValueError("loss_start must not exceed loss_stop")
    raise ValueError(f"{len(self.devices)} prepared devices do not match")
    raise ValueError(f"a loss grid needs loss_start <= loss_stop, got {self.loss_start}")
'''
    assert list(_domain_copies(ast.parse(source))) == [4, 5, 6]
