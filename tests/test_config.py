"""The config layer: every `ConfigBlock`'s error messages, pinned, and its invariants.

`tests/config_errors.json` holds the message (or "ok") that `from_dict` gives for
every block x every key x each value of `VALUES`, and for missing, unknown and
non-object input, as recorded before the config layer moved to `lle.config`.
"""

import dataclasses
import importlib
import json
import math
import pkgutil
from pathlib import Path

import pytest

import lle as package
from lle import canonical as canon
from lle import config
from lle import extrapolation as lle
from lle import harness
from lle.config import ConfigBlock
from lle.errors import ConfigError

RECORDED = Path(__file__).resolve().parent / "config_errors.json"

# a valid object of each block, whose keys the probe replaces one at a time
BASES = {
    canon.DAPSParams: {},
    canon.InnerOptParams: {},
    canon.AlgoParams: {"name": "DiffPIR"},
    harness.SeededPrior: {"dim": 2, "components": 1},
    harness.InlinePrior: {"weights": [1.0], "means": [[0.0]], "covariances": [[[1.0]]]},
    harness.PriorFile: {"file": "prior.json"},
    harness.OperatorSpec: {"kind": "mask", "keep_ratio": 0.5},
    harness.TaskSpec: {"operator": {"kind": "mask", "keep_ratio": 0.5}},
    harness.ScheduleSpec: {},
    harness.SeedsSpec: {},
    harness.ConfigFile: {"prior": {"dim": 2, "components": 1},
                         "task": {"operator": {"kind": "mask", "keep_ratio": 0.5}},
                         "algorithm": {"name": "DDRM"}},
    lle.TrainConfig: {},
    lle.LLECoefficients: {"steps": 1, "decoupled": False, "timesteps": [1000],
                          "gamma": [[1.0]]},
}

# label -> value: wrong types, a bool for a number, NaN, +-inf, null, a value outside
# every block's choices, lists of bad entries, and values on both sides of every bound
VALUES = {
    "'x'": "x", "true": True, "false": False, "null": None, "[]": [], "{}": {},
    "[1.0]": [1.0], "['x']": ["x"], "[nan]": [math.nan], "[-1]": [-1], "[[nan]]": [[math.nan]],
    "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
    "-1": -1, "0": 0, "1": 1, "2": 2, "-1.0": -1.0, "0.0": 0.0, "0.5": 0.5, "1.0": 1.0,
    "1.5": 1.5, "100000": 100_000, "100001": 100_001, "1.34e154": 1.34e154,
    "1.35e154": 1.35e154, "1e308": 1e308, "10**309": 10**309,
}
NON_OBJECTS = {"'x'": "x", "1": 1, "[]": [], "null": None, "true": True}


def _message(cls, obj) -> str:
    try:
        cls.from_dict(obj)
    except ConfigError as exc:
        return str(exc)
    return "ok"


def probe() -> dict:
    """Case -> message (or "ok") for every block, key and value, and the bad inputs."""
    out = {}
    for cls, base in sorted(BASES.items(), key=lambda item: item[0].__name__):
        name = cls.__name__
        for key, r in cls.rules.items():
            for label, value in VALUES.items():
                out[f"{name} {key}={label}"] = _message(cls, {**base, key: value})
            if r.required:
                out[f"{name} missing {key}"] = _message(
                    cls, {k: v for k, v in base.items() if k != key})
        out[f"{name} unknown"] = _message(cls, {**base, "bogus": 1})
        for label, value in NON_OBJECTS.items():
            out[f"{name} non-object {label}"] = _message(cls, value)
    return out


def _block_classes(root=ConfigBlock):
    found = []
    for sub in root.__subclasses__():
        found += [sub, *_block_classes(sub)]
    return found


def test_the_probe_covers_every_block_and_both_sides_of_every_bound():
    assert set(_block_classes()) == set(BASES)
    numbers = [v for v in VALUES.values() if type(v) in (int, float) and abs(v) <= 1e308]
    for cls in BASES:
        for r in cls.rules.values():
            for limit in (r.rule[2] if r.rule else {}).values():
                assert min(numbers) < limit < max(numbers), (cls, r.path)


# the keys squared as Python floats by the solvers: above sqrt(float max) their square
# overflows, so load rejects them (they were accepted before)
SIGMA_KEYS = {"TaskSpec sigma_y", "DAPSParams sigma_langevin"}
SQRT_FLOAT_MAX = 1.3407807929942596e154


def _sigma_case(case: str) -> bool:
    head, _, label = case.partition("=")
    value = VALUES.get(label)
    return (head in SIGMA_KEYS and isinstance(value, float) and math.isfinite(value)
            and value > SQRT_FLOAT_MAX)


def test_every_config_error_message_is_the_recorded_one():
    recorded = json.loads(RECORDED.read_text())
    now = probe()
    assert now.keys() == recorded.keys()
    changed = {case for case in now if now[case] != recorded[case]}
    assert changed == {case for case in now if _sigma_case(case)}
    for case in changed:
        path = {"TaskSpec": "task.sigma_y", "DAPSParams": "algorithm.daps.sigma_langevin"}[
            case.split(" ")[0]]
        assert recorded[case] == "ok"
        assert now[case].startswith(f"{path} must be <= {SQRT_FLOAT_MAX}, got "), case
    assert len(changed) == 4  # 1.35e154 and 1e308, for each key


# the dataclasses of lle today, none of them a config block: each one's generated methods
# are built when its module is imported, ~0.5 ms of every fresh process's set-up
DATACLASSES_TODAY = {"diffusion.DiffusionSchedule", "diffusion.TimeGrid",
                     "harness.ExperimentConfig", "numerics.RngStream",
                     "operators.LinearOperator", "operators.NonlinearOperator",
                     "operators.Observation"}


def test_lle_adds_no_dataclass():
    found = set()
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"lle.{info.name}")
        found |= {f"{info.name}.{name}" for name, obj in vars(module).items()
                  if isinstance(obj, type) and obj.__module__ == module.__name__
                  and hasattr(obj, "__dataclass_fields__")}
    assert found == DATACLASSES_TODAY


def test_the_config_layer_lives_in_config_alone():
    for name in ("rule", "_check", "reject_unread", "FieldRule", "ConfigBlock", "parse_json",
                 "read_json", "_TYPES", "_BOUNDS"):
        held = getattr(canon, name, None)  # an imported name is config's own object
        assert held is None or held is getattr(config, name), name


def _at_defaults():
    """(block class, a block at its defaults) for every block, the required keys from
    `BASES`, and each solver's preset."""
    blocks = [(cls, cls.from_dict(base)) for cls, base in BASES.items()]
    return blocks + [(canon.AlgoParams, canon.default_params(name)) for name in canon.SOLVERS]


@pytest.mark.parametrize("cls, block", _at_defaults(),
                         ids=lambda x: x.__name__ if isinstance(x, type) else "")
def test_a_block_holds_its_fields_and_reads_back_its_dict(cls, block):
    assert not dataclasses.is_dataclass(block) and not hasattr(cls, "__dataclass_fields__")
    assert list(vars(block)) == [r.attr for r in cls.rules.values()]
    text = json.dumps(block.to_dict())
    again = cls.from_dict(json.loads(text))
    assert again == block and again is not block
    assert json.dumps(again.to_dict()) == text
    for r in cls.rules.values():  # a nested block at its defaults is a fresh one
        if r.nested is not None:
            assert getattr(again, r.attr) is not getattr(block, r.attr), r.attr
