"""The config layer: every config block is a `ConfigBlock` whose fields each carry one
`rule`. A block declares each field once, `name: type = rule(...)`, or, for a nested
block at its defaults, `name: Block`; the class's rule table is built from those
declarations when the class is made. Construction checks every field, `from_dict`
builds a block from parsed JSON, naming any bad key's path, `to_dict` gives its
canonical JSON, and `parse_json` / `read_json` are the package's one JSON reader.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
import sys
from typing import NamedTuple

from .errors import ConfigError

# annotation -> (accepted type, what an error asks for), "list[T]" checking each entry
# as T; other annotations (a nested block, "object") are not type-checked
_TYPES = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a finite number"),
          "bool": (bool, "true or false"), "str": (str, "a string"),
          "list": (list, "a list"), "dict": (dict, "an object")}
_BOUNDS = {"minimum": (operator.ge, ">="), "maximum": (operator.le, "<="),
           "above": (operator.gt, ">"), "below": (operator.lt, "<")}
REQUIRED = object()  # the default of a required key
# the bound of a key squared as a Python float, whose ** raises OverflowError past it
SQRT_FLOAT_MAX = math.sqrt(sys.float_info.max)


def rule(default=REQUIRED, *, choices=None, optional=False, key=None, **bounds):
    """A config field, declared once as `name: type = rule(...)`: no default
    makes the key required; optional allows None; bounds are minimum, maximum
    (inclusive), above, below (exclusive); key is the JSON key, if not name."""
    return FieldRule(key, None, None, None, (choices, optional, bounds), None, default)


def _check(name: str, value, kind: str, choices, optional: bool, bounds: dict) -> None:
    if value is None and optional:
        return
    if choices is not None and value not in choices:
        raise ConfigError(f"{name} must be one of {list(choices)}, got {value!r}")
    if kind.startswith("list["):  # a list whose every entry obeys the rule, bounds included
        _check(name, value, "list", None, False, {})
        for i, item in enumerate(value):
            _check(f"{name}[{i}]", item, kind[5:-1], None, False, bounds)
        return
    if kind in _TYPES:
        accepted, what = _TYPES[kind]
        # a bool is no number; a float's magnitude is compared exactly with the
        # largest float, so NaN, inf and an int too large to convert all fail
        if (isinstance(value, bool) != (kind == "bool") or not isinstance(value, accepted)
                or kind == "float" and not abs(value) <= sys.float_info.max):
            raise ConfigError(f"{name} must be {what}, got {value!r}")
    for bound, limit in bounds.items():
        holds, sign = _BOUNDS[bound]
        if not holds(value, limit):
            raise ConfigError(f"{name} must be {sign} {limit}, got {value!r}")


def unread(table: dict, given: dict, value_of):
    """(switch, value, key) for each key of given that an `unread_when` table leaves
    unread, in table order; value_of(switch) is a switch's value."""
    for (switch, value), keys in table.items():
        now = value_of(switch)
        yield from ((switch, value, key) for key in keys if key in given and now == value)


def reject_unread(table: dict, given: dict, value_of, path, by: str = "") -> None:
    """Raise ConfigError naming the first key of given that an `unread_when` table
    leaves unread (`unread`); path(key) is a key's dotted path."""
    for switch, value, key in unread(table, given, value_of):
        raise ConfigError(f"{path(key)} is not read{by} when {path(switch)}"
                          f" is {json.dumps(value)}")


class FieldRule(NamedTuple):
    """One field of a `ConfigBlock`, declared by `rule` and completed by its class: the
    JSON key, the attribute, the dotted path errors name, the kind `_check` reads
    ("float | None" is "float"), its (choices, optional, bounds) or None for a nested
    block at its defaults, its nested block class or None, and its default."""

    key: str | None
    attr: str | None
    path: str | None
    kind: str | None
    rule: tuple | None
    nested: type | None
    default: object

    @property
    def required(self) -> bool:
        return self.default is REQUIRED


class ConfigBlock:
    """Base of the config blocks: construction checks each field's rule.
    `block` is the block's dotted path, which errors name keys from;
    `unread_when` maps a (switch key or dotted path, value) pair to the
    keys nothing reads while the switch has that value, which `from_dict` rejects.
    Each class's rule table (`rules`) is built when the class is made, from its
    bases' fields, then its own; an instance's attributes are exactly its fields."""

    block = ""
    unread_when = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        table = {key: r._replace(path=cls._path(key))  # the base block's fields first
                 for key, r in getattr(cls, "_rule_table", {}).items()}
        module = vars(sys.modules[cls.__module__])
        for attr, kind in cls.__annotations__.items():
            nested = module.get(kind)
            if not (isinstance(nested, type) and issubclass(nested, ConfigBlock)):
                nested = None
            declared = vars(cls).get(attr) or FieldRule(None, None, None, None, None, None, None)
            key = declared.key or attr
            table[key] = declared._replace(key=key, attr=attr, path=cls._path(key),
                                           kind=kind.split(" |")[0], nested=nested)
        cls._rule_table = table

    def __init__(self, **values):
        """Each field from values or its default, checked in field order."""
        for r in self._rule_table.values():
            if r.attr in values:
                value = values.pop(r.attr)
            elif r.required:
                raise TypeError(f"{type(self).__name__} needs {r.attr}")
            else:
                value = r.nested() if r.rule is None else r.default
            setattr(self, r.attr, value)
            if r.rule is not None:
                _check(r.path, value, r.kind, *r.rule)
        if values:
            raise TypeError(f"{type(self).__name__} has no field {', '.join(values)}")

    def __eq__(self, other):
        return type(other) is type(self) and vars(other) == vars(self)

    @classmethod
    def _path(cls, key: str) -> str:
        return f"{cls.block}.{key}" if cls.block else key

    @classmethod
    def rules(cls) -> dict:
        """The rule table: JSON key -> `FieldRule` for every field, in field order."""
        return cls._rule_table

    @classmethod
    def from_dict(cls, obj, base=None):
        """Build the block from a parsed JSON object; given keys override base
        (absent: the defaults) and nested blocks recurse. A non-object, an
        unknown key or a missing required key is an error naming its path."""
        if not isinstance(obj, dict):
            raise ConfigError(f"{cls.block or cls.__name__} must be an object, got {obj!r}")
        table = cls._rule_table
        unknown = [cls._path(key) for key in sorted(set(obj) - table.keys())]
        if unknown:
            raise ConfigError(f"unknown config key(s) {', '.join(unknown)}")
        values = {}
        for key, r in table.items():
            if key in obj and r.nested is not None:
                values[r.attr] = r.nested.from_dict(obj[key], getattr(base, r.attr, None))
            elif key in obj:
                values[r.attr] = obj[key]
            elif base is not None:
                values[r.attr] = getattr(base, r.attr)
            elif r.required:
                raise ConfigError(f"missing config key {r.path}")
        built = cls(**values)
        built._reject_unread(obj)
        return built

    def _reject_unread(self, given: dict) -> None:
        """Reject a given key that a switch leaves unread (`unread_when`)."""
        reject_unread(self.unread_when, given, lambda k: operator.attrgetter(k)(self), self._path)

    def to_dict(self) -> dict:
        """The block's canonical JSON, which `from_dict` reads back to an equal block:
        each key in field order, a nested block as its own `to_dict`, leaving out a
        None value and a key that a switch leaves unread (`unread_when`)."""
        out = {}
        for key, r in self._rule_table.items():
            value = getattr(self, r.attr)
            if value is not None:
                out[key] = value.to_dict() if r.nested is not None else value
        for *_, key in unread(self.unread_when, out, lambda k: operator.attrgetter(k)(self)):
            del out[key]
        return out


def parse_json(text: str, where: str):
    """The parsed JSON text; invalid JSON is an error naming where, line and column."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{where} is not valid JSON: {exc.msg} at line {exc.lineno}"
                          f" column {exc.colno}") from exc
    except ValueError as exc:  # an integer of more digits than Python converts
        raise ConfigError(f"{where} cannot be parsed: {str(exc).split(';')[0]}") from exc
    except RecursionError as exc:  # arrays or objects nested past the parser's depth
        raise ConfigError(f"{where} cannot be parsed: it is nested too deeply") from exc


def read_json(path):
    """The parsed JSON of the file at path; a file that cannot be read or parsed is an
    error naming it."""
    try:
        with open(path) as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"{path} cannot be read: {reason}") from exc
    return parse_json(text, str(path))
