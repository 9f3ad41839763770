"""Text key-value configuration shared by the harness and the CLI.

Config files hold one ``key = value`` per line with ``#`` comments.  Every
run resolves its configuration against a typed schema (file values first,
then ``--set key=value`` overrides); unknown keys are rejected, and the fully
resolved result is written next to the run artifacts as ``run.lock`` so any
run can be reproduced from that single file.  A schema takes its defaults
from the dataclass or function it configures, and each key's type from its
default, so neither is written twice.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum


class ConfigError(ValueError):
    """A configuration file or override is malformed."""


# keyed by the exact type of a default, so a bool default never reads as int
_TYPE_NAMES = {bool: "bool", int: "int", float: "float", str: "str", tuple: "ints"}


@dataclass(frozen=True)
class Field:
    """One schema entry: default and help text; the value type (int, float,
    bool, str, or ints for a tuple) is the exact type of the default."""

    default: object
    help: str

    @property
    def type(self) -> str:
        return _TYPE_NAMES[type(self.default)]

    def parse(self, key: str, text: str):
        text = text.strip()
        try:
            if self.type == "int":
                return int(text)
            if self.type == "float":
                return float(text)
            if self.type == "bool":
                if text.lower() in ("true", "1", "yes"):
                    return True
                if text.lower() in ("false", "0", "no"):
                    return False
                raise ValueError(text)
            if self.type == "ints":
                return tuple(int(v) for v in text.split(",") if v.strip())
            return text
        except ValueError as exc:
            raise ConfigError(f"key `{key}`: cannot parse {text!r} as {self.type}") from exc


def schema(defaults: dict, help: dict[str, str]) -> dict[str, Field]:
    """Schema of ``defaults`` in key order; raises ``ValueError`` unless every
    key has exactly one help text, so an undocumented key fails at import."""
    if defaults.keys() != help.keys():
        raise ValueError(f"schema keys and help keys differ: {sorted(defaults.keys() ^ help.keys())}")
    return {key: Field(default, help[key]) for key, default in defaults.items()}


def field_values(config) -> dict:
    """A config dataclass's fields by name, with enum members as their values."""
    out = {}
    for f in fields(config):
        val = getattr(config, f.name)
        out[f.name] = val.value if isinstance(val, Enum) else val
    return out


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def read_config_file(path) -> dict[str, str]:
    """Raw ``key = value`` pairs of a config file, without schema typing."""
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {line!r}")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


def resolve(schema: dict[str, Field], file_values: dict[str, str] | None = None, overrides: dict[str, str] | None = None) -> dict:
    """Typed configuration from defaults, file values, and overrides."""
    resolved = {key: f.default for key, f in schema.items()}
    for source_name, source in (("config file", file_values), ("override", overrides)):
        for key, text in (source or {}).items():
            if key not in schema:
                raise ConfigError(f"unknown {source_name} key `{key}`")
            resolved[key] = schema[key].parse(key, text)
    return resolved


def format_config(values: dict) -> str:
    return "".join(f"{key} = {_format_value(val)}\n" for key, val in sorted(values.items()))


def write_lock_file(path, values: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_config(values))
