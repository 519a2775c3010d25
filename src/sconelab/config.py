"""Plain-text experiment configuration.

The config file is INI-style: [experiment], [stream], [optimizer], [hyper]
and [run] sections of key = value pairs. Every key has a documented
default, unknown sections or keys are rejected, and parse(serialize(spec))
reproduces the spec exactly. Schedules accept a scalar (broadcast over
timesteps) or a comma-separated per-timestep list.

SECTIONS maps each section to the dataclass that holds it, and the keys of
a section are that dataclass's field names, parsed by their annotated
types: int, float, str, bool, an Enum (by value), a tuple (comma-separated;
a value with no items is the empty tuple, which the dataclass accepts or
rejects, and an empty item beside others is an error), or a
`tuple | None` schedule. A knob is therefore one field: a numeric one is
declared as knob(default, interval), and the dataclass's check_knobs
rejects any value, or tuple entry, outside that interval. _fmt writes each
value back, and the CLI prints its CSV cells with it too. A schedule left
as None (its default) is left out of the written text, so it parses back
to None.
"""

from __future__ import annotations

import configparser
import enum
import io
import types
from dataclasses import dataclass, field, replace
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .knobs import check_knobs, knob
from .losses import Hyperparams
from .model import OptimizerConfig
from .stream import StreamConfig
from .trainer import METHOD_TEMP_ATC, METHODS, RunConfig

EMIT_MODES = ("csv", "json", "both")


class ConfigError(ValueError):
    """Configuration problem, annotated with the offending key path."""


@dataclass(frozen=True)
class ExperimentSpec:
    methods: tuple[str, ...] = (METHOD_TEMP_ATC,)
    seeds: tuple[int, ...] = knob((0,), "[0, inf)")
    emit: str = "both"
    out_dir: str = "results"
    base_run: RunConfig = field(default_factory=RunConfig)

    def __post_init__(self):
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}; choose from {METHODS}")
        # a repeated entry would rerun that grid cell and count it twice in the means
        for name, values in (("method", self.methods), ("seed", self.seeds)):
            if not values:
                raise ValueError(f"at least one {name} is required")
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ValueError(f"duplicate {name} {repeated[0]!r} in {list(values)}")
        check_knobs(self)
        if self.emit not in EMIT_MODES:
            raise ValueError(f"emit must be one of {EMIT_MODES}, got {self.emit!r}")

    def run_config(self, method: str, seed: int) -> RunConfig:
        return replace(self.base_run, method=method, seed=seed)


SECTIONS = {
    "experiment": ExperimentSpec,
    "stream": StreamConfig,
    "optimizer": OptimizerConfig,
    "hyper": Hyperparams,
    "run": RunConfig,
}

# Fields that are not keys: the sections nested in the spec, and the method
# and seed that [experiment] sets per run.
_NOT_KEYS = frozenset({"base_run", "stream", "optimizer", "hyper", "method", "seed"})

# section -> {key (the field name): annotated type}
KEYS = {
    section: {name: kind for name, kind in get_type_hints(cls).items() if name not in _NOT_KEYS}
    for section, cls in SECTIONS.items()
}


def _parse_value(raw: str, kind):
    """Parse one INI value as the annotated type `kind`; raises ValueError."""
    if isinstance(kind, types.UnionType):
        # a schedule: one value broadcasts over timesteps, a list is per-timestep
        values = _parse_value(raw, get_args(kind)[0])
        return values[0] if len(values) == 1 else values
    if get_origin(kind) is tuple:
        items = [part.strip() for part in raw.split(",")]
        if not any(items):
            return ()
        if not all(items):
            raise ValueError(f"empty item in list {raw!r}")
        return tuple(_parse_value(item, get_args(kind)[0]) for item in items)
    if kind is bool:
        if raw.lower() in ("true", "yes", "1"):
            return True
        if raw.lower() in ("false", "no", "0"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if issubclass(kind, enum.Enum):
        try:
            return kind(raw)
        except ValueError:
            choices = [member.value for member in kind]
            raise ValueError(f"unknown value {raw!r}; choose from {choices}") from None
    return kind(raw)


def _section_kwargs(parser: configparser.ConfigParser, section: str) -> dict:
    if not parser.has_section(section):
        return {}
    kwargs = {}
    for key, raw in parser[section].items():
        if key not in KEYS[section]:
            raise ConfigError(f"unknown key [{section}] {key}")
        try:
            kwargs[key] = _parse_value(raw, KEYS[section][key])
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from None
    return kwargs


def _build(section: str, kwargs: dict):
    try:
        return SECTIONS[section](**kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section}]: {exc}") from None


def parse_config_text(text: str) -> ExperimentSpec:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax: {exc}") from None
    for section in parser.sections():
        if section not in SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
    kwargs = {section: _section_kwargs(parser, section) for section in SECTIONS}

    spec = _build("experiment", kwargs["experiment"])
    base_run = _build(
        "run",
        {
            **kwargs["run"],
            "stream": _build("stream", kwargs["stream"]),
            "optimizer": _build("optimizer", kwargs["optimizer"]),
            "hyper": _build("hyper", kwargs["hyper"]),
            "method": spec.methods[0],
            "seed": spec.seeds[0],
        },
    )
    return replace(spec, base_run=base_run)


def parse_config(path) -> ExperimentSpec:
    with open(path) as fh:
        return parse_config_text(fh.read())


def _fmt(value) -> str:
    """One INI value or CSV cell as text; a float prints its repr, so it
    parses back to the same bits."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (tuple, list)):
        return ", ".join(_fmt(v) for v in value)
    if isinstance(value, enum.Enum):
        return value.value
    return str(value)


def serialize_spec(spec: ExperimentSpec) -> str:
    """Fully explicit INI text; parse_config_text round-trips it exactly."""
    run = spec.base_run
    values = {
        "experiment": spec,
        "stream": run.stream,
        "optimizer": run.optimizer,
        "hyper": run.hyper,
        "run": run,
    }
    parser = configparser.ConfigParser(interpolation=None)
    for section, keys in KEYS.items():
        parser[section] = {
            key: _fmt(value) for key in keys if (value := getattr(values[section], key)) is not None
        }
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()
