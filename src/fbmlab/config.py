"""Declarative experiment configuration.

INI-style key-value sections, parsed fail-closed: unknown sections or keys
are errors, so a typo cannot silently fall back to a default.  Each key's
type, default and range are one row of `_SCHEMA`; a value out of its range
is the ConfigError "[sec] key must be <range>, got <value>".  Every
parsed config is hash-addressable (sha256 over the canonical key-sorted
serialization); the hash is embedded in every output artifact so results
can be traced back to the exact configuration that produced them.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field

from .fbm import DENSE_MAX_STEPS, GeneratorTag


class ConfigError(ValueError):
    """Invalid configuration file (maps to CLI exit code 2)."""


VERIFIER_NAMES = (
    "stability",
    "esti-int",
    "fernique",
    "hoeffding-small",
    "hoeffding-large",
    "t1-moments",
    "gaussian-tail",
    "phi-link",
)


def parse_verifiers(text: str) -> list[str]:
    """A comma-separated verifier selection as its names; an unknown or
    repeated name, or an empty selection, is a ConfigError."""
    names = [v.strip() for v in text.split(",") if v.strip()]
    if not names:
        raise ConfigError(f"empty verifier selection {text!r}; "
                          f"known: {', '.join(VERIFIER_NAMES)}")
    for i, name in enumerate(names):
        if name not in VERIFIER_NAMES:
            raise ConfigError(
                f"unknown verifier {name!r}; known: {', '.join(VERIFIER_NAMES)}"
            )
        if name in names[:i]:
            raise ConfigError(f"verifier {name!r} selected twice in {text!r}")
    return names


def _one_of(values) -> tuple:
    values = tuple(values)
    return f"one of {values}", values.__contains__


_AT_LEAST_ONE = (">= 1", lambda v: v >= 1)
_POSITIVE = ("positive", lambda v: v > 0)

# section -> key -> (type, default, range); a range is None or (text, test), and
# _validate holds every value to it ("must be <text>") and every float to finite
_SCHEMA = {
    "experiment": {
        "name": (str, "experiment", None),
        "seed": (int, 0, ("in [0, 2**64)", lambda v: 0 <= v < 2**64)),
    },
    "grid": {
        "t_max": (float, 1.0, _POSITIVE),
        "n_steps": (int, 256, _AT_LEAST_ONE),
    },
    "fbm": {
        "hurst": (float, 0.75, ("in (1/2, 1)", lambda v: 0.5 < v < 1.0)),
        "generator": (str, "circulant", _one_of(tag.value for tag in GeneratorTag)),
        "n_paths": (int, 1000, _AT_LEAST_ONE),
        "components": (int, 1, _AT_LEAST_ONE),
    },
    "sde": {
        # no command simulates the scalar model; the key stays because it
        # enters config_hash
        "model": (str, "additive", _one_of(["additive"])),
        "drift_b": (float, -1.0, None),
        "sigma": (float, 1.0, None),
        "x0": (float, 0.0, None),
    },
    "verify": {
        "verifiers": (str, ",".join(VERIFIER_NAMES), None),
        "beta": (float, 0.6, ("in (0, 1)", lambda v: 0.0 < v < 1.0)),
        "n_paths": (int, 20000, _AT_LEAST_ONE),
        "horizons": (str, "1,2,4", None),
        "delta": (float, 0.5, _POSITIVE),
        "c_delta_values": (str, "1,2,10,1e6", None),
    },
}


def schema_defaults(section: str, *keys: str) -> dict:
    """{key: its default} for keys of one config section."""
    return {key: _SCHEMA[section][key][1] for key in keys}


@dataclass
class ExperimentConfig:
    """Parsed, validated experiment configuration."""

    sections: dict = field(default_factory=dict)

    def get(self, section: str, key: str):
        return self.sections[section][key]

    def require(self, command: str, **supported: dict) -> None:
        """Reject settings a command cannot honour (ConfigError, exit 2);
        `supported` maps a section to {key: the one value the command honours}."""
        for section, keys in supported.items():
            for key, value in keys.items():
                if self.get(section, key) != value:
                    raise ConfigError(f"{command} supports [{section}] {key} = {value} only, "
                                      f"got {self.get(section, key)!r}")

    @property
    def config_hash(self) -> str:
        canon = []
        for sec in sorted(self.sections):
            for key in sorted(self.sections[sec]):
                canon.append(f"{sec}.{key}={self.sections[sec][key]!r}")
        return hashlib.sha256("\n".join(canon).encode()).hexdigest()[:16]

    @property
    def verifier_list(self) -> list[str]:
        return parse_verifiers(self.get("verify", "verifiers"))

    @property
    def horizon_list(self) -> list[float]:
        return self._positive_list("horizons")

    @property
    def c_delta_list(self) -> list[float]:
        return self._positive_list("c_delta_values")

    def _positive_list(self, key: str) -> list[float]:
        """[verify] key as a non-empty list of distinct positive finite
        numbers; values are compared as parsed, so 1 and 1.0 are repeats."""
        raw = self.get("verify", key)
        try:
            values = [float(v) for v in raw.split(",") if v.strip()]
        except ValueError:
            values = []
        if not values or not all(0.0 < v < math.inf for v in values):
            raise ConfigError(f"[verify] {key} = {raw!r}: expected a non-empty "
                              "list of positive finite numbers")
        for i, v in enumerate(values):
            if v in values[:i]:
                raise ConfigError(f"[verify] {key} = {raw!r}: {v:g} given twice")
        return values


def load_config(path: str, seed_override: int | None = None) -> ExperimentConfig:
    """Parse and validate an INI config file, fail-closed."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
        items = {sec: parser.items(sec) for sec in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found or unreadable: {path}")
    sections: dict = {}
    for sec, pairs in items.items():
        if sec not in _SCHEMA:
            raise ConfigError(f"unknown section [{sec}]; known: {', '.join(sorted(_SCHEMA))}")
        sections[sec] = {}
        for key, raw in pairs:
            if key not in _SCHEMA[sec]:
                raise ConfigError(f"unknown key {key!r} in section [{sec}]; "
                                  f"known: {', '.join(sorted(_SCHEMA[sec]))}")
            typ = _SCHEMA[sec][key][0]
            try:
                sections[sec][key] = typ(raw) if typ is not int else int(raw, 0)
            except ValueError as exc:
                raise ConfigError(f"[{sec}] {key} = {raw!r}: expected {typ.__name__}") from exc
    for sec, keys in _SCHEMA.items():  # the defaults of the keys not given
        sections[sec] = {key: row[1] for key, row in keys.items()} | sections.get(sec, {})
    if seed_override is not None:
        sections["experiment"]["seed"] = int(seed_override)
    cfg = ExperimentConfig(sections=sections)
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    for sec, keys in _SCHEMA.items():
        for key, (typ, _default, allowed) in keys.items():
            value = cfg.get(sec, key)
            if typ is float and not math.isfinite(value):
                raise ConfigError(f"[{sec}] {key} must be finite, got {value!r}")
            if allowed is not None and not allowed[1](value):
                raise ConfigError(f"[{sec}] {key} must be {allowed[0]}, got {value!r}")
    gen, n_steps = cfg.get("fbm", "generator"), cfg.get("grid", "n_steps")
    if gen != GeneratorTag.circulant and n_steps > DENSE_MAX_STEPS:
        raise ConfigError(f"[fbm] generator = {gen} builds an (n_steps, n_steps) array, "
                          f"capped at {DENSE_MAX_STEPS} steps; got [grid] n_steps = {n_steps}")
    # parsing validates the verifier names and the number lists
    cfg.verifier_list, cfg.horizon_list, cfg.c_delta_list
