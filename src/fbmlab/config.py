"""Declarative experiment configuration.

INI-style key-value sections, parsed fail-closed: unknown sections or keys
are errors, so a typo cannot silently fall back to a default.  Every
parsed config is hash-addressable (sha256 over the canonical key-sorted
serialization); the hash is embedded in every output artifact so results
can be traced back to the exact configuration that produced them.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field

from .fbm import DENSE_MAX_STEPS


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


# section -> key -> (type, default); default None marks a required key
_SCHEMA = {
    "experiment": {
        "name": (str, "experiment"),
        "seed": (int, 0),
    },
    "grid": {
        "t_max": (float, 1.0),
        "n_steps": (int, 256),
    },
    "fbm": {
        "hurst": (float, 0.75),
        "generator": (str, "circulant"),
        "n_paths": (int, 1000),
        "components": (int, 1),
    },
    "sde": {
        "model": (str, "additive"),
        "drift_b": (float, -1.0),
        "sigma": (float, 1.0),
        "x0": (float, 0.0),
    },
    "verify": {
        "verifiers": (str, ",".join(VERIFIER_NAMES)),
        "beta": (float, 0.6),
        "n_paths": (int, 20000),
        "horizons": (str, "1,2,4"),
        "delta": (float, 0.5),
        "c_delta_values": (str, "1,2,10,1e6"),
    },
}


def schema_defaults(section: str, *keys: str) -> dict:
    """{key: its default} for keys of one config section."""
    return {key: _SCHEMA[section][key][1] for key in keys}


_GENERATORS = ("cholesky", "circulant", "transfer")
# no command simulates the scalar model; the [sde] model key stays because
# it enters config_hash
_MODELS = ("additive",)


@dataclass
class ExperimentConfig:
    """Parsed, validated experiment configuration."""

    sections: dict = field(default_factory=dict)
    source_path: str = ""

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
            raise ConfigError(
                f"unknown section [{sec}]; known: {', '.join(sorted(_SCHEMA))}"
            )
        sections[sec] = {}
        for key, raw in pairs:
            if key not in _SCHEMA[sec]:
                raise ConfigError(
                    f"unknown key {key!r} in section [{sec}]; "
                    f"known: {', '.join(sorted(_SCHEMA[sec]))}"
                )
            typ, _default = _SCHEMA[sec][key]
            try:
                sections[sec][key] = typ(raw) if typ is not int else int(raw, 0)
            except ValueError as exc:
                raise ConfigError(
                    f"[{sec}] {key} = {raw!r}: expected {typ.__name__}"
                ) from exc
    # fill defaults for missing sections/keys
    for sec, keys in _SCHEMA.items():
        sections.setdefault(sec, {})
        for key, (_typ, default) in keys.items():
            sections[sec].setdefault(key, default)
    if seed_override is not None:
        sections["experiment"]["seed"] = int(seed_override)
    cfg = ExperimentConfig(sections=sections, source_path=str(path))
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    for sec, keys in _SCHEMA.items():
        for key, (typ, _default) in keys.items():
            value = cfg.get(sec, key)
            if typ is float and not math.isfinite(value):
                raise ConfigError(f"[{sec}] {key} must be finite, got {value}")
    seed = cfg.get("experiment", "seed")
    if not 0 <= seed < 2**64:
        raise ConfigError(f"[experiment] seed must be in [0, 2**64), got {seed}")
    h = cfg.get("fbm", "hurst")
    if not 0.5 < h < 1.0:
        raise ConfigError(f"[fbm] hurst must be in (1/2, 1), got {h}")
    gen = cfg.get("fbm", "generator")
    if gen not in _GENERATORS:
        raise ConfigError(f"[fbm] generator must be one of {_GENERATORS}, got {gen!r}")
    if cfg.get("fbm", "components") < 1:
        raise ConfigError("[fbm] components must be >= 1")
    model = cfg.get("sde", "model")
    if model not in _MODELS:
        raise ConfigError(f"[sde] model must be one of {_MODELS}, got {model!r}")
    n_steps = cfg.get("grid", "n_steps")
    if n_steps < 1:
        raise ConfigError("[grid] n_steps must be >= 1")
    if gen != "circulant" and n_steps > DENSE_MAX_STEPS:
        raise ConfigError(f"[fbm] generator = {gen} builds an (n_steps, n_steps) array, "
                          f"capped at {DENSE_MAX_STEPS} steps; got [grid] n_steps = {n_steps}")
    if cfg.get("grid", "t_max") <= 0:
        raise ConfigError("[grid] t_max must be positive")
    for sec in ("fbm", "verify"):
        if cfg.get(sec, "n_paths") < 1:
            raise ConfigError(f"[{sec}] n_paths must be >= 1")
    beta = cfg.get("verify", "beta")
    if not 0.0 < beta < 1.0:
        raise ConfigError(f"[verify] beta must be in (0, 1), got {beta}")
    delta = cfg.get("verify", "delta")
    if delta <= 0:
        raise ConfigError(f"[verify] delta must be positive, got {delta}")
    # parsing validates the verifier names and the number lists
    cfg.verifier_list, cfg.horizon_list, cfg.c_delta_list
