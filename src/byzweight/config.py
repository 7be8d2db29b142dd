"""Experiment configuration: INI-style sections with strict keys.

Every key has a default, and every file is validated before anything runs.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .engine import TrainConfig, TrimmedMean, participants_per_round
from .tasks import OneHiddenMLP
from .weights import Truncate, TruncationQuery, as_fraction

PREPROCESS_TOKENS = ("passthrough", "truncate", "ignore")
AGGREGATOR_TOKENS = ("mean", "median", "trimmed")
SCENARIO_TOKENS = (
    "none",
    "negation_single",
    "negation_fraction",
    "label_shift_single",
    "label_shift_fraction",
)
MODEL_TOKENS = ("softmax", "mlp")


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    # [task]
    dim: int = 20
    classes: int = 10
    train_samples: int = 20_000
    test_samples: int = 2_000
    clients: int = 100
    partition_mu: float = 1.5
    partition_sigma: float = 3.45
    separation: float = 4.0
    # [model]
    model_kind: str = "softmax"
    hidden: int = 32
    dropout: float = 0.2
    # [training]
    rounds: int = 100
    eta: float = 0.3
    epochs: int = 1
    batch_size: Union[int, float] = 50
    clients_per_round: Optional[Union[int, float]] = None
    honest_use_all_samples: bool = True
    # [preprocess]
    preprocess_modes: tuple[str, ...] = PREPROCESS_TOKENS
    alpha: Fraction = Fraction(1, 10)
    alpha_star: Fraction = Fraction(1, 2)
    # [aggregator]
    aggregator_kinds: tuple[str, ...] = AGGREGATOR_TOKENS
    beta: float = 0.1
    # [attack]
    scenarios: tuple[str, ...] = ("none",)
    attacker_fraction: float = 0.1
    declared_single: int = 10_000_000
    declared_fraction: int = 1_000_000
    # [output]
    out_dir: str = "results"
    # [seeds]
    master_seed: int = 0

    def __post_init__(self) -> None:
        # These values are checked here because their only other owners
        # generate data, and a config is proved before anything runs.
        if self.classes < 1 or self.dim < self.classes:
            raise ConfigError("need 1 <= classes <= dim")
        if self.train_samples < self.clients or self.clients < 1:
            raise ConfigError("need train_samples >= clients >= 1")
        if self.test_samples < 1:
            raise ConfigError("test_samples must be positive")
        if self.model_kind not in MODEL_TOKENS:
            raise ConfigError(f"model kind must be one of {MODEL_TOKENS}")
        _check_tokens(self.preprocess_modes, PREPROCESS_TOKENS, "preprocess mode")
        _check_tokens(self.aggregator_kinds, AGGREGATOR_TOKENS, "aggregator kind")
        _check_tokens(self.scenarios, SCENARIO_TOKENS, "attack scenario")
        if not 0 < self.attacker_fraction < 1:
            raise ConfigError("attacker fraction must lie in (0, 1)")
        if self.declared_single < 1 or self.declared_fraction < 1:
            raise ConfigError("declared sizes must be positive")
        # Every other value is proved by building the type that uses it, for
        # every model kind and mode, so no rule is restated here.
        try:
            query = TruncationQuery(self.alpha, self.alpha_star)
            aggregator = TrimmedMean(self.beta)
            TrainConfig(self.rounds, self.eta, self.epochs, self.batch_size, Truncate(query),
                        aggregator, master_seed=self.master_seed)
            OneHiddenMLP(self.dim, self.hidden, self.classes, self.dropout)
            participants_per_round(self.clients_per_round, self.clients)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        self.alpha, self.alpha_star = query.alpha, query.alpha_star


def _check_tokens(values, allowed, what) -> None:
    if len(values) == 0:
        raise ConfigError(f"at least one {what} required")
    if len(set(values)) != len(values):
        raise ConfigError(f"duplicate {what}")
    for v in values:
        if v not in allowed:
            raise ConfigError(f"unknown {what} {v!r}; allowed: {', '.join(allowed)}")


# every recognized key, with the (section, config attribute, parser) triple
_SCHEMA: dict[str, dict[str, tuple[str, str]]] = {
    "task": {
        "dim": ("dim", "int"),
        "classes": ("classes", "int"),
        "train_samples": ("train_samples", "int"),
        "test_samples": ("test_samples", "int"),
        "clients": ("clients", "int"),
        "partition_mu": ("partition_mu", "float"),
        "partition_sigma": ("partition_sigma", "float"),
        "separation": ("separation", "float"),
    },
    "model": {
        "kind": ("model_kind", "str"),
        "hidden": ("hidden", "int"),
        "dropout": ("dropout", "float"),
    },
    "training": {
        "rounds": ("rounds", "int"),
        "eta": ("eta", "float"),
        "epochs": ("epochs", "int"),
        "batch_size": ("batch_size", "size"),
        "clients_per_round": ("clients_per_round", "count"),
        "honest_use_all_samples": ("honest_use_all_samples", "bool"),
    },
    "preprocess": {
        "modes": ("preprocess_modes", "list"),
        "alpha": ("alpha", "fraction"),
        "alpha_star": ("alpha_star", "fraction"),
    },
    "aggregator": {
        "kinds": ("aggregator_kinds", "list"),
        "beta": ("beta", "float"),
    },
    "attack": {
        "scenarios": ("scenarios", "list"),
        "fraction": ("attacker_fraction", "float"),
        "declared_single": ("declared_single", "int"),
        "declared_fraction": ("declared_fraction", "int"),
    },
    "output": {
        "dir": ("out_dir", "str"),
    },
    "seeds": {
        "master": ("master_seed", "int"),
    },
}

_TRUE = {"true", "yes", "on", "1"}
_FALSE = {"false", "no", "off", "0"}


def _parse_value(raw: str, kind: str, where: str):
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "str":
            return raw
        if kind == "bool":
            low = raw.lower()
            if low in _TRUE:
                return True
            if low in _FALSE:
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if kind == "fraction":
            return as_fraction(raw)
        if kind == "list":
            return tuple(tok.strip() for tok in raw.split(",") if tok.strip())
        if kind == "count":
            # blank means full participation; a value in (0,1) is a fraction
            if raw == "":
                return None
            if "." in raw:
                return float(raw)
            return int(raw)
        if kind == "size":
            # absolute batch size, or per-client fraction when fractional
            return float(raw) if "." in raw else int(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad value for {where}: {exc}") from exc
    raise AssertionError(kind)


def parse_config(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax: {exc}") from exc
    values = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            attr, kind = _SCHEMA[section][key]
            values[attr] = _parse_value(raw, kind, f"[{section}] {key}")
    return ExperimentConfig(**values)


def read_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
