"""Experiment configuration: INI-style sections with strict keys.

ExperimentConfig's fields are the schema: each names its section and key, and
its declared type picks its parser.  Every key has a default, and every file
is validated before anything runs.
"""

from __future__ import annotations

import configparser
import sys
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Optional, Union, get_type_hints

from .engine import (Behavior, TrainConfig, TrimmedMean, WeightedMean, WeightedMedian,
                     participants_per_round)
from .tasks import OneHiddenMLP, SoftmaxRegression
from .weights import Ignore, Passthrough, Truncate, TruncationQuery

# One table per cell axis: token -> the object it builds from the config.
# Key order is the default grid order, and so the row order of summary.csv.
_PREPROCESS = {
    "passthrough": lambda cfg: Passthrough(),
    "truncate": lambda cfg: Truncate(TruncationQuery(cfg.alpha, cfg.alpha_star)),
    "ignore": lambda cfg: Ignore(),
}
_AGGREGATORS = {
    "mean": lambda cfg: WeightedMean(),
    "median": lambda cfg: WeightedMedian(),
    "trimmed": lambda cfg: TrimmedMean(cfg.beta),
}
_MODELS = {
    "softmax": lambda cfg: SoftmaxRegression(cfg.dim, cfg.classes),
    "mlp": lambda cfg: OneHiddenMLP(cfg.dim, cfg.hidden, cfg.classes, cfg.dropout),
}
# attack scenario -> (its attackers' Behavior, whether attacker_fraction of the
# clients attack rather than one); an honest "attacker" means none
SCENARIOS = {
    "none": (Behavior.HONEST, False),
    "negation_single": (Behavior.MODEL_NEGATION, False),
    "negation_fraction": (Behavior.MODEL_NEGATION, True),
    "label_shift_single": (Behavior.LABEL_SHIFT, False),
    "label_shift_fraction": (Behavior.LABEL_SHIFT, True),
}


class ConfigError(ValueError):
    pass


def _ini(section: str, default, key: str = ""):
    """A field read from [section] key; the key defaults to the field's name."""
    return field(default=default, metadata={"section": section, "key": key})


@dataclass
class ExperimentConfig:
    dim: int = _ini("task", 20)
    classes: int = _ini("task", 10)
    train_samples: int = _ini("task", 20_000)
    test_samples: int = _ini("task", 2_000)
    clients: int = _ini("task", 100)
    partition_mu: float = _ini("task", 1.5)
    partition_sigma: float = _ini("task", 3.45)
    separation: float = _ini("task", 4.0)
    model_kind: str = _ini("model", "softmax", key="kind")
    hidden: int = _ini("model", 32)
    dropout: float = _ini("model", 0.2)
    rounds: int = _ini("training", 100)
    eta: float = _ini("training", 0.3)
    epochs: int = _ini("training", 1)
    batch_size: Union[int, float] = _ini("training", 50)
    clients_per_round: Optional[Union[int, float]] = _ini("training", None)
    honest_use_all_samples: bool = _ini("training", True)
    preprocess_modes: tuple[str, ...] = _ini("preprocess", tuple(_PREPROCESS), key="modes")
    alpha: Fraction = _ini("preprocess", Fraction(1, 10))
    alpha_star: Fraction = _ini("preprocess", Fraction(1, 2))
    aggregator_kinds: tuple[str, ...] = _ini("aggregator", tuple(_AGGREGATORS), key="kinds")
    beta: float = _ini("aggregator", 0.1)
    scenarios: tuple[str, ...] = _ini("attack", ("none",))
    attacker_fraction: float = _ini("attack", 0.1, key="fraction")
    declared_single: int = _ini("attack", 10_000_000)
    declared_fraction: int = _ini("attack", 1_000_000)
    out_dir: str = _ini("output", "results", key="dir")
    master_seed: int = _ini("seeds", 0, key="master")

    def __post_init__(self) -> None:
        # These values are checked here because their only other owners
        # generate data, and a config is proved before anything runs.
        if self.classes < 1 or self.dim < self.classes:
            raise ConfigError("need 1 <= classes <= dim")
        if self.train_samples < self.clients or self.clients < 1:
            raise ConfigError("need train_samples >= clients >= 1")
        if self.test_samples < 1:
            raise ConfigError("test_samples must be positive")
        if self.model_kind not in _MODELS:
            raise ConfigError(f"model kind must be one of {tuple(_MODELS)}")
        _check_tokens(self.preprocess_modes, _PREPROCESS, "preprocess mode")
        _check_tokens(self.aggregator_kinds, _AGGREGATORS, "aggregator kind")
        _check_tokens(self.scenarios, SCENARIOS, "attack scenario")
        if not 0 < self.attacker_fraction < 1:
            raise ConfigError("attacker fraction must lie in (0, 1)")
        if self.declared_single < 1 or self.declared_fraction < 1:
            raise ConfigError("declared sizes must be positive")
        # the aggregators sum the declared weights in floats under passthrough
        lies = max(count * size for _, count, size in map(self.attack, SCENARIOS))
        if self.train_samples + lies > sys.float_info.max:
            raise ConfigError("declared sizes must keep the declared total within float range")
        # Every other value is proved by the build a run makes, with the mode,
        # aggregator and model that read the most values, so no rule is
        # restated here.
        try:
            query = self.train_config("truncate", "trimmed").preprocess.query
            _MODELS["mlp"](self)
            participants_per_round(self.clients_per_round, self.clients)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        self.alpha, self.alpha_star = query.alpha, query.alpha_star

    def model(self):
        return _MODELS[self.model_kind](self)

    def attack(self, scenario: str) -> tuple[Behavior, int, int]:
        """A scenario's attackers: their behavior, how many, and the size each declares."""
        behavior, fraction = SCENARIOS[scenario]
        if behavior is Behavior.HONEST:
            return behavior, 0, 0
        count = max(1, round(self.attacker_fraction * self.clients)) if fraction else 1
        return behavior, count, self.declared_fraction if fraction else self.declared_single

    def train_config(self, preprocess: str, aggregator: str) -> TrainConfig:
        """The TrainConfig of the grid cell with these preprocess and aggregator tokens."""
        return TrainConfig(
            self.rounds, self.eta, self.epochs, self.batch_size,
            _PREPROCESS[preprocess](self), _AGGREGATORS[aggregator](self),
            self.clients_per_round, self.honest_use_all_samples, self.master_seed,
        )


def _check_tokens(values, allowed, what) -> None:
    if len(values) == 0:
        raise ConfigError(f"at least one {what} required")
    if len(set(values)) != len(values):
        raise ConfigError(f"duplicate {what}")
    for v in values:
        if v not in allowed:
            raise ConfigError(f"unknown {what} {v!r}; allowed: {', '.join(allowed)}")


def _boolean(raw: str) -> bool:
    # true, yes, on, 1 or false, no, off, 0, in any case
    if raw.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ValueError(f"not a boolean: {raw!r}")
    return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]


# each field type in use -> the parser of a stripped value
_PARSERS = {
    int: int, float: float, str: str, Fraction: Fraction,
    bool: _boolean,
    tuple[str, ...]: lambda raw: tuple(tok.strip() for tok in raw.split(",") if tok.strip()),
    # a count, or a fraction when written with a point; blank is None where allowed
    Union[int, float]: lambda raw: float(raw) if "." in raw else int(raw),
    Optional[Union[int, float]]: lambda raw: _PARSERS[Union[int, float]](raw) if raw else None,
}
# (section, key) -> (field name, parser), in field order
_SCHEMA = {
    (f.metadata["section"], f.metadata["key"] or f.name): (f.name, _PARSERS[hint])
    for f, hint in zip(fields(ExperimentConfig), get_type_hints(ExperimentConfig).values())
}


def parse_config(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax: {exc}") from exc
    values = {}
    for section in parser.sections():
        if section not in {known for known, _ in _SCHEMA}:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if (section, key) not in _SCHEMA:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            name, parse = _SCHEMA[section, key]
            try:
                values[name] = parse(raw.strip())
            except (ValueError, ZeroDivisionError) as exc:
                raise ConfigError(f"bad value for [{section}] {key}: {exc}") from exc
    return ExperimentConfig(**values)


def read_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
