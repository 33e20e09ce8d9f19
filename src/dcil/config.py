"""The run schema: every config dataclass, and the checks it runs on construction.

A `RunConfig` (with its `LocalLossConfig` and the `NetSpec` of its base
model) checks itself when it is built, so a bad config raises `ConfigError`
before any training.  This module imports only the standard library: the
command line's config half builds and checks configs through it, and loads
no NumPy and no trainer until a command runs.  The trainers import their
configs and checks from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property


class ConfigError(ValueError):
    """A bad hyperparameter or an inconsistent configuration."""


def check_finite(cfg) -> None:
    """Reject a NaN or infinite float field of a config dataclass, naming it.

    The range checks alone let NaN through: every comparison with it is False.
    """
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value}")


ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class NetSpec:
    """Architecture of one multilayer perceptron classifier."""

    input_dim: int
    hidden_dims: tuple[int, ...]
    n_classes: int
    activation: str = "relu"

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if self.input_dim < 1:
            raise ConfigError(f"input_dim must be >= 1, got {self.input_dim}")
        if any(h < 1 for h in self.hidden_dims):
            raise ConfigError(f"hidden dims must be >= 1, got {self.hidden_dims}")
        if self.n_classes < 1:
            raise ConfigError(f"n_classes must be >= 1, got {self.n_classes}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")

    @cached_property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_dims, self.n_classes)

    @cached_property
    def param_count(self) -> int:
        dims = self.layer_dims
        return sum((dims[i] + 1) * dims[i + 1] for i in range(len(dims) - 1))


ANCHOR_VARIANTS = ("replay_ce", "logit_kd")


@dataclass(frozen=True)
class LocalLossConfig:
    anchor_variant: str = "logit_kd"
    lam: float = 5.0
    mu: float = 0.2
    beta: float = 1000.0
    lr: float = 0.05
    local_epochs: int = 11
    batch_size: int = 32
    anchor_temperature: float = 2.0

    def __post_init__(self):
        check_finite(self)
        if self.anchor_variant not in ANCHOR_VARIANTS:
            raise ConfigError(f"unknown anchor variant {self.anchor_variant!r}")
        if self.lam < 0 or self.mu < 0 or self.beta < 0:
            raise ConfigError("loss weights must be nonnegative")
        if self.local_epochs < 1 or self.batch_size < 1:
            raise ConfigError("local_epochs and batch_size must be >= 1")
        if self.lr < 0:
            raise ConfigError(f"learning rate must be >= 0, got {self.lr}")
        if self.anchor_temperature <= 0:
            raise ConfigError(
                f"anchor_temperature must be > 0, got {self.anchor_temperature}"
            )


def train_count(per_class: int) -> int:
    """Training examples per class under the 80/20 train/test split."""
    return int(round(0.8 * per_class))


def check_synthetic(n_classes: int, per_class: int, dim: int, spread: float) -> None:
    """Raise `ConfigError` unless every class gets a training and a test example."""
    if n_classes < 2 or dim < 2 or not 0 < train_count(per_class) < per_class:
        raise ConfigError(
            f"degenerate dataset sizes: n_classes={n_classes}, per_class={per_class}, dim={dim}"
        )
    if spread < 0:
        raise ConfigError(f"spread must be >= 0, got {spread}")


def check_split(n_classes: int, n_base: int, n_sessions: int) -> None:
    """Raise `ConfigError` unless the classes form `n_base` base + `n_sessions` equal sessions."""
    if n_base < 1 or n_sessions < 1 or n_classes <= n_base or (n_classes - n_base) % n_sessions:
        raise ConfigError(
            f"cannot split {n_classes} classes into {n_base} base + {n_sessions} equal sessions"
        )


def check_dirichlet(n_sites: int, alpha: float) -> None:
    """Raise `ConfigError` unless Dirichlet(`alpha`) shares over `n_sites` sites deal every row.

    NumPy's sampler adds `n_sites` gamma draws in order and divides each by
    the sum.  At an `alpha` near the top of the float range a draw equals
    `alpha`, so where `n_sites` copies of it, added in order, overflow,
    every share is 0.
    """
    if not alpha > 0:
        raise ConfigError("alpha must be > 0")
    total = 0.0
    for _ in range(n_sites):
        total += alpha
    if not math.isfinite(total):
        raise ConfigError(f"alpha={alpha:g} overflows the sum of {n_sites} Dirichlet draws")


METHODS = ("dcid", "dcil_fedavg", "dcil_fedmax", "dcil_fedprox", "centralized")
PARTITIONS = ("iid", "dirichlet")
# A record's communication counters, in the order its `comm` dict lists them.
COMM_KEYS = ("params_up", "params_down", "shared_samples", "logit_scalars")


@dataclass(frozen=True)
class RunConfig:
    """Full description of one experiment run.

    Defaults are the desk-scale synthetic benchmark: 20 classes in 16
    dimensions, 10 base classes plus 5 sessions of 2, 5 sites, 3 rounds.
    A config checks itself on construction, so a bad one raises
    `ConfigError` before any training.
    """

    method: str = "dcid"
    seed: int = 0
    n_sites: int = 5
    n_sessions: int = 5
    rounds: int = 3
    hidden_dims: tuple[int, ...] = (32, 32)
    activation: str = "relu"
    # synthetic dataset
    n_classes: int = 20
    per_class: int = 60
    input_dim: int = 16
    spread: float = 1.0
    n_base: int = 10
    # base-session training
    base_epochs: int = 30
    base_lr: float = 0.1
    # local training
    local: LocalLossConfig = field(default_factory=LocalLossConfig)
    # distillation stages: mutual fine-tuning of the local models (gentle,
    # to preserve local diversity) and refinement of the averaged model
    # against the ensemble teacher (the main accuracy lever).
    tau1: float = 5.0
    tau2: float = 5.0
    shared_per_class: int = 20
    dcd_lr: float = 1e-4
    dcd_epochs: int = 5
    dad_lr: float = 1.0
    dad_epochs: int = 300
    # anchors
    anchors_per_class: int = 20
    # partitioning
    partition: str = "dirichlet"
    alpha: float = 0.1

    def __post_init__(self):
        check_finite(self)
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if self.partition not in PARTITIONS:
            raise ConfigError(f"unknown partition {self.partition!r}")
        if self.n_sites < 1 or self.rounds < 1:
            raise ConfigError("n_sites and rounds must both be >= 1")
        check_split(self.n_classes, self.n_base, self.n_sessions)
        if self.shared_per_class < 0 or self.anchors_per_class < 0:
            raise ConfigError("shared_per_class and anchors_per_class must be >= 0")
        if self.tau1 <= 0 or self.tau2 <= 0:
            raise ConfigError("distillation temperatures must be > 0")
        if self.dcd_lr < 0 or self.dad_lr < 0:
            raise ConfigError("distillation learning rates must be >= 0")
        if self.dcd_epochs < 0 or self.dad_epochs < 0:
            raise ConfigError("distillation epoch counts must be >= 0")
        check_dirichlet(self.n_sites, self.alpha)
        if not 0 <= self.seed < 2**63:  # an output file name holds the seed
            raise ConfigError(f"seed must be in [0, 2**63 - 1], got {self.seed}")
        if self.base_lr < 0 or self.base_epochs < 0:
            raise ConfigError("base_lr and base_epochs must be >= 0")
        check_synthetic(self.n_classes, self.per_class, self.input_dim, self.spread)
        if self.method != "centralized":
            if self.partition == "dirichlet" and self.n_sites < 2:
                raise ConfigError("dirichlet partitioning needs n_sites >= 2")
            n_train = train_count(self.per_class)
            if self.partition == "iid" and self.n_sites > n_train:
                raise ConfigError(
                    f"iid partitioning deals each class's {n_train} training "
                    f"examples to {self.n_sites} sites; n_sites must be <= {n_train}"
                )
        # LocalLossConfig checks itself on construction.
        NetSpec(self.input_dim, self.hidden_dims, self.n_base, self.activation)
