"""Dataset synthesis, session splitting, and site partitioning.

A dataset is a plain container of train/test arrays.  Sessions carve the
label space into disjoint chunks (one base chunk plus T equal incremental
chunks); partitioners then spread one session's training data over M sites,
either class-balanced (IID) or Dirichlet-skewed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ConfigError, check_dirichlet, check_split, check_synthetic, train_count

SeedLike = int | list[int] | tuple[int, ...]


@dataclass
class Dataset:
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    n_classes: int


@dataclass
class SessionSplit:
    """Disjoint class chunks and their training data.

    `per_session_train` has T+1 entries; entry 0 is the base session.
    """

    base_classes: tuple[int, ...]
    session_classes: list[tuple[int, ...]]
    per_session_train: list[tuple[np.ndarray, np.ndarray]]


@dataclass
class SitePartition:
    """One session's training data dealt to M disjoint site shards."""

    shards: list[tuple[np.ndarray, np.ndarray]]


def make_synthetic(
    n_classes: int, per_class: int, dim: int, spread: float, seed: SeedLike
) -> Dataset:
    """Gaussian blobs with class centers on the radius-3 sphere in R^dim.

    Deterministic per seed; 80/20 stratified train/test split.
    """
    check_synthetic(n_classes, per_class, dim, spread)
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n_classes, dim))
    centers = 3.0 * raw / np.linalg.norm(raw, axis=1, keepdims=True)
    n_train = train_count(per_class)
    tr_x, tr_y, te_x, te_y = [], [], [], []
    for c in range(n_classes):
        pts = centers[c] + spread * rng.normal(size=(per_class, dim))
        tr_x.append(pts[:n_train])
        tr_y.append(np.full(n_train, c, dtype=np.int64))
        te_x.append(pts[n_train:])
        te_y.append(np.full(per_class - n_train, c, dtype=np.int64))
    return Dataset(
        np.concatenate(tr_x),
        np.concatenate(tr_y),
        np.concatenate(te_x),
        np.concatenate(te_y),
        n_classes,
    )


def split_sessions(dataset: Dataset, n_base: int, n_sessions: int, seed: SeedLike) -> SessionSplit:
    """Seeded random split of the label space into base + T equal sessions."""
    c = dataset.n_classes
    check_split(c, n_base, n_sessions)
    k = (c - n_base) // n_sessions
    rng = np.random.default_rng(seed)
    order = rng.permutation(c)
    base = tuple(sorted(int(x) for x in order[:n_base]))
    sessions = [
        tuple(sorted(int(x) for x in order[n_base + t * k : n_base + (t + 1) * k]))
        for t in range(n_sessions)
    ]
    chunks = [base] + sessions
    per_session = []
    for chunk in chunks:
        mask = np.isin(dataset.train_y, chunk)
        per_session.append((dataset.train_x[mask], dataset.train_y[mask]))
    return SessionSplit(base, sessions, per_session)


def partition_iid(x: np.ndarray, y: np.ndarray, n_sites: int, seed: SeedLike) -> SitePartition:
    """Within each class, shuffle and deal examples round-robin to sites."""
    if n_sites < 1:
        raise ConfigError(f"n_sites must be >= 1, got {n_sites}")
    rng = np.random.default_rng(seed)
    buckets: list[list[np.ndarray]] = [[] for _ in range(n_sites)]
    for c in classes(y):
        idx = np.flatnonzero(y == c)
        if len(idx) < n_sites:
            raise ConfigError(
                f"class {c} has {len(idx)} examples, fewer than {n_sites} sites"
            )
        idx = rng.permutation(idx)
        for m in range(n_sites):
            buckets[m].append(idx[m::n_sites])
    return _shards(x, y, buckets)


def classes(y: np.ndarray) -> list[int]:
    """The distinct labels of `y`, ascending.

    Not `np.unique(y)`: on numpy 2.4 its hash path imports `numpy.ma`, about
    1.2 MB resident and 11-16 ms at a process's first partition, and a set
    of a session's few labels costs neither.
    """
    return sorted({int(v) for v in y.tolist()})


def _shards(x: np.ndarray, y: np.ndarray, buckets: list[list[np.ndarray]]) -> SitePartition:
    """One `(x, y)` shard per site, its rows taken from its index buckets in order."""
    takes = [np.concatenate(b) if b else np.empty(0, dtype=np.int64) for b in buckets]
    return SitePartition([(x[take], y[take]) for take in takes])


def _largest_remainder(proportions: np.ndarray, total: int) -> np.ndarray:
    raw = proportions * total
    counts = np.floor(raw).astype(np.int64)
    short = total - int(counts.sum())
    if short > 0:
        order = np.argsort(-(raw - counts), kind="stable")
        counts[order[:short]] += 1
    return counts


def partition_dirichlet(
    x: np.ndarray, y: np.ndarray, n_sites: int, alpha: float, seed: SeedLike
) -> SitePartition:
    """Per-class Dirichlet(alpha) allocation of examples over sites.

    Fractional shares become integer counts by largest-remainder rounding, so
    shards are disjoint and exhaustive: shares that would miss a row raise.
    Small alpha concentrates each class on few sites; empty shards are allowed.
    """
    check_dirichlet(n_sites, alpha)
    if n_sites < 2:
        raise ConfigError(f"n_sites must be >= 2 for dirichlet partitioning, got {n_sites}")
    rng = np.random.default_rng(seed)
    buckets: list[list[np.ndarray]] = [[] for _ in range(n_sites)]
    for c in classes(y):
        idx = rng.permutation(np.flatnonzero(y == c))
        props = rng.dirichlet(np.full(n_sites, alpha))
        counts = _largest_remainder(props, len(idx))
        if counts.sum() != len(idx):
            raise ConfigError(
                f"Dirichlet({alpha:g}) shares over {n_sites} sites deal "
                f"{counts.sum()} of class {c}'s {len(idx)} rows"
            )
        offset = 0
        for m in range(n_sites):
            buckets[m].append(idx[offset : offset + counts[m]])
            offset += counts[m]
    return _shards(x, y, buckets)
