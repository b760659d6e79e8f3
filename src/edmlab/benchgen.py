"""Synthetic benchmarks with controlled closed-set and open-set label noise.

A clean dataset is a set of Gaussian blobs, one per class, with centres far
enough apart to be linearly separable.  Corruption is driven by two rates:
``rho`` (total fraction of noisy samples) and ``omega`` (fraction of the
noisy samples whose corruption is a label flip).  The remaining
``rho * (1 - omega)`` fraction have their features replaced by vectors from
an out-of-distribution pool and receive a uniformly random label; their true
class is not part of the label set at all.

Every sample keeps a hidden provenance tag (clean / closed / open) so that
downstream noise classification can be scored against ground truth.  The tag
is never an input to training.

All randomness flows through ``numpy.random.default_rng`` (PCG64) seeded from
the relevant spec, so equal inputs produce identical outputs across runs and
platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import IntEnum

import numpy as np


class Provenance(IntEnum):
    CLEAN = 0
    CLOSED = 1
    OPEN = 2


#: the one closed-set flip rule: a new label uniform over the wrong classes
FLIP_UNIFORM_EXCLUDING_TRUE = "UNIFORM_EXCLUDING_TRUE"

#: true_class value used for open-set samples, whose class is outside the label set
NO_CLASS = -1

# Class centres sit at CENTER_SCALE * spread along distinct basis directions,
# giving an inter-centre distance of CENTER_SCALE * sqrt(2) * spread >= 4 * spread.
CENTER_SCALE = 4.0


@dataclass(frozen=True)
class NoiseSpec:
    """Fully determines how a clean dataset is corrupted.

    ``rho`` is the total noise rate, ``omega`` the closed-set share of the
    noisy portion.  ``seed`` drives sample selection, label flips, and pool
    vector assignment; nothing else does.  Flips always follow
    ``FLIP_UNIFORM_EXCLUDING_TRUE``.
    """

    rho: float
    omega: float
    open_source: str = "synthetic-pool"
    seed: int = 0

    def validate(self) -> None:
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must be in [0, 1], got {self.rho}")
        if not 0.0 <= self.omega <= 1.0:
            raise ValueError(f"omega must be in [0, 1], got {self.omega}")

    def counts(self, n: int) -> tuple[int, int]:
        """Exact (n_closed, n_open) for a dataset of ``n`` samples.

        Fractional targets are rounded half-up; if the two rounded counts
        overshoot the rounded total noise count, the open count absorbs the
        excess so that n_closed + n_open == round(rho * n).
        """
        n_closed = int(np.floor(self.rho * self.omega * n + 0.5))
        n_open = int(np.floor(self.rho * (1.0 - self.omega) * n + 0.5))
        n_noisy = int(np.floor(self.rho * n + 0.5))
        excess = n_closed + n_open - n_noisy
        if excess > 0:
            n_open -= excess
        return n_closed, n_open


@dataclass
class LabeledSample:
    """One sample as seen through the record-level interface.

    ``observed_label`` is one-hot over the label set.  ``true_class`` is None
    exactly for open-set samples.
    """

    id: int
    features: np.ndarray
    observed_label: np.ndarray
    true_class: int | None
    provenance: Provenance


@dataclass
class DatasetManifest:
    """Column-oriented dataset with per-sample provenance.

    Features are stored as float32 (the on-disk precision) so that
    save/load round-trips are bit-exact.  Sample ids are implicit: position
    ``i`` is id ``i``.
    """

    features: np.ndarray  # (n, d) float32
    observed: np.ndarray  # (n,) int32 class indices
    true_class: np.ndarray  # (n,) int32, NO_CLASS for open-set samples
    provenance: np.ndarray  # (n,) uint8 Provenance values
    num_classes: int
    noise_spec: NoiseSpec

    def __post_init__(self) -> None:
        self.features = np.ascontiguousarray(self.features, dtype=np.float32)
        self.observed = np.asarray(self.observed, dtype=np.int32)
        self.true_class = np.asarray(self.true_class, dtype=np.int32)
        self.provenance = np.asarray(self.provenance, dtype=np.uint8)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def counts(self) -> tuple[int, int, int]:
        """(n_clean, n_closed, n_open) from a full provenance scan."""
        return (
            int(np.count_nonzero(self.provenance == Provenance.CLEAN)),
            int(np.count_nonzero(self.provenance == Provenance.CLOSED)),
            int(np.count_nonzero(self.provenance == Provenance.OPEN)),
        )

    def one_hot_observed(self) -> np.ndarray:
        """(n, num_classes) float64 one-hot matrix of observed labels."""
        eye = np.eye(self.num_classes, dtype=np.float64)
        return eye[self.observed]

    def sample(self, i: int) -> LabeledSample:
        label = np.zeros(self.num_classes, dtype=np.float64)
        label[self.observed[i]] = 1.0
        true = int(self.true_class[i])
        return LabeledSample(
            id=i,
            features=self.features[i],
            observed_label=label,
            true_class=None if true == NO_CLASS else true,
            provenance=Provenance(int(self.provenance[i])),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DatasetManifest):
            return NotImplemented
        return (
            self.num_classes == other.num_classes
            and self.noise_spec == other.noise_spec
            and self.features.shape == other.features.shape
            and np.array_equal(self.features, other.features)
            and np.array_equal(self.observed, other.observed)
            and np.array_equal(self.true_class, other.true_class)
            and np.array_equal(self.provenance, other.provenance)
        )


def class_centers(num_classes: int, feature_dim: int, cluster_spread: float) -> np.ndarray:
    """Per-class blob centres on scaled basis directions.

    Requires num_classes <= feature_dim so every class gets its own axis.
    """
    if num_classes > feature_dim:
        raise ValueError(
            f"feature_dim={feature_dim} too small to place {num_classes} separated centers"
        )
    centers = np.zeros((num_classes, feature_dim), dtype=np.float64)
    for c in range(num_classes):
        centers[c, c] = CENTER_SCALE * cluster_spread
    return centers


def make_synthetic_clean(
    num_classes: int,
    per_class: int,
    feature_dim: int,
    cluster_spread: float,
    seed: int,
) -> DatasetManifest:
    """Generate an all-clean blobs dataset, ``per_class`` samples per class.

    Samples are ordered class-major; class ``c`` is drawn from an isotropic
    Gaussian of scale ``cluster_spread`` at a fixed centre.
    """
    if num_classes < 2:
        raise ValueError(f"num_classes must be >= 2, got {num_classes}")
    if per_class < 1:
        raise ValueError(f"per_class must be >= 1, got {per_class}")
    if feature_dim < 2:
        raise ValueError(f"feature_dim must be >= 2, got {feature_dim}")
    if cluster_spread <= 0:
        raise ValueError(f"cluster_spread must be > 0, got {cluster_spread}")

    centers = class_centers(num_classes, feature_dim, cluster_spread)
    n = num_classes * per_class
    labels = np.repeat(np.arange(num_classes, dtype=np.int32), per_class)

    rng = np.random.default_rng(seed)
    features = centers[labels] + rng.normal(0.0, cluster_spread, size=(n, feature_dim))

    return DatasetManifest(
        features=features.astype(np.float32),
        observed=labels,
        true_class=labels.copy(),
        provenance=np.full(n, Provenance.CLEAN, dtype=np.uint8),
        num_classes=num_classes,
        noise_spec=NoiseSpec(rho=0.0, omega=0.0, open_source="none", seed=seed),
    )


def make_open_pool(
    num_clusters: int,
    per_cluster: int,
    feature_dim: int,
    cluster_spread: float,
    offset: float,
    seed: int,
) -> np.ndarray:
    """Unlabeled out-of-distribution vectors, disjoint from the clean blobs.

    Pool clusters sit along the negative diagonal at distance ``offset`` (and
    beyond) from the origin, so they never overlap clean centres, which all
    live in the positive orthant close to the origin.  Returns an
    (num_clusters * per_cluster, feature_dim) float32 array.
    """
    if num_clusters < 0:
        raise ValueError(f"num_clusters must be >= 0, got {num_clusters}")
    if num_clusters == 0:
        return np.zeros((0, feature_dim), dtype=np.float32)
    if per_cluster < 1:
        raise ValueError(f"per_cluster must be >= 1, got {per_cluster}")
    if offset <= 0:
        raise ValueError(f"offset must be > 0, got {offset}")
    if cluster_spread <= 0:
        raise ValueError(f"cluster_spread must be > 0, got {cluster_spread}")

    direction = -np.ones(feature_dim, dtype=np.float64) / np.sqrt(feature_dim)
    rng = np.random.default_rng(seed)
    clusters = []
    for j in range(num_clusters):
        center = (offset + CENTER_SCALE * cluster_spread * j) * direction
        clusters.append(
            center + rng.normal(0.0, cluster_spread, size=(per_cluster, feature_dim))
        )
    return np.concatenate(clusters, axis=0).astype(np.float32)


def inject_noise(
    clean: DatasetManifest,
    pool: np.ndarray,
    spec: NoiseSpec,
) -> DatasetManifest:
    """Corrupt a clean manifest with exact closed-set and open-set counts.

    Closed-set samples get a new label drawn uniformly over the other
    classes; open-set samples get features from distinct pool vectors and a
    uniformly random label.  Selection, flips, and pool assignment consume a
    single generator seeded by ``spec.seed``, in that fixed order.
    """
    spec.validate()
    if np.any(clean.provenance != Provenance.CLEAN):
        raise ValueError("inject_noise expects an all-clean input manifest")

    if spec.rho == 0.0:
        # Nothing to inject: the output is the input, original metadata included.
        return DatasetManifest(
            features=clean.features.copy(),
            observed=clean.observed.copy(),
            true_class=clean.true_class.copy(),
            provenance=clean.provenance.copy(),
            num_classes=clean.num_classes,
            noise_spec=replace(clean.noise_spec),
        )

    n = len(clean)
    k = clean.num_classes
    n_closed, n_open = spec.counts(n)

    pool = np.asarray(pool)
    if n_open > 0 and pool.ndim != 2:
        raise ValueError("pool must be a 2-D array of feature vectors")
    if n_open > 0 and pool.shape[1] != clean.feature_dim:
        raise ValueError(
            f"pool dimension {pool.shape[1]} does not match dataset dimension {clean.feature_dim}"
        )
    if pool.shape[0] < n_open:
        raise ValueError(
            f"pool has {pool.shape[0]} vectors but {n_open} open-set samples are required"
        )

    features = clean.features.copy()
    observed = clean.observed.copy()
    true_class = clean.true_class.copy()
    provenance = clean.provenance.copy()

    rng = np.random.default_rng(spec.seed)
    perm = rng.permutation(n)
    closed_idx = perm[:n_closed]
    open_idx = perm[n_closed : n_closed + n_open]

    if n_closed > 0:
        # Uniform over the k-1 wrong classes: draw in [0, k-2] and skip the true class.
        draws = rng.integers(0, k - 1, size=n_closed)
        observed[closed_idx] = np.where(
            draws >= true_class[closed_idx], draws + 1, draws
        ).astype(np.int32)
        provenance[closed_idx] = Provenance.CLOSED

    if n_open > 0:
        observed[open_idx] = rng.integers(0, k, size=n_open).astype(np.int32)
        pool_pick = rng.permutation(pool.shape[0])[:n_open]
        features[open_idx] = pool[pool_pick].astype(np.float32)
        true_class[open_idx] = NO_CLASS
        provenance[open_idx] = Provenance.OPEN

    return DatasetManifest(
        features=features,
        observed=observed,
        true_class=true_class,
        provenance=provenance,
        num_classes=k,
        noise_spec=replace(spec),
    )
