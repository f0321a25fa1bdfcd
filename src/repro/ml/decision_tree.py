"""CART decision-tree classifier (from scratch, NumPy only).

The tree uses the Gini impurity (or entropy) criterion, axis-aligned
threshold splits evaluated on a configurable number of candidate
thresholds per feature, and supports the depth / minimum-samples limits
needed to reproduce the paper's tiny 8-tree, depth-5 forest that fits the
LSM6DSM ML core.  The split search scores all candidate thresholds of a
feature in one vector pass, bit-identical to scoring them one at a time.

``fit`` stores the grown tree as flat node arrays in pre-order (split
feature, threshold, left / right child index and leaf class
probabilities), built once at fit time and read-only afterwards, so
concurrent predictions share them safely.  ``predict_proba`` walks every
row down the tree together with :func:`descend`, one vector step per
level: a leaf is its own left and right child, so rows that reach a leaf
early stay there.  A forest lays its trees' arrays end to end and walks
all of them in the same steps.  Each step is the comparison a per-row
walk makes (``x[feature] <= threshold`` goes left), so a row's leaf does
not depend on the rows batched with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_LEAF = -1
"""Split-feature entry of a leaf node."""


def _gini(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Gini impurity of every row of a ``(rows, n_classes)`` count matrix.

    ``totals`` are the row sums (all positive).
    """
    p = counts / totals[:, None]
    return 1.0 - np.sum(p ** 2, axis=1)


def _entropy(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Shannon entropy (bits) of every row of a ``(rows, n_classes)`` count matrix.

    Only the present classes are summed, and rows are summed in groups
    of equal present-class count, each group as one contiguous
    ``(rows, present)`` block, so a row's bits do not depend on the rows
    scored with it: each equals the entropy of its present-class
    probabilities summed on their own.
    """
    p = counts / totals[:, None]
    present = p > 0
    terms = p * np.log2(np.where(present, p, 1.0))
    sizes = present.sum(axis=1)
    out = np.empty(counts.shape[0])
    for size in np.unique(sizes):  # loop-ok: one group per present-class count
        rows = sizes == size
        out[rows] = -np.sum(terms[rows][present[rows]].reshape(-1, size), axis=1)
    return out


_CRITERIA = {"gini": _gini, "entropy": _entropy}

_ROOT = np.zeros(1, dtype=np.intp)
"""Root index of a lone tree's node arrays."""


def descend(  # hot-path
    X: np.ndarray,
    feature: np.ndarray,
    threshold: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    roots: np.ndarray,
    depth: int,
) -> np.ndarray:
    """Leaf index of every row in every tree, shape ``(n_rows, n_trees)``.

    ``feature`` ... ``right`` are node arrays of one or more trees laid
    end to end (child indices global), and ``roots`` holds each tree's
    root index.  Every row walks every tree together, one vector step per
    level for ``depth`` levels; a leaf is its own child, so rows that
    reach a leaf early stay there.
    """
    rows = np.arange(X.shape[0])[:, None]
    node = np.tile(roots, (X.shape[0], 1))
    for _ in range(depth):  # loop-ok: one vector step per tree level (at most max_depth)
        goes_left = X[rows, feature[node]] <= threshold[node]
        node = np.where(goes_left, left[node], right[node])
    return node


@dataclass
class DecisionTreeClassifier:
    """Axis-aligned CART classifier.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (the root is at depth 0); ``None`` means
        unbounded.
    min_samples_split:
        Minimum number of samples required to attempt a split.
    min_samples_leaf:
        Minimum number of samples a child must receive for a split to be
        accepted.
    criterion:
        ``"gini"`` or ``"entropy"``.
    max_features:
        Number of features examined at each split; ``None`` uses all
        features, ``"sqrt"`` uses ``ceil(sqrt(n_features))`` (the random
        forest default).
    max_thresholds:
        Maximum number of candidate thresholds per feature (midpoints of
        sorted unique values are sub-sampled above this limit).
    random_state:
        Seed for the per-split feature sub-sampling.
    """

    max_depth: int | None = 5
    min_samples_split: int = 2
    min_samples_leaf: int = 1
    criterion: str = "gini"
    max_features: int | str | None = None
    max_thresholds: int = 32
    random_state: int | None = None

    n_classes_: int = field(init=False, default=0)
    n_features_: int = field(init=False, default=0)
    _feature: np.ndarray | None = field(init=False, default=None, repr=False)
    _threshold: np.ndarray = field(init=False, default=None, repr=False)  # type: ignore[assignment]
    _left: np.ndarray = field(init=False, default=None, repr=False)  # type: ignore[assignment]
    _right: np.ndarray = field(init=False, default=None, repr=False)  # type: ignore[assignment]
    _value: np.ndarray = field(init=False, default=None, repr=False)  # type: ignore[assignment]
    _depth: int = field(init=False, default=0, repr=False)
    _rng: np.random.Generator = field(init=False, repr=False, default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.criterion not in _CRITERIA:
            raise ValueError(f"criterion must be one of {sorted(_CRITERIA)}, got {self.criterion!r}")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError(f"max_depth must be >= 0 or None, got {self.max_depth}")
        if self.min_samples_split < 2:
            raise ValueError(f"min_samples_split must be >= 2, got {self.min_samples_split}")
        if self.min_samples_leaf < 1:
            raise ValueError(f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}")

    # ------------------------------------------------------------------ fit
    def fit(self, X: np.ndarray, y: np.ndarray, n_classes: int | None = None) -> "DecisionTreeClassifier":
        """Grow the tree on a feature matrix ``X`` and integer labels ``y``."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D (n_samples, n_features), got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise ValueError(f"y must have shape ({X.shape[0]},), got {y.shape}")
        if X.shape[0] == 0:
            raise ValueError("cannot fit a tree on an empty dataset")
        if y.min() < 0:
            raise ValueError("class labels must be non-negative integers")

        self.n_classes_ = int(y.max()) + 1 if n_classes is None else int(n_classes)
        self.n_features_ = X.shape[1]
        self._rng = np.random.default_rng(self.random_state)
        nodes: list = []
        self._grow(X, y, 0, nodes)
        feature, threshold, left, right, value, depth = zip(*nodes)
        self._feature = np.array(feature, dtype=np.intp)
        self._threshold = np.array(threshold, dtype=float)
        self._left = np.array(left, dtype=np.intp)
        self._right = np.array(right, dtype=np.intp)
        self._value = np.array(value, dtype=float)
        self._depth = max(depth)
        return self

    def _n_split_features(self) -> int:
        if self.max_features is None:
            return self.n_features_
        if self.max_features == "sqrt":
            return max(1, int(np.ceil(np.sqrt(self.n_features_))))
        return max(1, min(int(self.max_features), self.n_features_))

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int, nodes: list) -> int:
        """Grow the subtree of ``(X, y)`` into ``nodes`` (pre-order); return its root index.

        Each node is ``(feature, threshold, left, right, class
        probabilities, depth)``; a leaf points both children at itself,
        and a split's probabilities are zeros (never read).
        """
        index = len(nodes)
        nodes.append(None)
        split = None
        if not (
            (self.max_depth is not None and depth >= self.max_depth)
            or y.size < self.min_samples_split
            or np.unique(y).size == 1
        ):
            split = self._best_split(X, y)
        if split is None:
            counts = np.bincount(y, minlength=self.n_classes_).astype(float)
            nodes[index] = (_LEAF, np.nan, index, index, counts / counts.sum(), depth)
            return index
        feature, threshold, left_mask = split
        left = self._grow(X[left_mask], y[left_mask], depth + 1, nodes)
        right = self._grow(X[~left_mask], y[~left_mask], depth + 1, nodes)
        nodes[index] = (feature, threshold, left, right, np.zeros(self.n_classes_), depth)
        return index

    def _best_split(self, X: np.ndarray, y: np.ndarray) -> tuple[int, float, np.ndarray] | None:
        """The split with the largest impurity decrease, or ``None``.

        Every candidate threshold of a feature is scored in one pass: a
        ``(thresholds, samples)`` mask, its class counts from one matmul
        against the one-hot labels, and a row-wise impurity.  The matmul
        runs in float64 through BLAS (~5x faster than numpy's integer
        matmul): every partial sum is a small integer, so the counts are
        exact whatever the summation order.  The first best threshold of
        a feature replaces the running best only if it improves on it
        strictly, so ties break towards the earlier feature and the lower
        threshold, as in a one-threshold-at-a-time scan.
        """
        impurity = _CRITERIA[self.criterion]
        n = y.size
        parent_counts = np.bincount(y, minlength=self.n_classes_)
        parent_impurity = impurity(parent_counts[None, :], np.array([n]))[0]
        one_hot = (y[:, None] == np.arange(self.n_classes_)).astype(float)

        features = np.arange(self.n_features_)
        k = self._n_split_features()
        if k < self.n_features_:
            features = self._rng.choice(features, size=k, replace=False)

        best_gain = 1e-12
        best: tuple[int, float, np.ndarray] | None = None
        for feature in features:  # loop-ok: one vector pass per examined feature
            column = X[:, feature]
            values = np.unique(column)
            if values.size < 2:
                continue
            thresholds = (values[:-1] + values[1:]) / 2.0
            if thresholds.size > self.max_thresholds:
                idx = np.linspace(0, thresholds.size - 1, self.max_thresholds).astype(int)
                thresholds = thresholds[idx]
            left_masks = column <= thresholds[:, None]
            left_counts = (left_masks.astype(float) @ one_hot).astype(np.intp)
            n_left = left_counts.sum(axis=1)
            n_right = n - n_left
            valid = np.flatnonzero(
                (n_left >= self.min_samples_leaf) & (n_right >= self.min_samples_leaf)
            )
            if valid.size == 0:
                continue
            n_left, n_right = n_left[valid], n_right[valid]
            left_counts = left_counts[valid]
            child_impurity = (
                n_left * impurity(left_counts, n_left)
                + n_right * impurity(parent_counts - left_counts, n_right)
            ) / n
            gains = parent_impurity - child_impurity
            top = int(np.argmax(gains))
            if gains[top] > best_gain:
                best_gain = float(gains[top])
                row = int(valid[top])
                best = (int(feature), float(thresholds[row]), left_masks[row])
        return best

    # -------------------------------------------------------------- predict
    def _check_fitted(self) -> None:
        if self._feature is None:
            raise RuntimeError("DecisionTreeClassifier must be fitted before prediction")

    def predict_proba(self, X: np.ndarray) -> np.ndarray:  # hot-path
        """Class-probability matrix of shape ``(n_samples, n_classes)``."""
        self._check_fitted()
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"X has {X.shape[1]} features, the tree was fitted with {self.n_features_}"
            )
        leaves = descend(
            X, self._feature, self._threshold, self._left, self._right, _ROOT, self._depth
        )
        return self._value[leaves[:, 0]]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Most probable class for each sample."""
        return np.argmax(self.predict_proba(X), axis=1)

    # ------------------------------------------------------------ inspection
    def depth(self) -> int:
        """Actual depth of the grown tree (0 for a single leaf)."""
        self._check_fitted()
        return self._depth

    def node_count(self) -> int:
        """Total number of nodes (internal + leaves)."""
        self._check_fitted()
        return int(self._feature.size)
