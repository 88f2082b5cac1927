"""Frequent-pattern mining over query logs (weighted Apriori).

Candidate patterns feed the refinement stage (§6.4) and both baseline
summarizers.  The miner is a standard level-wise Apriori adapted to the
distinct-row + multiplicity representation of :class:`QueryLog`: the
support of an itemset is the multiplicity-weighted fraction of log
entries containing it, exactly the pattern marginal ``p(Q ⊇ b)``.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .log import BACKENDS, QueryLog
from .pattern import Pattern

__all__ = ["frequent_patterns", "pattern_support"]


def pattern_support(log: QueryLog, pattern: Pattern) -> float:
    """Support of *pattern*: its marginal ``p(Q ⊇ b | L)``."""
    return log.pattern_marginal(pattern)


def frequent_patterns(
    log: QueryLog,
    min_support: float = 0.05,
    max_size: int = 3,
    max_patterns: int | None = None,
    min_size: int = 1,
    backend: str | None = None,
) -> list[tuple[Pattern, float]]:
    """Mine patterns with support ≥ *min_support*, up to *max_size* features.

    Returns ``(pattern, support)`` pairs sorted by descending support
    then ascending size.  When *max_patterns* is given, the cap is
    applied once, after all levels are mined: the result is the
    globally most frequent patterns, so a low-support pattern from an
    early level is never kept over a higher-support pattern mined
    later.  (Candidate generation itself is exact Apriori, so no
    frequent pattern below the cap is missed by pruning.)

    *backend* selects the support-counting kernel (``packed`` bitsets
    or the ``dense`` matrix scan); it defaults to the log's own
    backend.  Both produce bit-identical supports.
    """
    if not 0.0 < min_support <= 1.0:
        raise ValueError("min_support must lie in (0, 1]")
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    backend = log.backend if backend is None else backend
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")

    counts = log.counts
    total = log.total
    if backend != "dense":
        column_bitsets = log.packed_columns
        tally = log._byte_tally
        dense_matrix = None
    else:
        # Integer count arithmetic keeps supports exact: a query contains
        # an itemset iff the row-wise min over its columns is 1, so the
        # weighted support is an integer dot product divided once by |L|.
        column_bitsets = tally = None
        dense_matrix = log.matrix.astype(np.int64)

    # Level 1: frequent single features.  Levels are (L, size) index
    # arrays with lexicographically sorted rows throughout the sweep;
    # itemsets become Pattern objects only when emitted, so the
    # level-wise loop stays fully vectorized.
    if column_bitsets is not None:
        feature_counts = kernels.support_counts(
            column_bitsets, tally, np.arange(log.n_features)[:, None]
        )
    else:
        feature_counts = counts @ dense_matrix
    marginals = feature_counts / total
    frequent_items = np.flatnonzero(marginals >= min_support)
    level_items = frequent_items[:, None].astype(np.int64)
    level_supports = marginals[frequent_items]
    results: list[tuple[Pattern, float]] = []
    if min_size <= 1:
        results.extend(
            (Pattern(row), float(support))
            for row, support in zip(level_items, level_supports)
        )

    size = 1
    while level_items.shape[0] and size < max_size:
        size += 1
        candidates = _generate_candidates(level_items, log.n_features)
        if candidates.shape[0] == 0:
            break
        if column_bitsets is not None:
            supports = (
                kernels.support_counts(column_bitsets, tally, candidates) / total
            )
        else:
            supports = np.array(
                [
                    float(counts @ dense_matrix[:, list(items)].min(axis=1)) / total
                    for items in candidates
                ]
            )
        keep = supports >= min_support
        level_items = candidates[keep]
        level_supports = supports[keep]
        if size >= min_size:
            results.extend(
                (Pattern(row), float(support))
                for row, support in zip(level_items, level_supports)
            )

    results.sort(key=lambda pair: (-pair[1], len(pair[0])))
    if max_patterns is not None:
        results = results[:max_patterns]
    return results


def _generate_candidates(level_items: np.ndarray, n_features: int) -> np.ndarray:
    """Apriori join + prune: candidates whose subsets are all frequent.

    Prefix join over a ``(L, s-1)`` array of lexicographically sorted
    frequent itemsets: two itemsets merge only when they share their
    first ``s-2`` items, so pairs are enumerated inside prefix groups
    (``triu_indices`` per group) instead of over all itemset pairs.
    The two subsets dropping either joined tail are frequent by
    construction; the remaining prefix-dropping subsets are prune-
    checked with an integer-encoded ``np.isin`` sweep.  Produces
    exactly the classic join+prune candidate set, in lexicographic
    order (a deterministic order: hash-set iteration order would leak
    into support ties downstream).
    """
    length, prev_size = level_items.shape
    size = prev_size + 1
    if length < 2:
        return np.empty((0, size), dtype=level_items.dtype)
    # Rows sharing the first s-2 columns form one join group.
    if prev_size == 1:
        group_starts = np.array([0])
    else:
        prefixes = level_items[:, :-1]
        change = np.any(prefixes[1:] != prefixes[:-1], axis=1)
        group_starts = np.concatenate(([0], np.flatnonzero(change) + 1))
    group_ends = np.concatenate((group_starts[1:], [length]))
    blocks: list[np.ndarray] = []
    for start, end in zip(group_starts, group_ends):
        width = end - start
        if width < 2:
            continue
        i, j = np.triu_indices(width, 1)
        block = np.empty((i.size, size), dtype=level_items.dtype)
        block[:, : size - 2] = level_items[start, :-1]
        block[:, size - 2] = level_items[start:end, -1][i]
        block[:, size - 1] = level_items[start:end, -1][j]
        blocks.append(block)
    if not blocks:
        return np.empty((0, size), dtype=level_items.dtype)
    candidates = np.concatenate(blocks, axis=0)
    # Prune: every subset dropping one of the s-2 prefix positions must
    # itself be frequent.
    if size >= 3:
        keep = np.ones(candidates.shape[0], dtype=bool)
        if float(n_features + 1) ** (size - 1) < float(2**62):
            level_keys = _encode_itemsets(level_items, n_features)
            for drop in range(size - 2):
                subset = np.delete(candidates, drop, axis=1)
                keep &= np.isin(_encode_itemsets(subset, n_features), level_keys)
        else:  # int64 keys would overflow: prune via a hash set instead
            frequent = {row.tobytes() for row in level_items}
            for drop in range(size - 2):
                subset = np.ascontiguousarray(np.delete(candidates, drop, axis=1))
                keep &= np.fromiter(
                    (row.tobytes() in frequent for row in subset),
                    dtype=bool,
                    count=subset.shape[0],
                )
        candidates = candidates[keep]
    return candidates


def _encode_itemsets(itemsets: np.ndarray, n_features: int) -> np.ndarray:
    """Encode each sorted itemset row as one integer key for ``isin``."""
    base = n_features + 1
    width = itemsets.shape[1]
    weights = (base ** np.arange(width - 1, -1, -1)).astype(np.int64)
    return itemsets.astype(np.int64) @ weights
