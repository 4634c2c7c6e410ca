"""Small pure helpers shared by the runner, the worker and the self-tests."""

from __future__ import annotations

import hashlib
import json

TAIL_BEYOND = 10


def tail_latency(values) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with TAIL_BEYOND samples beyond it.

    With n sorted samples that is the (n - TAIL_BEYOND)-th smallest: exactly
    TAIL_BEYOND samples lie above its position.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples for a tail, got {n}")
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def digest(report) -> str:
    """SHA-256 of the canonical JSON (sorted keys, no spaces) of a report."""
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_digests(computed: dict[str, str], stored: dict[str, str]) -> tuple[list[str], list[str]]:
    """Split computed labels into (mismatched, unchecked) against the stored ones."""
    mismatched = [label for label, value in computed.items() if label in stored and stored[label] != value]
    unchecked = [label for label in computed if label not in stored]
    return mismatched, unchecked


def quotas(sizes: list[int], total: int) -> list[int]:
    """Split ``total`` draws over strata in proportion to their sizes.

    Largest-remainder rounding, ties to the lower index, capped at each
    stratum's size: the split depends only on the sizes, not on a seed, so
    every seed draws the same number of instances from each stratum.
    """
    population = sum(sizes)
    exact = [total * s / population for s in sizes]
    counts = [min(int(x), s) for x, s in zip(exact, sizes)]
    order = sorted(range(len(sizes)), key=lambda i: (-(exact[i] - int(exact[i])), i))
    for i in order:
        if sum(counts) >= total:
            break
        if counts[i] < sizes[i]:
            counts[i] += 1
    return counts
