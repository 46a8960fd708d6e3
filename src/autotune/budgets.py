"""Fidelity ladders for multi-fidelity scheduling.

A ladder anchors at the full budget and descends geometrically by ``eta``,
discarding rungs below ``min_budget``. Each rung's capacity is the number of
configurations whose combined cost equals one full run at that fidelity.
"""
from __future__ import annotations


def ladder(min_budget: float, eta: float) -> tuple[float, ...]:
    """The rungs 1 / eta**k for k = 0, 1, ... while >= min_budget, ascending;
    the last is the full budget, 1.0."""
    if not (0.0 < min_budget < 1.0):
        raise ValueError(f"need 0 < min_budget < 1, got {min_budget}")
    if not eta > 1.0:
        raise ValueError(f"eta must be > 1, got {eta}")
    rungs = []
    k = 0
    while True:
        value = 1.0 / eta**k
        if value < min_budget:
            break
        rungs.append(value)
        k += 1
    return tuple(reversed(rungs))


def rung_capacity(budget: float) -> int:
    """floor(1 / budget), the runs at ``budget`` one full run pays for; always >= 1.

    The tiny epsilon keeps exact geometric ratios (1/eta**k) from flooring
    one short after floating-point division.
    """
    return max(1, int(1.0 / budget + 1e-9))
