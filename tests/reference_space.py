"""Reference inverse of the unit-cube decoder: bisection over all of [0, 1].

This is the encoder's earlier search, kept to cross-check the packaged
``autotune.space._invert_decode``. It keeps ``decode(a) < v <= decode(b)``
from ``a, b = 0, 1`` and halves the interval until ``a`` and ``b`` are
adjacent floats, about 60 decodes per value. The decoder is non-decreasing in
``u``, so ``b`` is then the smallest unit coordinate whose value reaches
``v``; it is the answer if it decodes to ``v`` exactly.
"""
from __future__ import annotations

from autotune.space import Hyperparameter, _decode_one


def reference_invert_decode(p: Hyperparameter, v) -> float | None:
    """Smallest unit coordinate that decodes exactly to ``v``, if any."""
    decode = lambda u: _decode_one(p, u)
    if decode(0.0) >= v:
        return 0.0 if decode(0.0) == v else None
    if decode(1.0) < v:
        return None
    a, b = 0.0, 1.0  # decode(a) < v <= decode(b)
    while True:
        m = 0.5 * (a + b)
        if not (a < m < b):
            break
        if decode(m) < v:
            a = m
        else:
            b = m
    return b if decode(b) == v else None
