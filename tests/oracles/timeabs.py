"""Eq. (1)/(2) of Section IV-E by brute force.

For every divisor ``d`` and every vector ``theta'`` with
``0 <= theta'_i <= theta_i``, the arrival errors are what Eq. (1) leaves,
``Delta_i = theta_i - theta'_i * d``.  A candidate stands when every
``Delta_i`` is an early arrival below the divisor (``0 <= Delta_i < d``)
and ``sum Delta_i <= B``; the least ``(sum theta', sum Delta)`` wins,
ties broken toward the smallest ``d``.  Divisors run up to
``max Theta + 1``: a larger one admits the same single vector (every
``theta'_i = 0``) and so loses every tie to it.  No ``div`` or ``mod``:
production's one choice per chain for each divisor is what this checks.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence, Tuple


def brute_force(
    thetas: Sequence[int], bound: int
) -> Tuple[int, Tuple[int, ...], Tuple[int, ...]]:
    """``(d, theta', Delta)`` minimising Eq. (2) within budget *bound*."""
    best = None
    for divisor in range(1, max(thetas, default=0) + 2):
        for scaled in product(*(range(theta + 1) for theta in thetas)):
            errors = tuple(
                theta - value * divisor for theta, value in zip(thetas, scaled)
            )
            if not all(0 <= error < divisor for error in errors):
                continue
            if sum(errors) > bound:
                continue
            key = (sum(scaled), sum(errors), divisor)
            if best is None or key < best[0]:
                best = (key, (divisor, scaled, errors))
    return best[1]
