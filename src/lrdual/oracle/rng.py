"""Counter-based random streams for reproducible, order-independent noise.

Draws are keyed by ``(seed, step)`` through the Philox block cipher, so a
given step's noise vector does not depend on which steps or sweep cells ran
before it. Coordinate ``i`` of a step's field is the i-th draw of that
step's stream.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError

__all__ = ["normal_field", "derive_seed"]

_MASK64 = (1 << 64) - 1


def normal_field(seed: int, step: int, n: int) -> np.ndarray:
    """Standard-normal vector of length ``n`` for (seed, step)."""
    key = np.array([seed & _MASK64, step & _MASK64], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.standard_normal(n)


def derive_seed(base_seed: int, index: int) -> int:
    """Stable per-cell seed from a base seed and a cell index."""
    if base_seed < 0 or index < 0:
        raise ValidationError("seeds and indices must be non-negative")
    ss = np.random.SeedSequence((base_seed, index))
    return int(ss.generate_state(1, np.uint64)[0])
