"""Counter-based random streams for reproducible, order-independent noise.

Draws are keyed by ``(seed, step)`` through the Philox block cipher, so a
given step's noise vector does not depend on which steps ran before it.
Coordinate ``i`` of a step's field is the i-th draw of that step's stream:
``normal_field(seed, step, n)`` equals
``Generator(Philox(key=[seed, step])).standard_normal(n)`` bit for bit.

Seed and step are the two 64-bit words of the Philox key, so each must be an
integer in [0, 2**64); values outside are refused rather than wrapped,
because a wrapped seed would silently replay another seed's stream, and so
are bools and floats, which 1.5 or True would key as seed 1. Each thread
keeps one generator and resets its key, counter and buffer on every call
instead of building a new one.
"""

from __future__ import annotations

import numbers
import threading

import numpy as np

from ..errors import ValidationError

__all__ = ["normal_field", "derive_seed"]

_KEY_END = 1 << 64
_INTEGERS = (int, np.integer)
_ZEROS = (0, 0, 0, 0)
_local = threading.local()


def normal_field(seed: int, step: int, n: int) -> np.ndarray:
    """Standard-normal vector of length ``n`` for (seed, step)."""
    # exact type tests, which every draw pays for
    if not (isinstance(seed, _INTEGERS) and isinstance(step, _INTEGERS)
            and seed.__class__ is not bool and step.__class__ is not bool):
        raise ValidationError(
            f"seed and step must be integers in [0, 2**64), got seed={seed!r}, step={step!r}"
        )
    if not (0 <= seed < _KEY_END and 0 <= step < _KEY_END):
        raise ValidationError(
            f"seed and step must be in [0, 2**64), got seed={seed}, step={step}"
        )
    gen = _local.__dict__.get("generator")
    if gen is None:
        gen = _local.generator = np.random.Generator(np.random.Philox(0))
    # the state of a freshly keyed Philox: counter 0, empty buffer
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": (seed, step)},
        "buffer": _ZEROS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen.standard_normal(n)


def derive_seed(base_seed: int, index: int) -> int:
    """Stable per-cell seed from a base seed and a cell index."""
    for value in (base_seed, index):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
            raise ValidationError(f"seeds and indices must be non-negative integers, "
                                  f"got base_seed={base_seed!r}, index={index!r}")
    ss = np.random.SeedSequence((base_seed, index))
    return int(ss.generate_state(1, np.uint64)[0])
