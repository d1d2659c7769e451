"""The (seed, step) stream contract of the oracle's noise fields."""

import sys
import threading

import numpy as np
import pytest

from lrdual import ValidationError
from lrdual.oracle import derive_seed, normal_field

TOP = 2**64 - 1


def reference(seed, step, n):
    """The contract: a freshly keyed Philox stream, drawn from the start."""
    key = np.array([seed, step], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).standard_normal(n)


def assert_bits_equal(got, expected):
    assert got.dtype == np.float64
    assert got.shape == expected.shape
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("n", [0, 1, 7, 1000])
@pytest.mark.parametrize("seed", [0, TOP, np.uint64(TOP)])
@pytest.mark.parametrize("step", [0, TOP, np.int64(3)])
def test_matches_freshly_keyed_philox(seed, step, n):
    assert_bits_equal(normal_field(seed, step, n), reference(seed, step, n))


def test_interleaved_lengths_start_each_stream_afresh():
    # odd lengths leave a partly used Philox block in the reused generator;
    # the next call must not see any of it
    rng = np.random.default_rng(5)
    calls = [
        (int(rng.integers(0, 2**63)), int(rng.integers(0, 10**6)), n)
        for n in [1, 3, 1000, 2, 7, 0, 5, 999, 1, 64]
    ]
    for seed, step, n in calls + calls[::-1]:
        assert_bits_equal(normal_field(seed, step, n), reference(seed, step, n))
    assert_bits_equal(normal_field(3, 1, 5), normal_field(3, 1, 9)[:5])


def test_derived_seeds_key_the_stream():
    seed = derive_seed(2**70, 35)
    assert 0 <= seed <= TOP
    assert_bits_equal(normal_field(seed, 4, 11), reference(seed, 4, 11))


def test_threads_drawing_at_once_keep_their_streams():
    # more threads than cores, switching often, so calls interleave mid-draw
    seeds = range(11, 17)
    start = threading.Barrier(len(seeds))
    mismatches = []

    def draw(seed):
        start.wait(timeout=30)
        for step in range(300):
            n = 1 + (step * 7 + seed) % 40
            if not np.array_equal(normal_field(seed, step, n), reference(seed, step, n)):
                mismatches.append((seed, step))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(seed,)) for seed in seeds]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


@pytest.mark.parametrize(
    "seed, step",
    [(2**64, 0), (0, 2**64), (-1, 0), (0, -1), (2**65 + 3, 7),
     # 1.5, True and 1.0 would key seed 1's stream
     (1.5, 1), (True, 1), (1, False), (np.float64(1.0), 1), (np.bool_(True), 1), ("1", 1)],
)
def test_key_outside_64_bits_is_refused(seed, step):
    # masking would replay another key's stream, e.g. 2**64 as 0
    with pytest.raises(ValidationError, match=r"\[0, 2\*\*64\)"):
        normal_field(seed, step, 3)


@pytest.mark.parametrize(
    "base_seed, index", [(-1, 0), (0, -1), (1.5, 0), (True, 0), (0, False), ("x", 0), (0, 2.0)]
)
def test_derive_seed_refuses_what_is_not_a_non_negative_integer(base_seed, index):
    with pytest.raises(ValidationError, match="seeds and indices must be non-negative integers"):
        derive_seed(base_seed, index)
