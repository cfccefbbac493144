"""Seeded substreams: the shared rekeyed stream against fresh generators."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from wplzx.rng import trial_stream

SEEDS = (0, 1, 7000, 2**63 - 1, 2**63, 2**64 - 1, -1)
INDICES = (0, 1, 3, 2**32)


def _draws(gen: np.random.Generator) -> tuple:
    return gen.random(50).tolist(), gen.integers(0, 8, 20).tolist()


def trial_generator(master_seed: int, index: int = 0) -> np.random.Generator:
    """Reference: a fresh Philox generator keyed (master_seed, index), each
    word modulo 2^64."""
    key = np.array([master_seed % 2**64, index % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@pytest.mark.parametrize("seed", SEEDS)
def test_trial_stream_draws_what_a_fresh_generator_draws(seed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for index in INDICES:
            assert _draws(trial_stream(seed, index)) == _draws(trial_generator(seed, index))


def test_trial_stream_restarts_a_substream_after_another():
    """A, then B, then A again: the third call draws A's stream from its
    start, whatever the calls before it drew."""
    first = _draws(trial_stream(5, 2))
    trial_stream(6, 2).random(7)  # leaves a partly used buffer behind
    trial_stream(5, 3).integers(0, 3)  # and a half-used 32-bit word
    assert _draws(trial_stream(5, 2)) == first
    assert _draws(trial_stream(6, 2)) == _draws(trial_generator(6, 2))


def test_negative_seeds_are_keyed_modulo_2_64():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        key = trial_stream(-1, 0).bit_generator.state["state"]["key"]
        assert key.tolist() == [2**64 - 1, 0]
        streams = {
            tuple(trial_stream(seed, 0).random(4).tolist())
            for seed in (0, -1, -2, 2**63, 2**63 + 1)
        }
    assert len(streams) == 5
