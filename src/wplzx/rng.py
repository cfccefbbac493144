"""Deterministic random streams via counter-mode seed splitting.

All randomness in the package flows from one master seed; independent
substreams are derived by keying a Philox counter-based generator with
(master, index), so trial i's stream never depends on how many other trials
ran or in which order.  Both key words are taken modulo 2^64: seed -1 is
seed 2^64 - 1, and no two seeds in [-2^63, 2^63) share a stream.

Philox's whole state is its key, its counter and a small output buffer, so
one generator reset to (key, counter 0, empty buffer) draws exactly what a
new one built with that key would.  ``trial_stream`` serves every substream
from one process-wide generator that way: building a new Philox costs
several times a rekey, since it first draws a seed from the operating
system that the key then overrides.  That stream is not reentrant: each
call resets it, so a generator it returned is valid only until the next
call, and a caller draws all it needs from one substream before asking for
the next.
"""

from __future__ import annotations

import functools

import numpy as np

_MASK64 = (1 << 64) - 1


def _key(master_seed: int, index: int) -> np.ndarray:
    """The Philox key of substream ``index`` of ``master_seed``, each word
    modulo 2^64.  Built as a uint64 array: a Python list holding a word of
    2^63 or more would pass through float64 on its way to numpy."""
    return np.array([int(master_seed) & _MASK64, int(index) & _MASK64], dtype=np.uint64)


_ZERO4 = np.zeros(4, dtype=np.uint64)


@functools.cache
def _shared_generator() -> np.random.Generator:
    """The one generator ``trial_stream`` rekeys, made on first use so that
    importing the package does not load ``numpy.random``."""
    return np.random.Generator(np.random.Philox(0))


def trial_stream(master_seed: int, index: int = 0) -> np.random.Generator:
    """The generator of substream ``index`` of ``master_seed``: the draws of
    a new Philox keyed (master_seed, index), from one shared generator
    rekeyed in place; valid only until the next call."""
    gen = _shared_generator()
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO4, "key": _key(master_seed, index)},
        "buffer": _ZERO4,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen
