"""Keyed draws: one uniform per id tuple, the same in any call that draws it.
Each step is splitmix64's finaliser (Steele, Lea & Flood, OOPSLA 2014), chained
over the ids as in counter-based generators (Salmon et al., SC 2011)."""

import numpy as np

_GAMMA, _M1, _M2 = (np.uint64(c) for c in (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9,
                                           0x94D049BB133111EB))


def key_words(rng_key) -> np.ndarray:
    """One uint64 per window key through ``SeedSequence``: ``rng_key`` (a tuple)
    for one window, or ``rng_key[s]`` for window s."""
    keys = [rng_key] if isinstance(rng_key, tuple) else rng_key
    return np.array([np.random.SeedSequence(key).generate_state(1, np.uint64)[0]
                     for key in keys], dtype=np.uint64)


def keyed_uniform(key, *ids) -> np.ndarray:
    """A float64 in [0, 1) per element of the broadcast uint64 ``key`` and integer
    ``ids``: the top 53 bits of ``h``, from ``h = key`` through ``h = mix(h ^ id)``
    per id. ``mix`` is a bijection, so tuples that differ in one id never share an
    ``h``. Arrays throughout (``ndmin=1``): uint64 arrays wrap without a warning."""
    h = np.array(key, dtype=np.uint64, ndmin=1)
    for i in ids:
        z = (h ^ np.array(i, ndmin=1).astype(np.uint64)) + _GAMMA
        z = (z ^ (z >> np.uint64(30))) * _M1
        z = (z ^ (z >> np.uint64(27))) * _M2
        h = z ^ (z >> np.uint64(31))
    return (h >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
