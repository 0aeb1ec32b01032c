"""Random-number-generator plumbing.

The simulation engine needs *reproducible yet independent* randomness for
each stochastic subsystem (primary-user channel occupancy, sensing noise,
fading).  Rather than sharing a single global generator -- which would make
results depend on call order -- every subsystem receives its own
:class:`numpy.random.Generator` spawned from one root seed.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Union

import numpy as np

#: Anything acceptable as a source of randomness in public APIs.
RandomState = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_generator(seed: RandomState = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh entropy), an integer seed, a
    :class:`~numpy.random.SeedSequence`, or an existing generator (returned
    unchanged so callers can thread one generator through a pipeline).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def spawn_streams(seed: RandomState, names: Iterable[str]) -> Dict[str, np.random.Generator]:
    """Create one independent generator per name from a single root seed.

    Streams are derived with :meth:`numpy.random.SeedSequence.spawn`, which
    guarantees statistical independence between children; the mapping is
    deterministic in both the root seed and the *order* of ``names``.

    Parameters
    ----------
    seed:
        Root seed (``None`` draws fresh OS entropy).
    names:
        Stream labels, e.g. ``["occupancy", "sensing", "fading"]``.

    Returns
    -------
    dict
        ``{name: Generator}`` with one independent stream per name.
    """
    names = list(names)
    if len(set(names)) != len(names):
        raise ValueError(f"stream names must be unique, got {names!r}")
    if isinstance(seed, np.random.Generator):
        # Derive children from the generator's bit stream; keeps the
        # "thread one generator through everything" use case working.
        root = np.random.SeedSequence(seed.integers(0, 2**63 - 1, size=4))
    elif isinstance(seed, np.random.SeedSequence):
        root = seed
    else:
        root = np.random.SeedSequence(seed)
    children = root.spawn(len(names))
    return {name: np.random.default_rng(child) for name, child in zip(names, children)}


def batched_uniform(rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw ``n`` uniforms in one call, consuming the stream like ``n``
    scalar ``rng.random()`` calls.

    This is the contract the batched PHY/sensing backend is built on:
    numpy's ``Generator.random(size=n)`` fills the output buffer by
    repeating the exact per-element draw of the scalar call, so the bit
    stream -- and therefore every subsequent draw from ``rng`` -- is
    identical whether a slot's uniforms are drawn one at a time (the
    scalar oracle) or as one array (the batched backend).  Asserted by
    ``tests/utils/test_rng.py`` and relied on for the byte-identical
    ``--jobs N`` checkpoint guarantee.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return rng.random(int(n))


def derive_seed(seed: Optional[int], run_index: int,
                attempt: int = 0) -> Optional[int]:
    """Deterministic per-run seed for Monte-Carlo replication ``run_index``.

    Returns ``None`` when ``seed`` is ``None`` so unseeded experiments stay
    fully random.

    Parameters
    ----------
    seed:
        Root seed of the experiment.
    run_index:
        Replication index.
    attempt:
        Retry counter.  ``attempt=0`` reproduces the historical
        per-run seeds exactly; a retried replication (after a
        :class:`~repro.utils.errors.ReproError`) passes ``attempt=1`` to
        draw a fresh-but-deterministic seed that is independent of the
        failed attempt's.
    """
    if seed is None:
        return None
    if run_index < 0:
        raise ValueError(f"run_index must be non-negative, got {run_index}")
    if attempt < 0:
        raise ValueError(f"attempt must be non-negative, got {attempt}")
    # SeedSequence composition keeps runs independent even for adjacent
    # run indices (unlike naive ``seed + run_index`` arithmetic).  The
    # attempt counter is only appended when non-zero so attempt 0 keeps
    # the exact seeds produced before retries existed.
    entropy = [seed, run_index] if attempt == 0 else [seed, run_index, attempt]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])
