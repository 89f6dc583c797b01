"""Counter-based random streams.

Every source of randomness in the package is a Philox generator keyed by
``(seed, stream_index)``.  Streams are independent for distinct indices, can
be created in any order, and never share state, so replicates spread over
worker processes and orderings screened together give the same output as
one at a time.

Stream-index conventions used elsewhere:

* ``multi_ordering_test``: index ``r`` for ordering ``r`` of a screen run.
* ``monte_carlo_rejection``: replicate ``r`` uses index ``4*r`` for data
  generation and ``4*r + 1`` for method-level randomness (orderings).
"""

import numpy as np

_MASK64 = (1 << 64) - 1


def stream(seed: int, index: int) -> np.random.Generator:
    """Independent generator for (seed, index), reproducible by construction."""
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
