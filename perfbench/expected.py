"""Workload sizes and the exact results every pass is checked against.

The digests are sha256 over the newline-joined generator strings `a`
(sorted for searches, in chain order for the transform chain).  They were
recorded once from the reference pure-Python implementation, so a pass
that returns the right number of codes but a different set still fails.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

WORKLOADS = ("scan-general", "search-k2", "ito-scan", "transform-chain")

SCAN_N = 5
SCAN_CANDIDATES = 1 << (4 * SCAN_N)

# n=7 has no hits and only adds candidate overhead; ito-scan exhausts the
# same 114,688 structured n=7 candidates before its general scan.
K2_NS = (6,)
K2_CANDIDATES = sum(2 * n * (1 << (2 * n - 1)) for n in K2_NS)

ITO_N_MAX = 8

# The chain starts at length 24 (n=6) and doubles CHAIN_DOUBLINGS times.
CHAIN_N = 6
CHAIN_DOUBLINGS = 5

# library calls in one pass
OPS = {
    "scan-general": 1,
    "search-k2": len(K2_NS),
    "ito-scan": 1,
    "transform-chain": 4 * CHAIN_DOUBLINGS,
}

EXPECTED = {
    "scan-general": {
        "codes": 1400,
        "raw_hits": 2800,
        "digest": "f0422d701965415282d3044e28c3b6360ceb0b68875b4e7118c8a60c6b787a25",
    },
    "search-k2": {
        "codes": {6: 864},
        "raw_hits": 3456,
        "digest": {
            6: "f1fb3652f4f61a15d8d0f5d146228481743b8cb319771d7cc25f6c6eb0fb683e",
        },
    },
    "ito-scan": {
        "exists": [True] * ITO_N_MAX,
        "digest": "4c187f92cf90c3f925f03af77bff0b06ab3b0dc5360e57d95c481b2325105cb4",
    },
    "transform-chain": {
        # rank L/2 for every code; kernel dimension 2 after doubling, 1 for
        # the transposes of the seed-0 chain.
        "doubled_kernel_dim": 2,
        "seed0_transpose_kernel_dim": 1,
        "seed0_digest": "0a26ae929671b7dfc1c88699e1f8a8343cd3bda99f9d73ef1de006c4cf206dc1",
    },
}


def digest(a_strings: Iterable[str]) -> str:
    return hashlib.sha256("\n".join(a_strings).encode("ascii")).hexdigest()
