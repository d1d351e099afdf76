"""The stream-id layout: every `SeededRng(seed, stream)` id the package uses.

A stream id is split into a role block (bits 48 and up, one `1 << 48` block
per role) and a key inside the block. Keys are client ids, round indices, or
a round and a client id packed as `round << 24 | client_id`; each of those
fields is below `MAX_ID`, so a key never reaches into the role bits. Distinct
roles therefore never share a generator, and adding a role never perturbs
the draws of an existing one.
"""

from __future__ import annotations

# Bound on a client id and on a round index: each is packed into 24 bits.
MAX_ID = 1 << 24

# The training pipeline. PRETRAIN and DISTILL are offset by a client id,
# SEQ_PARTITION by a round, and TRAIN by both (see `train`); the others are
# single streams.
INIT = 0
PRETRAIN = 1 << 48
KMEANS = 2 << 48
SAMPLING = 3 << 48
HEADS = 4 << 48
DISTILL = 5 << 48
TRAIN = 6 << 48
SEQ_PARTITION = 7 << 48

# Data generation: all in the command-line problem builder. Block 9 is
# unused.
PARTITION = 8 << 48
MEANS = 10 << 48
POOL = 11 << 48
SPLIT = 12 << 48
SHIFT = 13 << 48
PROBE_POOL = 14 << 48
PROBE = 15 << 48


def train(round_index: int, client_id: int) -> int:
    """The local-training stream of one client in one round."""
    return TRAIN | (round_index << 24) | client_id
