"""The stream-id layout: role blocks never collide, and no composed id
leaves its own block."""

from hfldd import streams

BLOCK = 1 << 48

ROLE_BLOCKS = {
    "INIT": streams.INIT,
    "PRETRAIN": streams.PRETRAIN,
    "KMEANS": streams.KMEANS,
    "SAMPLING": streams.SAMPLING,
    "HEADS": streams.HEADS,
    "DISTILL": streams.DISTILL,
    "TRAIN": streams.TRAIN,
    "SEQ_PARTITION": streams.SEQ_PARTITION,
    "PARTITION": streams.PARTITION,
    "MEANS": streams.MEANS,
    "POOL": streams.POOL,
    "SPLIT": streams.SPLIT,
    "SHIFT": streams.SHIFT,
    "PROBE_POOL": streams.PROBE_POOL,
    "PROBE": streams.PROBE,
}


def block_of(stream: int) -> int:
    return stream // BLOCK


def test_table_lists_every_block():
    declared = {
        name
        for name, value in vars(streams).items()
        if name.isupper() and isinstance(value, int) and value % BLOCK == 0
    }
    assert declared == set(ROLE_BLOCKS)


def test_role_blocks_are_pairwise_distinct():
    blocks = [block_of(v) for v in ROLE_BLOCKS.values()]
    assert all(v % BLOCK == 0 for v in ROLE_BLOCKS.values())
    assert len(set(blocks)) == len(blocks) == 15


def test_train_stream_stays_in_its_block():
    last = streams.MAX_ID - 1
    for round_index, client_id in ((0, 0), (1, 0), (last, last)):
        stream = streams.train(round_index, client_id)
        assert block_of(stream) == block_of(streams.TRAIN)
    assert streams.train(last, last) == streams.TRAIN + BLOCK - 1


def test_offset_streams_stay_in_their_blocks():
    # pretrain and distill are offset by a client id, seq-partition by a round
    last = streams.MAX_ID - 1
    for base in (streams.PRETRAIN, streams.DISTILL, streams.SEQ_PARTITION):
        assert block_of(base + last) == block_of(base)
