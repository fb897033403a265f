"""The identity indirection table reproduces direct RSS hashing.

Multi-queue devices steer every packet through one path: hash the flow
into a bucket of the live table (``rss_buckets`` over
``steering_table_length(q)`` buckets), then look the queue up in the
table.  Without an explicit table the device uses ``identity_table(q)``,
which must send every flow to the same queue as hashing it straight onto
``q`` queues (``rss_queues``) — for every queue count a device accepts.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.control import identity_table, steering_table_length
from repro.workloads import rss_buckets, rss_queues

MAX_QUEUES = 256


@given(
    flows=st.lists(
        st.integers(min_value=0, max_value=2**63 - 1), min_size=1, max_size=64
    ),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
@settings(max_examples=60, deadline=None)
def test_identity_table_composes_with_buckets_to_direct_hashing(flows, seed):
    labels = np.asarray(flows, dtype=np.int64)
    for num_queues in range(1, MAX_QUEUES + 1):
        table = np.asarray(identity_table(num_queues), dtype=np.int64)
        buckets = rss_buckets(
            labels, steering_table_length(num_queues), seed=seed
        )
        assert np.array_equal(
            table[buckets], rss_queues(labels, num_queues, seed=seed)
        ), num_queues
