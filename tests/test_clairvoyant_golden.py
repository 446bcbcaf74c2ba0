"""Golden results for the two farthest-next-use comparators.

In-Memory Optimal (Fig. 4(b)) and KnowAc (Fig. 6) both evict by the
clairvoyant next-use index.  This is the smallest Fig. 4(b)-style run in
which both evict *and* the eviction rule matters: evicting in plain LRU
order changes both results, and breaking next-use ties in MRU order
changes KnowAc's.  The values are exact, so any change to the index, the
tie-break or the fetch-ahead shows up here.
"""

import dataclasses

import pytest

from repro.prefetchers import InMemoryOptimalPrefetcher, KnowAcPrefetcher
from repro.runtime.cluster import ClusterSpec, SimulatedCluster, TierSpec
from repro.runtime.runner import WorkflowRunner
from repro.storage.devices import BURST_BUFFER, DRAM, NVME
from repro.workloads.synthetic import partitioned_sequential_workload

MB = 1 << 20

GOLDEN = {
    InMemoryOptimalPrefetcher: {
        "solution": "In-Memory Optimal",
        "workload": "partitioned-sequential",
        "end_to_end_time": 1.122391025,
        "read_time": 0.24078204999999997,
        "hit_ratio": 0.25,
        "hits": 8,
        "misses": 24,
        "bytes_read": 33554432,
        "bytes_prefetched": 52428800,
        "tier_hits": {"RAM": 8},
        "tier_misses": {"PFS": 24},
        "ram_peak_bytes": 8388608.0,
        "evictions": 42,
        "extra": {"profile_cost": 0.0},
        "faults": {},
    },
    KnowAcPrefetcher: {
        "solution": "KnowAc",
        "workload": "partitioned-sequential",
        "end_to_end_time": 1.0906842937499999,
        "read_time": 0.16156409999999966,
        "hit_ratio": 0.5,
        "hits": 16,
        "misses": 16,
        "bytes_read": 33554432,
        "bytes_prefetched": 42991616,
        "tier_hits": {"RAM": 16},
        "tier_misses": {"PFS": 16},
        "ram_peak_bytes": 8388608.0,
        "evictions": 33,
        "extra": {"profile_cost": 1.1286666666666667},
        "faults": {},
    },
}


@pytest.mark.parametrize("cls", list(GOLDEN), ids=lambda cls: cls.name)
def test_farthest_next_use_comparator_result_is_pinned(cls):
    workload = partitioned_sequential_workload(
        processes=2, steps=4, bytes_per_proc_step=4 * MB, compute_time=0.25
    )
    spec = ClusterSpec(
        tiers=(
            TierSpec(DRAM, 16 * MB),
            TierSpec(NVME, 32 * MB),
            TierSpec(BURST_BUFFER, 64 * MB),
        )
    ).scaled_for(workload.num_processes)
    result = WorkflowRunner(SimulatedCluster(spec), workload, cls(ram_budget=8 * MB)).run()
    assert dataclasses.asdict(result) == GOLDEN[cls]
