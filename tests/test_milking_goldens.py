"""Byte-level goldens for the milking phase's persisted outputs.

One streamed tiny run with telemetry on, milking long enough that the
30-minute GSB rounds (not only the final two-months-later lookup) set
``observed_listed_at`` for some domains.  The digests were recorded from
the full-watchlist GSB scan and the per-version feed encoding; the
heap-driven GSB round, memoized screenshot hashing and encode-once feed
snapshots must reproduce every byte.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import SeacmaPipeline, WorldConfig, build_world
from repro.core.milking import MilkingConfig
from repro.store import JsonlStore
from repro.telemetry import Telemetry, use
from repro.telemetry.export import canonical_trace_bytes

SEED = 7
MILKING = MilkingConfig(duration_days=1.0, post_lookup_days=1.0)

GOLDEN = {
    "feed.jsonl": "5e28b460fa4b813be4a7782c779e2a0410483316ed41dedf8ce520fa072f4beb",
    "milking.jsonl": "9029a291c7b80d3609e172f4a8195e5ccdd69e75c46a2e18d3dfd8de8bf46fc1",
    "metrics.prom": "558714d36c42ce2238ee9b2cbea0eb45ec61ef3f9ce00e4ab772d0feb3eb4201",
    "trace": "0f15e08a57e358dd3a8a6eac5ab80d87dc064cfcda156c8840211192aa17a610",
}
GOLDEN_LOOKUP_COUNT = 21721
GOLDEN_GSB_LOOKUPS_METRIC = "seacma_milking_gsb_lookups_total 21127"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    directory = tmp_path_factory.mktemp("milking-golden")
    world = build_world(WorldConfig.tiny(seed=SEED))
    pipeline = SeacmaPipeline(world, milking_config=MILKING)
    telemetry = Telemetry(world.clock)
    with use(telemetry), JsonlStore(directory, run_id="golden") as store:
        result = pipeline.run_streaming(store=store)
    return world, result, telemetry, directory


def test_some_listing_is_observed_by_a_gsb_round(golden_run):
    """The final lookup records the exact listing time; a 30-minute round
    records its own (later) firing time.  At least one domain must take
    the round path, or the goldens would not pin the GSB round at all."""
    world, result, _, _ = golden_run
    by_round = [
        record
        for record in result.milking.domains
        if record.observed_listed_at is not None
        and record.observed_listed_at > world.gsb.listed_time(record.domain)
    ]
    assert by_round


@pytest.mark.parametrize("stream", ["feed.jsonl", "milking.jsonl"])
def test_store_streams_match_golden(golden_run, stream):
    _, _, _, directory = golden_run
    assert _sha256((directory / stream).read_bytes()) == GOLDEN[stream]


def test_metrics_match_golden(golden_run):
    _, _, telemetry, _ = golden_run
    prometheus = telemetry.metrics.to_prometheus()
    assert GOLDEN_GSB_LOOKUPS_METRIC in prometheus.splitlines()
    assert _sha256(prometheus.encode()) == GOLDEN["metrics.prom"]


def test_canonical_trace_matches_golden(golden_run):
    _, _, telemetry, _ = golden_run
    assert _sha256(canonical_trace_bytes(telemetry)) == GOLDEN["trace"]


def test_gsb_lookup_count_matches_golden(golden_run):
    world, _, _, _ = golden_run
    assert world.gsb.lookup_count == GOLDEN_LOOKUP_COUNT
