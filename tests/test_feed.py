"""Unit tests for the versioned blocklist feed (``repro.feed``).

Covers the wire format (snapshots, deltas, hashes), the publisher's
observer behaviour, the server protocol (full/delta/not-modified, the
LRU delta cache, time-scoped requests), the simulated client fleet, and
the HTTP front-end.
"""

from __future__ import annotations

import hashlib
import json
import socket
import time
import urllib.request

import pytest

from repro.clock import HOUR, MINUTE
from repro.errors import ConfigError, StoreError
from repro.feed import (
    DELTA,
    FULL,
    NOT_MODIFIED,
    FeedClientFleet,
    FeedDelta,
    FeedEntry,
    FeedPublisher,
    FeedRequest,
    FeedServer,
    FeedSnapshot,
    FleetConfig,
    apply_delta,
    compute_delta,
    lag_table,
    network_of_clusters,
    state_hash,
)
from repro.feed.asyncserve import (
    MAX_HEAD_BYTES,
    WRITE_HIGH_WATER,
    AsyncFeedHTTPServer,
    AsyncFeedServer,
    FeedProtocol,
)
from repro.feed.snapshot import _canonical_json, snapshots_from_records
from repro.store.jsonl import JsonlStore, _encode
from repro.store.memory import MemoryStore


def entry(domain: str, first: float = 0.0, last: float = 0.0, **kwargs) -> FeedEntry:
    return FeedEntry(
        domain=domain,
        cluster_id=kwargs.get("cluster_id", 1),
        category=kwargs.get("category", "Fake Software"),
        network=kwargs.get("network", "adnet-a"),
        first_seen=first,
        last_seen=last or first,
    )


def snapshot(version: int, at: float, *domains: str) -> FeedSnapshot:
    # Entry timestamps are fixed (not ``at``) so an unchanged domain is
    # byte-identical across versions — deltas stay minimal.
    return FeedSnapshot.build(
        version=version, published_at=at, entries=[entry(d) for d in domains]
    )


class TestSnapshot:
    def test_build_sorts_entries_by_domain(self):
        snap = snapshot(1, 0.0, "zebra.com", "apple.com", "mango.com")
        assert snap.domains() == ["apple.com", "mango.com", "zebra.com"]

    def test_duplicate_domains_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            snapshot(1, 0.0, "a.com", "a.com")

    def test_content_hash_is_pure_function_of_entries(self):
        one = snapshot(1, 0.0, "a.com", "b.com")
        two = snapshot(7, 999.0, "b.com", "a.com")
        assert one.content_hash == two.content_hash  # metadata excluded

    def test_canonical_bytes_stable_and_compact(self):
        snap = snapshot(1, 0.0, "a.com")
        payload = snap.canonical_bytes()
        assert payload == snap.canonical_bytes()
        assert b", " not in payload and b": " not in payload  # compact separators
        record = json.loads(payload)
        assert record["format"] == "seacma-feed/1"
        assert list(record) == sorted(record)  # sorted keys

    def test_record_round_trip_reverifies_hash(self):
        snap = snapshot(3, 100.0, "a.com", "b.com")
        again = FeedSnapshot.from_record(snap.to_record())
        assert again == snap

    def test_damaged_record_rejected(self):
        record = snapshot(1, 0.0, "a.com").to_record()
        record["entries"][0]["domain"] = "evil.com"
        with pytest.raises(ConfigError, match="hash check"):
            FeedSnapshot.from_record(record)


def awkward_snapshot(version: int = 4, published_at: float = 1e20) -> FeedSnapshot:
    """Entries covering every encoding corner the wire format has."""
    return FeedSnapshot.build(
        version=version,
        published_at=published_at,
        entries=[
            entry("plain.com", 5.0, 900.0),
            entry("nulls.net", 1800.0, category=None, network=None),
            entry("huge.org", 1e20, 1e20 + 2**70),
            entry("bücher.example", 0.1, 3.0, network="réseau"),
            entry("例え.jp", 7.25, cluster_id=0, category="Scareware ✓"),
        ],
    )


class TestEncodeOnce:
    """Cached entry bytes reproduce the record encoding byte for byte."""

    @pytest.mark.parametrize(
        "snap",
        [awkward_snapshot(), awkward_snapshot(1, 0.0), snapshot(2, 60.0)],
        ids=["awkward", "integral-published-at", "empty"],
    )
    def test_canonical_bytes_equal_record_encoding(self, snap):
        assert snap.canonical_bytes() == _canonical_json(snap.to_record())
        assert snap.canonical_bytes() == _encode(snap.to_record()).encode()
        for item in snap.entries:
            assert item.canonical_bytes == _canonical_json(item.to_record())

    def test_content_hash_unchanged_by_cached_bytes(self):
        snap = awkward_snapshot()
        records = [item.to_record() for item in snap.entries]
        assert snap.content_hash == hashlib.sha256(_canonical_json(records)).hexdigest()
        assert state_hash(snap.entry_map()) == snap.content_hash

    def test_append_encoded_writes_the_append_line(self, tmp_path):
        snap = awkward_snapshot()
        with JsonlStore(tmp_path / "encoded") as encoded:
            encoded.append_encoded("feed", snap.canonical_bytes())
            assert encoded.count("feed") == 1
            assert encoded.read("feed") == [snap.to_record()]
        with JsonlStore(tmp_path / "appended") as appended:
            appended.append("feed", snap.to_record())
        line = (tmp_path / "encoded" / "feed.jsonl").read_bytes()
        assert line == (_encode(snap.to_record()) + "\n").encode()
        assert line == (tmp_path / "appended" / "feed.jsonl").read_bytes()

    def test_append_encoded_rejects_multi_line_input(self, tmp_path):
        with JsonlStore(tmp_path / "s") as store:
            with pytest.raises(StoreError, match="more than one line"):
                store.append_encoded("feed", b'{"a":1}\n{"b":2}')

    def test_memory_store_decodes_encoded_lines(self):
        snap = awkward_snapshot()
        store = MemoryStore()
        store.append_encoded("feed", snap.canonical_bytes())
        assert store.read("feed") == [snap.to_record()]

    def test_history_round_trip_shares_equal_entries(self):
        first = awkward_snapshot(1, 0.0)
        second = FeedSnapshot.build(
            version=2,
            published_at=3600.0,
            entries=[item for item in first.entries if item.domain != "plain.com"]
            + [entry("plain.com", 5.0, 3600.0)],
        )
        again = list(snapshots_from_records([first.to_record(), second.to_record()]))
        assert again == [first, second]
        shared = set(first.domains()) - {"plain.com"}
        for domain in shared:
            assert again[0].entry_map()[domain] is again[1].entry_map()[domain]
        assert again[0].entry_map()["plain.com"] != again[1].entry_map()["plain.com"]

    def test_interning_keeps_int_and_float_times_apart(self):
        # 5 == 5.0, but the two encode differently; each version keeps
        # the encoding its record was hashed over.
        as_float = FeedSnapshot.build(1, 0.0, [entry("a.com", 5.0, 5.0)])
        as_int = FeedSnapshot.build(2, 1.0, [entry("a.com", 5, 5)])
        assert as_float.content_hash != as_int.content_hash
        again = list(snapshots_from_records([as_float.to_record(), as_int.to_record()]))
        assert [snap.content_hash for snap in again] == [
            as_float.content_hash, as_int.content_hash,
        ]

    def test_damaged_record_rejected_with_interning(self):
        first = snapshot(1, 0.0, "a.com", "b.com")
        damaged = snapshot(2, 60.0, "a.com", "b.com").to_record()
        # Point the damaged entry at a value an earlier version interned.
        damaged["entries"][1]["domain"] = "a.com"
        with pytest.raises(ConfigError):
            list(snapshots_from_records([first.to_record(), damaged]))
        tampered = snapshot(2, 60.0, "a.com", "c.com").to_record()
        tampered["entries"][1]["last_seen"] = 99.0
        with pytest.raises(ConfigError, match="hash check"):
            list(snapshots_from_records([first.to_record(), tampered]))


class TestDelta:
    def test_delta_categorizes_changes(self):
        old = FeedSnapshot.build(1, 0.0, [entry("keep.com"), entry("gone.com"),
                                          entry("stale.com", 0.0)])
        new = FeedSnapshot.build(
            2,
            HOUR,
            [entry("keep.com"), entry("fresh.com", HOUR),
             entry("stale.com", 0.0, HOUR)],
        )
        delta = compute_delta(old, new)
        assert [e.domain for e in delta.added] == ["fresh.com"]
        assert [e.domain for e in delta.updated] == ["stale.com"]
        assert delta.removed == ("gone.com",)
        assert delta.change_count == 3

    def test_apply_delta_reconstructs_target_state(self):
        old = snapshot(1, 0.0, "a.com", "b.com")
        new = snapshot(2, HOUR, "b.com", "c.com")
        delta = compute_delta(old, new)
        state = apply_delta(old.entry_map(), delta)
        assert sorted(state) == ["b.com", "c.com"]
        assert state_hash(state) == new.content_hash == delta.to_hash

    def test_backwards_delta_rejected(self):
        with pytest.raises(ConfigError, match="forward"):
            compute_delta(snapshot(2, HOUR, "a.com"), snapshot(1, 0.0, "a.com"))

    def test_delta_record_round_trip(self):
        delta = compute_delta(
            snapshot(1, 0.0, "a.com"), snapshot(2, HOUR, "b.com")
        )
        assert FeedDelta.from_record(delta.to_record()) == delta


class _FakeMilkedDomain:
    def __init__(self, domain, cluster_id=1, category=None, discovered_at=0.0):
        self.domain = domain
        self.cluster_id = cluster_id
        self.category = category
        self.discovered_at = discovered_at


class TestPublisher:
    def test_publishes_at_round_boundaries(self):
        publisher = FeedPublisher(interval_minutes=60.0)
        publisher.domain_discovered(_FakeMilkedDomain("a.com"), 0.0)
        publisher.round_complete(0.0)
        assert publisher.latest.version == 1
        assert publisher.latest.domains() == ["a.com"]

    def test_rate_limited_to_interval(self):
        publisher = FeedPublisher(interval_minutes=60.0)
        publisher.domain_discovered(_FakeMilkedDomain("a.com"), 0.0)
        publisher.round_complete(0.0)
        publisher.domain_discovered(_FakeMilkedDomain("b.com"), 10 * MINUTE)
        publisher.round_complete(10 * MINUTE)  # too soon — held back
        assert len(publisher.snapshots) == 1
        publisher.round_complete(HOUR)  # interval elapsed — published
        assert len(publisher.snapshots) == 2
        assert publisher.latest.domains() == ["a.com", "b.com"]

    def test_quiet_rounds_publish_nothing(self):
        publisher = FeedPublisher(interval_minutes=60.0)
        publisher.domain_discovered(_FakeMilkedDomain("a.com"), 0.0)
        publisher.round_complete(0.0)
        for hour in range(1, 4):
            publisher.round_complete(hour * HOUR)
        assert len(publisher.snapshots) == 1

    def test_milking_finished_flushes_pending_changes(self):
        publisher = FeedPublisher(interval_minutes=60.0)
        publisher.domain_discovered(_FakeMilkedDomain("a.com"), 0.0)
        publisher.round_complete(0.0)
        publisher.domain_discovered(_FakeMilkedDomain("b.com"), 10 * MINUTE)
        publisher.milking_finished(20 * MINUTE)
        assert len(publisher.snapshots) == 2

    def test_domain_seen_refreshes_last_seen(self):
        publisher = FeedPublisher(interval_minutes=60.0)
        record = _FakeMilkedDomain("a.com")
        publisher.domain_discovered(record, 0.0)
        publisher.round_complete(0.0)
        publisher.domain_seen(record, 2 * HOUR)
        publisher.round_complete(2 * HOUR)
        assert publisher.latest.entries[0].last_seen == 2 * HOUR
        assert publisher.latest.entries[0].first_seen == 0.0

    def test_network_attribution_applied(self):
        publisher = FeedPublisher(
            network_of_cluster={5: "adnet-x"}, interval_minutes=60.0
        )
        publisher.domain_discovered(_FakeMilkedDomain("a.com", cluster_id=5), 0.0)
        publisher.domain_discovered(_FakeMilkedDomain("b.com", cluster_id=9), 0.0)
        publisher.milking_finished(0.0)
        by_domain = publisher.latest.entry_map()
        assert by_domain["a.com"].network == "adnet-x"
        assert by_domain["b.com"].network is None


class TestServer:
    def history(self):
        return [
            snapshot(1, 0 * HOUR, "a.com"),
            snapshot(2, 1 * HOUR, "a.com", "b.com"),
            snapshot(3, 2 * HOUR, "a.com", "b.com", "c.com"),
        ]

    def test_empty_history_rejected(self):
        with pytest.raises(ConfigError, match="at least one"):
            FeedServer([])

    def test_unordered_history_rejected(self):
        with pytest.raises(ConfigError, match="version-ordered"):
            FeedServer([snapshot(2, HOUR, "a.com"), snapshot(1, 0.0, "a.com")])

    def test_fresh_client_gets_full_snapshot(self):
        server = FeedServer(self.history())
        response = server.handle(FeedRequest())
        assert response.status == FULL
        assert response.version == 3
        assert json.loads(response.payload)["kind"] == "snapshot"

    def test_stale_client_gets_delta(self):
        server = FeedServer(self.history())
        response = server.handle(FeedRequest(client_version=1))
        assert response.status == DELTA
        payload = json.loads(response.payload)
        assert payload["from_version"] == 1 and payload["to_version"] == 3
        assert [e["domain"] for e in payload["added"]] == ["b.com", "c.com"]

    def test_current_client_not_modified_by_version_and_by_hash(self):
        server = FeedServer(self.history())
        latest = server.latest
        by_version = server.handle(FeedRequest(client_version=3))
        by_hash = server.handle(FeedRequest(client_hash=latest.content_hash))
        assert by_version.status == by_hash.status == NOT_MODIFIED
        assert by_version.payload == by_hash.payload == b""

    def test_unknown_client_version_falls_back_to_full(self):
        server = FeedServer(self.history())
        response = server.handle(FeedRequest(client_version=99))
        assert response.status == FULL

    def test_unscoped_deltas_are_precomputed_cache_hits(self):
        # The tip path never computes anything per request: every
        # payload response counts as a cache hit against the payload
        # store, and repeat polls stay hits.
        server = FeedServer(self.history())
        server.handle(FeedRequest(client_version=1))
        server.handle(FeedRequest(client_version=1))
        assert server.stats.cache_misses == 0
        assert server.stats.cache_hits == 2

    def test_scoped_delta_cache_memoizes_repeat_polls(self):
        server = FeedServer(self.history())
        at_tip = self.history()[-1].published_at
        server.handle(FeedRequest(client_version=1), now=at_tip)
        server.handle(FeedRequest(client_version=1), now=at_tip)
        assert server.stats.cache_misses == 1
        assert server.stats.cache_hits == 1

    def test_scoped_delta_cache_is_bounded_lru(self):
        history = [
            snapshot(v, v * HOUR, *[f"d{i}.com" for i in range(v)])
            for v in range(1, 6)
        ]
        server = FeedServer(history, delta_cache_size=2)
        at_tip = history[-1].published_at
        for version in (1, 2, 3):
            server.handle(FeedRequest(client_version=version), now=at_tip)
        assert len(server._delta_cache) == 2
        # (1, 5) was evicted; polling it again misses.
        misses = server.stats.cache_misses
        server.handle(FeedRequest(client_version=1), now=at_tip)
        assert server.stats.cache_misses == misses + 1

    def test_corrupted_client_at_latest_version_gets_full_repair(self):
        # Regression: a client claiming the latest version but holding
        # the wrong content (hash mismatch) was answered 304 forever.
        server = FeedServer(self.history())
        latest = server.latest
        response = server.handle(
            FeedRequest(client_version=latest.version, client_hash="corrupt")
        )
        assert response.status == FULL
        assert response.payload == latest.canonical_bytes()

    def test_stale_hash_at_latest_version_gets_full_repair(self):
        # Hash from an *older* snapshot at the latest version number is
        # still a contradiction: repair, don't 304.
        server = FeedServer(self.history())
        stale_hash = server.snapshots[0].content_hash
        response = server.handle(
            FeedRequest(client_version=server.latest.version, client_hash=stale_hash)
        )
        assert response.status == FULL

    def test_time_scoped_requests_see_only_published_history(self):
        server = FeedServer(self.history())
        early = server.handle(FeedRequest(), now=0.0)
        assert early.status == FULL and early.version == 1
        nothing = server.handle(FeedRequest(), now=-1.0)
        assert nothing.status == NOT_MODIFIED and nothing.version == 0

    def test_from_store_round_trip(self):
        from repro.store.base import FEED

        store = MemoryStore(run_id="t")
        store.extend(FEED, (snap.to_record() for snap in self.history()))
        server = FeedServer.from_store(store)
        assert [snap.version for snap in server.snapshots] == [1, 2, 3]

    def test_from_store_without_feed_raises_store_error(self):
        with pytest.raises(StoreError, match="no feed snapshots"):
            FeedServer.from_store(MemoryStore(run_id="t"))

    def test_stats_account_every_request(self):
        server = FeedServer(self.history())
        server.handle(FeedRequest())
        server.handle(FeedRequest(client_version=1))
        server.handle(FeedRequest(client_version=3))
        stats = server.stats
        assert stats.requests == 3
        assert stats.full_responses == 1
        assert stats.delta_responses == 1
        assert stats.not_modified_responses == 1
        assert stats.bytes_served > 0


class _NeverGsb:
    def listed_time(self, domain):
        return None


class TestFleet:
    def history(self):
        return [
            snapshot(1, 0 * HOUR, "a.com"),
            snapshot(2, 2 * HOUR, "a.com", "b.com"),
        ]

    def test_every_cohort_converges_to_latest(self):
        server = FeedServer(self.history())
        fleet = FeedClientFleet(
            server,
            FleetConfig(cohorts=3, clients_per_cohort=10, poll_interval_minutes=30.0),
        )
        report = fleet.run()
        assert len(report.protection) == 2
        assert report.modeled_clients == 30
        assert report.modeled_requests == report.polls * 10

    def test_fleet_is_deterministic(self):
        def run():
            server = FeedServer(self.history())
            config = FleetConfig(
                cohorts=4,
                clients_per_cohort=10,
                poll_interval_minutes=30.0,
                fault_rate=0.2,
                seed=3,
            )
            return FeedClientFleet(server, config, gsb=_NeverGsb()).run()

        one, two = run(), run()
        assert one.polls == two.polls
        assert one.failed_attempts == two.failed_attempts
        assert one.protection == two.protection

    def test_poll_jitter_keeps_poll_count_and_protection(self):
        def run(jitter):
            server = FeedServer(self.history())
            config = FleetConfig(
                cohorts=4,
                clients_per_cohort=10,
                poll_interval_minutes=30.0,
                poll_jitter_fraction=jitter,
                seed=5,
            )
            return FeedClientFleet(server, config, gsb=_NeverGsb()).run()

        plain, jittered = run(0.0), run(0.5)
        assert jittered.polls == plain.polls
        assert len(jittered.protection) == len(plain.protection) == 2
        # The jittered timeline genuinely differs from the grid one.
        assert any(
            a.mean_protected_at != b.mean_protected_at
            for a, b in zip(plain.protection, jittered.protection)
        )

    def test_poll_jitter_is_deterministic(self):
        def run():
            server = FeedServer(self.history())
            config = FleetConfig(
                cohorts=3,
                clients_per_cohort=10,
                poll_interval_minutes=30.0,
                poll_jitter_fraction=0.4,
                seed=9,
            )
            return FeedClientFleet(server, config, gsb=_NeverGsb()).run()

        one, two = run(), run()
        assert one.polls == two.polls
        assert one.protection == two.protection
        assert one.lag_samples_minutes == two.lag_samples_minutes

    def test_poll_jitter_fraction_validated(self):
        with pytest.raises(ValueError, match="poll_jitter_fraction"):
            FleetConfig(poll_jitter_fraction=1.0)
        with pytest.raises(ValueError, match="poll_jitter_fraction"):
            FleetConfig(poll_jitter_fraction=-0.1)

    def test_faults_delay_but_do_not_lose_protection(self):
        server = FeedServer(self.history())
        config = FleetConfig(
            cohorts=4,
            clients_per_cohort=10,
            poll_interval_minutes=30.0,
            fault_rate=0.4,
            seed=1,
        )
        report = FeedClientFleet(server, config).run()
        assert report.failed_attempts > 0
        assert len(report.protection) == 2  # still fully protected

    def test_protection_never_precedes_publication(self):
        server = FeedServer(self.history())
        report = FeedClientFleet(
            server, FleetConfig(cohorts=3, clients_per_cohort=10)
        ).run()
        for item in report.protection:
            assert item.first_protected_at >= item.published_at

    def test_empty_window_rejected(self):
        server = FeedServer(self.history())
        fleet = FeedClientFleet(server, FleetConfig(cohorts=1, clients_per_cohort=1))
        with pytest.raises(ConfigError, match="empty"):
            fleet.run(start=10 * HOUR, until=10 * HOUR)

    def test_lag_table_has_all_row_last(self):
        server = FeedServer(self.history())
        report = FeedClientFleet(
            server, FleetConfig(cohorts=2, clients_per_cohort=10)
        ).run()
        rows = lag_table(report)
        assert rows[-1].category == "ALL"
        assert rows[-1].domains == 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FleetConfig(cohorts=0)
        with pytest.raises(ValueError):
            FleetConfig(poll_interval_minutes=0.0)
        with pytest.raises(ValueError):
            FleetConfig(fault_rate=1.0)
        with pytest.raises(ValueError):
            FleetConfig(max_attempts=0)


class TestNetworkOfClusters:
    def test_plurality_vote_with_deterministic_tiebreak(self, pipeline_run):
        _, _, result = pipeline_run
        mapping = network_of_clusters(result.discovery, result.attribution)
        cluster_ids = {c.cluster_id for c in result.discovery.seacma_campaigns}
        assert set(mapping) == cluster_ids
        # Every value is a known network key or None.
        keys = set(result.attribution.by_network)
        assert all(value is None or value in keys for value in mapping.values())

    def test_no_attribution_yields_empty_map(self, pipeline_run):
        _, _, result = pipeline_run
        assert network_of_clusters(result.discovery, None) == {}


class TestHTTP:
    def history(self):
        return [
            snapshot(1, 0 * HOUR, "a.com"),
            snapshot(2, 1 * HOUR, "a.com", "b.com"),
        ]

    def fetch(self, url, headers=None):
        request = urllib.request.Request(url, headers=headers or {})
        try:
            with urllib.request.urlopen(request) as response:
                return response.status, dict(response.headers), response.read()
        except urllib.error.HTTPError as error:
            return error.code, dict(error.headers), error.read()

    def test_full_delta_and_conditional_requests(self):
        server = FeedServer(self.history())
        with AsyncFeedHTTPServer(server) as httpd:
            status, headers, body = self.fetch(f"{httpd.url}/v1/feed")
            assert status == 200
            assert headers["X-Feed-Status"] == FULL
            payload = json.loads(body)
            assert payload["version"] == 2

            status, headers, body = self.fetch(f"{httpd.url}/v1/feed?since=1")
            assert status == 200
            assert headers["X-Feed-Status"] == DELTA

            etag = headers["ETag"]
            status, headers, body = self.fetch(
                f"{httpd.url}/v1/feed", headers={"If-None-Match": etag}
            )
            assert status == 304
            assert body == b""

    def test_stats_healthz_and_errors(self):
        server = FeedServer(self.history())
        with AsyncFeedHTTPServer(server) as httpd:
            status, _, body = self.fetch(f"{httpd.url}/healthz")
            assert status == 200 and json.loads(body)["status"] == "ok"

            self.fetch(f"{httpd.url}/v1/feed")
            status, _, body = self.fetch(f"{httpd.url}/v1/stats")
            assert status == 200
            assert json.loads(body)["requests"] >= 1

            status, _, _ = self.fetch(f"{httpd.url}/v1/feed?since=banana")
            assert status == 400
            status, _, _ = self.fetch(f"{httpd.url}/nope")
            assert status == 404


class FakeTransport:
    """Just enough of an asyncio transport to drive a FeedProtocol."""

    def __init__(self) -> None:
        self.written = b""
        self.closed = False

    def get_extra_info(self, name, default=None):
        return default

    def set_write_buffer_limits(self, high=None, low=None) -> None:
        pass

    def get_write_buffer_size(self) -> int:
        return 0

    def write(self, data: bytes) -> None:
        self.written += data

    def close(self) -> None:
        self.closed = True


def fake_connection() -> tuple[FeedProtocol, FakeTransport]:
    protocol = FeedProtocol(AsyncFeedServer(FeedServer([snapshot(1, 0.0, "a.com")])))
    transport = FakeTransport()
    protocol.connection_made(transport)
    return protocol, transport


def padded_head(length: int) -> bytes:
    """A GET request head of exactly ``length`` bytes (no terminator)."""
    start = b"GET /v1/feed HTTP/1.1\r\nX-Pad: "
    return start + b"a" * (length - len(start))


class TestHTTPHardening:
    """Misbehaving clients are capped, backpressured and counted."""

    def test_stats_expose_transport_counters(self):
        server = FeedServer([snapshot(1, 0.0, "a.com")])
        with AsyncFeedHTTPServer(server) as httpd:
            with urllib.request.urlopen(f"{httpd.url}/v1/stats") as response:
                body = json.loads(response.read())
        assert body["client_disconnects"] == 0
        assert body["bad_requests"] == 0

    def test_send_counts_client_disconnects(self):
        # A failed send reaches the protocol as connection_lost(exc).
        for error in (BrokenPipeError, ConnectionResetError):
            protocol, _ = fake_connection()
            protocol.connection_lost(error())  # must not raise
            assert protocol.engine.client_disconnects == 1

    def test_send_intact_writer_counts_nothing(self):
        protocol, transport = fake_connection()
        protocol.data_received(b"GET /v1/feed HTTP/1.1\r\nHost: x\r\n\r\n")
        protocol.connection_lost(None)
        assert transport.written.startswith(b"HTTP/1.1 200 OK")
        assert protocol.engine.client_disconnects == 0
        assert protocol.engine.bad_requests == 0

    def test_request_head_at_the_cap_is_answered(self):
        protocol, transport = fake_connection()
        protocol.data_received(padded_head(MAX_HEAD_BYTES) + b"\r\n\r\n")
        assert transport.written.startswith(b"HTTP/1.1 200 OK")
        assert not transport.closed

    def test_oversized_request_head_is_capped_at_the_protocol(self):
        protocol, transport = fake_connection()
        chunk = padded_head(4096)
        buffered = []
        for _ in range(2048):  # 8 MB of head, no terminator
            protocol.data_received(chunk)
            buffered.append(len(protocol.buffer))
            chunk = b"a" * 4096
        assert max(buffered) < MAX_HEAD_BYTES + 4
        assert protocol.buffer == b""
        assert transport.written.startswith(
            b"HTTP/1.1 431 Request Header Fields Too Large"
        )
        assert transport.written.count(b"HTTP/1.1") == 1
        assert transport.closed
        assert protocol.engine.bad_requests == 1

    def test_oversized_request_head_over_a_socket(self):
        server = FeedServer([snapshot(1, 0.0, "a.com")])
        with AsyncFeedHTTPServer(server) as httpd:
            address = ("127.0.0.1", httpd.port)
            with socket.create_connection(address, timeout=10) as sock:
                sock.sendall(padded_head(MAX_HEAD_BYTES + 64))
                blob = b""
                while chunk := sock.recv(65536):
                    blob += chunk
            with urllib.request.urlopen(f"{httpd.url}/v1/stats") as response:
                stats = json.loads(response.read())
        assert blob.startswith(b"HTTP/1.1 431 ")
        assert stats["bad_requests"] == 1
        assert stats["requests"] == 0

    def test_pipelined_reader_that_never_reads_is_backpressured(
        self, monkeypatch
    ):
        domains = [f"domain-{index:05d}.example" for index in range(1000)]
        server = FeedServer([snapshot(1, 0.0, *domains)])
        sizes: list[int] = []

        def sampled(method):
            def wrapper(self, *args):
                method(self, *args)
                sizes.append(self.transport.get_write_buffer_size())

            return wrapper

        for name in ("data_received", "resume_writing"):
            monkeypatch.setattr(
                FeedProtocol, name, sampled(getattr(FeedProtocol, name))
            )
        requests = 100
        pipeline = b"GET /v1/feed HTTP/1.1\r\nHost: x\r\n\r\n" * (requests - 1)
        pipeline += b"GET /v1/feed HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        with AsyncFeedHTTPServer(server) as httpd:
            response_size = len(httpd.engine.wire.full[0])
            assert requests * response_size > 16 * WRITE_HIGH_WATER
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.settimeout(30)
            with sock:
                sock.connect(("127.0.0.1", httpd.port))
                sock.sendall(pipeline)
                time.sleep(0.5)  # the server answers until it must stop
                assert sizes
                assert max(sizes) <= WRITE_HIGH_WATER + response_size
                # Reading drains the buffer; every response then arrives.
                received = 0
                while chunk := sock.recv(1 << 20):
                    received += len(chunk)
        assert max(sizes) <= WRITE_HIGH_WATER + response_size
        assert received == requests * response_size
