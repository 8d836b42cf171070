"""Tests for the milking tracker (§3.5/§4.5)."""

import math
import random

import pytest

from repro import SeacmaPipeline, WorldConfig, build_world
from repro.clock import DAY, MINUTE, SimClock
from repro.core.milking import GsbWatch, MilkedDomain, MilkingConfig, MilkingTracker
from repro.dom.page import VisualSpec
from repro.ecosystem.gsb import GoogleSafeBrowsing, _Decision
from repro.errors import MilkingError
from repro.imaging.dhash import dhash128
from repro.imaging.image import render_visual
from repro.telemetry import Telemetry, current, use


class TestSources:
    def test_sources_derived_and_verified(self, pipeline_run):
        world, pipeline, result = pipeline_run
        report = result.milking
        assert report.sources > 0
        assert report.sources >= len(result.discovery.seacma_campaigns)

    def test_run_without_sources_rejected(self, fresh_world):
        tracker = MilkingTracker(
            fresh_world.internet,
            fresh_world.gsb,
            fresh_world.virustotal,
            fresh_world.vantages_residential[0],
        )
        with pytest.raises(MilkingError):
            tracker.run(MilkingConfig(duration_days=0.1))


@pytest.fixture(scope="module")
def milked_frames():
    """Every frame a tiny seed-7 milking run hashes, with the hash the
    tracker returned for it and the tracker itself."""
    calls, trackers = [], set()
    original = MilkingTracker._screenshot_hash

    def recording(tracker, shot):
        value = original(tracker, shot)
        calls.append((shot, value))
        trackers.add(tracker)
        return value

    world = build_world(WorldConfig.tiny(seed=7))
    pipeline = SeacmaPipeline(
        world, milking_config=MilkingConfig(duration_days=1.0, post_lookup_days=1.0)
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MilkingTracker, "_screenshot_hash", recording)
        pipeline.run()
    return calls, trackers


class TestSpecKeyedHashes:
    def test_spec_keyed_hash_equals_pixel_hash(self, milked_frames):
        calls, _ = milked_frames
        assert calls
        for shot, value in calls:
            assert value == dhash128(shot.image)
            assert shot.image.tobytes() == render_visual(shot.spec).tobytes()

    def test_memo_is_keyed_by_spec_and_hits(self, milked_frames):
        calls, trackers = milked_frames
        (tracker,) = trackers
        assert all(isinstance(key, VisualSpec) for key in tracker._hashes._entries)
        assert len({shot.spec for shot, _ in calls}) < len(calls)
        assert tracker._hashes.hits > 0


class TestMilkingReport:
    def test_session_volume(self, pipeline_run):
        _, _, result = pipeline_run
        report = result.milking
        # ~96 rounds/day for 2 days per source (some sources may die).
        expected_max = report.sources * 96 * 2 + report.sources
        assert 0 < report.sessions <= expected_max

    def test_new_domains_discovered(self, pipeline_run):
        world, _, result = pipeline_run
        report = result.milking
        assert len(report.domains) > len(result.discovery.seacma_campaigns)
        # Every milked domain is a genuine attack domain of some campaign.
        for record in report.domains:
            assert record.domain in world.attack_domain_owner

    def test_domains_unique(self, pipeline_run):
        _, _, result = pipeline_run
        names = [record.domain for record in result.milking.domains]
        assert len(names) == len(set(names))

    def test_discovery_times_within_window(self, pipeline_run):
        _, _, result = pipeline_run
        report = result.milking
        for record in report.domains:
            assert report.started_at <= record.discovered_at <= report.finished_at

    def test_gsb_initial_much_lower_than_final(self, pipeline_run):
        """The paper's headline evasion result."""
        _, _, result = pipeline_run
        report = result.milking
        assert report.gsb_init_rate() < 0.05
        assert report.gsb_final_rate() > report.gsb_init_rate()
        assert 0.05 < report.gsb_final_rate() < 0.35

    def test_detection_lag_exceeds_seven_days(self, pipeline_run):
        _, _, result = pipeline_run
        lag = result.milking.mean_detection_lag_days()
        assert lag is not None
        assert lag > 7.0

    def test_files_milked_and_scanned(self, pipeline_run):
        _, _, result = pipeline_run
        report = result.milking
        summary = report.vt_summary()
        assert summary["files"] > 0
        assert 0 <= summary["known_to_vt"] < summary["files"] * 0.4
        assert summary["malicious_after_rescan"] > summary["files"] * 0.8
        assert 0 < summary["flagged_by_15_plus"] < summary["files"]

    def test_vt_labels_dominated_by_pup_adware_trojan(self, pipeline_run):
        _, _, result = pipeline_run
        counts = result.milking.vt_label_counts()
        assert set(counts) <= {"Trojan", "Adware", "PUP"}
        assert counts

    def test_rescan_reports_attached(self, pipeline_run):
        _, _, result = pipeline_run
        for file in result.milking.files:
            assert file.rescan_report is not None
            assert file.rescan_report.scanned_at >= result.milking.finished_at

    def test_categories_match_cluster_truth(self, pipeline_run):
        world, _, result = pipeline_run
        for record in result.milking.domains:
            owner_key = world.attack_domain_owner[record.domain]
            true_category = world.campaign_by_key(owner_key).category
            assert record.category is true_category

    def test_domains_by_category_partition(self, pipeline_run):
        _, _, result = pipeline_run
        report = result.milking
        groups = report.domains_by_category()
        assert sum(len(group) for group in groups.values()) == len(report.domains)

    def test_rate_helpers_empty_pool(self, pipeline_run):
        _, _, result = pipeline_run
        assert result.milking.gsb_init_rate([]) == 0.0
        assert result.milking.gsb_final_rate([]) == 0.0

    def test_final_lookup_two_months_later(self, pipeline_run):
        _, _, result = pipeline_run
        report = result.milking
        assert report.final_lookup_at >= report.finished_at + 59 * DAY


# ------------------------------------------------------- GSB watch oracle


def _decide(gsb: GoogleSafeBrowsing, domain: str, listed_at: float) -> None:
    """Install a GSB listing decision directly (``inf`` = never listed)."""
    gsb._decisions[domain] = _Decision(
        will_list=listed_at != math.inf, listed_at=listed_at
    )


def _scan_poll(gsb: GoogleSafeBrowsing, domains: list[MilkedDomain], now: float) -> None:
    """Reference GSB round: look up every unobserved watchlist domain."""
    for record in domains:
        if record.observed_listed_at is None:
            current().inc("milking.gsb_lookups")
            if gsb.lookup(record.domain, now):
                record.observed_listed_at = now


def _random_schedule(rng: random.Random, rounds: int, interval: float):
    """Per-round lists of (discover domain) and (decide domain, listed_at)
    events; every listing-time shape the watch must handle appears."""
    times = [index * interval for index in range(rounds)]
    discoveries: list[list[str]] = [[] for _ in range(rounds)]
    decisions: list[list[tuple[str, float]]] = [[] for _ in range(rounds)]
    for number in range(rng.randrange(0, 40)):
        domain = f"d{number}.example"
        found = rng.randrange(rounds)
        discoveries[found].append(domain)
        shape = rng.choice(
            ["before", "after", "on_round", "never", "undecided", "late"]
        )
        if shape == "undecided":
            continue  # GSB never judges it
        if shape == "late":
            # The decision arrives rounds after discovery — possibly
            # with a listing time already in the past by then.
            when = rng.randrange(found, rounds)
            listed_at = rng.uniform(0.0, times[-1] + interval)
            decisions[when].append((domain, listed_at))
            continue
        listed_at = {
            "before": times[found] - rng.uniform(0.0, DAY),
            "after": times[found] + rng.uniform(0.0, rounds * interval),
            "on_round": times[rng.randrange(rounds)],
            "never": math.inf,
        }[shape]
        decisions[0 if shape != "after" else found].append((domain, listed_at))
    return times, discoveries, decisions


def _drive(poll_with, times, discoveries, decisions):
    """Replay a schedule through one GSB round implementation."""
    clock = SimClock()
    telemetry = Telemetry(clock)
    gsb = GoogleSafeBrowsing(seed=0)
    domains: list[MilkedDomain] = []
    poll = poll_with(gsb, domains)
    with use(telemetry):
        for now, found, decided in zip(times, discoveries, decisions):
            for domain, listed_at in decided:
                _decide(gsb, domain, listed_at)
            for domain in found:
                domains.append(
                    MilkedDomain(
                        domain=domain,
                        cluster_id=1,
                        category=None,
                        discovered_at=now,
                        listed_at_discovery=False,
                    )
                )
            poll(now)
    observed = {record.domain: record.observed_listed_at for record in domains}
    counters = telemetry.metrics.snapshot()["counters"]
    return observed, gsb.lookup_count, counters


class TestGsbWatchOracle:
    """The heap-driven GSB round against a full-watchlist scan."""

    @staticmethod
    def _watch(gsb, domains):
        return GsbWatch(gsb, domains).poll

    @staticmethod
    def _scan(gsb, domains):
        return lambda now: _scan_poll(gsb, domains, now)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_full_scan_on_random_watchlists(self, seed):
        rng = random.Random(seed)
        schedule = _random_schedule(
            rng, rounds=rng.randrange(1, 30), interval=30 * MINUTE
        )
        assert _drive(self._watch, *schedule) == _drive(self._scan, *schedule)

    def test_decision_arriving_after_discovery_is_caught(self):
        times = [0.0, 1800.0, 3600.0, 5400.0]
        discoveries = [["late.example"], [], [], []]
        # Decided at the third round with a listing time already past.
        decisions = [[], [], [("late.example", 900.0)], []]
        observed, lookups, counters = _drive(
            self._watch, times, discoveries, decisions
        )
        assert observed == {"late.example": 3600.0}
        assert (observed, lookups, counters) == _drive(
            self._scan, times, discoveries, decisions
        )
        assert lookups == 3 and counters == {"milking.gsb_lookups": 3}

    def test_never_decided_domain_is_looked_up_every_round(self):
        times = [0.0, 1800.0, 3600.0]
        schedule = (times, [["ghost.example"], [], []], [[], [], []])
        observed, lookups, counters = _drive(self._watch, *schedule)
        assert observed == {"ghost.example": None}
        assert lookups == 3 and counters == {"milking.gsb_lookups": 3}
        assert (observed, lookups, counters) == _drive(self._scan, *schedule)

    def test_empty_watchlist_creates_no_counter(self):
        schedule = ([0.0, 1800.0], [[], []], [[], []])
        observed, lookups, counters = _drive(self._watch, *schedule)
        assert observed == {} and lookups == 0
        assert "milking.gsb_lookups" not in counters
        assert (observed, lookups, counters) == _drive(self._scan, *schedule)
