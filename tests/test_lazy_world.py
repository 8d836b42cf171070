"""World materialization: golden outputs and the page-cache machinery.

The world derives publisher pages on demand into a bounded cache.  Its
contract is that *when* a page is built never changes an output byte.
This suite pins the end-to-end outputs — store files, canonical
sim-lane trace, metrics and report, for seeds 7/13 × workers 1/2 — and
the publisher skeleton to SHA-256 digests recorded when the world could
still also be built eagerly (both constructions produced these exact
digests).  It also unit-tests the machinery the contract rests on: the
bounded :class:`PageCache`, the record-level skeleton, and the pure
page-derivation function that makes eviction safe.

A deliberate output change must update the digests below in the same
commit, with the reason in its message.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import astuple
from pathlib import Path

import pytest

from repro import SeacmaPipeline, WorldConfig, build_world
from repro.analysis.reportgen import generate_report
from repro.core.milking import MilkingConfig
from repro.ecosystem.materialize import (
    DEFAULT_PAGE_CACHE_SIZE,
    MaterializationStats,
    PageCache,
    SiteSequence,
)
from repro.ecosystem.publisher import PublisherDirectory, derive_publisher_page
from repro.store import JsonlStore
from repro.telemetry import Telemetry, use
from repro.telemetry.export import canonical_trace_bytes

MILKING = MilkingConfig(duration_days=0.5, post_lookup_days=0.5)

#: SHA-256 of each streamed run's artifacts, keyed by seed.  The same
#: digests hold for every worker count.
GOLDEN_RUNS = {
    7: {
        "store": "e08141d553952274b11f0cad27deb7dfcd6519035c592369d8da105e29009761",
        "trace": "f81cdaaceb858d1a7fe87aaf8d4b2f464401ae61f76c84e007b74cfcc677a2e1",
        "metrics": "934db006293086c2e4dfd85613a7c458b967db8e1592998d447de3e199533c3c",
        "report": "dc4949d65bd7b38913db58b1455a8fad76601bf02166ef013dd2e8840319865b",
    },
    13: {
        "store": "0e6cbe4abfbc99ba47b7f5585a086ea158b637103b889d6bf4994b5f7ea88b68",
        "trace": "555a6663ffa1fb89b3def4df799f197e7e0e7f5f8bc8338e72ddc56471ad134a",
        "metrics": "c32e47774bd9ce457d2c28c492eca7482656d10da3efa0984c97a21ad513f008",
        "report": "3833f14e635266886747d7f6a904c30a0e9a2e1e7e4c8b65741e60686dd17f3e",
    },
}
#: ``WorldConfig.tiny(seed=7)``: the record table and every page source.
GOLDEN_TINY_POPULATION = 132
GOLDEN_TINY_RECORDS = (
    "6b52590f7ca11b3e0b0ccf8b9516a865725b2280c65612c10ba5a3eeb7bf130b"
)
GOLDEN_TINY_PAGES = (
    "0b207865dc162e36d432211382427fd883ef058e6e00244b93a3ef28bfd22570"
)


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def micro_config(seed: int) -> WorldConfig:
    return WorldConfig(seed=seed, n_publishers=8, n_campaigns=6)


def store_digest(store_dir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(store_dir.glob("*.jsonl")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_streaming(tmp_path: Path, seed: int, workers: int):
    """One traced streaming run; returns every observable artifact."""
    store_dir = tmp_path / f"s{seed}-w{workers}"
    world = build_world(micro_config(seed))
    pipeline = SeacmaPipeline(world, milking_config=MILKING)
    telemetry = Telemetry(world.clock)
    with use(telemetry):
        result = pipeline.run_streaming(
            store=JsonlStore(store_dir), workers=workers, batch_domains=2
        )
    return {
        "trace": canonical_trace_bytes(telemetry),
        "metrics": telemetry.metrics.to_prometheus(),
        "store": store_digest(store_dir),
        "report": generate_report(world, result),
        "world": world,
        "result": result,
    }


# --------------------------------------------------------------- PageCache


class TestPageCache:
    def test_rejects_degenerate_capacity(self):
        with pytest.raises(ValueError):
            PageCache(capacity=0)

    def test_miss_builds_then_hit_reuses(self):
        cache = PageCache(capacity=4)
        built = []

        def make(domain):
            def build():
                built.append(domain)
                return f"page:{domain}"

            return build

        assert cache.get("a.com", make("a.com")) == "page:a.com"
        assert cache.get("a.com", make("a.com")) == "page:a.com"
        assert built == ["a.com"]
        assert cache.stats.cache_misses == 1
        assert cache.stats.cache_hits == 1
        assert cache.stats.pages_built == 1
        assert cache.stats.distinct_count == 1

    def test_evicts_least_recently_used(self):
        cache = PageCache(capacity=2)
        for domain in ("a", "b"):
            cache.get(domain, lambda d=domain: f"page:{d}")
        cache.get("a", lambda: "page:a")  # refresh a; b is now LRU
        cache.get("c", lambda: "page:c")  # evicts b
        assert "a" in cache and "c" in cache and "b" not in cache
        assert len(cache) == 2
        assert cache.stats.cache_evictions == 1

    def test_eviction_does_not_forget_distinct_domains(self):
        stats = MaterializationStats()
        cache = PageCache(capacity=1, stats=stats)
        for domain in ("a", "b", "c"):
            cache.get(domain, lambda d=domain: f"page:{d}")
        assert stats.distinct_count == 3
        assert stats.pages_built == 3
        assert stats.cache_evictions == 2
        assert stats.as_dict()["distinct_publishers"] == 3


# ----------------------------------------------------- skeleton & directory


class TestLazyDirectory:
    def test_lazy_and_eager_share_one_skeleton(self):
        directory = build_world(WorldConfig.tiny(seed=7)).publisher_directory
        records = [
            [record.domain, record.rank, record.category, list(record.network_keys)]
            for record in map(directory.record, directory.domains())
        ]
        assert len(records) == GOLDEN_TINY_POPULATION
        assert sha256(json.dumps(records)) == GOLDEN_TINY_RECORDS

    def test_publishers_sequence_is_lazy_but_equal(self):
        def skeleton(site):
            return (
                site.domain,
                site.rank,
                site.category,
                tuple(network.spec.key for network in site.networks),
            )

        world = build_world(WorldConfig.tiny(seed=7))
        directory = world.publisher_directory
        records = [astuple(directory.record(d)) for d in directory.domains()]
        assert isinstance(world.publishers, SiteSequence)
        assert len(world.publishers) == world.config.n_publishers
        regular = records[: len(world.publishers)]
        assert list(map(skeleton, world.publishers)) == regular
        assert [skeleton(site) for site in world.publishers[:3]] == regular[:3]
        assert skeleton(world.new_publishers[0]) == records[len(regular)]

    def test_pages_byte_identical_across_modes(self):
        directory = build_world(WorldConfig.tiny(seed=7)).publisher_directory
        digest = hashlib.sha256()
        for domain in directory.domains():
            digest.update(domain.encode() + b"\0")
            digest.update(directory.source_of(domain).encode() + b"\0")
        assert digest.hexdigest() == GOLDEN_TINY_PAGES

    def test_rederivation_after_eviction_is_identical(self):
        world = build_world(WorldConfig.tiny(seed=7))
        domains = world.publisher_directory.domains()[:5]
        first = {
            domain: world.publisher_directory.source_of(domain)
            for domain in domains
        }
        # Force churn through a capacity-1 view of the same records.
        small = PublisherDirectory(
            7, network_servers=world.networks, page_cache_size=1
        )
        for domain in domains:
            small.add_record(world.publisher_directory.record(domain))
        for _ in range(2):
            for domain in domains:
                assert small.source_of(domain) == first[domain]
        assert small.stats.cache_evictions > 0

    def test_derive_publisher_page_is_pure(self):
        world = build_world(WorldConfig.tiny(seed=7))
        domain = world.publisher_directory.domains()[0]
        site = world.publisher_directory.get(domain)
        once = derive_publisher_page(site, 7).source_text()
        again = derive_publisher_page(site, 7).source_text()
        assert once == again

    def test_default_cache_bound_is_sane(self):
        assert DEFAULT_PAGE_CACHE_SIZE >= 256


# --------------------------------------------------------- end-to-end


class TestEquivalence:
    @pytest.mark.parametrize("seed", [7, 13])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_streaming_run_byte_identical(self, tmp_path, seed, workers):
        artifacts = run_streaming(tmp_path, seed, workers)
        assert {
            "store": artifacts["store"],
            "trace": sha256(artifacts["trace"]),
            "metrics": sha256(artifacts["metrics"]),
            "report": sha256(artifacts["report"]),
        } == GOLDEN_RUNS[seed]

    def test_batch_report_byte_identical(self):
        world = build_world(micro_config(7))
        result = SeacmaPipeline(world, milking_config=MILKING).run()
        assert sha256(generate_report(world, result)) == GOLDEN_RUNS[7]["report"]

    def test_materialized_gauge_counts_only_crawled_publishers(self, tmp_path):
        artifacts = run_streaming(tmp_path, 7, 1)
        config = micro_config(7)
        population = config.n_publishers + config.resolved_new_publishers
        line = next(
            line
            for line in artifacts["metrics"].splitlines()
            if line.startswith("seacma_world_materialized_publishers ")
        )
        gauge = int(float(line.split()[-1]))
        stats = artifacts["world"].publisher_directory.stats
        crawled = set(artifacts["result"].publisher_domains)
        # Reversal and expansion answer from the record-table index, so
        # only publishers the crawl actually reaches are ever built —
        # never the whole population.
        assert stats.distinct <= crawled
        assert gauge == stats.distinct_count
        assert 0 < gauge < population
