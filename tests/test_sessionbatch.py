"""Session-kernel goldens and machinery (repro.core.sessionbatch).

The session kernel's contract is byte-identity: for every seed, worker
count, and execution mode (``run()``, a stored run, crash-resume), a run
must produce the store bytes, canonical sim-lane trace, metrics text and
report pinned below.  The digests were recorded from the original inline
per-session loop (which the columnar kernel matched byte for byte), so
they are the spec the kernel is held to.  This suite also unit-tests the
machinery the kernel rests on: the vectorized dhash, the hash memo, the
deferred recorder's placeholder resolution, and the kernel's chaos
points.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro import SeacmaPipeline, WorldConfig, build_world
from repro.analysis.reportgen import generate_report
from repro.chaos import (
    CRASH_POINTS,
    CrashDirective,
    CrashError,
    CrashPlan,
    install,
    reset,
)
from repro.core.farm import CrawlerFarm, FarmConfig
from repro.core.milking import MilkingConfig
from repro.core.sessionbatch import DeferredRecorder, HashMemo, SessionKernel
from repro.imaging.dhash import dhash128, dhash128_many
from repro.imaging.image import render_visual
from repro.store import JsonlStore
from repro.store.persist import load_world
from repro.telemetry import Telemetry, use
from repro.telemetry.export import canonical_trace_bytes

MILKING = MilkingConfig(duration_days=0.5, post_lookup_days=0.5)

#: SHA-256 digests per seed of a micro streamed run (8 publishers, 6
#: campaigns, half-day milking, ``batch_domains=2``): the sorted store
#: ``*.jsonl`` files (name + bytes), the canonical sim-lane trace, the
#: Prometheus metrics text and the generated report.  Worker counts 1
#: and 2 must both reproduce them.
GOLDEN = {
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


@pytest.fixture(autouse=True)
def _pristine_crash_state():
    reset()
    yield
    reset()


def micro_config(seed: int) -> WorldConfig:
    return WorldConfig(seed=seed, n_publishers=8, n_campaigns=6)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def store_digest(store_dir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(store_dir.glob("*.jsonl")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_streaming(tmp_path: Path, seed: int, workers: int, tag: str):
    """One traced streaming run; returns the digest of every artifact."""
    store_dir = tmp_path / f"{tag}-s{seed}-w{workers}"
    world = build_world(micro_config(seed))
    pipeline = SeacmaPipeline(world, milking_config=MILKING)
    telemetry = Telemetry(world.clock)
    with use(telemetry):
        result = pipeline.run_streaming(
            store=JsonlStore(store_dir), workers=workers, batch_domains=2
        )
    return {
        "store": store_digest(store_dir),
        "trace": sha256(canonical_trace_bytes(telemetry)),
        "metrics": sha256(telemetry.metrics.to_prometheus().encode()),
        "report": sha256(generate_report(world, result).encode()),
    }


# ------------------------------------------------------------------- dhash


class TestDhashVariants:
    def _sample_images(self) -> list[np.ndarray]:
        rng = np.random.default_rng(42)
        images = []
        for shape in [(72, 128), (72, 128), (31, 47), (8, 17), (5, 9)]:
            for _ in range(3):
                images.append(rng.integers(0, 256, size=shape, dtype=np.uint8))
        return images

    def test_many_matches_scalar(self):
        images = self._sample_images()
        assert dhash128_many(images) == [dhash128(image) for image in images]

    def test_rendered_screenshots_match(self):
        # The arrays the crawl actually hashes, not just random noise.
        from repro.dom.page import VisualSpec

        specs = [
            VisualSpec(template_key=f"campaign-{i}", variant=i % 3,
                       noise_level=0.02 * (i % 2))
            for i in range(8)
        ]
        images = [render_visual(spec) for spec in specs]
        assert dhash128_many(images) == [dhash128(image) for image in images]

    def test_empty_batch(self):
        assert dhash128_many([]) == []

    def test_mixed_shapes_keep_input_order(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 256, size=(72, 128), dtype=np.uint8)
        b = rng.integers(0, 256, size=(31, 47), dtype=np.uint8)
        assert dhash128_many([a, b, a]) == [dhash128(a), dhash128(b), dhash128(a)]


# ---------------------------------------------------------------- hash memo


class TestHashMemo:
    def test_hit_miss_accounting(self):
        memo = HashMemo()
        assert memo.get(b"k1") is None
        memo.put(b"k1", 42)
        assert memo.get(b"k1") == 42
        assert memo.hits == 1
        assert memo.misses == 1

    def test_bounded_lru_eviction(self):
        memo = HashMemo(max_entries=2)
        memo.put(b"a", 1)
        memo.put(b"b", 2)
        assert memo.get(b"a") == 1  # refresh a; b is now LRU
        memo.put(b"c", 3)
        assert len(memo) == 2
        assert memo.get(b"b") is None
        assert memo.get(b"a") == 1
        assert memo.get(b"c") == 3


# --------------------------------------------------------- deferred recorder


class TestDeferredRecorder:
    def _image(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return rng.integers(0, 256, size=(72, 128), dtype=np.uint8)

    def test_placeholders_resolve_to_scalar_hashes(self):
        recorder = DeferredRecorder(HashMemo())
        images = [self._image(1), self._image(2), self._image(1)]
        slots = [recorder.screenshot_hash(image) for image in images]
        assert slots == [0, 1, 2]
        hashes, stats = recorder.resolve()
        assert hashes == [dhash128(image) for image in images]
        # The duplicate frame was deduplicated, not hashed twice.
        assert stats == {"screens": 3, "hashed": 2, "features_memoized": 0}

    def test_memo_carries_hashes_across_domains(self):
        memo = HashMemo()
        first = DeferredRecorder(memo)
        first.screenshot_hash(self._image(1))
        first.resolve()
        second = DeferredRecorder(memo)
        second.screenshot_hash(self._image(1))
        hashes, stats = second.resolve()
        assert hashes == [dhash128(self._image(1))]
        assert stats["hashed"] == 0  # served entirely from the memo


# ------------------------------------------------------------ kernel plumbing


class TestKernelSelection:
    def test_farm_runs_the_session_kernel(self):
        farm = CrawlerFarm(build_world(micro_config(7)))
        assert isinstance(farm.kernel, SessionKernel)
        assert FarmConfig.session_kernel == "batch"

    def test_bad_farm_config_fails_at_construction(self):
        # The kernel is not a setting: the name is a class constant.
        with pytest.raises(TypeError):
            FarmConfig(session_kernel="batch")

    def test_sessionbatch_crash_points_in_catalog(self):
        assert "farm.sessionbatch.pre" in CRASH_POINTS
        assert "farm.sessionbatch.post" in CRASH_POINTS


# ------------------------------------------------------------- end-to-end


class TestKernelEquivalence:
    @pytest.mark.parametrize("seed", [7, 13])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_streaming_run_byte_identical(self, tmp_path, seed, workers):
        assert run_streaming(tmp_path, seed, workers, "run") == GOLDEN[seed]

    def test_batch_mode_report_byte_identical(self):
        world = build_world(micro_config(7))
        pipeline = SeacmaPipeline(world, milking_config=MILKING)
        report = generate_report(world, pipeline.run())
        assert sha256(report.encode()) == GOLDEN[7]["report"]

    @pytest.mark.parametrize(
        "point", ["farm.sessionbatch.pre", "farm.sessionbatch.post"]
    )
    def test_resume_after_kernel_crash_byte_identical(self, tmp_path, point):
        # A run crashed mid-resolve and resumed must land on the
        # uninterrupted run's golden store bytes.
        store_dir = tmp_path / "crashed"
        store = JsonlStore(store_dir)
        install(CrashPlan(CrashDirective(point, occurrence=3)))
        try:
            with pytest.raises(CrashError):
                SeacmaPipeline(
                    build_world(micro_config(7)), milking_config=MILKING
                ).run_streaming(store=store)
        finally:
            install(None)
        store.close()

        store = JsonlStore.open(store_dir)
        world = load_world(store)
        SeacmaPipeline(world, milking_config=MILKING).resume_streaming(store)
        store.close()
        assert store_digest(store_dir) == GOLDEN[7]["store"]
