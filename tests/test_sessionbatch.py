"""Session-kernel equivalence (repro.core.sessionbatch).

The batch kernel's contract is byte-identity: for every seed, worker
count, and execution mode (``run()``, a stored run, crash-resume),
the ``batch`` kernel — with numpy and with the pure-Python hash
fallback — must produce the same store bytes, canonical sim-lane trace,
metrics text and report as the original ``scalar`` loop.  This suite
proves that end to end and unit-tests the machinery it rests on: the
vectorized/pure dhash variants, the content-addressed hash memo, the
deferred recorder's placeholder resolution, and the kernel selection
plumbing (FarmConfig, CLI, chaos points).
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
from repro.core.sessionbatch import (
    DEFAULT_KERNEL,
    KERNELS,
    NUMPY_ENV,
    BatchSessionKernel,
    DeferredRecorder,
    HashMemo,
    ScalarSessionKernel,
    make_kernel,
    numpy_enabled,
)
from repro.errors import ConfigError
from repro.imaging.dhash import dhash128, dhash128_many, dhash128_pure
from repro.imaging.image import render_visual
from repro.store import JsonlStore
from repro.store.persist import load_world
from repro.telemetry import Telemetry, use
from repro.telemetry.export import canonical_trace_bytes

MILKING = MilkingConfig(duration_days=0.5, post_lookup_days=0.5)


@pytest.fixture(autouse=True)
def _pristine_crash_state():
    reset()
    yield
    reset()


def micro_config(seed: int) -> WorldConfig:
    return WorldConfig(seed=seed, n_publishers=8, n_campaigns=6)


def store_digest(store_dir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(store_dir.glob("*.jsonl")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_streaming(tmp_path: Path, seed: int, workers: int, kernel: str, tag: str):
    """One traced streaming run; returns every observable artifact."""
    store_dir = tmp_path / f"{tag}-s{seed}-w{workers}"
    world = build_world(micro_config(seed))
    pipeline = SeacmaPipeline(
        world,
        farm_config=FarmConfig(session_kernel=kernel),
        milking_config=MILKING,
    )
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

    def test_many_and_pure_match_scalar(self):
        images = self._sample_images()
        scalar = [dhash128(image) for image in images]
        assert dhash128_many(images) == scalar
        assert [dhash128_pure(image) for image in images] == scalar

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

    @pytest.mark.parametrize("use_numpy", [True, False], ids=["numpy", "pure"])
    def test_placeholders_resolve_to_scalar_hashes(self, use_numpy):
        recorder = DeferredRecorder(HashMemo())
        images = [self._image(1), self._image(2), self._image(1)]
        slots = [recorder.screenshot_hash(image) for image in images]
        assert slots == [0, 1, 2]
        hashes, stats = recorder.resolve(use_numpy)
        assert hashes == [dhash128(image) for image in images]
        # The duplicate frame was deduplicated, not hashed twice.
        assert stats == {"screens": 3, "hashed": 2, "features_memoized": 0}

    def test_memo_carries_hashes_across_domains(self):
        memo = HashMemo()
        first = DeferredRecorder(memo)
        first.screenshot_hash(self._image(1))
        first.resolve(True)
        second = DeferredRecorder(memo)
        second.screenshot_hash(self._image(1))
        hashes, stats = second.resolve(True)
        assert hashes == [dhash128(self._image(1))]
        assert stats["hashed"] == 0  # served entirely from the memo


# ------------------------------------------------------------ kernel plumbing


class TestKernelSelection:
    def test_make_kernel(self):
        assert isinstance(make_kernel("scalar"), ScalarSessionKernel)
        assert isinstance(make_kernel("batch"), BatchSessionKernel)
        assert DEFAULT_KERNEL in KERNELS

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ConfigError, match="unknown session kernel"):
            make_kernel("gpu")

    def test_bad_farm_config_fails_at_construction(self):
        world = build_world(micro_config(7))
        with pytest.raises(ConfigError):
            CrawlerFarm(world, FarmConfig(session_kernel="gpu"))

    def test_numpy_env_gate(self, monkeypatch):
        monkeypatch.delenv(NUMPY_ENV, raising=False)
        assert numpy_enabled()
        for value in ("0", "off", "false", "no"):
            monkeypatch.setenv(NUMPY_ENV, value)
            assert not numpy_enabled()
        monkeypatch.setenv(NUMPY_ENV, "1")
        assert numpy_enabled()

    def test_cli_exposes_kernel_flag(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["run", "--session-kernel", "scalar"])
        assert args.session_kernel == "scalar"
        args = parser.parse_args(["run"])
        assert args.session_kernel == "batch"

    def test_sessionbatch_crash_points_in_catalog(self):
        assert "farm.sessionbatch.pre" in CRASH_POINTS
        assert "farm.sessionbatch.post" in CRASH_POINTS


# ------------------------------------------------------------- end-to-end


class TestKernelEquivalence:
    @pytest.mark.parametrize("seed", [7, 13])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_streaming_run_byte_identical(self, tmp_path, seed, workers):
        scalar = run_streaming(tmp_path, seed, workers, "scalar", "scalar")
        batch = run_streaming(tmp_path, seed, workers, "batch", "batch")
        assert batch["store"] == scalar["store"]
        assert batch["trace"] == scalar["trace"]
        assert batch["metrics"] == scalar["metrics"]
        assert batch["report"] == scalar["report"]

    def test_numpy_fallback_byte_identical(self, tmp_path, monkeypatch):
        batch = run_streaming(tmp_path, 7, 2, "batch", "np")
        # The env var reaches forked shard workers too, so the pure
        # fallback is exercised wherever the sessions actually run.
        monkeypatch.setenv(NUMPY_ENV, "0")
        pure = run_streaming(tmp_path, 7, 2, "batch", "pure")
        assert not make_kernel("batch").use_numpy
        assert pure == batch

    def test_batch_mode_report_byte_identical(self):
        reports = {}
        for kernel in KERNELS:
            world = build_world(micro_config(7))
            pipeline = SeacmaPipeline(
                world,
                farm_config=FarmConfig(session_kernel=kernel),
                milking_config=MILKING,
            )
            reports[kernel] = generate_report(world, pipeline.run())
        assert reports["batch"] == reports["scalar"]

    @pytest.mark.parametrize(
        "point", ["farm.sessionbatch.pre", "farm.sessionbatch.post"]
    )
    def test_resume_after_kernel_crash_byte_identical(self, tmp_path, point):
        # Uninterrupted scalar-kernel reference...
        reference = run_streaming(tmp_path, 7, 1, "scalar", "ref")
        # ...versus a batch-kernel run crashed mid-resolve and resumed.
        store_dir = tmp_path / "crashed"
        store = JsonlStore(store_dir)
        install(CrashPlan(CrashDirective(point, occurrence=3)))
        try:
            with pytest.raises(CrashError):
                SeacmaPipeline(
                    build_world(micro_config(7)),
                    farm_config=FarmConfig(session_kernel="batch"),
                    milking_config=MILKING,
                ).run_streaming(store=store)
        finally:
            install(None)
        store.close()

        store = JsonlStore.open(store_dir)
        world = load_world(store)
        SeacmaPipeline(
            world,
            farm_config=FarmConfig(session_kernel="batch"),
            milking_config=MILKING,
        ).resume_streaming(store)
        store.close()
        assert store_digest(store_dir) == reference["store"]
