"""Pipeline host: runs one workload's pipeline in its own process.

Started by ``perfbench/run.py``; not meant to be run by hand. It drives
the program only through its public API: ``build_world``, then
``SeacmaPipeline.start_streaming`` -> ``crawl_batches`` -> ``finalize``
into a ``JsonlStore``, ``RUNS`` times, each in a child forked from
the same warmed-up state. It times the world builds and each run
against the core-speed probe (``probe.py``), checks every store it
wrote, and writes one JSON result file. ``--trace 1`` adds a traced run
after the untraced ones (see ``tracer.py``) and, for a workload with
``reference_workers``, a run at that worker count; every store of one
invocation must be byte-identical.

``host.py serve STORE`` instead starts ``seacma feed serve`` on STORE
with ``FeedServer.from_store`` timed, for the traced serving phase.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from probe import REF_CHUNK_S, SpeedProbe, die_with_parent  # noqa: E402
from procs import PeakSampler, vm_hwm_bytes  # noqa: E402
from tracer import DistinctImages, FirstListings, Tracer  # noqa: E402

#: Untraced pipeline runs per invocation; ``run_s`` is their median, so
#: a run is timed over more of the host's speed swings. Each runs in a
#: fresh fork, so none finds the program's memoization caches filled by
#: an earlier run.
RUNS = 2
#: build_world repetitions for the world part of ``setup_s``.
SETUP_REPS = 10

STARTED = time.perf_counter()

#: Spans the host opens itself around the two pipeline phases.
PHASES = ("pipeline.crawl_phase", "pipeline.finalize")


def store_digest(directory: Path) -> str:
    """SHA-256 over every ``*.jsonl`` stream, by name, in name order."""
    digest = hashlib.sha256()
    for path in sorted(directory.glob("*.jsonl")):
        digest.update(path.name.encode() + b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def check_feed_hashes(feed_path: Path) -> tuple[int, str]:
    """Re-verify every snapshot's ``content_hash`` over its canonical bytes.

    Independent of the program's feed classes: the entries must be
    unique and sorted by domain, versions must run 1..N, and the hash is
    SHA-256 over the entries' sorted-key, no-space JSON. Returns the
    latest version and its hash.
    """
    version = 0
    latest_hash = ""
    with open(feed_path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            version += 1
            if record["version"] != version:
                raise AssertionError(f"feed version {record['version']} out of order")
            domains = [entry["domain"] for entry in record["entries"]]
            if domains != sorted(set(domains)):
                raise AssertionError(f"feed v{version} entries not canonical")
            canonical = json.dumps(
                record["entries"], separators=(",", ":"), sort_keys=True
            ).encode("utf-8")
            if hashlib.sha256(canonical).hexdigest() != record["content_hash"]:
                raise AssertionError(f"feed v{version} content_hash does not verify")
            latest_hash = record["content_hash"]
    if not version:
        raise AssertionError("store holds no feed snapshots")
    return version, latest_hash


def milking_config(days: float | None):
    from repro.core.milking import MilkingConfig

    if days is None:
        return MilkingConfig()  # the paper's 14-day schedule
    # As `seacma run --days D`: lookups continue min(D, 12) days after.
    return MilkingConfig(duration_days=days, post_lookup_days=min(days, 12.0))


def world_config(spec: dict, seed: int):
    from repro import WorldConfig

    extra = {}
    if "networks_per_campaign" in spec:
        extra["networks_per_campaign"] = tuple(spec["networks_per_campaign"])
    return WorldConfig(
        seed=seed,
        n_publishers=spec["publishers"],
        n_campaigns=spec["campaigns"],
        crawl_window_days=1.0,
        max_code_domains=40,
        n_advertisers=50,
        **extra,
    )


def run_pipeline(spec: dict, seed: int, workers: int, directory: Path, tracer=None) -> dict:
    """One pipeline run from world build to finalized store."""
    import repro.ecosystem.world as world_module
    from repro import SeacmaPipeline
    from repro.core import reports
    from repro.store import JsonlStore

    world = world_module.build_world(world_config(spec, seed))
    pipeline = SeacmaPipeline(world, milking_config=milking_config(spec["milking_days"]))
    store = JsonlStore(directory, run_id=f"perfbench-{seed}")

    def phase(name):
        return tracer.span(name) if tracer is not None else nullcontext()

    started = time.perf_counter()
    with phase(PHASES[0]):
        run = pipeline.start_streaming(store=store, workers=workers)
        for _ in run.crawl_batches():
            pass
    crawled = time.perf_counter()
    with phase(PHASES[1]):
        result = run.finalize()
    finished = time.perf_counter()
    store.close()
    return {
        "workers": workers,
        "crawl_s": crawled - started,
        "finalize_s": finished - crawled,
        "run_s": finished - started,
        "window": [started, finished],
        "se_campaigns": len(result.discovery.seacma_campaigns),
        "milked_domains": len(result.milking.domains),
        "milk_sessions": result.milking.sessions,
        "gsb_init_pct": reports.table4(result.milking)[-1].gsb_init_pct,
        "dedup_ratio": run.farm.kernel.stats.dedup_ratio,
        "store": str(directory),
    }


def run_forked(
    spec: dict, seed: int, workers: int, directory: Path, trace_dir: Path | None = None
) -> dict:
    """``run_pipeline`` in a forked child, with its peak RSS and core speed.

    The host has no other thread when it forks. A one-worker run is
    pinned to one core and probed there; a run with workers is probed
    on every core. ``run_ref_s`` is the run's time scaled to the probe's
    reference speed (see ``probe.py``). With ``trace_dir`` the run is
    traced: its ``layers`` are returned and its spans written there.
    """
    cpus = sorted(os.sched_getaffinity(0))
    run_cpus = cpus[:1] if workers == 1 else cpus
    probe = SpeedProbe(run_cpus, directory.parent / f"probe-{directory.name}")
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            die_with_parent()
            os.close(read_fd)
            os.sched_setaffinity(0, run_cpus)
            if trace_dir is None:
                result = run_pipeline(spec, seed, workers, directory)
            else:
                tracer = Tracer()
                helpers = install_layers(tracer)
                result = run_pipeline(spec, seed, workers, directory, tracer)
                result["layers"] = layer_metrics(tracer, helpers, result)
                tracer.write(trace_dir)
            result["hwm"] = vm_hwm_bytes(os.getpid())
            with os.fdopen(write_fd, "w") as pipe:
                json.dump(result, pipe)
            code = 0
        except BaseException:  # the child must never return into the host's code
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    os.close(write_fd)
    sampler = PeakSampler(pid)
    sampler.start()
    try:
        with os.fdopen(read_fd) as pipe:
            data = pipe.read()
        _, status = os.waitpid(pid, 0)
    finally:
        sampler.stop()
        probe.stop()
    if status != 0 or not data:
        raise RuntimeError(f"forked pipeline run exited with status {status}")
    result = json.loads(data)
    result["peak_rss"] = max(sampler.peak, result.pop("hwm"))
    result["probe_chunk_s"] = probe.mean_chunk_s(*result["window"])
    result["run_ref_s"] = result["run_s"] * REF_CHUNK_S / result["probe_chunk_s"]
    return result


def install_layers(tracer: Tracer) -> dict:
    """Wrap every traced layer; returns the counting helpers."""
    import repro.core.seeds as seeds
    import repro.ecosystem.world as world_module
    import repro.imaging.dhash as dhash
    from repro.browser.browser import Browser
    from repro.core.attribution import IncrementalAttribution
    from repro.core.discovery import IncrementalDiscovery
    from repro.core.milking import MilkingTracker
    from repro.core.pipeline import StreamingRun
    from repro.core.sessionbatch import DeferredRecorder
    from repro.ecosystem.gsb import GoogleSafeBrowsing
    from repro.feed.publisher import FeedPublisher
    from repro.feed.snapshot import FeedSnapshot
    from repro.js.engine import JsEngine
    from repro.net.network import Internet
    from repro.parallel import ShardedCrawlExecutor
    from repro.store.base import StoreBase
    from repro.store.jsonl import JsonlStore

    images, listings = DistinctImages(), FirstListings()
    tracer.patch_function(world_module, "build_world", "ecosystem.build_world")
    tracer.patch_function(seeds, "reverse_to_publishers", "ecosystem.reverse")
    tracer.patch_function(dhash, "dhash128", "imaging.dhash", wrap=images.wrap(tracer))
    for owner, attr, name in (
        (Browser, "visit", "browser.visit"),
        (Browser, "click", "browser.click"),
        (Browser, "screenshot", "browser.screenshot"),
        (JsEngine, "run", "js.run"),
        (Internet, "fetch", "net.fetch"),
        (DeferredRecorder, "resolve", "sessionbatch.resolve"),
        (IncrementalDiscovery, "ingest", "discovery.ingest"),
        (IncrementalDiscovery, "finalize", "discovery.finalize"),
        (IncrementalAttribution, "ingest", "attribution.ingest"),
        (IncrementalAttribution, "finalize", "attribution.finalize"),
        (JsonlStore, "append", "store.append"),
        (StoreBase, "extend", "store.extend"),
        (JsonlStore, "begin_intent", "store.intent"),
        (JsonlStore, "commit_intent", "store.intent"),
        (MilkingTracker, "derive_sources", "milking.derive_sources"),
        (MilkingTracker, "run", "milking.run"),
        (FeedPublisher, "round_complete", "milking.round_complete"),
        (FeedSnapshot, "build", "feed.snapshot_build"),
        (FeedSnapshot, "to_record", "feed.to_record"),
        (StreamingRun, "_persist_batch", "parallel.persist"),
    ):
        tracer.patch_method(owner, attr, name)
    tracer.patch_method(
        GoogleSafeBrowsing, "lookup", "gsb.lookup", wrap=listings.wrap(tracer)
    )
    tracer.patch_method(
        ShardedCrawlExecutor, "run", "parallel.wait", wrap=tracer.wrap_iter
    )
    return {"images": images, "listings": listings}


def layer_metrics(tracer: Tracer, helpers: dict, traced: dict) -> dict:
    """The per-layer figures of one traced run (units in the metric names)."""
    spans = tracer.summary()

    def get(name, field):
        return spans.get(name, {}).get(field, 0)

    store = Path(traced["store"])
    metrics = {
        "ecosystem.build_world.s": get("ecosystem.build_world", "incl_s"),
        "ecosystem.reverse.s": get("ecosystem.reverse", "incl_s"),
        "sessionbatch.resolve.self_s": get("sessionbatch.resolve", "self_s"),
        "sessionbatch.dedup_ratio": traced["dedup_ratio"],
        "store.extend.self_s": get("store.extend", "self_s"),
        "store.bytes_written": sum(p.stat().st_size for p in store.glob("*.jsonl")),
        "milking.derive_sources.s": get("milking.derive_sources", "incl_s"),
        "milking.run.s": get("milking.run", "incl_s"),
        "milking.sessions": traced["milk_sessions"],
        "milking.rounds": get("milking.round_complete", "calls"),
        "feed.to_record.self_s": get("feed.to_record", "self_s"),
        "feed.bytes_persisted": (store / "feed.jsonl").stat().st_size,
        "parallel.wait_s": get("parallel.wait", "incl_s"),
        "parallel.persist_s": get("parallel.persist", "incl_s"),
        "pipeline.crawl_phase.s": get(PHASES[0], "incl_s"),
        "pipeline.finalize.s": get(PHASES[1], "incl_s"),
    }
    for name in (
        "browser.visit", "browser.click", "browser.screenshot", "js.run",
        "net.fetch", "imaging.dhash", "store.append", "store.intent",
        "gsb.lookup", "feed.snapshot_build",
    ):
        metrics[f"{name}.calls"] = get(name, "calls")
        metrics[f"{name}.self_s"] = get(name, "self_s")
    for name in ("discovery.ingest", "discovery.finalize", "attribution.ingest",
                 "attribution.finalize"):
        metrics[f"{name}.self_s"] = get(name, "self_s")
    dhash_calls = get("imaging.dhash", "calls")
    metrics["imaging.dhash.distinct_ratio"] = (
        len(helpers["images"].seen) / dhash_calls if dhash_calls else 0.0
    )
    lookups = get("gsb.lookup", "calls")
    metrics["gsb.lookup.useful_ratio"] = (
        helpers["listings"].useful / lookups if lookups else 0.0
    )
    metrics["trace.coverage"] = tracer.covered_by_children(set(PHASES)) / traced["run_s"]
    return metrics


def check_store(directory: Path) -> None:
    from repro.store import JsonlStore

    store = JsonlStore.open(directory)
    try:
        counts = store.check()
        if not store.last_recovery.clean:
            raise AssertionError(f"store needed recovery: {store.last_recovery}")
        if not counts.get("interactions"):
            raise AssertionError("store holds no interactions")
        if store.get_meta("status") != "finished":
            raise AssertionError("store status is not 'finished'")
    finally:
        store.close()


def provenance(spec: dict) -> dict:
    import platform

    from repro.core.farm import FarmConfig
    from repro.core.sessionbatch import numpy_enabled

    return {
        "cores": len(os.sched_getaffinity(0)),
        "numpy": numpy_enabled(),
        "session_kernel": FarmConfig().session_kernel,
        "workers": spec["workers"],
        "python": platform.python_version(),
    }


def log(message: str) -> None:
    print(f"perfbench host [{time.perf_counter() - STARTED:7.2f}s] {message}",
          file=sys.stderr, flush=True)


def host(args) -> int:
    spec = json.loads(args.spec)
    work = Path(args.work)
    checks: dict[str, str] = {}

    def check(name, fn):
        try:
            value = fn()
        except Exception as exc:  # a failed check is reported, not fatal
            checks[name] = f"FAIL: {type(exc).__name__}: {exc}"
            return None
        checks[name] = "ok"
        return value

    import repro.ecosystem.world as world_module
    from repro import SeacmaPipeline  # noqa: F401 -- imported once, before the forks

    # The world builds are pinned to one core and probed there, as a
    # one-worker run is.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[:1])
    probe = SpeedProbe(cpus[:1], work / "probe-setup")
    builds = []
    try:
        for _ in range(SETUP_REPS):
            gc.collect()
            started = time.perf_counter()
            world_module.build_world(world_config(spec, args.seed))
            builds.append((started, time.perf_counter()))
    finally:
        probe.stop()
        os.sched_setaffinity(0, cpus)
    setup_wall_s = statistics.median(end - start for start, end in builds)
    setup_chunk_s = probe.mean_chunk_s(builds[0][0], builds[-1][1])
    log("world builds done")
    runs = []
    for index in range(RUNS):
        gc.collect()
        runs.append(run_forked(spec, args.seed, spec["workers"], work / f"run{index}"))
        log(f"pipeline run {index} done in {runs[-1]['run_s']:.2f}s")
    run = runs[0]
    log("pipeline runs done")
    reference = traced = layers = None
    if args.trace and spec.get("reference_workers"):
        reference = run_forked(
            spec, args.seed, spec["reference_workers"], work / "reference"
        )
    if args.trace:
        traced = run_forked(
            spec, args.seed, spec["workers"], work / "traced", Path(args.trace_dir)
        )
        layers = traced.pop("layers")
        # Both sides in reference-core seconds, as the end-to-end run_s is.
        layers["trace.overhead_s"] = traced["run_ref_s"] - statistics.median(
            r["run_ref_s"] for r in runs
        )
    stores = [Path(r["store"]) for r in (*runs, reference, traced) if r is not None]
    served = Path(run["store"])
    # The other stores are held to this one's bytes by digests_agree.
    check("store_check", lambda: check_store(served))
    feed = check("feed_hashes", lambda: check_feed_hashes(served / "feed.jsonl"))
    digests = {d.name: store_digest(d) for d in stores}
    if len(digests) > 1:
        # Repeated runs, the reference run (one worker) and the traced
        # run must leave byte-identical stores: repetition in one
        # process, worker count and tracing change no output.
        def same_digests():
            if len(set(digests.values())) != 1:
                raise AssertionError(f"store digests differ: {digests}")

        check("digests_agree", same_digests)
    if spec.get("table4_check"):
        # Table 4 (tests/test_validation_slow.py): almost no milked domain
        # is listed by GSB when milking finds it. Its final-rate and the
        # detection-lag shapes do not hold on every seed at this scale,
        # so they are not checked.
        def table4():
            if not run["gsb_init_pct"] < 5:
                raise AssertionError(f"gsb_init_pct {run['gsb_init_pct']} >= 5")

        check("table4_gsb_init", table4)

    result = {
        "setup_wall_s": setup_wall_s,
        "setup_ref_s": setup_wall_s * REF_CHUNK_S / setup_chunk_s,
        "runs": runs,
        "reference": reference,
        "traced": traced,
        "layers": layers,
        "checks": checks,
        "digests": digests,
        "served_store": str(served),
        "feed_versions": feed[0] if feed else None,
        "feed_latest_hash": feed[1] if feed else None,
        "provenance": provenance(spec),
    }
    Path(args.result).write_text(json.dumps(result, indent=1, sort_keys=True))
    log("checks done")
    return 0


def serve(store: str) -> int:
    """``seacma feed serve STORE --port 0`` with ``from_store`` timed."""
    from repro.cli import main
    from repro.feed.server import FeedServer

    original = FeedServer.__dict__["from_store"].__func__

    def timed(cls, *args, **kwargs):
        started = time.perf_counter()
        server = original(cls, *args, **kwargs)
        print(f"perfbench from_store_s {time.perf_counter() - started!r}", flush=True)
        return server

    FeedServer.from_store = classmethod(timed)
    return main(["feed", "serve", store, "--port", "0"])


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "serve":
        return serve(sys.argv[2])
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spec", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace-dir")
    return host(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
