"""Hygiene guard for committed benchmark results.

Every ``benchmarks/results/BENCH_*.json`` is a committed artifact that
readers (and CI dashboards) treat as reproducible: its ``benchmark``
field names the ``benchmarks/bench_<name>.py`` script that wrote it.
This suite fails when a result file references a script that no longer
exists — the drift that silently turns committed numbers into folklore
— and checks the worldscale result records enough provenance (kernel
variant, numpy availability) to rerun any individual rung.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

BENCHMARKS_DIR = Path(__file__).parent.parent / "benchmarks"
RESULTS = sorted((BENCHMARKS_DIR / "results").glob("BENCH_*.json"))


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


class TestCommittedResults:
    def test_results_are_committed(self):
        assert RESULTS, "no committed BENCH_*.json results found"

    @pytest.mark.parametrize("path", RESULTS, ids=lambda p: p.stem)
    def test_result_names_an_existing_bench_script(self, path):
        payload = _load(path)
        name = payload.get("benchmark")
        assert isinstance(name, str) and name, (
            f"{path.name} has no 'benchmark' field naming its script"
        )
        script = BENCHMARKS_DIR / f"bench_{name}.py"
        assert script.exists(), (
            f"{path.name} references benchmarks/bench_{name}.py, "
            "which does not exist — regenerate or remove the result"
        )


class TestWorldscaleProvenance:
    @pytest.fixture(scope="class")
    def payload(self):
        path = BENCHMARKS_DIR / "results" / "BENCH_worldscale.json"
        assert path.exists(), "worldscale result not committed"
        return _load(path)

    def test_every_run_records_kernel_and_numpy(self, payload):
        assert payload["runs"], "worldscale result has no runs"
        for run in payload["runs"]:
            # Committed history names both kernels the tree has had.
            assert run["kernel"] in ("scalar", "batch"), run
            assert isinstance(run["numpy"], bool), run
            assert run["ms_per_publisher"] > 0, run

    def test_kernel_speedup_recorded_at_reference_rung(self, payload):
        speedup = payload["kernel_speedup"]
        assert speedup["scalar_ms_per_publisher"] > 0
        assert speedup["batch_ms_per_publisher"] > 0
        assert speedup["speedup"] >= 1.0
        # The ROADMAP item 1 acceptance figure: the committed result
        # must show the batch kernel at >= 3x per publisher against the
        # pre-kernel baseline at the 10k rung.
        assert speedup["speedup_vs_baseline"] >= 3.0

    def test_93k_rung_completed(self, payload):
        largest = payload["runs"][-1]
        assert largest["population"] >= 93_000
        assert largest["sessions"] > 0
