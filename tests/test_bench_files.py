"""Every committed BENCH_*.json benchmark record is self-consistent: each
side names the commit and sources it ran, every run belongs to its side
and was correct, untraced runs report exactly BENCHMARK.json's
end-to-end metrics, and each summary median is the median of its runs."""

import json
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")


def end_to_end_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"]}


@pytest.fixture(params=BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def bench(request) -> dict:
    return json.loads(request.param.read_text())


def test_bench_files_are_found():
    assert BENCH_FILES


def test_each_side_names_its_commit_sources_and_python(bench):
    for side in SIDES:
        info = bench[side]
        assert re.fullmatch(r"[0-9a-f]{40}", info["git_sha"])
        assert re.fullmatch(r"[0-9a-f]{64}", info["src_sha256"])
        assert info["python"]
        assert info["runs"]


def test_every_run_belongs_to_its_side_and_is_correct(bench):
    for side in SIDES:
        info = bench[side]
        for runs in info["runs"].values():
            for run in runs:
                assert run["meta"]["git_sha"] == info["git_sha"]
                assert run["meta"]["src_sha256"] == info["src_sha256"]
                assert run["result"]["correct"] is True


def test_untraced_runs_report_exactly_the_end_to_end_metrics(bench):
    want = end_to_end_units()
    for side in SIDES:
        for runs in bench[side]["runs"].values():
            for run in runs:
                if run["meta"]["trace"] != 0:
                    continue
                metrics = run["result"]["metrics"]
                assert {k: m["unit"] for k, m in metrics.items()} == want


def test_summary_medians_are_the_medians_of_the_listed_runs(bench):
    for tag, summary in bench["summary"].items():
        for name in end_to_end_units():
            entry = summary[name]
            for side in SIDES:
                values = entry[f"{side}_runs"]
                assert values == [
                    run["result"]["metrics"][name]["value"]
                    for run in bench[side]["runs"][tag]
                ]
                assert entry[side]["median"] == statistics.median(values)
