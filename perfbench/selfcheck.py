"""Fast self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Runs every workload for one second untraced and traced, and fails
unless each run emits exactly the metrics BENCHMARK.json names, with
their units, and reports itself correct. Then runs negative controls:
one request per workload whose output is deliberately corrupted must
be counted once in `failed` and make the run not correct.
Prints every metric of every run, and exits 1 on any problem.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import run
from workloads import WORKLOADS, CliMix, Hypergeometric, SurfaceSweep


def corrupt_first(wl, corrupt) -> None:
    """Make `wl` corrupt the output of the first request it executes."""
    execute, done = wl.execute, []

    def execute_once_corrupted(req):
        out = execute(req)
        if not done:
            done.append(req)
            out = corrupt(out)
        return out

    wl.execute = execute_once_corrupted


def bend_surface(F):
    """verify_group's verdict after bending entry a of the first product."""

    def corrupt(out):
        surface, base_report, _, area = out
        first = surface.generators[0]
        bent = F.MoebiusMap(first.a + 1e-2, first.b, first.c, first.d)
        group = replace(surface, generators=(bent,) + surface.generators[1:])
        return surface, base_report, F.verify_group(group), area

    return corrupt


def negative_controls(workdir) -> list[str]:
    import fuchsian as F

    problems = []
    cases = []
    surface = SurfaceSweep(run.ROOT, workdir)
    corrupt_first(surface, bend_surface(F))
    cases.append((surface, [{"kind": "surface", "g": 3, "sign": -1, "k": 2}] * 5))
    hyper = Hypergeometric(run.ROOT, workdir)
    corrupt_first(hyper, lambda value: value * (1 + 1e-6))
    cases.append((hyper, [{"kind": "hyp2f1", "g": 2, "r": 0.5, "theta": 1.0}] * 5))
    cli = CliMix(run.ROOT, workdir)
    bad_verify = {"kind": "verify", "args": ["verify", "--perturb", "1e-2"]}
    cases.append((cli, [bad_verify, {"kind": "verify", "args": ["verify"]}]))
    for wl, pool in cases:
        results = run.run_requests(wl, pool, seconds=60.0, limit=len(pool))
        errors = [err for _, err, _ in results if err is not None]
        print(f"negative control {wl.name}: failed={len(errors)} "
              f"of {len(results)} reason={errors[:1]}")
        if len(errors) != 1 or len(results) != len(pool):
            problems.append(f"{wl.name}: corrupted output not counted once")
    return problems


def main() -> int:
    problem = run.load_package()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    run.OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=run.OUT_DIR))
    problems = []
    try:
        for name in WORKLOADS:
            for trace in (0, 1):
                line, _ = run.run_workload(name, 7, 1.0, trace, workdir)
                got = {key: m["unit"] for key, m in line["metrics"].items()}
                for key, m in line["metrics"].items():
                    print(f"{name:15} trace={trace} {key:32} {m['value']:12.6g} {m['unit']}")
                if got != want[trace]:
                    missing = sorted(set(want[trace].items()) - set(got.items()))
                    extra = sorted(set(got.items()) - set(want[trace].items()))
                    problems.append(f"{name} trace={trace}: missing {missing}, extra {extra}")
                if line["attempted"] < 1 or not line["correct"]:
                    problems.append(f"{name} trace={trace}: {line['attempted']} "
                                    f"attempted, correct={line['correct']}")
        problems += negative_controls(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
