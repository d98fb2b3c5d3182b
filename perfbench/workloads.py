"""The benchmark's three workloads.

Each workload turns a seed into a request list, runs one request as the
timed call and checks the output outside the timed region. Every
request in the timed loops lies inside the range where the seed commit
gives correct output, so any failure there means the program or the
benchmark regressed and the run is reported as not correct.

The seed commit's known defects lie just outside those ranges: the
surface subgroup fails `classify`/`verify_group` from genus 42, `hyp2f1`
exhausts its term budget from |z| = 0.99976, and the connection maps
miss the 1e-8 residual from g = 81 (`whittaker --genus 81` and
`generators --genus 44 --sign plus` exit non-zero). `defect_requests`
lists a fixed sample straddling each onset; the traced run replays it
and reports how many fail, so that a fix shows as a fall in
`defects.failed` without changing the timed workload.

Inputs that set a request's cost (genus, sign, fixed index, |z|) come
from Weyl sequences u_j = frac(offset + j * step), so every prefix of
the request list covers their range evenly and the cost mix does not
swing with the prefix length. The in-process workloads draw the offsets
from the seed. `cli_mix` completes only a few hundred requests per run,
so there a seeded offset would move the mix by more than the bounds
allow; its offsets are fixed and the seed picks everything else.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

GOLDEN = 0.6180339887498949
SQRT2 = 0.41421356237309515
SQRT3 = 0.7320508075688772
# the timed workloads stay below the seed commit's failure onsets
MAX_SURFACE_GENUS = 41
MIN_HYP2F1_GAP = 1e-3  # smallest 1 - |z|
MAX_CONNECTION_GENUS = 80


def weyl(j: int, offset: float, step: float = GOLDEN) -> float:
    return (offset + j * step) % 1.0


def log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def log_int(u: float, lo: int, hi: int) -> int:
    return min(hi, max(lo, round(log_uniform(u, lo, hi))))


def blocks(rng: random.Random, pattern: list[str], count: int) -> list[str]:
    """`count` kinds in blocks that each hold `pattern` in seeded order."""
    kinds: list[str] = []
    while len(kinds) < count:
        block = list(pattern)
        rng.shuffle(block)
        kinds.extend(block)
    return kinds[:count]


class Workload:
    name = ""
    warmup = 1  # requests run untimed in each set-up
    tracing = False  # set while a tracer is installed

    def generate(self, seed: int, count: int) -> list[dict]:
        raise NotImplementedError

    def execute(self, req: dict):
        """The timed call; raises on failure."""
        raise NotImplementedError

    def check(self, req: dict, out) -> str | None:
        """None when the output is correct, else the reason it is not."""
        raise NotImplementedError

    def defect_requests(self) -> list[dict]:
        """Fixed requests around the seed commit's known failure onsets."""
        raise NotImplementedError

    def collect(self, out, tracer, root: int) -> None:
        """Fold spans recorded outside this process into `tracer`."""


class SurfaceSweep(Workload):
    """Boundary group, surface subgroup, both verdicts and the polygon."""

    name = "surface_sweep"
    warmup = 16

    def __init__(self, root: Path, workdir: Path) -> None:
        import fuchsian

        self.F = fuchsian

    def generate(self, seed: int, count: int) -> list[dict]:
        rng = random.Random(seed)
        og, osign, ok = rng.random(), rng.random(), rng.random()
        reqs = []
        for j in range(count):
            g = log_int(weyl(j, og), 2, MAX_SURFACE_GENUS)
            reqs.append({
                "kind": "surface",
                "g": g,
                "sign": 1 if weyl(j, osign, SQRT3) < 0.5 else -1,
                "k": 1 + int(weyl(j, ok, SQRT2) * (2 * g + 1)),
            })
        return reqs

    def execute(self, req: dict):
        F = self.F
        curve = F.HyperellipticCurve(req["g"], req["sign"])
        base = F.boundary_generators(curve)
        surface = F.subgroup_generators(base, req["k"])
        return (
            surface,
            F.verify_group(base),
            F.verify_group(surface),
            F.polygon_area(F.fundamental_polygon(curve)),
        )

    def check(self, req: dict, out) -> str | None:
        surface, base_report, surface_report, area = out
        g = req["g"]
        if not base_report.passed:
            return "boundary verify_group failed"
        if not surface_report.passed:
            return "surface verify_group failed"
        if len(surface.generators) != 2 * g:
            return f"{len(surface.generators)} products, want {2 * g}"
        if area != (4 * g - 2) * math.pi:
            return f"area {area!r} != (4g-2)pi"
        return None

    def defect_requests(self) -> list[dict]:
        # the absolute TRACE_IMAG_TOL in classify breaks from g = 42
        return [
            {"kind": "surface", "g": g, "sign": sign, "k": k}
            for g in range(38, 48)
            for sign in (1, -1)
            for k in (1, g, 2 * g + 1)
        ]


class Hypergeometric(Workload):
    """hyp2f1 near the unit circle, continuation and connection maps."""

    name = "hypergeometric"
    warmup = 10
    pattern = ["hyp2f1"] * 6 + ["continuation"] * 2 + ["connection"] * 2

    def __init__(self, root: Path, workdir: Path) -> None:
        import fuchsian
        import fuchsian.moebius
        import mpmath

        self.F = fuchsian
        self.moebius = fuchsian.moebius
        self.mpmath = mpmath

    def generate(self, seed: int, count: int) -> list[dict]:
        rng = random.Random(seed)
        o_radius, o_genus = rng.random(), rng.random()
        seen = {"hyp2f1": 0, "connection": 0}
        reqs = []
        for kind in blocks(rng, self.pattern, count):
            if kind == "hyp2f1":
                j = seen["hyp2f1"]
                seen["hyp2f1"] += 1
                reqs.append({
                    "kind": kind,
                    "g": log_int(rng.random(), 2, 1000),
                    "r": 1.0 - log_uniform(weyl(j, o_radius), MIN_HYP2F1_GAP, 1.0),
                    "theta": rng.uniform(0.0, 2.0 * math.pi),
                })
            elif kind == "continuation":
                reqs.append({
                    "kind": kind,
                    "g": log_int(rng.random(), 2, 1000),
                    "z": rng.uniform(0.1, 0.9),
                })
            else:
                j = seen["connection"]
                seen["connection"] += 1
                reqs.append({
                    "kind": kind,
                    "g": log_int(weyl(j, o_genus), 2, MAX_CONNECTION_GENUS),
                })
        return reqs

    def execute(self, req: dict):
        F = self.F
        kind = req["kind"]
        if kind == "hyp2f1":
            p = F.hde_params(req["g"])
            z = req["r"] * cmath.exp(1j * req["theta"])
            return F.hyp2f1(p.alpha, p.beta, p.gamma, z)
        if kind == "continuation":
            p = F.hde_params(req["g"])
            return F.continuation_residual(p.alpha, p.beta, p.gamma, req["z"])
        g = req["g"]
        return self.moebius.projective_distance(
            F.normalize(F.connection_map(g)),
            F.normalize(F.connection_map_from_gammas(g)),
        )

    def check(self, req: dict, out) -> str | None:
        kind = req["kind"]
        if kind == "hyp2f1":
            p = self.F.hde_params(req["g"])
            z = req["r"] * cmath.exp(1j * req["theta"])
            with self.mpmath.workdps(25):
                ref = complex(self.mpmath.hyp2f1(p.alpha, p.beta, p.gamma, z))
            rel = abs(out - ref) / abs(ref)
            return None if rel <= 1e-10 else f"relative error {rel:.3e} vs mpmath"
        if kind == "continuation":
            return None if out <= 1e-10 else f"continuation residual {out:.3e}"
        return None if out <= 1e-8 else f"projective residual {out:.3e}"

    def defect_requests(self) -> list[dict]:
        # the series needs more than 100000 terms from |z| = 0.99976, and
        # the Lanczos gamma ratios lose the 1e-8 tolerance from g = 81
        return [
            {"kind": "hyp2f1", "g": 2, "r": 1.0 - gap, "theta": 1.0}
            for gap in (1e-3, 5e-4, 3e-4, 2e-4, 1e-4)
        ] + [{"kind": "connection", "g": g} for g in range(76, 96)]


class CliMix(Workload):
    """One `python -m fuchsian.cli` process per request."""

    name = "cli_mix"
    warmup = 2
    pattern = (
        ["generators"] * 3 + ["whittaker"] * 3 + ["tessellation", "genus"]
        + ["render"] * 2 + ["verify"] * 2
    )
    # Fixed Weyl offsets: see the module docstring.
    offset = 0.5

    def __init__(self, root: Path, workdir: Path) -> None:
        self.root = root
        self.workdir = workdir
        self.json_path = workdir / "out.json"
        self.svg_path = workdir / "out.svg"
        self.spans_path = workdir / "spans.json"
        self.child_script = Path(__file__).resolve().parent / "cli_child.py"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def generate(self, seed: int, count: int) -> list[dict]:
        rng = random.Random(seed)
        seen = {"generators": 0, "whittaker": 0, "render": 0}
        reqs = []
        for kind in blocks(rng, self.pattern, count):
            if kind == "generators":
                j = seen[kind]
                seen[kind] += 1
                g = log_int(weyl(j, self.offset), 2, MAX_SURFACE_GENUS)
                sign = "plus" if weyl(j, self.offset, SQRT3) < 0.5 else "minus"
                k = 1 + int(weyl(j, self.offset, SQRT2) * (2 * g + 1))
                req = {"g": g, "k": k, "args": [
                    "generators", "--genus", str(g), "--sign", sign,
                    "--fixed", str(k)]}
            elif kind == "whittaker":
                j = seen[kind]
                seen[kind] += 1
                g = log_int(weyl(j, self.offset), 2, MAX_CONNECTION_GENUS)
                req = {"g": g, "args": ["whittaker", "--genus", str(g)]}
            elif kind == "tessellation":
                g = rng.randint(2, 40)
                family = rng.randrange(3)
                degree = (2 * g + 1, 2 * g + 2, 6 * g - 2)[family]
                req = {"g": g, "family": family, "args": [
                    "tessellation", "--degree", str(degree), "--genus", str(g)]}
            elif kind == "genus":
                m, n = rng.randint(2, 12), rng.randint(2, 12)
                req = {"m": m, "n": n, "args": ["genus", str(m), str(n)]}
            elif kind == "render":
                j = seen[kind]
                seen[kind] += 1
                g = log_int(weyl(j, self.offset, SQRT2), 2, MAX_SURFACE_GENUS)
                sign = rng.choice(("plus", "minus"))
                req = {"g": g, "args": [
                    "render", "--genus", str(g), "--sign", sign, "--out",
                    str(self.svg_path)]}
            else:
                req = {"args": ["verify"]}
            req["kind"] = kind
            if kind in ("generators", "whittaker", "tessellation", "genus"):
                req["json_out"] = rng.random() < 0.5
                if req["json_out"]:
                    req["args"] = ["--json-out", str(self.json_path), *req["args"]]
            reqs.append(req)
        return reqs

    def execute(self, req: dict):
        if self.tracing:
            cmd = [sys.executable, str(self.child_script), str(self.spans_path), "--"]
        else:
            cmd = [sys.executable, "-m", "fuchsian.cli"]
        return subprocess.run(
            cmd + req["args"], cwd=self.root, env=self.env,
            capture_output=True, text=True, timeout=120,
        )

    def collect(self, out, tracer, root: int) -> None:
        if self.spans_path.exists():
            tracer.adopt(str(self.spans_path), root)
            self.spans_path.unlink()

    def check(self, req: dict, out) -> str | None:
        try:
            return self._check(req, out)
        finally:
            for path in (self.json_path, self.svg_path):
                if path.exists():
                    path.unlink()

    def _check(self, req: dict, out) -> str | None:
        if out.returncode != 0:
            return f"exit {out.returncode}: {out.stderr.strip()[-160:]}"
        kind = req["kind"]
        if kind == "verify":
            lines = out.stdout.splitlines()
            if not lines or lines[-1] != "OK: 18/18 checks passed":
                return "verify did not report OK: 18/18"
            return None
        if kind == "render":
            svg = ET.parse(self.svg_path).getroot()
            ns = "{http://www.w3.org/2000/svg}"
            if svg.tag != ns + "svg":
                return f"root element {svg.tag}"
            circles = len(svg.findall(ns + "circle"))
            if circles != 1 + 2 * (2 * req["g"] + 1):
                return f"{circles} circles for genus {req['g']}"
            if f"genus {req['g']}," not in svg.findtext(ns + "title", ""):
                return "title does not name the genus"
            return None
        if req["json_out"]:
            if out.stdout:
                return "stdout not empty with --json-out"
            text = self.json_path.read_text(encoding="utf-8")
        else:
            text = out.stdout
        doc = json.loads(text)
        return getattr(self, f"_check_{kind}")(req, doc)

    @staticmethod
    def _check_generators(req: dict, doc: dict) -> str | None:
        g = req["g"]
        if not doc["verify"]["passed"]:
            return "verify.passed is false"
        if (doc["genus"], doc["fixed_index"]) != (g, req["k"]):
            return "genus or fixed index not echoed"
        if len(doc["boundary_group"]) != 2 * g + 1 or len(doc["subgroup"]) != 2 * g:
            return "wrong generator counts"
        return None

    @staticmethod
    def _check_whittaker(req: dict, doc: dict) -> str | None:
        g = req["g"]
        residual = doc["connection"]["projective_residual"]
        if residual > 1e-8:
            return f"projective residual {residual:.3e}"
        if len(doc["generators"]) != 2 * g + 1 or len(doc["subgroup_products"]) != 2 * g:
            return "wrong generator counts"
        return None

    @staticmethod
    def _check_tessellation(req: dict, doc: dict) -> str | None:
        g = req["g"]
        want = ((4 * g, 4 * g), (4 * g + 2, 2 * g + 1), (12 * g - 6, 3))[req["family"]]
        if (doc["p"], doc["q"]) != want:
            return f"{{p, q}} = {{{doc['p']}, {doc['q']}}}, want {want}"
        if doc["euler_characteristic"] != 2 - 2 * g or not doc["hyperbolic"]:
            return "euler characteristic or hyperbolicity wrong"
        return None

    @staticmethod
    def _check_genus(req: dict, doc: dict) -> str | None:
        m, n = req["m"], req["n"]
        g_min = -((m - 2) * (n - 2) // -4)
        g_max = (m - 1) * (n - 1) // 2
        if (doc["g_min"], doc["g_max"]) != (g_min, g_max):
            return "genus range formula"
        genera = [e["genus"] for e in doc["per_g"]]
        if genera != list(range(max(2, g_min), g_max + 1)):
            return "per-genus list"
        for e in doc["per_g"]:
            t = e["tessellation"]
            if (t["p"], t["q"]) != (4 * e["genus"], 4 * e["genus"]):
                return f"{{p, q}} for genus {e['genus']}"
        return None

    def defect_requests(self) -> list[dict]:
        reqs = []
        for g, sign in ((42, "minus"), (44, "plus")):
            reqs.append({"kind": "generators", "g": g, "k": 1, "json_out": False,
                         "args": ["generators", "--genus", str(g), "--sign", sign,
                                  "--fixed", "1"]})
        for g in (81, 92):
            reqs.append({"kind": "whittaker", "g": g, "json_out": False,
                         "args": ["whittaker", "--genus", str(g)]})
        return reqs


WORKLOADS = {w.name: w for w in (SurfaceSweep, Hypergeometric, CliMix)}
