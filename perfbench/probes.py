"""Untraced per-call timings of single layer operations.

Each probe times a batch of calls on inputs taken from the run's own
workload seed, repeats the batch, and reports the median time per call.
The process probes start fresh interpreters.
"""

from __future__ import annotations

import cmath
import math
import random
import statistics
import subprocess
import sys
import time

from workloads import SurfaceSweep, log_int

_IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import fuchsian.cli; "
    "print(time.perf_counter() - t)"
)


def per_call_us(fn, args_list, repeats: int = 5, min_batch_s: float = 0.005) -> float:
    """Median over `repeats` batches of the time per call, in us."""
    inner = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(inner):
            for args in args_list:
                fn(*args)
        if time.perf_counter() - t0 >= min_batch_s or inner >= 1 << 16:
            break
        inner *= 2
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            for args in args_list:
                fn(*args)
        samples.append((time.perf_counter() - t0) / (inner * len(args_list)))
    return statistics.median(samples) * 1e6


def process_start_ms(env: dict, runs: int = 5) -> float:
    """Median wall time of a bare `python -c pass`."""
    samples = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e3


def process_import_ms(env: dict, runs: int = 5) -> float:
    """Median time of `import fuchsian.cli` inside fresh interpreters."""
    samples = []
    for _ in range(runs):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_SNIPPET],
            env=env, check=True, capture_output=True, text=True,
        )
        samples.append(float(out.stdout))
    return statistics.median(samples) * 1e3


def layer_probes(seed: int, surface: SurfaceSweep) -> dict[str, float]:
    """Per-call us of the moebius, disk_geometry and whittaker probes."""
    import fuchsian as F
    from fuchsian.disk_geometry import geodesic_apex

    maps, triples = [], []
    for req in surface.generate(seed, 8):
        curve = F.HyperellipticCurve(req["g"], req["sign"])
        maps.extend(F.boundary_generators(curve).generators)
        rs = F.roots(curve)
        for j in range(len(rs)):
            z1, z2 = rs[j], rs[(j + 1) % len(rs)]
            triples.append((z1, z2, geodesic_apex(z1, z2)))
    pairs = list(zip(maps, maps[1:]))
    raw = [F.compose(a, b) for a, b in pairs]
    normalized = [F.normalize(m) for m in raw]
    classifiable = []
    for m in normalized:
        try:
            F.classify(m)
        except ValueError:
            continue
        classifiable.append((m,))

    rng = random.Random(seed)
    genera = [log_int(rng.random(), 2, 1000) for _ in range(4)]
    thetas = [rng.uniform(0.0, 2.0 * math.pi) for _ in genera]
    gamma_args = []
    for g in genera:
        a = 1.0 / (2 * g + 1)
        gamma_args += [(x * a,) for x in (2 * (g + 1), 1, g + 2, g + 1, -1, g, 2 * g, g - 1)]

    out = {
        "moebius.construct_us": per_call_us(
            F.MoebiusMap, [(m.a, m.b, m.c, m.d) for m in maps]),
        "moebius.compose_us": per_call_us(F.compose, pairs),
        "moebius.normalize_us": per_call_us(F.normalize, [(m,) for m in raw]),
        "moebius.classify_us": per_call_us(F.classify, classifiable),
        "disk_geometry.side_pairing_us": per_call_us(F.side_pairing_elliptic, triples),
        "whittaker.gamma_fn_us": per_call_us(F.gamma_fn, gamma_args),
    }
    for r in (0.5, 0.9, 0.99):
        args = []
        for g, theta in zip(genera, thetas):
            p = F.hde_params(g)
            args.append((p.alpha, p.beta, p.gamma, r * cmath.exp(1j * theta)))
        out[f"whittaker.hyp2f1_us.r{r}"] = per_call_us(F.hyp2f1, args, repeats=3)
    return out
