"""Geometry microbenchmarks and interpreter start-up probes (traced runs).

Array primitives are timed on ARRAY_POINTS abscissae and reported in ns
per point; scalar calls in microseconds per call.  Each figure is the
median of REPEATS batches after a warm-up, so a later change to one
primitive can be cited next to the end-to-end metric it moved.
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

from spiralbounds import geometry as g

ARRAY_POINTS = 1000
REPEATS = 5
BATCH_S = 0.04

# Median time of speed_kernel() on the machine the bounds were set on,
# in its quiet state (see README.md).
REFERENCE_S = 0.0090

_REF_X = np.linspace(-1.0, 1.0, 34_000)
_REF_PTS = np.column_stack([_REF_X, 0.5 * _REF_X])
_REF_ROWS = [{"index": i, "w": i * 1e-3, "c": [i * 0.5, -i * 0.25]}
             for i in range(500)]


def speed_kernel():
    """Fixed work shaped like the pipeline's: float loops, array passes, JSON.

    It uses no package code, so its time tracks only the machine's speed.
    """
    acc = 0.0
    for i in range(30_000):
        acc += math.sin(i * 1e-3) / (1.0 + i)
    axis = np.array([0.6, 0.8])
    for _ in range(16):
        y = _REF_PTS @ axis
        np.sqrt(np.maximum(1.0 - y * y, 0.0))
    json.dumps(_REF_ROWS, indent=2)


def speed_sample():
    t0 = perf_counter()
    speed_kernel()
    return perf_counter() - t0


def _per_call(fn):
    for _ in range(20):
        fn()
    n, t = 1, 0.0
    while t < BATCH_S / 4:
        n *= 2
        t0 = perf_counter()
        for _ in range(n):
            fn()
        t = perf_counter() - t0
    n = max(1, int(n * BATCH_S / t))
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        for _ in range(n):
            fn()
        times.append((perf_counter() - t0) / n)
    return statistics.median(times)


def geometry_metrics() -> dict:
    c, alpha, beta, p = 1.0, 0.3, 0.2, 1.5
    omega = 0.5 * (alpha + beta)
    a = -(math.sin(alpha) + math.sin(omega) / p) / c
    b = (math.sin(beta) + p * math.sin(omega)) / c
    arc = g.Arc(c, 0.3)
    biarc = g.biarc_from_p(c, alpha, beta, p)
    frame = g.ChordFrame(origin=(0.3, -0.2), direction=0.7, half_length=c)
    xs = np.linspace(-c, c, ARRAY_POINTS)
    pts = np.column_stack([xs, 0.5 * xs])
    per_pt = 1e9 / ARRAY_POINTS
    return {
        "geometry.arc_eval_ns_per_pt":
            _per_call(lambda: g.arc_eval(arc, xs)) * per_pt,
        "geometry.biarc_eval_ns_per_pt":
            _per_call(lambda: g.biarc_eval(biarc, xs)) * per_pt,
        "geometry.to_local_ns_per_pt":
            _per_call(lambda: frame.to_local(pts)) * per_pt,
        "geometry.curve_eval_call_us":
            _per_call(lambda: g.curve_eval(biarc, 0.1)) * 1e6,
        "geometry.biarc_from_p_us":
            _per_call(lambda: g.biarc_from_p(c, alpha, beta, p)) * 1e6,
        "geometry.biarc_from_a_us":
            _per_call(lambda: g.biarc_from_a(c, alpha, beta, a)) * 1e6,
        "geometry.biarc_from_b_us":
            _per_call(lambda: g.biarc_from_b(c, alpha, beta, b)) * 1e6,
    }


def _wall(argv, env, timeout=120):
    t0 = perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=timeout)
    wall = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError("%s exited %d: %s"
                           % (argv, proc.returncode, proc.stderr[-500:]))
    return wall, proc


def startup_metrics(env, importtime_path) -> dict:
    """Bare interpreter and `import spiralbounds.cli`, each in a subprocess."""
    py = sys.executable
    interp = [_wall([py, "-c", "pass"], env)[0] for _ in range(REPEATS)]
    imp = [_wall([py, "-c", "import spiralbounds.cli"], env)[0]
           for _ in range(REPEATS)]
    _, proc = _wall([py, "-X", "importtime", "-c", "import spiralbounds.cli"],
                    env)
    with open(importtime_path, "w") as fh:
        fh.write(proc.stderr)
    return {"cli.interpreter_s": statistics.median(interp),
            "cli.import_s": statistics.median(imp)}
