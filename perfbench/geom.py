"""Independent evaluation of the boundary curves in a region report.

The correctness gate judges the package by its JSON output, so the
boundary curves are re-evaluated here from the report's curve records
rather than through `spiralbounds.geometry`.
"""

from __future__ import annotations

import math

import numpy as np

DENSE_POINTS = 200_001   # abscissae for the dense width maximum


def _piece(x, c, angle, k, first):
    """Height of one circle piece through (-c, 0) or (c, 0)."""
    end = -c if first else c
    if abs(k) * c < 1e-14:
        return (x - end) * math.tan(angle)
    ox = end - math.sin(angle) / k
    oy = math.cos(angle) / k
    root = np.sqrt(np.maximum(1.0 / (k * k) - (x - ox) ** 2, 0.0))
    return oy - math.copysign(1.0, k) * root


def height(curve: dict, x):
    """Height over the chord of an 'arc' or 'biarc' curve record."""
    x = np.asarray(x, dtype=float)
    c = curve["c"]
    if curve["type"] == "arc":
        s, co = math.sin(curve["phi"]), math.cos(curve["phi"])
        den = c * co + np.sqrt(np.maximum(c * c - x * x * s * s, 0.0))
        num = (c * c - x * x) * s
        return np.divide(num, den, out=np.zeros_like(x), where=den > 0.0)
    first = x <= curve["join"][0]
    return np.where(first,
                    _piece(x, c, curve["alpha"], curve["a"], True),
                    _piece(x, c, curve["beta"], curve["b"], False))


def dense_width(chord: dict) -> float:
    """Maximum gap between the chord's boundaries over DENSE_POINTS abscissae."""
    c = chord["half_length"]
    xs = np.linspace(-c, c, DENSE_POINTS)
    return float(np.max(height(chord["upper"], xs) - height(chord["lower"], xs)))


def inside(report: dict, points, tol: float = 0.0) -> np.ndarray:
    """Whether each point lies in some chord's lens (brute force over chords)."""
    pts = np.asarray(points, dtype=float)
    hit = np.zeros(len(pts), dtype=bool)
    for ch in report["chords"]:
        c = ch["half_length"]
        t = np.array([math.cos(ch["direction"]), math.sin(ch["direction"])])
        d = pts - np.asarray(ch["midpoint"])
        x = d @ t
        y = d @ np.array([-t[1], t[0]])
        on = np.abs(x) <= c * (1.0 + 1e-12)
        xc = np.clip(x[on], -c, c)
        lo = height(ch["lower"], xc)
        up = height(ch["upper"], xc)
        hit[np.nonzero(on)[0][(y[on] >= lo - tol) & (y[on] <= up + tol)]] = True
    return hit
