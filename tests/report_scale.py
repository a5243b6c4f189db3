"""Report text at scale: the narrowed report of a 10^4- and a 10^5-chord
log spiral.

    python tests/report_scale.py [N ...]

The data are r = 50 e^(-0.05 theta), theta in [0, 6] at N + 1 uniform
steps, with exact end tangents (tests/logspiral.py), at N = 10^4 and 10^5
chords unless other N are given.  For each N the script checks once that
report_json's text equals json.dumps(report, indent=2) with each Rows
made the list of its rows, and exits 1 if it does not.  It prints the
per-chord time of report_json and of write_report to os.devnull (best of
3 calls), the text size, and the number of band tokens: values in
[1e-5, 1e-4), which orjson writes otherwise than repr does.  Times are
printed, not judged; on a shared machine they vary from run to run.  It
is a script, not a test: pytest does not collect it.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from logspiral import LogSpiral  # noqa: E402
from spiralbounds.analysis import SplineInput, analyze  # noqa: E402
from spiralbounds.profile_io import (Rows, region_report,  # noqa: E402
                                     report_json, write_report)
from spiralbounds.regions import build_region  # noqa: E402

REPEATS = 3


def spiral_report(chords):
    sp = LogSpiral(50.0, -0.05)
    theta = np.linspace(0.0, 6.0, chords + 1)
    an = analyze(SplineInput(sp.point(theta), float(sp.tangent_angle(0.0)),
                             float(sp.tangent_angle(6.0))))
    return region_report(an, build_region(an, "narrowed"))


def best(call):
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return min(times)


def main(argv=None) -> int:
    sizes = [int(n) for n in (sys.argv[1:] if argv is None else argv)]
    failed = False
    with open(os.devnull, "w") as null:
        for chords in sizes or [10 ** 4, 10 ** 5]:
            report = spiral_report(chords)
            text = report_json(report)
            plain = {key: list(value) if isinstance(value, Rows) else value
                     for key, value in report.items()}
            same = text == json.dumps(plain, indent=2)
            failed |= not same
            joined = best(lambda: report_json(report))
            streamed = best(lambda: write_report(null, report))
            print("N = %d: %s json.dumps; report_json %.2f us/chord, "
                  "write_report %.2f us/chord; %d bytes, %d band tokens"
                  % (chords, "equals" if same else "DIFFERS FROM",
                     joined / chords * 1e6, streamed / chords * 1e6,
                     len(text), text.count("e-05")))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
