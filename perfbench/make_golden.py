"""Rewrite golden.json: the widths of the fixed golden profiles.

    python3 perfbench/make_golden.py

Every benchmark run checks these profiles' widths against the file, to a
relative tolerance that admits exact widths.  Rerun it only for a change
that is meant to move widths by more than that.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import spiralbounds as sb  # noqa: E402

import gen  # noqa: E402


def main():
    cases = {}
    for case in gen.golden_cases():
        if case.reject_node is not None:
            cases[case.name] = {"reject_node": case.reject_node}
            continue
        an = sb.analyze(sb.SplineInput(case.points, case.tau_start,
                                       case.tau_end, case.closed))
        region = sb.build_region(an)
        cases[case.name] = {"grade": region.grade, "width": region.width,
                            "widths": [ch.width for ch in region.chords]}
    with open(HERE / "golden.json", "w") as fh:
        json.dump({"cases": cases}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
