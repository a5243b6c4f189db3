"""Benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the package from its
`src/` directory; without that directory it exits with status 2.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    if not (SRC / "spiralbounds" / "__init__.py").is_file():
        print("perfbench: no package source at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench
    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
