"""Byte-for-byte comparison of the CLI's output with that of another commit.

    python tests/cli_bytes.py REF

REF is any commit git names (HEAD, a branch, a hash).  Its src/ is
exported with `git archive` into a temporary directory, so no worktree
is registered in the repository.  Each run is `python -m spiralbounds`
in a child process, once with PYTHONPATH at the working tree's src/ and
once at REF's, on the same input files, each in an empty directory of
its own where it writes its output files:

  * every profile in tests/golden at the auto, simple, vertex and
    narrowed grades: `analyze --svg`, and `check` against every sample
    file there;
  * every open profile in tests/golden: `spline-fixture` to stdout and
    with `-o`;
  * every sample file in tests/golden: `check --curvature-plot` against
    the profile it was made for (the file's name up to its first dot);
  * `rounding-experiment --plot`, which writes two files;
  * the inputs that perfbench/gen.py writes for the spiral-check,
    oval-analyze and batch-small workloads at seeds 1 and 5 (the first
    BATCH batch-small profiles), at the auto, simple and vertex grades:
    `analyze --svg`, and `check` against the case's samples.

A run whose stdout, stderr, exit code or written files (their names and
bytes) differ between the two trees is printed, and the script exits 1;
otherwise it prints the run count and exits 0.  It is a script, not a
test: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
GRADES = ("auto", "simple", "vertex", "narrowed")
SEEDS = (1, 5)
WORKLOADS = ("spiral-check", "oval-analyze", "batch-small")
# batch-small profiles per seed: every kind of small profile the
# generator makes, spirals, ovals and hairpins, several times over
BATCH = 120
# CLI runs at once; each is a child interpreter of its own
JOBS = 2


def export_src(ref, dest):
    """Write REF's src/ under dest; returns the path of that src/."""
    tar = subprocess.run(["git", "archive", "--format=tar", ref, "src"],
                         cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as fh:
        fh.extractall(dest)
    return Path(dest) / "src"


def golden_runs():
    """The argv of every run on the golden profiles and sample files;
    output files are named relative to the run's directory."""
    profiles = sorted(p for p in GOLDEN.glob("*.json")
                      if not p.name.endswith(".expected.json"))
    samples = sorted(GOLDEN.glob("*.txt"))
    for profile in profiles:
        for grade in GRADES:
            yield ["analyze", str(profile), "--grade", grade, "--svg",
                   "region.svg"]
            for s in samples:
                yield ["check", str(profile), str(s), "--grade", grade]
        if not json.loads(profile.read_text()).get("closed", False):
            yield ["spline-fixture", str(profile)]
            yield ["spline-fixture", str(profile), "-o", "fixture.txt"]
    for s in samples:
        yield ["check", str(GOLDEN / (s.name.split(".")[0] + ".json")),
               str(s), "--curvature-plot", "plot.txt"]
    yield ["rounding-experiment", "--plot", "rounding"]


def bench_runs(workdir):
    """The argv of every run on the benchmark's inputs, written to
    workdir."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import bench
    import gen
    from pipeline import NO_TRACE
    for workload in WORKLOADS:
        wid, make = bench.WORKLOADS[workload][:2]
        for seed in SEEDS:
            cases = make(np.random.default_rng([wid, seed]), NO_TRACE)
            for i, case in enumerate(cases[:BATCH]):
                stem = workdir / ("%s-%d-%d" % (workload, seed, i))
                profile = str(stem) + ".json"
                gen.write_profile(profile, case)
                samples = None
                if case.reject_node is None:
                    samples = str(stem) + ".samples.json"
                    gen.write_samples(samples, case.candidate())
                for grade in GRADES[:3]:
                    yield ["analyze", profile, "--grade", grade, "--svg",
                           "region.svg"]
                    if samples:
                        yield ["check", profile, samples, "--grade", grade]


def run_cli(src, argv, cwd):
    """stdout, stderr, exit code and written files (name to bytes) of one
    CLI run in the empty directory cwd, which is removed afterwards."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cwd.mkdir()
    try:
        proc = subprocess.run([sys.executable, "-m", "spiralbounds", *argv],
                              env=env, cwd=cwd, capture_output=True,
                              timeout=600)
        files = {p.name: p.read_bytes() for p in sorted(cwd.iterdir())}
    finally:
        shutil.rmtree(cwd)
    return proc.stdout, proc.stderr, proc.returncode, files


def compare(k, argv, trees, tmp):
    """The parts of run k that differ between the trees, by name."""
    got = [run_cli(src, argv, tmp / ("%s-%d" % (name, k)))
           for name, src in trees]
    return [part for part, a, b in zip(
        ("stdout", "stderr", "exit code", "files"), *got) if a != b]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("ref", help="commit to compare the working tree with")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "ref").mkdir()
        (tmp / "inputs").mkdir()
        trees = [("work", ROOT / "src"),
                 ("ref", export_src(args.ref, tmp / "ref"))]
        runs = list(golden_runs()) + list(bench_runs(tmp / "inputs"))
        with ThreadPoolExecutor(JOBS) as pool:
            diffs = list(pool.map(
                lambda kr: compare(*kr, trees, tmp),
                enumerate(runs)))
    bad = [(run, d) for run, d in zip(runs, diffs) if d]
    for cli_args, parts in bad:
        print("differs in %s: spiralbounds %s" % (", ".join(parts),
                                                  " ".join(cli_args)))
    print("%d runs against %s, %d differ" % (len(runs), args.ref, len(bad)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
