"""Command-line interface.

Subcommands:

  analyze PROFILE             build a bounding region, print a JSON report
  check PROFILE SAMPLES       containment verdict for a sampled curve
  spline-fixture PROFILE      sample the clamped chord-length cubic spline
  rounding-experiment         circle data vs two-decimal rounding

Exit codes: 0 success (and containment pass), 1 containment failure,
2 inadmissible or degenerate geometry, 3 bad input (files, arguments,
overrides).
"""

from __future__ import annotations

import argparse
import sys

from .analysis import analyze, discrete_curvature_plot
from .compliance import check_containment
from .errors import DataError, InputError
from .experiments import rounding_experiment
from .profile_io import (compliance_report_dict, load_profile, load_samples,
                         region_report, save_columns, write_columns,
                         write_report)
from .regions import build_region


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; this project reserves 2 for
    inadmissible geometry, so usage errors are remapped to 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(3)


def _add_profile_flags(p, grade=True):
    p.add_argument("profile", help="profile JSON file")
    p.add_argument("--degrees", action="store_true",
                   help="tangent angles in the profile are degrees")
    if grade:
        p.add_argument("--grade",
                       choices=["auto", "simple", "vertex", "narrowed"],
                       default="auto",
                       help="region grade (auto: narrowed for spiral data, "
                            "vertex for piecewise)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spiralbounds",
                     description="Bounding regions, fairness width and "
                                 "containment tests for planar spiral data")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("analyze", help="construct a region and report it")
    _add_profile_flags(p)
    p.add_argument("--svg", metavar="PATH", help="render the region as SVG")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("check", help="test curve samples for containment")
    _add_profile_flags(p)
    p.add_argument("samples", help="curve sample file (JSON or two-column)")
    p.add_argument("--tol", type=float, default=None,
                   help="containment tolerance in model units "
                        "(default 1e-9 of the largest half-chord)")
    p.add_argument("--curvature-plot", metavar="PATH",
                   help="write the samples' discrete curvature plot data")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("spline-fixture",
                       help="sample the clamped cubic spline interpolant")
    _add_profile_flags(p, grade=False)
    p.add_argument("--samples-per-chord", type=int, default=64)
    p.add_argument("-o", "--output", metavar="PATH",
                   help="write samples to a file instead of stdout")
    p.set_defaults(func=cmd_spline_fixture)

    p = sub.add_parser("rounding-experiment",
                       help="reproduce the coordinate-rounding curvature "
                            "beating on the built-in circle dataset")
    p.add_argument("--plot", metavar="PREFIX",
                   help="write PREFIX-exact.txt and PREFIX-rounded.txt "
                        "(node index vs discrete curvature)")
    p.set_defaults(func=cmd_rounding_experiment)
    return parser


def _print_report(report):
    """The report on stdout, as print(report_json(report)) writes it."""
    write_report(sys.stdout, report)
    sys.stdout.write("\n")


def cmd_analyze(args) -> int:
    data, overrides = load_profile(args.profile, args.degrees)
    analysis = analyze(data)
    region = build_region(analysis, args.grade, overrides)
    # side output first: a failure there exits 3 with nothing on stdout
    if args.svg:
        from .svg import render_svg   # not at start-up: few calls draw
        render_svg(analysis, region, args.svg)
    _print_report(region_report(analysis, region))
    return 0


def cmd_check(args) -> int:
    data, overrides = load_profile(args.profile, args.degrees)
    samples = load_samples(args.samples)
    analysis = analyze(data)
    region = build_region(analysis, args.grade, overrides)
    report = check_containment(region, samples, tol=args.tol)
    if args.curvature_plot:
        save_columns(args.curvature_plot, discrete_curvature_plot(samples))
    _print_report(compliance_report_dict(report))
    return 0 if report.passed else 1


def cmd_spline_fixture(args) -> int:
    from .splinefit import cubic_spline_fixture   # not at start-up either
    data, _ = load_profile(args.profile, args.degrees)
    samples = cubic_spline_fixture(data, args.samples_per_chord)
    if args.output:
        save_columns(args.output, samples)
    else:
        write_columns(sys.stdout, samples)
    return 0


def cmd_rounding_experiment(args) -> int:
    exp = rounding_experiment()
    _print_report({
        "target_curvature": exp.target_q,
        "exact_q": list(exp.exact_q),
        "rounded_q": list(exp.rounded_q),
        "max_deviation": exp.max_deviation,
        "trend_sign_changes": exp.trend_sign_changes,
    })
    if args.plot:
        nodes = range(1, len(exp.exact_q) + 1)
        save_columns(args.plot + "-exact.txt", list(zip(nodes, exp.exact_q)))
        save_columns(args.plot + "-rounded.txt",
                     list(zip(nodes, exp.rounded_q)))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 3
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except DataError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
