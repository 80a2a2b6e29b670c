"""Command-line interface.

Verbs: build, dimension, spectrum, distance, measure, compare, report.
Exit codes: 0 success, 1 computation error, 2 usage error.  The env var
GASKET_MAX_EDGES overrides the construction resource cap.

Importing this module loads only ``gasketlab.geometry`` from the package
(every verb needs ``build_model`` or ``GasketError``).  Each verb and
shared helper imports the other modules it runs where it runs them, so
a process compiles only the modules of its verb: a flat ``build`` never
loads ``metric``, ``spectrum`` or ``measure``, and ``distance`` never
loads ``measure``, ``expr``, ``spectrum`` or ``svg``.

The dimension, spectrum, measure and compare results each come from one
private helper that ``report`` shares, so the bundle's files hold the
bytes the standalone verbs print for the same inputs.  ``_emit`` writes
a text result to its output file, or to stdout.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Optional

import numpy as np

from gasketlab.geometry import GasketError, build_model

if TYPE_CHECKING:
    from gasketlab.spectrum import DimensionEstimate


class UsageError(GasketError):
    """Bad flag combination; maps to exit code 2."""


def _require_alpha(args) -> Optional[float]:
    if args.variant == "stretched":
        if args.alpha is None:
            raise UsageError("--alpha is required for the stretched variant")
        return args.alpha
    if args.alpha is not None:
        raise UsageError(f"--alpha does not apply to the {args.variant} variant")
    return None


def _parse_point(text: str) -> tuple[float, float]:
    try:
        parts = [float(v) for v in text.split(",")]
    except ValueError:
        raise UsageError(f"bad point {text!r}; expected 'x,y'") from None
    if len(parts) != 2:
        raise UsageError(f"bad point {text!r}; expected 'x,y'")
    return parts[0], parts[1]


# ---------------------------------------------------------------------------
# results shared by the verbs and the report bundle
# ---------------------------------------------------------------------------


def _emit(text: str, out: Optional[str]) -> None:
    """Write ``text`` to the file ``out``, or to stdout when it is None."""
    if out:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        print(text, end="")


def _dimension(variant: str, alpha: Optional[float],
               depth: int) -> DimensionEstimate:
    from gasketlab import spectrum

    if variant == "sg":
        return spectrum.spectral_dimension(spectrum.sg_length_spectrum())
    if variant == "stretched":
        value = spectrum.stretched_dimension(alpha)
        return spectrum.DimensionEstimate(value, value, "closed-form")
    return spectrum.kh_dimension_interval(depth)


def _spectrum_scan(variant: str, alpha: Optional[float], depth: int,
                   eps_start: float, rungs: int) -> str:
    """Trace scan CSV along the residue ladder s = 1 + eps_start / 2^k."""
    from gasketlab import spectrum
    from gasketlab.serialize import format_number

    eps = spectrum._ladder_eps(eps_start, rungs)
    if variant == "harmonic":
        est = spectrum.kh_dimension_interval(depth)
        ds = 0.5 * (est.lower + est.upper)
        rows = []
        for e in eps:
            lo, hi = spectrum.kh_trace_interval(ds * (1.0 + e), depth)
            rows.append((1.0 + e, lo, (hi - lo) if np.isfinite(hi) else float("inf")))
    else:
        lengths = (spectrum.sg_length_spectrum() if variant == "sg"
                   else spectrum.stretched_length_spectrum(alpha))
        ds = lengths.abscissa
        rows = [(1.0 + e, spectrum.spectrum_trace(lengths, ds * (1.0 + e)), 0.0)
                for e in eps]
    lines = ["s,trace,tail_bound,residue_running"]
    for s, trace, tail in rows:
        lines.append(",".join([
            format_number(s), format_number(trace), format_number(tail),
            format_number((s - 1.0) * trace),
        ]))
    return "\n".join(lines) + "\n"


def _measure_csv(family: str, functions, alpha: Optional[float], stages) -> str:
    """Functional values, one row per (test function, stage).

    ``functions`` holds (parsed function, its source text) pairs.
    """
    from gasketlab import measure
    from gasketlab.serialize import format_number

    lines = ["n,functional,f_expr,value"]
    for f, text in functions:
        for n in stages:
            value = measure.functional_sample(family, n, alpha)(f)
            lines.append(f"{n},{family},{text},{format_number(value)}")
    return "\n".join(lines) + "\n"


def _spread_json(d: float, length: int) -> str:
    import json

    from gasketlab import measure

    report = measure.selfaffine_mass_spread(d, length)
    return json.dumps({"L": report.L, "d": report.d, "min": report.min,
                       "max": report.max, "ratio": report.ratio}) + "\n"


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------


def cmd_build(args) -> int:
    from gasketlab.serialize import write_model

    alpha = _require_alpha(args)
    model = build_model(args.variant, args.level, alpha,
                        harmonic_depth=args.depth)
    write_model(model, args.out)
    if args.svg:
        from gasketlab import svg

        svg.emit_svg(model, args.svg)
    return 0


def cmd_dimension(args) -> int:
    from gasketlab.serialize import format_number

    alpha = _require_alpha(args)
    if np.isnan(args.tol):         # the bisection compares widths to it: never true
        raise UsageError("--tol nan: the bracket tolerance must be a number")
    est = _dimension(args.variant, alpha, args.depth)
    if args.variant == "harmonic":
        print(f"{format_number(est.lower)},{format_number(est.upper)}")
        return 0
    print(format_number(est.lower))
    if args.variant == "stretched" and args.bracket:
        from gasketlab import spectrum

        lo, hi = spectrum.abscissa_bracket(
            spectrum.stretched_length_spectrum(alpha), tol=args.tol
        )
        print(f"bracket,{format_number(lo)},{format_number(hi)}")
    return 0


def cmd_spectrum(args) -> int:
    alpha = _require_alpha(args)
    if args.rungs < 1:
        raise UsageError(f"--rungs {args.rungs}: the scan needs at least 1 rung")
    if not 0.0 < args.eps_start < np.inf:
        raise UsageError(f"--eps-start {args.eps_start}: must be finite and positive")
    _emit(_spectrum_scan(args.variant, alpha, args.depth, args.eps_start,
                         args.rungs), args.out)
    return 0


def cmd_distance(args) -> int:
    import json

    from gasketlab import metric
    from gasketlab.serialize import format_number

    alpha = _require_alpha(args)
    if args.variant == "harmonic":
        raise UsageError("distance supports the sg and stretched variants")
    model = build_model(args.variant, args.level, alpha)
    result = metric.geodesic(model, _parse_point(args.src), _parse_point(args.dst))
    print(f"{format_number(result.distance)},{result.level},"
          f"{format_number(result.error_bar)}")
    if args.path_out:
        with open(args.path_out, "w", encoding="ascii") as fh:
            json.dump(list(result.path), fh)
            fh.write("\n")
    return 0


def cmd_measure(args) -> int:
    from gasketlab.expr import TestFunction

    f = TestFunction.parse(args.f)
    if args.n_min < 0:
        raise UsageError(f"--n-min {args.n_min}: stages start at 0")
    if args.family == "stretched-joining":
        if args.alpha is None:
            raise UsageError("--alpha is required for stretched-joining")
        n_min = max(args.n_min, 1)
    else:
        if args.alpha is not None:
            raise UsageError(f"--alpha does not apply to {args.family}")
        n_min = args.n_min
    if args.n < n_min:
        raise UsageError(f"no stages from --n-min {args.n_min} to --n {args.n}"
                         + (" (stretched-joining starts at stage 1)"
                            if n_min > args.n_min else ""))
    _emit(_measure_csv(args.family, [(f, args.f)], args.alpha,
                       range(n_min, args.n + 1)), args.out)
    return 0


def cmd_compare(args) -> int:
    _emit(_spread_json(args.d, args.length), args.out)
    return 0


def cmd_report(args) -> int:
    from gasketlab import svg
    from gasketlab.serialize import format_number, write_model

    alpha = _require_alpha(args)
    os.makedirs(args.out_dir, exist_ok=True)

    def path(name: str) -> str:
        return os.path.join(args.out_dir, name)

    model = build_model(args.variant, args.level, alpha,
                        harmonic_depth=args.depth)
    write_model(model, path("model.json"))
    svg.emit_svg(model, path("model.svg"))

    est = _dimension(args.variant, alpha, args.depth)
    _emit(f"variant,lower,upper\n{args.variant},{format_number(est.lower)},"
          f"{format_number(est.upper)}\n", path("dimension.csv"))
    _emit(_spectrum_scan(args.variant, alpha, args.depth, 0.1, 8),
          path("spectrum_scan.csv"))

    if args.variant == "stretched":
        from gasketlab.expr import TestFunction

        functions = [(TestFunction.parse(text), text)
                     for text in ("1", "x", "y", "x^2", "x*y")]
        _emit(_measure_csv("stretched-joining", functions, alpha, (2, 4, 6)),
              path("measures.csv"))
    if args.variant == "harmonic":
        _emit(_spread_json(1.5, min(args.level + 2, 6)), path("spread.json"))
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _add_variant(p, include_harmonic: bool = True) -> None:
    choices = ["sg", "stretched"] + (["harmonic"] if include_harmonic else [])
    p.add_argument("--variant", required=True, choices=choices)
    p.add_argument("--alpha", type=float, default=None,
                   help="stretching parameter, required for --variant stretched")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gasketlab",
        description="Sierpinski gasket variants: models, spectra, geodesics, measures",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("build", help="build a model and write its JSON")
    _add_variant(p)
    p.add_argument("--level", type=int, default=3)
    p.add_argument("--depth", type=int, default=4,
                   help="harmonic edge-length subdivision depth")
    p.add_argument("--out", required=True)
    p.add_argument("--svg", default=None, help="also render to this SVG file")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("dimension", help="spectral dimension (value or interval)")
    _add_variant(p)
    p.add_argument("--depth", type=int, default=3,
                   help="harmonic truncation depth")
    p.add_argument("--bracket", action="store_true",
                   help="also print the independent growth bracket")
    p.add_argument("--tol", type=float, default=1e-6,
                   help="bracket bisection tolerance")
    p.set_defaults(func=cmd_dimension)

    p = sub.add_parser("spectrum", help="trace scan along the residue ladder")
    _add_variant(p)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--eps-start", type=float, default=0.1)
    p.add_argument("--rungs", type=int, default=8)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("distance", help="geodesic distance between two points")
    _add_variant(p, include_harmonic=False)
    p.add_argument("--from", dest="src", required=True, metavar="X,Y")
    p.add_argument("--to", dest="dst", required=True, metavar="X,Y")
    p.add_argument("--level", type=int, default=3)
    p.add_argument("--path-out", default=None,
                   help="write the node-id path as JSON")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("measure", help="evaluate a discrete measure functional")
    p.add_argument("--family", required=True,
                   choices=["sg-midpoints", "harmonic-midpoints",
                            "stretched-joining"])
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--f", required=True, help="test function, e.g. 'x^2 + 3*y'")
    p.add_argument("--n", type=int, required=True, help="largest stage")
    p.add_argument("--n-min", type=int, default=0, help="smallest stage")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("compare",
                       help="norm-power vs self-affine cell-mass spread")
    p.add_argument("--d", type=float, required=True,
                   help="trial Hausdorff dimension")
    p.add_argument("--length", type=int, required=True, help="word length")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("report", help="write a bundle of artifacts")
    _add_variant(p)
    p.add_argument("--level", type=int, default=3)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except GasketError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
