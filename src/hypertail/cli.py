"""Command-line interface.

Every subcommand prints one output record in text, JSON, or CSV form
(--format, or the HYPERTAIL_FORMAT environment variable).  A record
echoes the parsed inputs, reports results as decimal strings at the
requested significant-digit precision (--digits), tags them with the
formula or family that produced them, and lists any warnings.  JSON
records validate against schemas/output_record.schema.json.

Half-widths (--halfwidth) are absolute counts of population
individuals; --halfwidth-percent converts a percentage of N instead.
Deviations (--deviation) are absolute counts of sampled individuals,
read as exact decimals ("0.1" is 1/10), so the bound subcommand's
deviation fraction t = deviation / samples is an exact ratio.

Exit codes: 0 on success, 2 on a domain or usage error with a
diagnostic naming the violated constraint.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from fractions import Fraction

from . import bounds, exact, inference, montecarlo
from ._validation import check_range
from .errors import DomainError

FORMATS = ("text", "json", "csv")
FORMAT_ENV_VAR = "HYPERTAIL_FORMAT"
DEFAULT_DIGITS = 6


def _fmt(value, digits: int) -> str:
    if isinstance(value, Fraction):
        value = float(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return f"{value:.{digits}g}"


def _record(command, inputs, results, labels, warnings, digits):
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "labels": labels,
        "warnings": warnings,
        "digits": digits,
    }


def _prob_results(res: exact.ExactProb, digits: int):
    results = {"probability": _fmt(float(res), digits)}
    if res.is_exact:
        results["probability_exact"] = str(res.value)
    results["log_probability"] = _fmt(res.log_value, digits)
    labels = {"mode": "rational" if res.is_exact else "log"}
    return results, labels


def _interval_results(r: inference.IntervalResult, digits: int, prefix: str = ""):
    results = {
        prefix + "estimate": _fmt(r.estimate, digits),
        prefix + "halfwidth": _fmt(r.halfwidth, digits),
        prefix + "delta": _fmt(r.delta, digits),
        prefix + "lower": _fmt(r.lower, digits),
        prefix + "upper": _fmt(r.upper, digits),
        prefix + "clamped_lower": _fmt(r.clamped_lower, digits),
        prefix + "clamped_upper": _fmt(r.clamped_upper, digits),
    }
    if not prefix:
        results["estimate_exact"] = str(r.estimate)
    return results


def _echo(args, *names) -> dict:
    """The named arguments, in order: the record's echo of its inputs."""
    return {name: getattr(args, name) for name in names}


def _decimal(text: str) -> Fraction:
    """A finite decimal read exactly: "0.1" is 1/10, not the float above it."""
    try:
        if math.isfinite(float(text)):
            return Fraction(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not a finite decimal: {text!r}")


def _resolve_halfwidth(args) -> float:
    if args.halfwidth is not None:
        return args.halfwidth
    return args.halfwidth_percent * args.population / 100.0


def _halfwidth_inputs(args) -> dict:
    if args.halfwidth is not None:
        return {"halfwidth": args.halfwidth}
    return {"halfwidth_percent": args.halfwidth_percent}


def _cmd_pmf(args, digits):
    res = exact.pmf(
        (args.population, args.positives), args.samples, args.observed, mode=args.mode
    )
    results, labels = _prob_results(res, digits)
    inputs = _echo(args, "population", "positives", "samples", "observed", "mode")
    return _record("pmf", inputs, results, labels, [], digits)


def _cmd_tail(args, digits):
    op = exact.lower_tail if args.side == "lower" else exact.upper_tail
    res = op((args.population, args.positives), args.samples, args.threshold, mode=args.mode)
    results, labels = _prob_results(res, digits)
    labels["side"] = args.side
    inputs = _echo(
        args, "population", "positives", "samples", "threshold", "side", "mode"
    )
    return _record("tail", inputs, results, labels, [], digits)


def _cmd_deviation(args, digits):
    res = exact.two_sided_exact(
        (args.population, args.positives), args.samples, args.deviation, mode=args.mode
    )
    results, labels = _prob_results(res, digits)
    inputs = _echo(args, "population", "positives", "samples", "deviation", "mode")
    inputs["deviation"] = float(args.deviation)
    return _record("deviation", inputs, results, labels, [], digits)


def _cmd_bound(args, digits):
    check_range(args.samples, "samples", 1)
    t = args.deviation / args.samples
    family = bounds.BoundFamily(args.family)
    bound = bounds.concentration_bound if args.two_sided else bounds.tail_bound
    res = bound(args.population, args.samples, t, family, M=args.positives)
    results = {
        "value": _fmt(res.value, digits),
        "exponent": _fmt(res.exponent, digits),
        "fraction": _fmt(t, digits),
    }
    labels = {
        "family": res.family_used.value,
        "two_sided": "true" if res.two_sided else "false",
    }
    warnings = []
    if res.value >= 1.0:
        warnings.append("bound is vacuous (clamped to 1)")
    inputs = _echo(
        args, "population", "positives", "samples", "deviation", "family", "two_sided"
    )
    inputs["deviation"] = float(args.deviation)
    return _record("bound", inputs, results, labels, warnings, digits)


def _clamp_warnings(r: inference.IntervalResult) -> list:
    warnings = []
    if r.clamped_lower != r.lower or r.clamped_upper != r.upper:
        warnings.append("interval clamped to [0, N]")
    if r.vacuous:
        warnings.append("confidence bound is vacuous (delta clamped to 1)")
    return warnings


def _cmd_ci(args, digits):
    r = inference.halfwidth_for_confidence(
        args.population, args.samples, args.observed, args.delta
    )
    results = _interval_results(r, digits)
    labels = {"formula": r.formula}
    warnings = _clamp_warnings(r)
    if args.compare:
        legacy = inference.b1_halfwidth_for_confidence(
            args.population, args.samples, args.observed, args.delta
        )
        results.update(_interval_results(legacy, digits, prefix="legacy_"))
        labels["legacy_formula"] = legacy.formula
    inputs = _echo(args, "population", "samples", "observed", "delta", "compare")
    return _record("ci", inputs, results, labels, warnings, digits)


def _cmd_confidence(args, digits):
    c = _resolve_halfwidth(args)
    r = inference.confidence_for_halfwidth(
        args.population, args.samples, args.observed, c
    )
    results = _interval_results(r, digits)
    labels = {"formula": r.formula}
    warnings = _clamp_warnings(r)
    if args.compare:
        legacy = inference.b1_confidence_for_halfwidth(
            args.population, args.samples, args.observed, c
        )
        results["legacy_delta"] = _fmt(legacy.delta, digits)
        labels["legacy_formula"] = legacy.formula
        if legacy.vacuous:
            warnings.append("legacy confidence bound is vacuous (delta clamped to 1)")
    inputs = _echo(args, "population", "samples", "observed", "compare")
    inputs.update(_halfwidth_inputs(args))
    return _record("confidence", inputs, results, labels, warnings, digits)


def _cmd_samplesize(args, digits):
    c = _resolve_halfwidth(args)
    r = inference.required_sample_size(args.population, args.delta, c)
    estimate = inference.sample_size_lower_estimate(args.population, args.delta, c)
    results = {
        "n_required": str(r.n_required),
        "n_real": _fmt(r.n_real, digits),
        "halfwidth": _fmt(c, digits),
        "x": _fmt(r.x, digits),
        "y": _fmt(r.y, digits),
        "regime_boundary": _fmt(r.regime_boundary, digits),
        "lower_estimate": _fmt(estimate, digits),
    }
    labels = {"regime": r.regime}
    inputs = _echo(args, "population", "delta")
    inputs.update(_halfwidth_inputs(args))
    return _record("samplesize", inputs, results, labels, [], digits)


def _named(values, flag) -> dict:
    """Repeatable --flag values by their `:g` names, which must differ."""
    values = values or []
    named = {f"{float(v):g}": v for v in values}
    if len(named) < len(values):
        raise DomainError(f"--{flag} values must differ in 6 significant digits")
    return named


def _cmd_simulate(args, digits):
    deltas = _named(args.delta, "delta")
    deviations = _named(args.deviation, "deviation")
    check_range(args.samples, "samples", 1)
    fractions = {name: d / args.samples for name, d in deviations.items()}
    report = montecarlo.coverage_experiment(
        args.population,
        args.positives,
        args.samples,
        list(deltas.values()),
        args.trials,
        args.seed,
        deviations=list(fractions.values()),
    )
    results = {}
    for i, freq in sorted(report.empirical_pmf.items()):
        results[f"frequency_{i}"] = _fmt(freq, digits)
    for name, d in deltas.items():
        results[f"coverage_{name}"] = _fmt(report.empirical_coverage[d], digits)
    for name, t in fractions.items():
        results[f"exceedance_{name}"] = _fmt(report.tail_exceedance[t], digits)
    inputs = _echo(args, "population", "positives", "samples", "trials", "seed")
    inputs["delta"] = list(deltas.values())
    inputs["deviation"] = [float(d) for d in deviations.values()]
    return _record("simulate", inputs, results, {}, [], digits)


_HANDLERS = {
    "pmf": _cmd_pmf,
    "tail": _cmd_tail,
    "deviation": _cmd_deviation,
    "bound": _cmd_bound,
    "ci": _cmd_ci,
    "confidence": _cmd_confidence,
    "samplesize": _cmd_samplesize,
    "simulate": _cmd_simulate,
}


def _render_text(record) -> str:
    lines = [f"command: {record['command']}"]
    lines.append("inputs:")
    for key, value in record["inputs"].items():
        if isinstance(value, list):
            value = ", ".join(str(v) for v in value)
        elif isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"  {key} = {value}")
    lines.append("results:")
    for key, value in record["results"].items():
        lines.append(f"  {key} = {value}")
    if record["labels"]:
        lines.append("labels:")
        for key, value in record["labels"].items():
            lines.append(f"  {key} = {value}")
    for warning in record["warnings"]:
        lines.append(f"warning: {warning}")
    return "\n".join(lines) + "\n"


def _render_json(record) -> str:
    return json.dumps(record, indent=2) + "\n"


def _render_csv(record) -> str:
    header = ["command"]
    row = [record["command"]]
    for key, value in record["inputs"].items():
        header.append(f"input.{key}")
        if isinstance(value, list):
            value = ";".join(str(v) for v in value)
        elif isinstance(value, bool):
            value = "true" if value else "false"
        row.append("" if value is None else str(value))
    for key, value in record["results"].items():
        header.append(f"result.{key}")
        row.append(value)
    for key, value in record["labels"].items():
        header.append(f"label.{key}")
        row.append(value)
    header.append("warnings")
    row.append("; ".join(record["warnings"]))
    header.append("digits")
    row.append(str(record["digits"]))
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerow(row)
    return buffer.getvalue()


_RENDERERS = {"text": _render_text, "json": _render_json, "csv": _render_csv}


def _add_output_options(parser):
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default=None,
        help=f"output format (default: ${FORMAT_ENV_VAR} or text)",
    )
    parser.add_argument(
        "--digits",
        type=int,
        default=DEFAULT_DIGITS,
        help="significant digits for decimal output (default 6)",
    )


def _add_mode_option(parser):
    parser.add_argument(
        "--mode",
        choices=("auto", "rational", "log"),
        default="auto",
        help="arithmetic path: exact rationals, log-space, or size-based auto",
    )


def _add_halfwidth_options(parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--halfwidth", type=float, help="interval half-width in population individuals"
    )
    group.add_argument(
        "--halfwidth-percent", type=float, help="half-width as a percentage of N"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypertail",
        description=(
            "Exact hypergeometric tail probabilities, finite-population "
            "concentration bounds, and confidence intervals for the number "
            "of positives in a population sampled without replacement."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pmf", help="exact probability of observing i positives")
    p.add_argument("--population", type=int, required=True, help="population size N")
    p.add_argument("--positives", type=int, required=True, help="positive count M")
    p.add_argument("--samples", type=int, required=True, help="sample size n")
    p.add_argument("--observed", type=int, required=True, help="observed positives i")
    _add_mode_option(p)
    _add_output_options(p)

    p = sub.add_parser("tail", help="exact lower or upper tail probability")
    p.add_argument("--population", type=int, required=True, help="population size N")
    p.add_argument("--positives", type=int, required=True, help="positive count M")
    p.add_argument("--samples", type=int, required=True, help="sample size n")
    p.add_argument("--threshold", type=int, required=True, help="tail threshold k")
    p.add_argument(
        "--side",
        choices=("lower", "upper"),
        required=True,
        help="lower: P[i <= k]; upper: P[i >= k]",
    )
    _add_mode_option(p)
    _add_output_options(p)

    p = sub.add_parser(
        "deviation", help="exact probability of deviating from the expected count"
    )
    p.add_argument("--population", type=int, required=True, help="population size N")
    p.add_argument("--positives", type=int, required=True, help="positive count M")
    p.add_argument("--samples", type=int, required=True, help="sample size n")
    p.add_argument(
        "--deviation",
        type=_decimal,
        required=True,
        help="absolute deviation c from the mean, in sampled individuals",
    )
    _add_mode_option(p)
    _add_output_options(p)

    p = sub.add_parser("bound", help="closed-form tail bound")
    p.add_argument("--population", type=int, required=True, help="population size N")
    p.add_argument(
        "--positives", type=int, default=None, help="positive count M (kl family only)"
    )
    p.add_argument("--samples", type=int, required=True, help="sample size n")
    p.add_argument(
        "--deviation",
        type=_decimal,
        required=True,
        help="deviation in sampled individuals; the fraction is deviation/samples",
    )
    p.add_argument(
        "--family",
        choices=[f.value for f in bounds.BoundFamily],
        default="auto",
        help="bound family (auto picks the tighter of b2/b4)",
    )
    p.add_argument(
        "--two-sided",
        action="store_true",
        help="bound the two-sided deviation probability",
    )
    _add_output_options(p)

    p = sub.add_parser("ci", help="confidence interval half-width for a given delta")
    p.add_argument("--population", type=int, required=True, help="population size N")
    p.add_argument("--samples", type=int, required=True, help="sample size n")
    p.add_argument("--observed", type=int, required=True, help="observed positives i")
    p.add_argument("--delta", type=float, required=True, help="miscoverage in (0,1)")
    p.add_argument(
        "--compare", action="store_true", help="also report the legacy B1 interval"
    )
    _add_output_options(p)

    p = sub.add_parser(
        "confidence", help="guaranteed miscoverage delta for a given half-width"
    )
    p.add_argument("--population", type=int, required=True, help="population size N")
    p.add_argument("--samples", type=int, required=True, help="sample size n")
    p.add_argument("--observed", type=int, required=True, help="observed positives i")
    _add_halfwidth_options(p)
    p.add_argument(
        "--compare", action="store_true", help="also report the legacy B1 delta"
    )
    _add_output_options(p)

    p = sub.add_parser(
        "samplesize", help="smallest sample size meeting a half-width target"
    )
    p.add_argument("--population", type=int, required=True, help="population size N")
    p.add_argument("--delta", type=float, required=True, help="miscoverage in (0,1)")
    _add_halfwidth_options(p)
    _add_output_options(p)

    p = sub.add_parser(
        "simulate", help="seeded sampling experiment: frequencies, coverage, exceedance"
    )
    p.add_argument("--population", type=int, required=True, help="population size N")
    p.add_argument("--positives", type=int, required=True, help="positive count M")
    p.add_argument("--samples", type=int, required=True, help="sample size n")
    p.add_argument("--trials", type=int, default=10000, help="number of trials")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument(
        "--delta",
        type=float,
        action="append",
        help="miscoverage to check interval coverage for (repeatable)",
    )
    p.add_argument(
        "--deviation",
        type=_decimal,
        action="append",
        help="deviation in sampled individuals to tally exceedance for (repeatable)",
    )
    _add_output_options(p)

    return parser


def run(argv=None) -> int:
    """Parse argv, execute one subcommand, print one record.

    Returns 0 on success and 2 on usage or domain errors.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    fmt = args.format or os.environ.get(FORMAT_ENV_VAR) or "text"
    if fmt not in FORMATS:
        print(
            f"error: output format must be one of {', '.join(FORMATS)}, got {fmt!r}"
            f" (check ${FORMAT_ENV_VAR})",
            file=sys.stderr,
        )
        return 2
    try:
        if args.digits < 1 or args.digits > 17:
            raise DomainError(f"digits must lie in 1..17, got {args.digits}")
        record = _HANDLERS[args.command](args, args.digits)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(_RENDERERS[fmt](record))
    return 0


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
