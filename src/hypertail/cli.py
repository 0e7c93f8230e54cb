"""Command-line interface.

Every subcommand prints one output record in text, JSON, or CSV form
(--format, or the HYPERTAIL_FORMAT environment variable).  A record
echoes the parsed inputs, reports results as decimal strings at the
requested significant-digit precision (--digits), tags them with the
formula or family that produced them, and lists any warnings.  JSON
records validate against schemas/output_record.schema.json.  Handlers
return the library's values, with strings only for what must not be
rounded (exact rationals, n_required); `run` renders every number.

Options are declared once: `_OPTIONS` holds each option's argparse
settings, and `_COMMANDS` lists each subcommand's handler, help text
and option names in the order its record echoes them.  The parser and
the input echo are both built from that table.

Half-widths (--halfwidth) are absolute counts of population
individuals; --halfwidth-percent converts a percentage of N instead.
Deviations (--deviation) are absolute counts of sampled individuals.
Both, and --delta, are read as exact decimals ("0.1" is 1/10): the
bound subcommand's deviation fraction t = deviation / samples is an
exact ratio, a percentage half-width percent * N / 100 is rounded to
float once, inside the library, and the library decides the sign of a
value before rounding it.  A decimal beyond the float range is
rejected, as the library needs every real to have a finite float.

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


def _prob_results(res: exact.ExactProb):
    results = {"probability": res.value}
    if res.is_exact:
        results["probability_exact"] = str(res.value)
    results["log_probability"] = res.log_value
    labels = {"mode": "rational" if res.is_exact else "log"}
    return results, labels, []


_INTERVAL_FIELDS = (
    "estimate", "halfwidth", "delta", "lower", "upper", "clamped_lower", "clamped_upper"
)


def _interval_results(r: inference.IntervalResult, prefix: str = ""):
    results = {prefix + name: getattr(r, name) for name in _INTERVAL_FIELDS}
    if not prefix:
        results["estimate_exact"] = str(r.estimate)
    return results


def _decimal(text: str) -> Fraction:
    """A finite decimal read exactly: "0.1" is 1/10, not the float above it."""
    try:
        value, exact = float(text), Fraction(text)  # float() also rejects "1/3"
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a finite decimal: {text!r}") from None
    if math.isinf(value):
        raise argparse.ArgumentTypeError(
            f"{text!r} lies beyond the float range (about 1.8e308) the record echoes it in"
        )
    return exact


def _halfwidth(args) -> Fraction:
    if args.halfwidth is not None:
        return args.halfwidth
    return args.halfwidth_percent * args.population / 100


def _cmd_pmf(args):
    res = exact.pmf(
        (args.population, args.positives), args.samples, args.observed, mode=args.mode
    )
    return _prob_results(res)


def _cmd_tail(args):
    op = exact.lower_tail if args.side == "lower" else exact.upper_tail
    res = op((args.population, args.positives), args.samples, args.threshold, mode=args.mode)
    results, labels, warnings = _prob_results(res)
    labels["side"] = args.side
    return results, labels, warnings


def _cmd_deviation(args):
    res = exact.two_sided_exact(
        (args.population, args.positives), args.samples, args.deviation, mode=args.mode
    )
    return _prob_results(res)


def _cmd_bound(args):
    check_range(args.samples, "samples", 1)
    t = args.deviation / args.samples
    family = bounds.BoundFamily(args.family)
    bound = bounds.concentration_bound if args.two_sided else bounds.tail_bound
    res = bound(args.population, args.samples, t, family, M=args.positives)
    results = {"value": res.value, "exponent": res.exponent, "fraction": t}
    labels = {
        "family": res.family_used.value,
        "two_sided": "true" if res.two_sided else "false",
    }
    warnings = []
    if res.value >= 1.0:
        warnings.append("bound is vacuous (clamped to 1)")
    return results, labels, warnings


def _clamp_warnings(r: inference.IntervalResult) -> list:
    warnings = []
    if r.clamped_lower != r.lower or r.clamped_upper != r.upper:
        warnings.append("interval clamped to [0, N]")
    if r.vacuous:
        warnings.append("confidence bound is vacuous (delta clamped to 1)")
    return warnings


def _cmd_ci(args):
    r = inference.halfwidth_for_confidence(
        args.population, args.samples, args.observed, args.delta
    )
    results = _interval_results(r)
    labels = {"formula": r.formula}
    if args.compare:
        legacy = inference.b1_halfwidth_for_confidence(
            args.population, args.samples, args.observed, args.delta
        )
        results.update(_interval_results(legacy, prefix="legacy_"))
        labels["legacy_formula"] = legacy.formula
    return results, labels, _clamp_warnings(r)


def _cmd_confidence(args):
    c = _halfwidth(args)
    r = inference.confidence_for_halfwidth(
        args.population, args.samples, args.observed, c
    )
    results = _interval_results(r)
    labels = {"formula": r.formula}
    warnings = _clamp_warnings(r)
    if args.compare:
        legacy = inference.b1_confidence_for_halfwidth(
            args.population, args.samples, args.observed, c
        )
        results["legacy_delta"] = legacy.delta
        labels["legacy_formula"] = legacy.formula
        if legacy.vacuous:
            warnings.append("legacy confidence bound is vacuous (delta clamped to 1)")
    return results, labels, warnings


def _cmd_samplesize(args):
    c = _halfwidth(args)
    r = inference.required_sample_size(args.population, args.delta, c)
    estimate = inference.sample_size_lower_estimate(args.population, args.delta, c)
    results = {
        "n_required": str(r.n_required),
        "n_real": r.n_real,
        "halfwidth": c,
        "x": r.x,
        "y": r.y,
        "regime_boundary": r.regime_boundary,
        "lower_estimate": estimate,
    }
    return results, {"regime": r.regime}, []


def _named(values, flag) -> dict:
    """Repeatable --flag values by their `:g` names, which must differ."""
    values = values or []
    named = {f"{float(v):g}": v for v in values}
    if len(named) < len(values):
        raise DomainError(f"--{flag} values must differ in 6 significant digits")
    return named


def _cmd_simulate(args):
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
        results[f"frequency_{i}"] = freq
    for name, d in deltas.items():
        results[f"coverage_{name}"] = report.empirical_coverage[float(d)]
    for name, t in fractions.items():
        results[f"exceedance_{name}"] = report.tail_exceedance[t]
    return results, {}, []


# argparse settings per option.  An option without a default or an
# action is required, unless its name is marked in _COMMANDS.
_OPTIONS = {
    "population": dict(type=int, help="population size N"),
    "positives": dict(type=int, help="positive count M (bound: needed by kl only)"),
    "samples": dict(type=int, help="sample size n"),
    "observed": dict(type=int, help="observed positives i"),
    "threshold": dict(type=int, help="tail threshold k"),
    "side": dict(choices=("lower", "upper"), help="lower: P[i <= k]; upper: P[i >= k]"),
    "deviation": dict(
        type=_decimal,
        help="absolute deviation from the mean, in sampled individuals "
        "(bound: the fraction is deviation/samples)",
    ),
    "delta": dict(type=_decimal, help="miscoverage in (0,1)"),
    "halfwidth": dict(type=_decimal, help="interval half-width in population individuals"),
    "halfwidth_percent": dict(type=_decimal, help="half-width as a percentage of N"),
    "family": dict(
        choices=[f.value for f in bounds.BoundFamily],
        default="auto",
        help="bound family (auto picks the tighter of b2/b4)",
    ),
    "two_sided": dict(action="store_true", help="bound the two-sided deviation probability"),
    "compare": dict(action="store_true", help="also report the legacy B1 result"),
    "trials": dict(type=int, default=10000, help="number of trials"),
    "seed": dict(type=int, default=0, help="master seed"),
    "mode": dict(
        choices=exact._MODES,
        default="auto",
        help="arithmetic path: exact rationals, log-space, or price-based auto",
    ),
    "format": dict(
        choices=FORMATS,
        default=None,
        help=f"output format (default: ${FORMAT_ENV_VAR} or text)",
    ),
    "digits": dict(
        type=int,
        default=DEFAULT_DIGITS,
        help="significant digits for decimal output (default 6)",
    ),
}

# Subcommand -> (handler, help, options in echo order).  "name?" is
# optional, "name*" repeatable and "a|b" exactly one of a and b.  Every
# subcommand also takes --format and --digits, which are not echoed.
_COMMANDS = {
    "pmf": (_cmd_pmf, "exact probability of observing i positives",
            "population positives samples observed mode"),
    "tail": (_cmd_tail, "exact lower or upper tail probability",
             "population positives samples threshold side mode"),
    "deviation": (_cmd_deviation, "exact probability of deviating from the expected count",
                  "population positives samples deviation mode"),
    "bound": (_cmd_bound, "closed-form tail bound",
              "population positives? samples deviation family two_sided"),
    "ci": (_cmd_ci, "confidence interval half-width for a given delta",
           "population samples observed delta compare"),
    "confidence": (_cmd_confidence, "guaranteed miscoverage delta for a given half-width",
                   "population samples observed compare halfwidth|halfwidth_percent"),
    "samplesize": (_cmd_samplesize, "smallest sample size meeting a half-width target",
                   "population delta halfwidth|halfwidth_percent"),
    "simulate": (_cmd_simulate,
                 "seeded sampling experiment: frequencies, coverage, exceedance",
                 "population positives samples trials seed delta* deviation*"),
}


def _echo(args) -> dict:
    """The record's echo of its inputs: the command's options in table
    order, only the either/or option given, and a decimal as its float
    where that reads back to it, else exactly (repeatable ones as floats)."""
    inputs = {}
    for spec in _COMMANDS[args.command][2].split():
        for name in spec.rstrip("?*").split("|"):
            value = getattr(args, name)
            if spec.endswith("*"):
                inputs[name] = [float(v) for v in value or []]
            elif isinstance(value, Fraction) and Fraction(repr(float(value))) != value:
                d = value.denominator  # 2^a 5^b, a factor of 10^k for k >= max(a, b)
                k = next(k for k in range(d.bit_length()) if 10**k % d == 0)
                inputs[name] = f"{value * 10**k}e-{k}" if k else int(value)
            elif "|" not in spec or value is not None:
                inputs[name] = float(value) if isinstance(value, Fraction) else value
    return inputs


def _add_option(parser, spec: str) -> None:
    if "|" in spec:
        group = parser.add_mutually_exclusive_group(required=True)
        for name in spec.split("|"):
            _add_option(group, name + "?")
        return
    name = spec.rstrip("?*")
    kwargs = dict(_OPTIONS[name])
    if spec.endswith("*"):
        kwargs.update(action="append", help=kwargs["help"] + "; repeatable")
    elif not spec.endswith("?"):
        kwargs["required"] = "default" not in kwargs and "action" not in kwargs
    parser.add_argument("--" + name.replace("_", "-"), **kwargs)


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
    for command, (_, help_text, names) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for spec in names.split() + ["format", "digits"]:
            _add_option(p, spec)
    return parser


def _cell(value, sep: str) -> str:
    """A record value as one cell: lists joined by sep, bools in lower case."""
    if isinstance(value, list):
        return sep.join(str(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _render_text(record) -> str:
    lines = [f"command: {record['command']}"]
    for section in ("inputs", "results", "labels"):
        if section != "labels" or record[section]:
            lines.append(f"{section}:")
            for key, value in record[section].items():
                lines.append(f"  {key} = {_cell(value, ', ')}")
    lines += [f"warning: {warning}" for warning in record["warnings"]]
    return "\n".join(lines) + "\n"


def _render_json(record) -> str:
    return json.dumps(record, indent=2) + "\n"


def _render_csv(record) -> str:
    cells = {"command": record["command"]}
    for section in ("inputs", "results", "labels"):
        for key, value in record[section].items():
            # "input.population", "result.probability", "label.mode", ...
            cells[f"{section[:-1]}.{key}"] = "" if value is None else _cell(value, ";")
    cells["warnings"] = "; ".join(record["warnings"])
    cells["digits"] = str(record["digits"])
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows([cells.keys(), cells.values()])
    return buffer.getvalue()


_RENDERERS = {"text": _render_text, "json": _render_json, "csv": _render_csv}


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
        results, labels, warnings = _COMMANDS[args.command][0](args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record = {
        "command": args.command,
        "inputs": _echo(args),
        "results": {
            key: v if isinstance(v, str) else f"{float(v):.{args.digits}g}"
            for key, v in results.items()
        },
        "labels": labels,
        "warnings": warnings,
        "digits": args.digits,
    }
    sys.stdout.write(_RENDERERS[fmt](record))
    return 0


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
