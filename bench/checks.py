"""Checks of the program's answers against `refs` and required properties.

Each check takes an operation and the plain form of what the program
returned (see `worker.plain`) and gives None when the answer is right,
or a one-line reason when it is not.  Nothing here imports `hypertail`.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

import jsonschema
from mpmath import mp, mpf

import refs

LOG_REL = 1e-12  # the log path's promised relative error
CLOSED_REL = 1e-12  # closed forms, per unit of |exponent|
# n D(p + t || p) is a difference of two terms each about n t in size;
# in doubles it keeps an absolute error of a few ulps per draw (1.6e-16
# per draw seen at n = 10^5, t = 0.005).
KL_SLACK_PER_DRAW = 1e-14
CLI_REL = 1e-11  # results printed with --digits 12
SUBNORMAL_SLACK = 1e-322  # about 20 steps of the smallest subnormal double
Z = 6.0  # standard errors allowed for a simulated frequency
SLACK = 3  # counts allowed on top, for cells with tiny expectations


def _mp(x):
    return refs.as_mpf(x) if isinstance(x, Fraction) else mpf(x)


def _rel(value, ref, scale=1) -> float:
    """|value - ref| / |ref|, or |value| / scale when ref is 0."""
    with mp.workdps(refs.DPS):
        value, ref = _mp(value), _mp(ref)
        if ref == 0:
            return 0.0 if value == 0 else float(abs(value) / scale)
        if mp.isinf(ref):
            return 0.0 if value == ref else math.inf
        if abs(ref) < sys.float_info.min and abs(value - ref) <= SUBNORMAL_SLACK:
            return 0.0  # below the normal doubles, only absolute error is kept
        return float(abs(value - ref) / abs(ref))


def _exp_err(value, ref) -> float:
    """Error of an exponent: relative beyond 1, absolute below."""
    with mp.workdps(refs.DPS):
        if mp.isinf(ref) or math.isinf(value):
            return 0.0 if mpf(value) == ref else math.inf
        return float(abs(mpf(value) - ref) / max(1, abs(ref)))


def _fail(errors) -> str | None:
    return "; ".join(errors) if errors else None


# --- exact ---------------------------------------------------------------------


def exact_reference(call: str, N: int, M: int, n: int, x):
    """A Fraction by brute force for N <= 10^4, else a 40-digit mpf."""
    small = N <= 10_000
    if call == "pmf":
        return refs.exact_pmf(N, M, n, x) if small else refs.mp_pmf(N, M, n, x)
    if call == "lower_tail":
        return refs.exact_lower(N, M, n, x) if small else refs.mp_lower(N, M, n, x)
    if call == "upper_tail":
        return refs.exact_upper(N, M, n, x) if small else refs.mp_upper(N, M, n, x)
    c = Fraction(x)
    return refs.exact_deviation(N, M, n, c) if small else refs.mp_deviation(N, M, n, c)


def check_exact(op, r) -> str | None:
    (N, M), n, x = op.args
    ref = exact_reference(op.call, N, M, n, x)
    value = r["value"]
    if isinstance(value, Fraction):
        if isinstance(ref, Fraction):
            return None if value == ref else "rational result differs from the brute-force sum"
        err = _rel(value, ref)
        return None if err <= 1e-35 else f"rational result off by {err:.1e} relative"
    errors = []
    err = _rel(value, ref)
    if err > LOG_REL:
        errors.append(f"relative error {err:.2e} > {LOG_REL:g}")
    with mp.workdps(refs.DPS):
        log_ref = mp.log(ref) if ref > 0 else mp.ninf
    if _exp_err(r["log_value"], log_ref) > LOG_REL:
        errors.append(f"log_value {r['log_value']!r} vs {mp.nstr(log_ref, 17)}")
    return _fail(errors)


# --- bounds --------------------------------------------------------------------


def _bound_reference(op):
    """(N, n, t, family_used, exponent, two_sided, M or None)."""
    call, a = op.call, op.args
    if call == "kl_upper_tail_bound":
        (N, M), n, t = a
        return N, n, t, "kl", refs.bound_exponent("kl", N, n, t, M), False, M
    if call == "b1_tail":
        n, t = a
        return op.expect.get("N"), n, t, "b1", refs.bound_exponent("b1", None, n, t), False, None
    if call in ("b2_tail", "b3_tail", "b4_tail"):
        N, n, t = a
        family = call[:2]
        return N, n, t, family, refs.bound_exponent(family, N, n, t), False, None
    if call == "best_bound":
        N, n, t = a
        return (N, n, t) + _best(N, n, t) + (False, None)
    N, n, t, family = a[:4]
    family = family.value
    M = a[4] if len(a) > 4 else None
    if family == "kl":
        return N, n, t, "kl", refs.kl_two_sided_exponent(N, n, t, M), True, M
    if family == "auto":
        return (N, n, t) + _best(N, n, t) + (True, None)
    return N, n, t, family, refs.bound_exponent(family, N, n, t), True, None


def _best(N, n, t):
    two = refs.bound_exponent("b2", N, n, t)
    if n == N:
        return "b2", two
    return refs.best_family(N, n), min(two, refs.bound_exponent("b4", N, n, t))


def _event_probabilities(N, M, n, t):
    """Exact P[i - nM/N >= tn] and P[nM/N - i >= tn]."""
    mean, dev = Fraction(n * M, N), Fraction(t) * n
    up = refs.exact_upper(N, M, n, math.ceil(mean + dev))
    down = refs.exact_lower(N, M, n, math.floor(mean - dev))
    return up, down


def check_bound(op, r) -> str | None:
    N, n, t, family, exponent, two_sided, M = _bound_reference(op)
    errors = []
    if r["family_used"] != family:
        errors.append(f"family {r['family_used']} != {family}")
    if r["two_sided"] != two_sided:
        errors.append(f"two_sided {r['two_sided']} != {two_sided}")
    with mp.workdps(refs.DPS):
        exponent = min(0, exponent)
        value = refs.clamp_value(exponent, two_sided)
        # The error allowed in the exponent, and so in the value, relatively.
        slack = 0 if exponent == mp.ninf else CLOSED_REL * max(1, -exponent)
        if family == "kl" and slack:
            slack += KL_SLACK_PER_DRAW * n
        if abs(mpf(r["exponent"]) - exponent) > slack and r["exponent"] != exponent:
            errors.append(f"exponent {r['exponent']!r} vs {mp.nstr(exponent, 17)}")
        if _rel(r["value"], value) > slack:
            errors.append(f"value {r['value']!r} vs {mp.nstr(value, 17)}")
        b1 = refs.clamp_value(refs.bound_exponent("b1", N, n, t), two_sided)
        if family in ("kl", "b2") and r["value"] > b1 * (1 + CLOSED_REL):
            errors.append(f"{family} bound {r['value']!r} exceeds B1 {mp.nstr(b1, 17)}")
    small_M = op.expect.get("M", M)
    if "M" in op.expect and small_M is not None:
        N = N if N is not None else op.expect["N"]
        up, down = _event_probabilities(N, small_M, n, t)
        exact = up + down if two_sided else (up if family == "kl" else max(up, down))
        if exact > Fraction(r["value"]) * (1 + Fraction(1, 10**12)):
            errors.append(f"exact tail {float(exact)!r} exceeds the bound {r['value']!r}")
    return _fail(errors)


# --- inference -----------------------------------------------------------------


def check_interval(op, r) -> str | None:
    N, n, i, x = op.args
    legacy = op.call.startswith("b1_")
    estimate = Fraction(i * N, n)
    errors = []
    if r["estimate"] != estimate:
        errors.append(f"estimate {r['estimate']} != iN/n = {estimate}")
    with mp.workdps(refs.DPS):
        if "halfwidth_for_confidence" in op.call:
            halfwidth = refs.interval_halfwidth(N, n, x, legacy)
            delta, vacuous = mpf(x), False
            formula = "B1" if legacy else refs.interval_formula(N, n, "c")
            if _rel(r["halfwidth"], halfwidth, scale=N) > CLOSED_REL:
                errors.append(f"halfwidth {r['halfwidth']!r} vs {mp.nstr(halfwidth, 17)}")
            if r["delta"] != x:
                errors.append(f"delta {r['delta']!r} != {x!r}")
        else:
            halfwidth = refs.as_mpf(x)
            raw = refs.interval_delta(N, n, x, legacy)
            delta, vacuous = min(mpf(1), raw), raw >= 1
            formula = "B1" if legacy else refs.interval_formula(N, n, "d")
            if r["halfwidth"] != x:
                errors.append(f"halfwidth {r['halfwidth']!r} != {x!r}")
            scale = max(1, -mp.log(raw / 2)) if raw > 0 else 1
            if _rel(r["delta"], delta) > CLOSED_REL * scale:
                errors.append(f"delta {r['delta']!r} vs {mp.nstr(delta, 17)}")
            target = op.expect.get("inverts")
            if target is not None and _rel(r["delta"], target) > 1e-10:
                errors.append(f"D does not invert C: delta {r['delta']!r} != {target!r}")
        if r["formula"] != formula:
            errors.append(f"formula {r['formula']} != {formula}")
        if r["vacuous"] != vacuous or r["legacy"] != legacy:
            errors.append("vacuous/legacy flags wrong")
        est = refs.as_mpf(estimate)
        for key, ref in (("lower", est - halfwidth), ("upper", est + halfwidth)):
            clamped = min(max(ref, 0), N)
            for name, want in ((key, ref), ("clamped_" + key, clamped)):
                if abs(r[name] - want) > 1e-9 * max(1, abs(want)):
                    errors.append(f"{name} {r[name]!r} vs {mp.nstr(want, 17)}")
    if "halfwidth_2dp" in op.expect and abs(r["halfwidth"] - op.expect["halfwidth_2dp"]) > 0.005:
        errors.append(f"halfwidth {r['halfwidth']!r} != {op.expect['halfwidth_2dp']} to 2 dp")
    return _fail(errors)


def check_plan(op, r) -> str | None:
    N, delta, c = op.args
    ref = refs.plan(N, delta, c)
    if op.call == "sample_size_lower_estimate":
        err = _rel(r, ref["lower_estimate"])
        return None if err <= 1e-9 else f"lower estimate {r!r} off by {err:.1e}"
    errors = []
    if r["n_required"] != ref["n_required"]:
        errors.append(f"n_required {r['n_required']} != {ref['n_required']}")
    if r["regime"] != ref["regime"]:
        errors.append(f"regime {r['regime']} != {ref['regime']}")
    for key in ("n_real", "regime_boundary", "x", "y"):
        if _rel(r[key], ref[key]) > 1e-9:
            errors.append(f"{key} {r[key]!r} vs {mp.nstr(ref[key], 17)}")
    n_req = r["n_required"]
    with mp.workdps(refs.DPS):
        if not 1 <= n_req <= N or refs.interval_halfwidth(N, n_req, delta) > refs.as_mpf(c):
            errors.append(f"n = {n_req} does not meet the half-width {c!r}")
        elif n_req > 1 and refs.interval_halfwidth(N, n_req - 1, delta) <= refs.as_mpf(c):
            errors.append(f"n - 1 = {n_req - 1} already meets the half-width {c!r}")
    want = op.expect.get("n_required")
    if want is not None and n_req != want:
        errors.append(f"n_required {n_req} != {want}")
    return _fail(errors)


# --- simulation ----------------------------------------------------------------


def _pmf_table(N, M, n) -> dict:
    if N <= 10_000:
        lo, hi = refs.support(N, M, n)
        return {i: refs.exact_pmf(N, M, n, i) for i in range(lo, hi + 1)}
    return refs.mp_pmf_table(N, M, n)


def _count_error(label, count, trials, p) -> str | None:
    """A count of `trials` Bernoulli(p) draws, more than Z SE off."""
    p = float(p)
    allowed = Z * math.sqrt(trials * p * (1 - p)) + SLACK
    if abs(count - trials * p) > allowed:
        return f"{label}: {count}/{trials} vs expected {trials * p:.2f} (allowed ±{allowed:.1f})"
    return None


def check_report(N, M, n, trials, deltas, deviations, report) -> str | None:
    """A SimulationReport's numbers against the exact law.

    `deviations` maps each report key to the deviation it means, in
    sampled individuals, as an exact Fraction.
    """
    table = _pmf_table(N, M, n)
    errors = []
    freq = report["empirical_pmf"]
    counts = {int(i): round(f * trials) for i, f in freq.items()}
    if sum(counts.values()) != trials:
        errors.append(f"frequencies sum to {sum(counts.values())}/{trials}")
    for i in set(counts) | set(table):
        err = _count_error(f"frequency of {i}", counts.get(i, 0), trials, table.get(i, 0))
        if err:
            errors.append(err)
    for d in deltas:
        coverage = report["empirical_coverage"].get(d)
        if coverage is None:
            errors.append(f"no coverage for delta {d!r}")
            continue
        with mp.workdps(refs.DPS):
            h = refs.interval_halfwidth(N, n, d)
            exact = sum(p for i, p in table.items() if abs(M - mpf(i * N) / n) <= h)
        if exact < 1 - d:
            errors.append(f"exact coverage {float(exact):.6f} < 1 - delta for delta {d!r}")
        floor = 1 - d - math.sqrt(d * (1 - d) / trials)
        if coverage < floor:
            errors.append(f"coverage {coverage!r} < 1 - delta - SE = {floor:.6f}")
        err = _count_error(f"coverage at delta {d!r}", round(coverage * trials), trials, exact)
        if err:
            errors.append(err)
    for key, c in deviations.items():
        exceed = report["tail_exceedance"].get(key)
        if exceed is None:
            errors.append(f"no exceedance for {key!r}")
            continue
        mean = Fraction(n * M, N)
        exact = sum(p for i, p in table.items() if abs(i - mean) >= c)
        err = _count_error(f"exceedance at deviation {c}", round(exceed * trials), trials, exact)
        if err:
            errors.append(err)
    return _fail(errors)


def check_simulation(op, r) -> str | None:
    N, M, n, deltas, trials, _seed = op.args
    deviations = {
        t: Fraction(c) for t, c in zip(op.kwargs["deviations"], op.expect["deviation_counts"])
    }
    return check_report(N, M, n, trials, deltas, deviations, r)


# --- command line --------------------------------------------------------------


def load_schema(src) -> dict:
    with open(src / "hypertail" / "schemas" / "output_record.schema.json") as fh:
        return json.load(fh)


def _argv_dict(argv) -> dict:
    out, key = {}, None
    for word in argv[1:]:
        if word.startswith("--"):
            key = word[2:]
            out.setdefault(key, [])
        else:
            out[key].append(word)
    return {k: v[0] if len(v) == 1 else (v or True) for k, v in out.items()}


def _close(printed: str, ref, label, errors, tol=CLI_REL):
    if _rel(float(printed), ref, scale=1) > tol:
        errors.append(f"{label} = {printed} vs {mp.nstr(_mp(ref), 15)}")


def check_cli(op, r, schema) -> str | None:
    if r["returncode"] != 0:
        return f"exit code {r['returncode']}: {r['stderr'].strip()[-200:]}"
    try:
        record = json.loads(r["stdout"])
        jsonschema.validate(record, schema)
    except (ValueError, jsonschema.ValidationError) as exc:
        return f"record breaks the schema: {str(exc).splitlines()[0]}"
    argv = op.args[0]
    if record["command"] != argv[0]:
        return f"command {record['command']} != {argv[0]}"
    a, res, labels = _argv_dict(argv), record["results"], record["labels"]
    try:
        return _CLI_CHECKS[argv[0]](a, res, labels)
    except KeyError as exc:
        return f"missing result {exc}"


def _cli_prob(res, labels, ref: Fraction, errors):
    if "probability_exact" in res:
        if Fraction(res["probability_exact"]) != ref:
            errors.append(f"probability_exact = {res['probability_exact']} != {ref}")
    elif labels["mode"] != "log":
        errors.append("no probability_exact on the rational path")
    _close(res["probability"], ref, "probability", errors)


def _pop(a):
    return int(a["population"]), int(a["positives"]), int(a["samples"])


def _cli_pmf(a, res, labels):
    N, M, n = _pop(a)
    errors = []
    _cli_prob(res, labels, refs.exact_pmf(N, M, n, int(a["observed"])), errors)
    if labels["mode"] != ("log" if a.get("mode") == "log" else "rational"):
        errors.append(f"mode {labels['mode']}")
    return _fail(errors)


def _cli_tail(a, res, labels):
    N, M, n = _pop(a)
    k = int(a["threshold"])
    ref = (refs.exact_lower if a["side"] == "lower" else refs.exact_upper)(N, M, n, k)
    errors = []
    _cli_prob(res, labels, ref, errors)
    return _fail(errors)


def _cli_deviation(a, res, labels):
    N, M, n = _pop(a)
    errors = []
    _cli_prob(res, labels, refs.exact_deviation(N, M, n, Fraction(a["deviation"])), errors)
    return _fail(errors)


def _cli_bound(a, res, labels):
    N, n = int(a["population"]), int(a["samples"])
    t = Fraction(a["deviation"]) / n
    family = a.get("family", "auto")
    two_sided = "two-sided" in a
    M = int(a["positives"]) if "positives" in a else None
    if family == "kl":
        exponent = (refs.kl_two_sided_exponent(N, n, t, M) if two_sided
                    else refs.bound_exponent("kl", N, n, t, M))
    elif family == "auto":
        family, exponent = _best(N, n, t)
    else:
        exponent = refs.bound_exponent(family, N, n, t)
    errors = []
    with mp.workdps(refs.DPS):
        exponent = min(0, exponent)
        _close(res["value"], refs.clamp_value(exponent, two_sided), "value", errors)
        _close(res["exponent"], exponent, "exponent", errors)
        _close(res["fraction"], refs.as_mpf(t), "fraction", errors)
    if labels["family"] != family or labels["two_sided"] != str(two_sided).lower():
        errors.append(f"labels {labels}")
    return _fail(errors)


def _cli_interval(res, labels, N, n, i, halfwidth, delta, formula, errors, prefix=""):
    estimate = Fraction(i * N, n)
    if not prefix and Fraction(res["estimate_exact"]) != estimate:
        errors.append(f"estimate_exact {res['estimate_exact']} != {estimate}")
    with mp.workdps(refs.DPS):
        est = refs.as_mpf(estimate)
        for key, want in (("estimate", est), ("halfwidth", halfwidth), ("delta", delta),
                          ("lower", est - halfwidth), ("upper", est + halfwidth),
                          ("clamped_lower", min(max(est - halfwidth, 0), N)),
                          ("clamped_upper", min(max(est + halfwidth, 0), N))):
            if abs(float(res[prefix + key]) - want) > CLI_REL * max(1, abs(want)):
                errors.append(f"{prefix + key} = {res[prefix + key]} vs {mp.nstr(want, 15)}")
    if labels[prefix + "formula"] != formula:
        errors.append(f"{prefix}formula {labels[prefix + 'formula']} != {formula}")


def _cli_ci(a, res, labels):
    N, n, i = int(a["population"]), int(a["samples"]), int(a["observed"])
    delta = Fraction(a["delta"])
    errors = []
    h = refs.interval_halfwidth(N, n, delta)
    _cli_interval(res, labels, N, n, i, h, delta, refs.interval_formula(N, n, "c"), errors)
    if "compare" in a:
        h = refs.interval_halfwidth(N, n, delta, legacy=True)
        _cli_interval(res, labels, N, n, i, h, delta, "B1", errors, prefix="legacy_")
    return _fail(errors)


def _halfwidth(a, N) -> Fraction:
    if "halfwidth" in a:
        return Fraction(a["halfwidth"])
    return Fraction(a["halfwidth-percent"]) * N / 100


def _cli_confidence(a, res, labels):
    N, n, i = int(a["population"]), int(a["samples"]), int(a["observed"])
    c = _halfwidth(a, N)
    errors = []
    with mp.workdps(refs.DPS):
        delta = min(mpf(1), refs.interval_delta(N, n, c))
        _cli_interval(res, labels, N, n, i, refs.as_mpf(c), delta,
                      refs.interval_formula(N, n, "d"), errors)
        if "compare" in a:
            legacy = min(mpf(1), refs.interval_delta(N, n, c, legacy=True))
            _close(res["legacy_delta"], legacy, "legacy_delta", errors)
    return _fail(errors)


def _cli_samplesize(a, res, labels):
    N = int(a["population"])
    ref = refs.plan(N, Fraction(a["delta"]), _halfwidth(a, N))
    errors = []
    if int(res["n_required"]) != ref["n_required"]:
        errors.append(f"n_required {res['n_required']} != {ref['n_required']}")
    if labels["regime"] != ref["regime"]:
        errors.append(f"regime {labels['regime']} != {ref['regime']}")
    for key in ("n_real", "x", "y", "regime_boundary"):
        _close(res[key], ref[key], key, errors, tol=1e-9)
    _close(res["lower_estimate"], ref["lower_estimate"], "lower_estimate", errors, tol=1e-9)
    return _fail(errors)


def _cli_simulate(a, res, labels):
    N, M, n = _pop(a)
    trials = int(a["trials"])
    deltas = a.get("delta", [])
    deltas = [deltas] if isinstance(deltas, str) else deltas
    devs = a.get("deviation", [])
    devs = [devs] if isinstance(devs, str) else devs
    report = {
        "empirical_pmf": {int(k.split("_")[1]): float(v) for k, v in res.items()
                          if k.startswith("frequency_")},
        "empirical_coverage": {float(d): float(res[f"coverage_{float(d):g}"]) for d in deltas},
        "tail_exceedance": {float(d): float(res[f"exceedance_{float(d):g}"]) for d in devs},
    }
    return check_report(N, M, n, trials, [float(d) for d in deltas],
                        {float(d): Fraction(d) for d in devs}, report)


_CLI_CHECKS = {
    "pmf": _cli_pmf,
    "tail": _cli_tail,
    "deviation": _cli_deviation,
    "bound": _cli_bound,
    "ci": _cli_ci,
    "confidence": _cli_confidence,
    "samplesize": _cli_samplesize,
    "simulate": _cli_simulate,
}


# --- dispatch ------------------------------------------------------------------

_BY_CALL = {
    "pmf": check_exact,
    "lower_tail": check_exact,
    "upper_tail": check_exact,
    "two_sided_exact": check_exact,
    "kl_upper_tail_bound": check_bound,
    "b1_tail": check_bound,
    "b2_tail": check_bound,
    "b3_tail": check_bound,
    "b4_tail": check_bound,
    "best_bound": check_bound,
    "concentration_bound": check_bound,
    "halfwidth_for_confidence": check_interval,
    "b1_halfwidth_for_confidence": check_interval,
    "confidence_for_halfwidth": check_interval,
    "b1_confidence_for_halfwidth": check_interval,
    "required_sample_size": check_plan,
    "sample_size_lower_estimate": check_plan,
    "coverage_experiment": check_simulation,
}


def check(op, result, schema=None) -> str | None:
    """None if `result` is a right answer to `op`, else the reason."""
    if isinstance(result, dict) and "raised" in result:
        return f"raised {result['raised']}"
    if op.call == "cli":
        return check_cli(op, result, schema)
    return _BY_CALL[op.call](op, result)
