"""The checkers reject wrong answers and accept right ones.

Run from the repository root:  python3 -m pytest bench/test_checks.py -q
"""

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import refs  # noqa: E402
import workloads  # noqa: E402

SCHEMA = checks.load_schema(HERE.parent / "src")


def _op(ops, name):
    return next(op for op in ops if op.name == name)


# --- an interval centred on the rounded estimate -------------------------------


def _interval(op, estimate):
    N, n, _i, delta = op.args
    h = float(refs.interval_halfwidth(N, n, delta))
    lower, upper = float(estimate - Fraction(h)), float(estimate + Fraction(h))
    return {"estimate": estimate, "halfwidth": h, "delta": delta, "lower": lower,
            "upper": upper, "formula": "C1", "clamped_lower": lower,
            "clamped_upper": upper, "vacuous": False, "legacy": False}


def test_interval_around_exact_estimate_passes():
    op = _op(workloads.closed_form(1), "ci/C1-poll-example")
    assert checks.check(op, _interval(op, Fraction(5_720 * workloads.POLL_N, 100_000))) is None


def test_interval_centred_on_rounded_estimate_is_rejected():
    op = _op(workloads.closed_form(1), "ci/C1-poll-example")
    reason = checks.check(op, _interval(op, Fraction(1_017_800)))
    assert reason and "estimate" in reason and "lower" in reason


def test_endpoints_around_rounded_estimate_are_rejected():
    op = _op(workloads.closed_form(1), "ci/C1-poll-example")
    right = _interval(op, Fraction(5_720 * workloads.POLL_N, 100_000))
    wrong = _interval(op, Fraction(1_017_800))
    assert checks.check(op, right | {"lower": wrong["lower"], "upper": wrong["upper"]})


# --- a log tail off by 1e-10 relative ------------------------------------------


@pytest.mark.parametrize("name", ["log/poll/lower-near", "log/N1e8-n1e4/upper-far"])
def test_log_tail_within_1e12_passes(name):
    op = _op(workloads.exact_grid(3), name)
    ref = checks.exact_reference(op.call, *op.args[0], *op.args[1:])
    with mp.workdps(refs.DPS):
        answer = {"value": float(ref), "log_value": float(mp.log(ref))}
    assert checks.check(op, answer) is None


@pytest.mark.parametrize("name", ["log/poll/lower-near", "log/N1e8-n1e4/upper-far"])
def test_log_tail_off_by_1e10_is_rejected(name):
    op = _op(workloads.exact_grid(3), name)
    ref = checks.exact_reference(op.call, *op.args[0], *op.args[1:])
    with mp.workdps(refs.DPS):
        off = ref * (1 + mp.mpf("1e-10"))
        answer = {"value": float(off), "log_value": float(mp.log(off))}
    assert "relative error" in checks.check(op, answer)


def test_rational_tail_must_be_exact():
    op = _op(workloads.exact_grid(3), "rational/N1e3/lower-tail")
    ref = checks.exact_reference(op.call, *op.args[0], *op.args[1:])
    assert checks.check(op, {"value": ref, "log_value": math.log(ref)}) is None
    wrong = ref + Fraction(1, 10**30)
    assert checks.check(op, {"value": wrong, "log_value": math.log(ref)})


# --- a coverage below 1 - delta by more than its standard error ------------------


def _report(op, coverage_shift=0.0):
    """A report whose counts are the exact expectations, rounded."""
    N, M, n, deltas, trials, _seed = op.args
    table = checks._pmf_table(N, M, n)
    raw = {i: float(p) * trials for i, p in table.items()}
    counts = {i: math.floor(x) for i, x in raw.items()}
    for i in sorted(raw, key=lambda i: counts[i] - raw[i])[: trials - sum(counts.values())]:
        counts[i] += 1
    mean = Fraction(n * M, N)
    coverage, exceedance = {}, {}
    for d in deltas:
        h = refs.interval_halfwidth(N, n, d)
        covered = sum(c for i, c in counts.items() if abs(M - mp.mpf(i * N) / n) <= h)
        se = math.sqrt(d * (1 - d) / trials)
        coverage[d] = min(covered / trials, 1 - d) - coverage_shift * se
    for t, c in zip(op.kwargs["deviations"], op.expect["deviation_counts"]):
        exceedance[t] = sum(k for i, k in counts.items() if abs(i - mean) >= Fraction(c)) / trials
    return {"empirical_pmf": {i: k / trials for i, k in counts.items() if k},
            "empirical_coverage": coverage, "tail_exceedance": exceedance}


def test_coverage_below_one_minus_delta_by_more_than_se_is_rejected():
    op = _op(workloads.simulate(4), "tiny-0")
    reason = checks.check(op, _report(op, coverage_shift=1.5))
    assert reason and "< 1 - delta - SE" in reason


def test_exact_expectations_pass():
    op = _op(workloads.simulate(4), "tiny-1")
    report = _report(op)
    N, M, n, deltas, trials, _seed = op.args
    table = checks._pmf_table(N, M, n)
    for d in deltas:
        h = refs.interval_halfwidth(N, n, d)
        exact = sum(p for i, p in table.items() if abs(M - mp.mpf(i * N) / n) <= h)
        report["empirical_coverage"][d] = round(float(exact) * trials) / trials
    assert checks.check(op, report) is None


# --- a record that breaks the schema ---------------------------------------------


def _record(op):
    a = checks._argv_dict(op.args[0])
    N, M, n, i = (int(a[k]) for k in ("population", "positives", "samples", "observed"))
    p = refs.exact_pmf(N, M, n, i)
    return {
        "command": "pmf",
        "inputs": {"population": N, "positives": M, "samples": n, "observed": i,
                   "mode": "auto"},
        "results": {"probability": f"{float(p):.12g}", "probability_exact": str(p),
                    "log_probability": f"{math.log(p):.12g}"},
        "labels": {"mode": "rational"},
        "warnings": [],
        "digits": 12,
    }


def _cli_result(record):
    return {"returncode": 0, "stdout": json.dumps(record), "stderr": ""}


def test_valid_record_passes():
    op = _op(workloads.cli_oneshot(5), "pmf/rational")
    assert checks.check(op, _cli_result(_record(op)), SCHEMA) is None


@pytest.mark.parametrize("breakage", [
    lambda r: r["results"].update(probability=0.5),
    lambda r: r.pop("warnings"),
    lambda r: r.update(extra="field"),
    lambda r: r.update(digits=0),
])
def test_record_breaking_the_schema_is_rejected(breakage):
    op = _op(workloads.cli_oneshot(5), "pmf/rational")
    record = _record(op)
    breakage(record)
    assert "schema" in checks.check(op, _cli_result(record), SCHEMA)


def test_wrong_exact_probability_in_record_is_rejected():
    op = _op(workloads.cli_oneshot(5), "pmf/rational")
    record = _record(op)
    record["results"]["probability_exact"] = "1/10"
    assert "probability_exact" in checks.check(op, _cli_result(record), SCHEMA)


def test_decimal_deviation_counts_the_boundary_outcome():
    op = _op(workloads.cli_oneshot(5), "fault-B/deviation-0.1")
    # The true P[|i - 0.1| >= 0.1] is 1: i = 0 lies on the boundary.
    assert refs.exact_deviation(50, 1, 5, Fraction("0.1")) == 1
    record = {"command": "deviation",
              "inputs": {"population": 50, "positives": 1, "samples": 5,
                         "deviation": 0.1, "mode": "auto"},
              "results": {"probability": "0.1", "probability_exact": "1/10",
                          "log_probability": "-2.30258509299"},
              "labels": {"mode": "rational"}, "warnings": [], "digits": 12}
    assert "probability_exact" in checks.check(op, _cli_result(record), SCHEMA)
