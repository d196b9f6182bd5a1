"""Output checks for benchmark jobs.

A job's output is its artifact documents (what ``emit_results`` serializes).
Three checks apply:

* every verdict a theorem backs must reach the job's expected outcome;
  ``inconclusive`` is counted, never coerced into a pass or a fail;
* library jobs are checked against an independent computation;
* where a stored reference exists for the job, every exact field (rationals,
  strings, counts) must match it exactly and every interval enclosure must
  overlap the reference enclosure.  Two sound enclosures of one real always
  intersect, so this survives a change of rounding that a byte comparison
  would reject.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from decimal import Decimal, InvalidOperation
from fractions import Fraction

INCONCLUSIVE = "inconclusive"

# Failures already listed in ROADMAP item 4; anything else is unexpected.
KNOWN_DEFECTS = (
    ("decaying-cursor-mass", "AttributeError",
     "'_DecayingCursor' object has no attribute '_mass'",
     "ROADMAP item 4: _DecayingCursor never sets _mass, so a decaying mu "
     "crashes the expectation walks"),
)

# interval_str prints 30 significant digits rounded to nearest, not outward;
# widen both enclosures by a few units of that last digit before comparing.
_PRINT_SLACK = Decimal("1e-28")
_LONG_EXACT = 64  # exact leaves longer than this are stored as digests


def known_defect(exc: BaseException) -> str | None:
    """``name (where it is listed)`` of a known defect, or None."""
    for name, type_name, needle, listed in KNOWN_DEFECTS:
        if type(exc).__name__ == type_name and needle in str(exc):
            return f"{name} ({listed})"
    return None


def _decimal(text) -> Decimal | None:
    """An interval endpoint as printed by ``interval_str``, else None."""
    if not isinstance(text, str) or "/" in text:
        return None
    if not any(c in text for c in ".eE") and text.lstrip("+-") not in ("inf", "nan"):
        return None
    try:
        return Decimal(text)
    except InvalidOperation:
        return None


def split_fields(doc, path: str = "$") -> tuple[dict, dict]:
    """Flatten a document into exact leaves and interval enclosures.

    Two adjacent decimal strings in a list form one enclosure (verdict sides,
    trace rows, log bounds); every other leaf is exact.
    """
    exact: dict[str, object] = {}
    intervals: dict[str, list[str]] = {}
    if isinstance(doc, dict):
        for key in sorted(doc):
            e, i = split_fields(doc[key], f"{path}.{key}")
            exact.update(e)
            intervals.update(i)
    elif isinstance(doc, list):
        k = 0
        while k < len(doc):
            if (k + 1 < len(doc) and _decimal(doc[k]) is not None
                    and _decimal(doc[k + 1]) is not None):
                intervals[f"{path}[{k}:{k + 2}]"] = [doc[k], doc[k + 1]]
                k += 2
                continue
            e, i = split_fields(doc[k], f"{path}[{k}]")
            exact.update(e)
            intervals.update(i)
            k += 1
    else:
        exact[path] = doc
    return exact, intervals


def _compact_exact(exact: dict) -> dict:
    out = {}
    for path, value in exact.items():
        text = json.dumps(value)
        if len(text) > _LONG_EXACT:
            value = "sha256:" + hashlib.sha256(text.encode()).hexdigest()
        out[path] = value
    return out


def reference_entry(documents: dict) -> dict:
    exact, intervals = split_fields(documents)
    return {"exact": _compact_exact(exact), "intervals": intervals}


def _overlap(a: list[str], b: list[str]) -> bool:
    def widen(lo: Decimal, hi: Decimal):
        if not (lo.is_finite() and hi.is_finite()):
            return lo, hi
        slack = max(abs(lo), abs(hi)) * _PRINT_SLACK
        return lo - slack, hi + slack

    alo, ahi = widen(_decimal(a[0]), _decimal(a[1]))
    blo, bhi = widen(_decimal(b[0]), _decimal(b[1]))
    return max(alo, blo) <= min(ahi, bhi)


def compare_reference(documents: dict, ref: dict) -> list[str]:
    """Mismatches between a job's documents and its stored reference."""
    entry = reference_entry(documents)
    problems = []
    if entry["exact"].keys() != ref["exact"].keys() \
            or entry["intervals"].keys() != ref["intervals"].keys():
        return ["document layout differs from the reference"]
    for path, value in entry["exact"].items():
        if value != ref["exact"][path]:
            problems.append(f"{path}: {value!r} != reference {ref['exact'][path]!r}")
    for path, enclosure in entry["intervals"].items():
        if not _overlap(enclosure, ref["intervals"][path]):
            problems.append(f"{path}: {enclosure} misses reference "
                            f"{ref['intervals'][path]}")
    return problems


def verdict_margins(documents: dict) -> list[float]:
    """log2(rhs.lo - lhs.hi) of every verdict with a positive margin."""
    margins = []

    def value(text):
        if "/" in text:
            return Fraction(text)
        d = _decimal(text)
        return None if d is None or not d.is_finite() else Fraction(d)

    def walk(node):
        if isinstance(node, dict):
            lhs, rhs = node.get("lhs"), node.get("rhs")
            if isinstance(lhs, list) and isinstance(rhs, list) and len(lhs) == len(rhs) == 2:
                hi, lo = value(lhs[1]), value(rhs[0])
                if hi is not None and lo is not None and lo > hi:
                    gap = lo - hi
                    margins.append(math.log2(gap.numerator) - math.log2(gap.denominator))
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    walk(documents)
    return margins


def check_outcomes(job: dict, outcomes: list[str]) -> list[str]:
    expect = job["expect"]
    if expect is None:
        return []
    return [f"verdict {o} where the theorem gives {expect}"
            for o in outcomes if o not in (expect, INCONCLUSIVE)]


def _power_product(counts: Counter) -> Fraction:
    out = Fraction(1)
    for p, k in counts.items():
        out *= p ** k
    return out


def exact_mass(env_spec: dict, symbols: tuple[int, ...]) -> Fraction | None:
    """Exact mass of a generated i.i.d., Markov or leaky environment, from its
    spec and symbol counts alone; None for kinds where that is not cheap."""
    kind = env_spec["kind"]
    if kind == "bernoulli":
        p = Fraction(env_spec["p"])
        ones = sum(symbols)
        counts = Counter()
        counts[p] += ones
        counts[1 - p] += len(symbols) - ones
        return _power_product(counts)
    if kind == "leaky":
        base = exact_mass(env_spec["base"], symbols)
        return base * Fraction(env_spec["leak"]) ** len(symbols)
    if kind == "markov" and env_spec["order"] == 1:
        counts = Counter()
        context = ""
        for a in symbols:
            counts[Fraction(env_spec["transitions"][context][a])] += 1
            context = str(a)
        return _power_product(counts)
    return None


def _decaying_log_mass(beta: int, symbols: tuple[int, ...]) -> float:
    return math.fsum(
        math.log(0.5 / t ** beta) if a == 1 else math.log1p(-0.5 / t ** beta)
        for t, a in enumerate(symbols, start=1))


def check_mass_interval(env_spec: dict, symbols: tuple[int, ...],
                        lo: Fraction, hi: Fraction) -> list[str]:
    """The enclosure [lo, hi] (its exact endpoints) must contain the exact
    mass where that is cheap, and agree with a float sum of logs for the
    decaying kind."""
    if not 0 < lo <= hi:
        return [f"enclosure [{lo}, {hi}] is empty or not positive"]
    exact = exact_mass(env_spec, symbols)
    if exact is not None:
        return [] if lo <= exact <= hi else ["enclosure misses the exact mass"]
    log_mass = _decaying_log_mass(env_spec["beta"], symbols)
    log_lo = (math.log2(lo.numerator) - math.log2(lo.denominator)) * math.log(2)
    if abs(log_lo - log_mass) > 1e-9 * max(1.0, abs(log_mass)):
        return [f"log enclosure {log_lo} disagrees with float log-mass {log_mass}"]
    return []


def check_sample(env_spec: dict, length: int, documents: dict) -> list[str]:
    omega = documents["result"]["omega"]
    if len(omega) != length or set(omega) - {"0", "1"}:
        return [f"sample has wrong length or symbols: {omega[:32]}..."]
    symbols = tuple(int(c) for c in omega)
    num, den = (int(part, 16) for part in documents["result"]["likelihood_hex"].split("/"))
    if Fraction(num, den) != exact_mass(env_spec, symbols):
        return ["likelihood differs from the exact mass of the sampled string"]
    return []
