"""Soundness mutants, run by hand (pytest does not collect this file).

Each mutant changes one certifying line: a rounding direction, a
comparison, a constant.  For each one the script copies ``src/`` into a
temporary directory, applies the mutant there, runs the tests named for it
against the copy, and prints ``killed`` when they fail or ``survived`` when
they pass.  A mutant listed with a reason is equivalent: no valid input can
tell it apart, and the reason says why; it is expected to survive.  The
working tree is never changed.

Run from the repository root:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # under src/semilab
    old: str  # occurs exactly once in the file
    new: str
    tests: tuple[str, ...]
    equivalent: Optional[str] = None


MUTANTS = (
    Mutant("tail-drops-straddling", "divergence.py",
           "elif pair_ge(hi, t_lo):", "elif False:",
           ("tests/test_divergence.py", "tests/test_walker.py")),
    Mutant("tail-exceeds-by-upper-end", "divergence.py",
           "if pair_ge(lo, t_hi):", "if pair_ge(hi, t_hi):",
           ("tests/test_divergence.py", "tests/test_walker.py")),
    Mutant("carry-exp-quarter", "divergence.py",
           "to_mpf((lo, lo_exp - 1)), to_mpf((hi, hi_exp - 1))",
           "to_mpf((lo, lo_exp - 2)), to_mpf((hi, hi_exp - 2))",
           ("tests/test_divergence.py", "tests/test_walker.py")),
    Mutant("dominance-halves-w", "divergence.py",
           "return nu_num * w.denominator * mu_den >= w.numerator * mu_num * nu_den",
           "return 2 * nu_num * w.denominator * mu_den >= w.numerator * mu_num * nu_den",
           ("tests/test_divergence.py", "tests/test_walker.py", "tests/test_cli.py")),
    Mutant("dominance-identity-ignores-w", "divergence.py",
           "nu.component(i) is mu and w <= dominance_constant(nu, i) for",
           "nu.component(i) is mu for",
           ("tests/test_divergence.py", "tests/test_walker.py", "tests/test_cli.py")),
    Mutant("fold-product-rounds-upper-end-down", "divergence.py",
           "mul_pairs(x[1], y[1], prec, True)", "mul_pairs(x[1], y[1], prec, False)",
           ("tests/test_divergence.py", "tests/test_walker.py")),
    Mutant("hellinger-inward-upper-end", "divergence.py",
           "hi = add_pairs(r_hi, (-s_lo[0], s_lo[1] + 1), prec, True)",
           "hi = add_pairs(r_hi, (-s_lo[0], s_lo[1] + 1), prec, False)",
           ("tests/test_kernels.py", "tests/test_divergence.py")),
    Mutant("power-upper-end-pairs-the-wrong-exponent-end", "intervals.py",
           "e_lo if mpf_lt(hi, fone) else e_hi", "e_hi if mpf_lt(hi, fone) else e_lo",
           ("tests/test_intervals.py",)),
    Mutant("quotient-ignores-shifted-bits", "intervals.py",
           "lo + 1 if r or q & ((1 << s) - 1) else lo", "lo + 1 if r else lo",
           ("tests/test_kernels.py",)),
    Mutant("posterior-half-bound", "counterexample.py",
           "and post >= bound)", "and post >= bound / 2)",
           ("tests/test_counterexample.py",),
           equivalent="the construction forces post >= bound for every valid M and "
                      "gamma, so halving the bound changes no verdict"),
    Mutant("part-i-excess-below-zero", "divergence.py",
           "if excess >= 0 else", "if excess >= -1 else",
           ("tests/test_divergence.py", "tests/test_walker.py"),
           equivalent="the off-support excess is a sum of nonnegative terms, so it "
                      "is never below 0"),
    Mutant("deficiency-ratio-inverted", "randomness.py",
           "num, den = m_num * mu_den, m_den * mu_num",
           "num, den = m_num * mu_num, m_den * mu_den",
           ("tests/test_walker.py", "tests/test_randomness.py")),
    Mutant("delta-hat-takes-the-least-ratio", "randomness.py",
           "if c_num and p_num * c_den * worst[1] > worst[0] * p_den * c_num:",
           "if c_num and p_num * c_den * worst[1] < worst[0] * p_den * c_num:",
           ("tests/test_walker.py", "tests/test_randomness.py")),
    Mutant("trace-offdiff-wrong-cross-terms", "divergence.py",
           "off = max((abs(nu_nums[b] * mu_den - mu_nums[b] * nu_den)",
           "off = max((abs(nu_nums[b] * nu_den - mu_nums[b] * mu_den)",
           ("tests/test_divergence.py",)),
    Mutant("wvsd-diff-wrong-denominator", "cli.py",
           "w_den * d_den)", "w_den * w_den)",
           ("tests/test_artifact_identity.py",)),
    Mutant("derived-row-drops-mass-denominator", "envcore.py",
           "m * (common // d) * den for", "m * (common // d) for",
           ("tests/test_walker.py",)),
    Mutant("derived-run-before-over-after", "envcore.py",
           "(num * before_den, den * before_num) if num",
           "(before_num * den, before_den * num) if num",
           ("tests/test_walker.py",)),
    Mutant("markov-key-drops-context", "envcore.py",
           "return None if self._counts[0] else (self._counts, self._ctx)",
           "return None if self._counts[0] else self._counts",
           ("tests/test_walker.py",)),
    Mutant("markov-reachable-context-unchecked", "envcore.py",
           """raise ValueError(f"reachable transition context {''.join(map(str, ctx))} "
                                 "has no row")""",
           "continue",
           ("tests/test_envcore.py", "tests/test_walker.py", "tests/test_cli.py")),
    Mutant("cross-check-skips-declared-measure", "cli.py",
           "if env.declared_class == MEASURE and not _naming(",
           "if False and not _naming(",
           ("tests/test_cli.py",)),
    Mutant("check-depth-refuses-the-stored-depth", "envcore.py",
           "n > env.max_depth:", "n >= env.max_depth:",
           ("tests/test_depth_rule.py", "tests/test_envcore.py")),
    Mutant("table-reads-past-its-depth", "envcore.py",
           "        check_depth(self, len(symbols))\n        return self.values.get(",
           "        return self.values.get(",
           ("tests/test_depth_rule.py", "tests/test_envcore.py")),
)


def run(mutant: Mutant) -> str:
    """``killed`` or ``survived``; raises if the mutant's text is not found
    exactly once or its tests cannot run."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / "semilab" / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: {mutant.old!r} occurs "
                             f"{text.count(mutant.old)} times in {mutant.path}")
        target.write_text(text.replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *mutant.tests], cwd=ROOT, env=env, capture_output=True, text=True)
    if done.returncode not in (0, 1):
        raise SystemExit(f"{mutant.name}: pytest exited {done.returncode}\n{done.stdout}")
    return "survived" if done.returncode == 0 else "killed"


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {', '.join(sorted(unknown))}")
    unexpected = 0
    for mutant in chosen:
        outcome = run(mutant)
        expected = "survived" if mutant.equivalent else "killed"
        unexpected += outcome != expected
        note = f" (equivalent: {mutant.equivalent})" if mutant.equivalent else ""
        print(f"{mutant.name}: {outcome}{note}", flush=True)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
