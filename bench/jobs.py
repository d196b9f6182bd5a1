"""Seeded job generator for the semilab benchmark.

A job is one certification run: either a CLI subcommand (``run_experiment``
plus ``emit_results``, the path ``semilab SUBCOMMAND`` takes) or one of the two
library calls that have no subcommand, ``mass_interval`` and ``sample``.

Each workload is a fixed list of job slots.  A slot fixes the subcommand, the
depth and the kinds of the class members; the seed draws every parameter
inside it (probabilities, transition rows, leaks, decay exponents, table
values, sampling seeds, functionals), except where a parameter would change
the slot's cost (``_decaying_beta3``).  Every seed therefore runs the same mix
of kinds and sizes, so per-run medians compare across seeds, while the inputs
themselves change with the seed.  Draws that fail on the current code for a
known defect are kept as probes (``PROBES``), which every run replays once and
reports by name, outside the timed loop.

Run ``python3 bench/jobs.py --workload NAME --seed N`` to print the job list;
every CLI job carries the ``semilab`` argv that replays it.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DEFAULT_SEED = 0
PRECISION_BITS = 128
WORKERS = 1

WHY = {
    "tree-walk": (
        "exact expectations over the mu-support path tree (depths 9-12): "
        "divergence walks, mixture cursor rows and clones and interval boxing "
        "do nearly all the work; mass_interval and sample are absent"),
    "deep-path": (
        "one long string and no tree (mass_interval, sample, deficiency, "
        "leftmost-alpha, counterexample at 300-100000 steps): exact Fraction "
        "growth and repeated eval; a walker change is predicted flat here"),
    "many-small": (
        "all ten subcommands at small sizes, 20 jobs per cycle: spec parsing, "
        "class certification and artifact emission dominate, so work moved "
        "into set-up or per-call caches shows here"),
}

# Environment kinds whose cursor state has a finite sufficient statistic;
# anything else (tables, mubar, nu-stage, nu-limit, point masses) is generic.
PRODUCT_FORM = {"bernoulli", "categorical", "uniform", "markov", "leaky", "decaying"}


# ------------------------------------------------------------- parameters

def _q(num: int, den: int) -> str:
    return f"{num}/{den}"


# Probabilities are 3/8 or 5/8 (numerators of 3/8 in eighths).  Both are in
# lowest terms, and a string drawn from either grows exact masses by the same
# number of bits per step, so Fraction sizes, and with them job costs, do not
# change with the seed.  Leaks are 5/8 or 7/8.
PROBS = (3, 5)
LEAKS = (5, 7)


def _bernoulli(rng: random.Random, low: int = 1) -> dict:
    return {"kind": "bernoulli",
            "p": _q(rng.choice([k for k in PROBS if k >= low]), 8)}


def _row(rng: random.Random) -> list[str]:
    a = rng.choice(PROBS)
    return [_q(a, 8), _q(8 - a, 8)]


def _markov(rng: random.Random) -> dict:
    return {"kind": "markov", "order": 1,
            "transitions": {"": _row(rng), "0": _row(rng), "1": _row(rng)}}


def _leaky(rng: random.Random) -> dict:
    return {"kind": "leaky", "base": _bernoulli(rng),
            "leak": _q(rng.choice(LEAKS), 8)}


def _decaying(rng: random.Random, betas=(2, 3, 4)) -> dict:
    return {"kind": "decaying", "beta": rng.choice(betas)}


def _decaying_beta3(rng: random.Random) -> dict:
    # the cost and memory of a long mass_interval grow with beta, so the
    # deep-path slot fixes it; the seed still draws the string
    return _decaying(rng, (3,))


def _table(rng: random.Random, depth: int) -> dict:
    """A strict semimeasure table to ``depth``: bushy for two levels, then
    one surviving child per node, so its size grows linearly with depth."""
    values: dict[str, Fraction] = {}

    def grow(key: str, mass: Fraction):
        values[key] = mass
        if len(key) == depth:
            return
        kept = mass * (1 - Fraction(1, rng.choice((8, 16))))
        if len(key) < 2:
            left = kept * Fraction(rng.choice(PROBS), 8)
            grow(key + "0", left)
            grow(key + "1", kept - left)
        else:
            grow(key + str(rng.randint(0, 1)), kept)

    grow("", 1 - Fraction(1, 16))
    return {"kind": "table", "depth": depth,
            "values": {k: _q(v.numerator, v.denominator) for k, v in values.items()}}


MEMBER = {
    "iid": _bernoulli,
    "markov": _markov,
    "leaky": _leaky,
    "decaying": _decaying,
}


def _members(rng: random.Random, kinds: tuple[str, ...], depth: int) -> list[dict]:
    return [_table(rng, depth) if k == "table" else MEMBER[k](rng) for k in kinds]


def _total_mass(env: dict, n: int) -> Fraction:
    """Total depth-n mass of a generated non-measure member (leaky or table)."""
    if env["kind"] == "leaky":
        return Fraction(env["leak"]) ** n
    return sum((Fraction(v) for k, v in env["values"].items() if len(k) == n),
               Fraction(0))


def _cutoff(env: dict, cap: int) -> int:
    """First depth n >= 1 at which the quasimeasure of ``env`` is zeroed."""
    if env["kind"] not in ("leaky", "table"):
        return 0
    for n in range(1, cap + 1):
        if _total_mass(env, n) <= 1 - Fraction(1, n):
            return n
    return cap + 1


def _class_spec(rng, kinds, depth, mu=None, equal_weights=False) -> dict:
    members = _members(rng, kinds, depth)
    spec = {"class": members}
    if equal_weights:
        spec["weights"] = [_q(1, len(members))] * len(members)
    if mu is not None:
        spec["mu_index"] = mu
    return spec


# ---------------------------------------------------------------- slots
#
# A slot is (subcommand, depth, build); build(rng, depth) draws the spec.

def _vhb(kinds, mu, equal=True, kappa=None):
    def build(rng, depth):
        spec = _class_spec(rng, kinds, depth, mu, equal)
        if kappa is not None:
            spec["kappa"] = kappa
        return spec
    return build


def _tail(kinds, mu, equal=False):
    def build(rng, depth):
        spec = _class_spec(rng, kinds, depth, mu, equal)
        spec["c"] = ["1", "2", "4"]
        return spec
    return build


def _prop8(kinds, k0, equal=True):
    def build(rng, depth):
        spec = _class_spec(rng, kinds, depth, None, equal)
        spec["k0"] = list(k0)
        spec["ratio_depth"] = min(depth, 8)
        return spec
    return build


def _quasi(kinds, mu=None):
    def build(rng, depth):
        spec = _class_spec(rng, kinds, max(depth + 1, 2), mu, True)
        cut = max(_cutoff(e, depth + 1) for e in spec["class"])
        spec["equal_from"] = max(cut, 2)
        spec["stable_from"] = max(cut, 2) + 1
        return spec
    return build


def _deficiency(kinds, mu):
    def build(rng, depth):
        return _class_spec(rng, kinds, depth, mu, True)
    return build


def _leftmost(kinds):
    def build(rng, depth):
        return _class_spec(rng, kinds, depth, None, True)
    return build


def _counterexample(rng, depth):
    # uniform plus point masses whose tails are all zeros: the class the
    # construction needs (an all-zero tail certificate for nu_limit)
    members = [{"kind": "uniform"},
               {"kind": "deterministic", "prefix": "", "period": "0"}]
    head = "1" + "".join(rng.choice("01") for _ in range(rng.randint(0, 2)))
    members.append({"kind": "deterministic", "prefix": head, "period": "0"})
    return {"class": members, "weights": ["1/2", "1/4", "1/8"],
            "gamma": _q(1, rng.randint(6, 12))}


def _e2i(kinds, mu):
    def build(rng, depth):
        spec = {"class": [_bernoulli(rng, low=4) if k == "iid" else MEMBER[k](rng)
                          for k in kinds],
                "mu_index": mu, "stage": depth, "count": rng.randint(1, 3)}
        spec["functional"] = {"kind": rng.choice(("indicator", "constant")),
                              "eps": _q(1, rng.choice((32, 64, 128)))}
        return spec
    return build


def _chain_trials(rng, depth):
    return {"trials": 10, "dim": rng.randint(2, 3), "m": rng.randint(4, 6),
            "betas": ["1/4", "1", "4"]}


def _chain_falsified(rng, depth):
    return json.loads((ROOT / "fixtures" / "chain_falsified.json").read_text())


def _env_job(make_env):
    def build(rng, depth):
        return {"env": make_env(rng)}
    return build


SLOTS = {
    "tree-walk": [
        ("verify-hellinger-bounds", 9, _vhb(("iid", "markov", "leaky"), 1)),
        ("markov-tail", 9, _tail(("markov", "iid", "table"), 1)),
        ("prop8", 9, _prop8(("iid", "markov", "iid"), (1, 2))),
        ("quasimeasure", 11, _quasi(("iid", "leaky", "markov"))),
        ("verify-hellinger-bounds", 9, _vhb(("iid", "decaying", "table"), 1)),
        ("markov-tail", 9, _tail(("decaying", "iid"), 2)),
        ("prop8", 10, _prop8(("markov", "iid"), (1,))),
        ("quasimeasure", 12, _quasi(("iid", "table"))),
    ],
    "deep-path": [
        ("mass-interval", 100000, _env_job(_decaying_beta3)),
        ("mass-interval", 10000, _env_job(_bernoulli)),
        ("mass-interval", 300, _env_job(_markov)),
        ("mass-interval", 400, _env_job(_leaky)),
        ("sample", 10000, _env_job(_bernoulli)),
        ("deficiency", 384, _deficiency(("iid", "iid", "leaky"), 2)),
        ("leftmost-alpha", 384, _leftmost(("iid", "markov"))),
        ("counterexample", 512, _counterexample),
    ],
    "many-small": [
        ("verify-hellinger-bounds", 5, _vhb(("iid", "markov"), 1)),
        ("verify-hellinger-bounds", 6, _vhb(("iid", "leaky", "iid"), 3, kappa="1/4")),
        ("verify-hellinger-bounds", 4, _vhb(("decaying", "iid"), 2)),
        ("markov-tail", 5, _tail(("markov", "iid"), 1)),
        ("markov-tail", 6, _tail(("iid", "table"), 1)),
        ("prop8", 5, _prop8(("iid", "markov"), (1, 2))),
        ("prop8", 6, _prop8(("markov", "iid", "decaying"), (1,))),
        ("quasimeasure", 5, _quasi(("iid", "leaky"))),
        ("quasimeasure", 6, _quasi(("iid", "leaky", "table"))),
        ("w-vs-d", 6, _quasi(("iid", "leaky"), mu=1)),
        ("w-vs-d", 5, _quasi(("markov", "leaky", "iid"), mu=1)),
        ("deficiency", 16, _deficiency(("iid", "iid", "markov"), 2)),
        ("deficiency", 16, _deficiency(("markov", "leaky"), 1)),
        ("leftmost-alpha", 64, _leftmost(("iid", "iid", "iid"))),
        ("leftmost-alpha", 64, _leftmost(("markov", "leaky"))),
        ("counterexample", 24, _counterexample),
        ("e2i", 6, _e2i(("iid",), 1)),
        ("e2i", 4, _e2i(("iid", "markov"), 1)),
        ("chain-lemma", 0, _chain_trials),
        ("chain-lemma", 0, _chain_falsified),
    ],
}

WORKLOADS = tuple(SLOTS)

# Draws that fail on the current code for a reason already listed as a defect.
# They are not part of any workload, where one failing slot would make the
# count of failed runs depend on how many cycles fit in the run.  Each run
# replays every probe once, before it starts timing, and names the defect as
# present or fixed.
PROBES = {
    # ROADMAP item 4: a decaying mu crashes _DecayingCursor.mass
    "decaying-cursor-mass": ("verify-hellinger-bounds", 4, _vhb(("iid", "decaying"), 2)),
}


# ------------------------------------------------------------------ jobs

def _env_kinds(node) -> list[str]:
    """Every environment kind named anywhere in a spec."""
    found = []
    if isinstance(node, dict):
        if "kind" in node and isinstance(node["kind"], str):
            found.append(node.get("derived", node["kind"]))
        for key, v in node.items():
            if key != "functional":  # e2i's functional is not an environment
                found += _env_kinds(v)
    elif isinstance(node, list):
        for v in node:
            found += _env_kinds(v)
    return found


def _tag(subcommand: str, spec: dict) -> str:
    kinds = set(_env_kinds(spec))
    if subcommand == "counterexample":
        kinds.add("nu-limit")
    if subcommand == "e2i":
        kinds.add("mubar")
    return "mergeable" if kinds <= PRODUCT_FORM else "generic"


def _expected(subcommand: str, spec: dict) -> str | None:
    """The outcome every verdict must reach, or None where no theorem says."""
    if subcommand == "deficiency":
        return None  # finiteness below a fixed ceiling is data, not a theorem
    if subcommand == "chain-lemma" and spec.get("rhs_scale", "1") != "1":
        return "certified-fails"
    return "certified-holds"


def job_env_kind(job: dict) -> str | None:
    """The environment kind of a library job (mass-interval, sample)."""
    env = job["spec"].get("env")
    if env is None:
        return None
    return "iid" if env["kind"] == "bernoulli" else env["kind"]


def replay_argv(job: dict) -> list[str] | None:
    if job["subcommand"] in ("mass-interval", "sample"):
        return None
    argv = ["semilab", job["subcommand"], "--spec",
            json.dumps(job["spec"], sort_keys=True, separators=(",", ":")),
            "--precision", str(PRECISION_BITS), "--workers", str(WORKERS),
            "--format", "json", "--seed", str(job["seed"])]
    if job["depth"]:
        argv += ["--depth", str(job["depth"])]
    return argv


def _make_job(job_id: str, rng: random.Random, subcommand: str, depth: int,
              build) -> dict:
    spec = build(rng, depth)
    job = {
        "id": job_id,
        "subcommand": subcommand,
        "depth": depth,
        "seed": rng.getrandbits(32),
        "spec": spec,
        "tag": _tag(subcommand, spec),
        "expect": _expected(subcommand, spec),
    }
    job["replay"] = replay_argv(job)
    return job


def make_jobs(workload: str, seed: int) -> list[dict]:
    """The job list of one cycle of ``workload``; a pure function of the seed."""
    rng = random.Random(f"{workload}:{seed}")
    return [_make_job(f"{workload}/{i:02d}", rng, *slot)
            for i, slot in enumerate(SLOTS[workload])]


def make_probes(seed: int) -> list[dict]:
    """One job per known-defect probe; a pure function of the seed."""
    rng = random.Random(f"probes:{seed}")
    return [_make_job(f"probe/{name}", rng, *slot) for name, slot in PROBES.items()]


def tag_shares(jobs: list[dict]) -> dict[str, float]:
    n = len(jobs)
    return {t: sum(j["tag"] == t for j in jobs) / n for t in ("mergeable", "generic")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)
    jobs = make_jobs(args.workload, args.seed)
    json.dump({"workload": args.workload, "seed": args.seed,
               "why": WHY[args.workload], "tag_shares": tag_shares(jobs),
               "jobs": jobs, "probes": make_probes(args.seed)}, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
