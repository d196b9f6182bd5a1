"""The semilab benchmark: seeded certification workloads, timed end to end and
traced layer by layer.

    python3 bench/run.py --workload tree-walk --seed 3 --seconds 36 --trace 0
    python3 bench/run.py --workload all            # every workload in turn
    python3 bench/run.py --workload deep-path --seed 0 --make-reference

One client runs jobs in a closed loop (one job after another, ``workers=1``,
no threads) until ``--seconds`` have passed, cycling through the workload's
job list (see ``jobs.py``).  Every job's output is checked (``check.py``).
With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` each job runs once untraced and once
traced (``tracing.py``) and the object holds the per-layer metrics instead.
A run also writes its job records, metadata and spans under ``bench/out/``.

The program is imported from ``src/`` of the checkout this file sits in, and
nowhere else; without it the benchmark exits with status 1 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"
OUT_DIR = HERE / "out"

sys.path.insert(0, str(HERE))
import check  # noqa: E402
import jobs as jobgen  # noqa: E402
from tracing import KINDS, WALKS, Tracer  # noqa: E402

BITS = jobgen.PRECISION_BITS
WORKERS = jobgen.WORKERS
# Set-up is timed before each of a job's first SETUP_REPS runs.
SETUP_REPS = 3
SETUP_MIN_S = 0.01

CURSOR_KINDS = ("iid", "markov", "leaky", "decaying", "table")
MASS_KINDS = ("decaying", "iid", "markov", "leaky")
MODULES = ("cli", "envcore", "mixtures", "divergence", "intervals", "randomness",
           "counterexample")
SETUP_SPANS = ("cli.parse", "mixtures.is_measure", "envcore.validate")


# The CPUs are shared with other tenants, and their speed for this process
# swings by tens of percent from one second to the next, and from one run to
# the next.  A fixed kernel of stdlib Fraction arithmetic, timed between jobs,
# measures that speed; job and set-up times are reported scaled to the speed
# at which the kernel takes PROBE_NOMINAL_S.  The kernel runs no semilab code,
# so no change to the program can move it.
PROBE_NOMINAL_S = 0.015


def speed_probe() -> float:
    start = perf_counter()
    acc, total = Fraction(1), Fraction(0)
    for i in range(1, 1500):
        acc = acc * Fraction(2 * i + 1, 8) / Fraction(i + 3, 8)
        total += Fraction(1, i) * Fraction(3, 8)
        if acc.denominator > 1 << 200:
            acc = Fraction(1)
    return perf_counter() - start


# ------------------------------------------------------------------ program

class Program:
    """The semilab modules, imported from this checkout's ``src/``."""

    def __init__(self):
        src = ROOT / "src"
        if not (src / "semilab" / "cli.py").is_file():
            raise SystemExit(f"error: semilab sources not found under {src}")
        sys.path.insert(0, str(src))
        start = perf_counter()
        import semilab.cli as cli
        self.import_ms = (perf_counter() - start) * 1e3
        if Path(cli.__file__).resolve().parent != src / "semilab":
            raise SystemExit(f"error: semilab imported from {cli.__file__}, not {src}")
        import mpmath
        from semilab import envcore, intervals, mixtures
        self.cli, self.envcore, self.intervals, self.mixtures = cli, envcore, intervals, mixtures
        self.mpmath = mpmath

    def setup(self, job: dict):
        """Spec parse plus environment/class construction for one job,
        including measure certification; None for jobs without a class."""
        spec = job["spec"]
        if job["subcommand"] in ("mass-interval", "sample"):
            return self.cli.parse_env_spec(spec["env"])
        if "class" not in spec:
            return None
        env_class, weights = self.cli.parse_class(spec)
        return self.mixtures.MixtureEnv(env_class, weights, self.mixtures.RAW)

    def execute(self, job: dict, symbols) -> tuple[float, dict, dict]:
        """Run one job; returns (seconds, documents, details)."""
        cli, envcore, sub, spec = self.cli, self.envcore, job["subcommand"], job["spec"]
        if sub == "mass-interval":
            start = perf_counter()
            env = cli.parse_env_spec(spec["env"])
            box = envcore.mass_interval(env, envcore.FiniteString(envcore.BINARY, symbols),
                                        BITS)
            elapsed = perf_counter() - start
            lo, hi = self.intervals.endpoints(box)
            docs = {"result": {"mass": list(self.intervals.interval_str(box)),
                               "steps": len(symbols)}}
            return elapsed, docs, {"outcomes": [], "lo": lo, "hi": hi, "bytes": 0}
        if sub == "sample":
            start = perf_counter()
            env = cli.parse_env_spec(spec["env"])
            omega, likelihood = envcore.sample(env, job["depth"], job["seed"])
            elapsed = perf_counter() - start
            docs = {"result": {
                "omega": "".join(map(str, omega.symbols)),
                "likelihood_hex": f"{likelihood.numerator:x}/{likelihood.denominator:x}"}}
            return elapsed, docs, {"outcomes": [], "bytes": 0}
        start = perf_counter()
        result = cli.run_experiment(sub, spec, job["depth"], BITS, job["seed"], WORKERS)
        payloads = cli.emit_results(result, None, "json")
        elapsed = perf_counter() - start
        docs = {name: json.loads(text) for name, text in payloads.items()}
        return elapsed, docs, {"outcomes": list(result.outcomes),
                               "bytes": sum(len(t) for t in payloads.values())}

    def metadata(self) -> dict:
        return {
            "python": platform.python_version(),
            "mpmath": self.mpmath.__version__,
            "mpmath_backend": self.mpmath.libmp.BACKEND,
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "precision_bits": BITS,
            "workers": WORKERS,
            "closed_loop_clients": 1,
        }


def job_symbols(job: dict):
    """The input string of a mass-interval job, drawn from the job seed."""
    if job["subcommand"] != "mass-interval":
        return None
    n = job["depth"]
    bits = random.Random(job["seed"]).getrandbits(n)
    return tuple((bits >> i) & 1 for i in range(n))


# --------------------------------------------------------------------- jobs

def time_setup(program: Program, job: dict):
    """Seconds per set-up of ``job``, repeated until SETUP_MIN_S have passed
    so that sub-millisecond set-ups are timed as reliably as long ones."""
    runs = 0
    start = perf_counter()
    while True:
        try:
            if program.setup(job) is None:
                return None
        except Exception:  # the job itself reports the failure
            return None
        runs += 1
        elapsed = perf_counter() - start
        if elapsed >= SETUP_MIN_S:
            return elapsed / runs


def run_job(program: Program, job: dict, symbols, reference: dict | None,
            tracer: Tracer | None = None) -> tuple[dict, dict | None]:
    """Run and check one job; returns its record and its documents."""
    rec = {"id": job["id"], "subcommand": job["subcommand"], "depth": job["depth"],
           "kind": jobgen.job_env_kind(job), "tag": job["tag"], "seconds": None,
           "outcomes": [], "problems": []}
    try:
        if tracer is None:
            elapsed, docs, details = program.execute(job, symbols)
        else:
            elapsed, docs, details = tracer.span("job", program.execute, job, symbols)
    except Exception as exc:  # a job failure is data; the loop carries on
        rec["error"] = f"{type(exc).__name__}: {exc}"
        rec["defect"] = check.known_defect(exc)
        if rec["defect"] is None:
            rec["problems"].append("unexpected exception")
        return rec, None
    rec["seconds"] = elapsed
    rec["bytes"] = details["bytes"]
    rec["outcomes"] = details["outcomes"]
    if tracer is not None:
        return rec, docs
    problems = check.check_outcomes(job, rec["outcomes"])
    if job["subcommand"] == "mass-interval":
        problems += check.check_mass_interval(job["spec"]["env"], symbols,
                                              details["lo"], details["hi"])
    elif job["subcommand"] == "sample":
        problems += check.check_sample(job["spec"]["env"], job["depth"], docs)
    ref = (reference or {}).get(job["id"])
    if ref is not None and "error" not in ref:
        problems += check.compare_reference(docs, ref)
        rec["reference_checked"] = True
    rec["problems"] = problems
    margins = check.verdict_margins(docs)
    rec["margin_log2_min"] = min(margins) if margins else None
    return rec, docs


def passed(rec: dict) -> bool:
    return rec["seconds"] is not None and not rec["problems"]


def run_probe(program: Program, job: dict) -> dict:
    """Replay one known-defect probe: ``present`` when it still raises its
    defect, ``fixed`` when it passes its check, ``wrong`` otherwise."""
    rec, _ = run_job(program, job, job_symbols(job), None)
    status = ("fixed" if passed(rec)
              else "present" if rec["seconds"] is None and rec.get("defect")
              else "wrong")
    return {"id": job["id"], "status": status,
            "why": rec.get("defect") or "; ".join(rec["problems"]) or rec.get("error")}


def measure(program: Program, jobs: list[dict], seconds: float,
            reference: dict | None, traced: bool) -> tuple[list, Tracer | None, float]:
    """The closed loop: one job after another until ``seconds`` have passed."""
    symbols = {job["id"]: job_symbols(job) for job in jobs}
    tracer = Tracer() if traced else None
    records = []
    start = perf_counter()
    probe = speed_probe()
    while not records or perf_counter() - start < seconds:
        job = jobs[len(records) % len(jobs)]
        cycle = len(records) // len(jobs)
        setup = time_setup(program, job) if cycle < SETUP_REPS else None
        rec, docs = run_job(program, job, symbols[job["id"]], reference)
        rec["setup_s"] = setup
        after = speed_probe()
        rec["probe_s"] = (probe + after) / 2
        probe = after
        if tracer is not None and rec["seconds"] is not None:
            tracer.job = len(records)
            tracer.install("semilab")
            try:
                traced_rec, traced_docs = run_job(program, job, symbols[job["id"]],
                                                  None, tracer)
            finally:
                tracer.uninstall()
            rec["traced_seconds"] = traced_rec["seconds"]
            if traced_docs != docs:
                rec["problems"].append("traced run produced different output")
        records.append(rec)
    return records, tracer, perf_counter() - start


# ------------------------------------------------------------------ metrics

def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile; infinite values (failed jobs) sort last."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo, hi = math.floor(pos), math.ceil(pos)
    if math.isinf(ordered[hi]):
        return math.inf
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def scaled(seconds: float, rec: dict) -> float:
    """A time measured next to ``rec``'s job, at the nominal CPU speed."""
    return seconds * PROBE_NOMINAL_S / rec["probe_s"]


def trimmed_mean(values: list[float]) -> float:
    """The mean without the fastest and the slowest value once there are five
    or more.  A job repeats only a few times in a run, and over so few values
    a mean varies less than a median does."""
    ordered = sorted(values)
    return statistics.mean(ordered[1:-1] if len(ordered) >= 5 else ordered)


def per_job(records: list[dict]) -> tuple[list[float], list[float]]:
    """Each job of the cycle: the trimmed mean of its scaled times over its
    repetitions in the run, and its fastest scaled set-up.  A job that failed
    in any repetition is infinitely slow."""
    times: dict[str, list[float]] = {}
    setups: dict[str, list[float]] = {}
    for r in records:
        times.setdefault(r["id"], []).append(
            scaled(r["seconds"], r) if passed(r) else math.inf)
        if r["setup_s"] is not None:
            setups.setdefault(r["id"], []).append(scaled(r["setup_s"], r))
    typical = [math.inf if math.inf in t else trimmed_mean(t) for t in times.values()]
    return typical, [min(s) for s in setups.values()]


def end_to_end(records: list[dict], wall: float, cycle: int) -> dict:
    # A failed job is slower than any limit; a percentile that lands on one
    # is reported as the whole run's wall time, which no job exceeded.
    times, setups = per_job(records)
    # Goodput counts whole cycles only: the jobs of a cycle differ in cost,
    # so where the run happens to stop within a cycle would move it.
    whole = records[:max(len(records) // cycle, 1) * cycle]
    busy = sum(scaled(r["seconds"], r) for r in whole if r["seconds"] is not None)

    def finite(v):
        return wall if math.isinf(v) else v

    return {
        "setup_s": statistics.median(setups) if setups else 0.0,
        "job_s_p50": finite(percentile(times, 0.5)),
        "job_s_p90": finite(percentile(times, 0.9)),
        "jobs_per_s": sum(map(passed, whole)) / busy if busy else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def outcome_ratios(records: list[dict]) -> dict:
    verdicts = [o for r in records for o in r["outcomes"]]
    return {
        "failed_ratio": sum(not passed(r) for r in records) / len(records),
        "inconclusive_ratio": (sum(o == check.INCONCLUSIVE for o in verdicts) / len(verdicts)
                               if verdicts else 0.0),
    }


def per_layer(tracer: Tracer, records: list[dict], import_ms: float) -> dict:
    done = [r for r in records if r.get("traced_seconds") is not None]
    n = len(done) or 1
    stats = tracer.stats

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return stats.get(name, (0, 0.0, 0.0))[2]

    def per_call_us(name):
        return self_s(name) / calls(name) * 1e6 if calls(name) else 0.0

    def each(value, scale=1.0):
        return value / n * scale

    m = {
        "cli.import_ms": import_ms,
        "cli.parse.self_ms": each(self_s("cli.parse"), 1e3),
        "cli.parse.calls": each(calls("cli.parse")),
        "cli.emit.self_ms": each(self_s("cli.emit"), 1e3),
        "cli.emit.bytes": each(sum(r.get("bytes", 0) for r in done)),
        "envcore.validate.self_ms": each(self_s("envcore.validate"), 1e3),
        "envcore.validate.calls": each(calls("envcore.validate")),
    }
    for kind in CURSOR_KINDS:
        m[f"envcore.cursor.row_us.{kind}"] = per_call_us(f"envcore.cursor.row.{kind}")
        m[f"envcore.cursor.step_us.{kind}"] = per_call_us(f"envcore.cursor.step.{kind}")
    m["envcore.cursor.steps"] = each(sum(
        calls(f"envcore.cursor.step.{k}") for k in set(KINDS.values()) | {"other"}))
    # unit costs of the two library calls come from their untraced job times
    for kind in MASS_KINDS:
        runs = [r for r in done if r["subcommand"] == "mass-interval" and r["kind"] == kind]
        steps = sum(r["depth"] for r in runs)
        m[f"envcore.mass_interval.s_per_1e5.{kind}"] = (
            sum(scaled(r["seconds"], r) for r in runs) / steps * 1e5 if steps else 0.0)
    runs = [r for r in done if r["subcommand"] == "sample"]
    steps = sum(r["depth"] for r in runs)
    m["envcore.sample.ms_per_1e3"] = (
        sum(scaled(r["seconds"], r) for r in runs) / steps * 1e6 if steps else 0.0)
    m["envcore.fraction_bits_max"] = tracer.fraction_bits_max
    m.update({
        "mixtures.is_measure.self_ms": each(self_s("mixtures.is_measure"), 1e3),
        "mixtures.cursor.row_us": per_call_us("mixtures.cursor.row"),
        "mixtures.cursor.step_us": per_call_us("mixtures.cursor.step"),
        "mixtures.cursor.clone_us": per_call_us("mixtures.cursor.clone"),
        "mixtures.cursor.clones": each(calls("mixtures.cursor.clone")),
        "mixtures.eval.self_us": per_call_us("mixtures.eval"),
        "mixtures.eval.calls": each(calls("mixtures.eval")),
        "mixtures.total_mass.self_ms": each(self_s("mixtures.total_mass"), 1e3),
        "mixtures.total_mass.calls": each(calls("mixtures.total_mass")),
        "divergence.hellinger_step.self_us": per_call_us("divergence.hellinger_step"),
        "divergence.hellinger_step.calls": each(calls("divergence.hellinger_step")),
        "divergence.walk.self_s": each(sum(self_s(w) for w in WALKS)),
        "divergence.walk.rows": each(tracer.walk_rows),
        "divergence.verify_dominance.self_ms": each(
            self_s("divergence.verify_dominance"), 1e3),
        "intervals.from_fraction.self_us": per_call_us("intervals.from_fraction"),
        "intervals.from_fraction.calls": each(calls("intervals.from_fraction")),
        "intervals.compare_le.calls": each(calls("intervals.compare_le")),
        "intervals.inconclusive": each(sum(
            o == check.INCONCLUSIVE for r in done for o in r["outcomes"])),
        "intervals.margin_log2_min": min(
            (r["margin_log2_min"] for r in records if r.get("margin_log2_min") is not None),
            default=0.0),
    })
    for name in ("randomness.deficiency_trace", "randomness.leftmost_random",
                 "randomness.e2i", "randomness.prop8", "randomness.delta_hat_ratio_check",
                 "counterexample.nu_limit", "counterexample.verify_nonconvergence"):
        m[f"{name}.self_ms"] = each(self_s(name), 1e3)
    untraced = sum(r["seconds"] for r in done)
    traced = sum(r["traced_seconds"] for r in done)
    m["trace.overhead_ratio"] = untraced / traced if traced else 0.0
    ratios = outcome_ratios(records)
    m["jobs.failed_ratio"] = ratios["failed_ratio"]
    m["verdicts.inconclusive_ratio"] = ratios["inconclusive_ratio"]
    return m


def shares(tracer: Tracer, records: list[dict]) -> dict:
    """Percent of traced job time spent as self time in set-up (parse plus
    certification), in each module outside set-up, and outside every span."""
    traced_total = sum(r.get("traced_seconds") or 0.0 for r in records)
    out = dict.fromkeys(("setup", *MODULES, "other"), 0.0)
    for name, (_, _, self_s) in tracer.stats.items():
        group = ("setup" if name in SETUP_SPANS
                 else "other" if name == "job" else name.split(".", 1)[0])
        out[group] += self_s
    scale = 100 / traced_total if traced_total else 0.0
    return {k: v * scale for k, v in out.items()}


def declared_metrics(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# ---------------------------------------------------------------- reference

def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / workload / f"seed-{seed}.json"


def load_reference(workload: str, seed: int) -> dict | None:
    path = reference_path(workload, seed)
    if not path.is_file():
        return None
    return json.loads(path.read_text())["jobs"]


def make_reference(program: Program, workload: str, seed: int) -> int:
    jobs = jobgen.make_jobs(workload, seed)
    entries = {}
    for job in jobs:
        rec, docs = run_job(program, job, job_symbols(job), None)
        if rec["problems"]:
            print(f"error: {job['id']} fails its check: {rec['problems']}", file=sys.stderr)
            return 1
        entries[job["id"]] = ({"error": rec["error"]} if docs is None
                              else check.reference_entry(docs))
    path = reference_path(workload, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"workload": workload, "seed": seed, "jobs": entries},
                               indent=0, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


# ---------------------------------------------------------------------- run

def run_workload(args) -> int:
    program = Program()
    jobs = jobgen.make_jobs(args.workload, args.seed)
    reference = load_reference(args.workload, args.seed)
    probes = [run_probe(program, job) for job in jobgen.make_probes(args.seed)]
    records, tracer, wall = measure(program, jobs, args.seconds, reference, args.trace)

    breakdown = None
    if args.trace:
        computed = per_layer(tracer, records, program.import_ms)
        breakdown = shares(tracer, records)
    else:
        computed = end_to_end(records, wall, len(jobs))
    units = declared_metrics(args.trace)
    metrics = {name: computed[name] for name in units}
    ratios = outcome_ratios(records)
    failed = [r for r in records if not passed(r)]
    unexpected = [r for r in failed if r.get("defect") is None]
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": jobgen.WHY[args.workload],
        "tag_shares": jobgen.tag_shares(jobs), "metadata": program.metadata(),
        "wall_s": wall, "jobs": len(records), "ratios": ratios,
        "reference_checked": sum(bool(r.get("reference_checked")) for r in records),
        "metrics": metrics, "self_time_pct": breakdown, "probes": probes,
        "records": records,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(summary, indent=1, default=str) + "\n")
    if tracer is not None:
        tracer.write_spans(OUT_DIR / f"{stem}.spans.jsonl")

    print(f"# {args.workload} seed={args.seed} jobs={len(records)} wall={wall:.1f}s "
          f"tags={summary['tag_shares']} reference_checked={summary['reference_checked']}")
    print(f"# failed_ratio={ratios['failed_ratio']:.4f} "
          f"inconclusive_ratio={ratios['inconclusive_ratio']:.4f}")
    causes: dict[tuple, int] = {}
    for rec in failed:
        why = rec.get("defect") or "; ".join(rec["problems"]) or rec.get("error")
        key = (rec["id"], rec["subcommand"], why)
        causes[key] = causes.get(key, 0) + 1
    for (job_id, subcommand, why), count in causes.items():
        print(f"# failed {job_id} {subcommand} x{count}: {why}")
    for probe in probes:
        print(f"# probe {probe['id']} (not timed, not counted): {probe['status']}"
              + (f": {probe['why']}" if probe["why"] else ""))
    if breakdown:
        print(f"# {args.workload} self time: " + ", ".join(
            f"{k} {v:.0f}%" for k, v in sorted(breakdown.items(), key=lambda kv: -kv[1])))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not unexpected and all(p["status"] != "wrong" for p in probes),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    status = 0
    for workload in jobgen.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace))]
        status |= subprocess.run(cmd, cwd=ROOT).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="semilab benchmark")
    parser.add_argument("--workload", required=True, choices=(*jobgen.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=jobgen.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-reference", action="store_true",
                        help="run one cycle and store its outputs as the reference")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.make_reference:
        return make_reference(Program(), args.workload, args.seed)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
