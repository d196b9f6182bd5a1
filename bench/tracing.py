"""Layer tracing from outside the program.

``Tracer.install`` wraps each module's public functions and the cursor
methods, and rebinds every semilab module's reference to them (``divergence``
holds its own ``from_fraction``, ``counterexample`` its own
``verify_dominance``, and so on).  Nothing under ``src/`` changes.

Each call is a span: name, start, end and the span that caused it.  A span's
self time is its duration minus the time its child spans cover.  Coarse spans
(one per parse, validation, walk, trace or construction) are kept in memory
one by one and written out at the end.  Spans at the hot boundaries (cursor
methods, ``hellinger_step``, ``from_fraction``, ``compare_le``, mixture
evaluation) run millions of times per job, so they are folded into per-name
totals as they close instead of being stored.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from time import perf_counter

WALKS = ("divergence.expected_hellinger_sums", "divergence.expected_exp_half_sum",
         "divergence.markov_tail_check")

# (span name, module, attribute path, coarse?)
TARGETS = (
    ("cli.run", "cli", "run_experiment", True),
    ("cli.parse", "cli", "parse_env_spec", True),
    ("cli.parse", "cli", "parse_class", True),
    ("cli.parse", "cli", "parse_environment", True),
    ("cli.emit", "cli", "emit_results", True),
    ("envcore.validate", "envcore", "validate", True),
    ("mixtures.is_measure", "mixtures", "EnvClass.is_measure", False),
    ("mixtures.total_mass", "mixtures", "QuasimeasureEnv.total_mass", True),
    ("mixtures.eval", "mixtures", "MixtureEnv._mass", False),
    ("mixtures.cursor.row", "mixtures", "_MixtureCursor.row", False),
    ("mixtures.cursor.step", "mixtures", "_MixtureCursor.step", False),
    ("mixtures.cursor.clone", "mixtures", "_MixtureCursor.clone", False),
    ("divergence.hellinger_step", "divergence", "hellinger_step", False),
    ("divergence.expected_hellinger_sums", "divergence", "expected_hellinger_sums", True),
    ("divergence.expected_exp_half_sum", "divergence", "expected_exp_half_sum", True),
    ("divergence.markov_tail_check", "divergence", "markov_tail_check", True),
    ("divergence.verify_dominance", "divergence", "verify_dominance", True),
    ("divergence.hellinger_trace", "divergence", "hellinger_trace", True),
    ("divergence.chain_inequality", "divergence", "chain_inequality", True),
    ("intervals.from_fraction", "intervals", "from_fraction", False),
    ("intervals.compare_le", "intervals", "compare_le", False),
    ("randomness.deficiency_trace", "randomness", "deficiency_trace", True),
    ("randomness.leftmost_random", "randomness", "leftmost_random", True),
    ("randomness.e2i", "randomness", "e2i_build_mubar", True),
    ("randomness.e2i", "randomness", "e2i_individual_bound", True),
    ("randomness.prop8", "randomness", "prop8_expected_bound", True),
    ("randomness.delta_hat_ratio_check", "randomness", "delta_hat_ratio_check", True),
    ("counterexample.nu_limit", "counterexample", "nu_limit", True),
    ("counterexample.build_mprime", "counterexample", "build_mprime", True),
    ("counterexample.verify_nonconvergence", "counterexample",
     "verify_nonconvergence", True),
)

# cursor classes whose row/step/clone are named by the kind of their env
CURSORS = (("envcore", "EnvCursor"), ("envcore", "_IIDCursor"),
           ("envcore", "_DecayingCursor"))
KINDS = {"CategoricalIIDEnv": "iid", "BernoulliEnv": "iid", "MarkovEnv": "markov",
         "LeakyEnv": "leaky", "DecayingEnv": "decaying", "TableEnv": "table"}


def env_kind(env) -> str:
    return KINDS.get(type(env).__name__, "other")


def _fraction_bits(q) -> int:
    if isinstance(q, Fraction):
        return q.numerator.bit_length() + q.denominator.bit_length()
    return 0


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, child_time, span_id]
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.walk_rows = 0
        self.steps: dict[str, int] = {}  # steps fed to mass_interval/sample per kind
        self.fraction_bits_max = 0
        self.spans: list[tuple] = []
        self.job = None
        self._next_id = 0
        self._patches: list[tuple] = []

    # ----------------------------------------------------------- spans

    def _open(self, name: str, coarse: bool) -> list:
        span_id = None
        if coarse:
            self._next_id += 1
            span_id = self._next_id
        frame = [name, 0.0, span_id]
        self.stack.append(frame)
        return frame

    def _close(self, frame: list, start: float, end: float) -> None:
        self.stack.pop()
        duration = end - start
        st = self.stats.get(frame[0])
        if st is None:
            st = self.stats[frame[0]] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += duration
        st[2] += duration - frame[1]
        parent = None
        if self.stack:
            self.stack[-1][1] += duration
            parent = next((f[2] for f in reversed(self.stack) if f[2] is not None), None)
        if frame[2] is not None:
            self.spans.append((frame[2], parent, self.job, frame[0], start, end))

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a coarse span (used for the job root)."""
        frame = self._open(name, True)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(frame, start, perf_counter())

    def _count_walk_row(self) -> None:
        if self.stack and self.stack[-1][0] in WALKS:
            self.walk_rows += 1

    def _wrap(self, name, fn, coarse: bool):
        tracer = self
        is_row = name.endswith("cursor.row")

        def traced(*args, **kwargs):
            if is_row:
                tracer._count_walk_row()
            frame = tracer._open(name, coarse)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame, start, perf_counter())

        traced.__wrapped__ = fn
        return traced

    def _wrap_cursor(self, op: str, fn):
        tracer = self

        def traced(cursor, *args):
            name = f"envcore.cursor.{op}.{env_kind(cursor._env)}"
            if op == "row":
                tracer._count_walk_row()
            frame = tracer._open(name, False)
            start = perf_counter()
            try:
                return fn(cursor, *args)
            finally:
                tracer._close(frame, start, perf_counter())
                bits = _fraction_bits(cursor.__dict__.get("_mass"))
                if bits > tracer.fraction_bits_max:
                    tracer.fraction_bits_max = bits

        traced.__wrapped__ = fn
        return traced

    def _wrap_counted(self, name, fn, length_of):
        """A coarse span named by the env kind, counting steps per kind."""
        tracer = self

        def traced(env, arg, *args, **kwargs):
            kind = env_kind(env)
            tracer.steps[f"{name}.{kind}"] = (tracer.steps.get(f"{name}.{kind}", 0)
                                             + length_of(arg))
            frame = tracer._open(f"{name}.{kind}", True)
            start = perf_counter()
            try:
                return fn(env, arg, *args, **kwargs)
            finally:
                tracer._close(frame, start, perf_counter())

        traced.__wrapped__ = fn
        return traced

    # -------------------------------------------------------- patching

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_function(self, modules: dict, original, new) -> None:
        """Rebind every module-level reference to ``original``."""
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, new)

    def install(self, package) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == package or name.startswith(package + ".")}
        short = {name.rsplit(".", 1)[-1]: mod for name, mod in modules.items()}
        for name, module, path, coarse in TARGETS:
            owner = short[module]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
                self._patch(owner, attr, self._wrap(name, owner.__dict__[attr], coarse))
            else:
                original = getattr(owner, attr)
                self._patch_function(modules, original, self._wrap(name, original, coarse))
        envcore = short["envcore"]
        self._patch_function(modules, envcore.mass_interval, self._wrap_counted(
            "envcore.mass_interval", envcore.mass_interval, len))
        self._patch_function(modules, envcore.sample, self._wrap_counted(
            "envcore.sample", envcore.sample, int))
        for module, cls_name in CURSORS:
            cls = getattr(short[module], cls_name)
            for op in ("row", "step", "clone"):
                if op in cls.__dict__:
                    self._patch(cls, op, self._wrap_cursor(op, cls.__dict__[op]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ---------------------------------------------------------- output

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            for span_id, parent, job, name, start, end in self.spans:
                out.write(json.dumps({"id": span_id, "parent": parent, "job": job,
                                      "name": name, "start": start, "end": end}) + "\n")
            for name, (calls, total, self_s) in sorted(self.stats.items()):
                out.write(json.dumps({"aggregate": name, "calls": calls,
                                      "total_s": total, "self_s": self_s}) + "\n")
