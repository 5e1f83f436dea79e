"""Spans around calls into pvbounds, installed from outside the program.

Each wrapped public function records (name, start, end, parent, q,
section) into an in-memory list; nothing is written until the run ends.
Wrappers replace module attributes, including the names harness and
charsums call each other by, so nested calls made inside the program are
seen too. Calls made inside forked worker processes are not.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# (module, attribute, span name, how to read the modulus from the arguments)
_Q_ARG0 = lambda a: a[0]
_Q_MODULUS = lambda a: a[0].modulus
TARGETS = (
    ("characters", "enumerate_characters", "characters.enumerate", _Q_ARG0),
    ("harness", "enumerate_characters", "characters.enumerate", _Q_ARG0),
    ("characters", "character_from_label", "characters.from_label", _Q_ARG0),
    ("charsums", "prefix_walk", "charsums.walk", _Q_MODULUS),
    ("charsums", "max_interval_sum", "charsums.diameter", _Q_MODULUS),
    ("charsums", "max_initial_sum", "charsums.initial", _Q_MODULUS),
    ("charsums", "char_sum_result", "charsums.sum_result", _Q_MODULUS),
    ("harness", "char_sum_result", "charsums.sum_result", _Q_MODULUS),
    ("bounds", "evaluate_bound", "bounds.evaluate", lambda a: a[1]),
    ("bounds", "crossover", "bounds.crossover", None),
    ("kernel", "lemma3_check", "kernel.lemma3", None),
    ("kernel", "lemma4_check", "kernel.lemma4", None),
    ("kernel", "constant_derivation", "kernel.constant_derivation", None),
    ("lemmas", "lemma1_check", "lemmas.lemma1", None),
    ("lemmas", "lemma2_check", "lemmas.lemma2", None),
    ("harness", "run_sweep", "harness.run_sweep", None),
    ("harness", "sweep_modulus", "harness.sweep_modulus", _Q_ARG0),
    ("harness", "gauss_check_range", "harness.gauss_check_range", None),
    ("harness", "twist_check_range", "harness.twist_check_range", None),
    ("harness", "verify_all", "harness.verify_all", None),
)

NAME, START, END, PARENT, Q, SECTION = range(6)


def band_of(q: int) -> str:
    if q < 5_000:
        return "q2e3"
    if q < 20_000:
        return "q1e4"
    if q < 60_000:
        return "q3e4"
    return "q1e5"


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: list[list] = []
        self.section = ""
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, q_of):
        spans = self.spans
        open_ = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            q = q_of(args) if q_of is not None else None
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, q, self.section]
            spans.append(span)
            open_.append(idx)
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                open_.pop()

        return traced

    def install(self) -> None:
        found = []
        for mod_name, attr, name, q_of in TARGETS:
            mod = importlib.import_module(f"pvbounds.{mod_name}")
            fn = getattr(mod, attr, None)
            if not callable(fn):
                raise RuntimeError(f"traced name pvbounds.{mod_name}.{attr} is missing")
            found.append((mod, attr, fn, name, q_of))
        for mod, attr, fn, name, q_of in found:
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn, q_of))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    # -- aggregation -------------------------------------------------------

    def select(self, name=None, section=None, band=None):
        return [
            s
            for s in self.spans
            if (name is None or s[NAME] == name)
            and (section is None or s[SECTION] == section)
            and (band is None or (s[Q] is not None and band_of(s[Q]) == band))
        ]

    def total_s(self, name, section=None, band=None) -> float:
        return sum(s[END] - s[START] for s in self.select(name, section, band))

    def count(self, name, section=None, band=None) -> int:
        return len(self.select(name, section, band))

    def _self_times(self) -> list[float]:
        """Per span: its duration minus the time its direct children cover
        (children of one span never overlap: the program is single-threaded
        where spans are recorded)."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def self_s(self, prefix: str, section=None) -> float:
        """Self time summed over every span whose name starts with prefix."""
        return sum(
            t for s, t in zip(self.spans, self._self_times())
            if s[NAME].startswith(prefix) and (section is None or s[SECTION] == section)
        )

    def summary(self) -> dict:
        """{section: {span name: {count, total_s, self_s}}} for the run record."""
        out: dict = {}
        for s, t in zip(self.spans, self._self_times()):
            e = out.setdefault(s[SECTION], {}).setdefault(
                s[NAME], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            e["count"] += 1
            e["total_s"] += s[END] - s[START]
            e["self_s"] += t
        return out

    def require(self, names, section=None) -> None:
        """Fail loudly when a wrapped function never ran: a metric built on
        it would otherwise read 0 without saying why."""
        missing = [n for n in names if self.count(n, section) == 0]
        if missing:
            raise RuntimeError(
                f"no spans recorded for {missing}: the wrapped names are no "
                "longer on the program's call path"
            )

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "q", "section"],
                 "spans": self.spans},
                fh,
            )
