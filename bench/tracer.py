"""Per-layer spans recorded from outside the package.

The tracer replaces the names listed in TARGETS, in the modules that look
them up, with wrappers that record a span per call: a layer id, start, end
and the index of the span that was open when the call began. Spans live in
flat arrays until the run ends; ``summary`` then turns them into self times
(a span minus the spans directly under it) and counts per layer.

Two figures are read from the program's own effects rather than from spans:
the bytes of every records log the CLI appended to, from the file sizes, and
the record lines parsed, from a counting wrapper on
``quadprimes.records.from_json_line``.
"""

from __future__ import annotations

import importlib
import os
import time
from array import array
from collections import defaultdict

# (module, attribute, layer). A layer may be reached through several names.
TARGETS = (
    ("quadprimes.cli", "main", "cli"),
    ("quadprimes.cli", "sieve_pi", "sieve"),
    ("quadprimes.cli", "l_one", "character.l_one"),
    ("quadprimes.cli", "l_one_class_number_oracle", "character.oracle"),
    ("quadprimes.cli", "main_term_report", "analytic.main_term"),
    ("quadprimes.cli", "append_record", "records.append"),
    ("quadprimes.sieve", "enumeration_domain", "polynomial.domain"),
    ("quadprimes.sieve", "primes_upto", "primes.upto"),
    ("quadprimes.sieve", "roots_mod_prime", "polynomial.roots_sieve"),
    ("quadprimes.analytic", "v_product", "analytic.v"),
    ("quadprimes.analytic", "primes_upto", "primes.upto"),
    ("quadprimes.analytic", "roots_mod_prime", "polynomial.roots_v"),
    ("quadprimes.polynomial", "is_prime", "primes.is_prime"),
    ("quadprimes.records", "load_records", "records.read"),
    ("quadprimes.records", "find_latest", "records.read"),
)

# counted, not timed: one call per record line read back
LINE_PARSER = ("quadprimes.records", "from_json_line")

_ROOT_SOLVERS = ("polynomial.roots_sieve", "polynomial.roots_v")


class Tracer:
    def __init__(self) -> None:
        self.layers: list[str] = []
        self.layer_ids: dict[str, int] = {}
        self.layer = array("h")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        # counters taken at the same boundaries as the spans
        self.values = 0
        self.root_pairs: set = set()
        self.root_repeats = 0
        self.logs: set[str] = set()
        self.lines_parsed = 0

    def begin_operation(self) -> None:
        """Root repeats are counted within one operation, not across them."""
        self.root_pairs.clear()

    def install(self) -> None:
        for module_name, attr, layer in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, layer))
        module = importlib.import_module(LINE_PARSER[0])
        original = getattr(module, LINE_PARSER[1])
        self._saved.append((module, LINE_PARSER[1], original))
        setattr(module, LINE_PARSER[1], self._count_lines(original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _observer(self, layer: str):
        if layer in _ROOT_SOLVERS:
            def observe(args, result):
                pair = (args[0], args[1])
                if pair in self.root_pairs:
                    self.root_repeats += 1
                else:
                    self.root_pairs.add(pair)
            return observe
        if layer == "sieve":
            def observe(args, result):
                self.values += result.cardinality_a
            return observe
        if layer == "records.append":
            def observe(args, result):
                self.logs.add(args[0])
            return observe
        return None

    def _count_lines(self, fn):
        def counter(*args, **kwargs):
            self.lines_parsed += 1
            return fn(*args, **kwargs)

        counter.__wrapped__ = fn
        return counter

    def _wrap(self, fn, layer: str):
        layer_id = self.layer_ids.setdefault(layer, len(self.layers))
        if layer_id == len(self.layers):
            self.layers.append(layer)
        observe = self._observer(layer)
        layers, starts, ends, parents, stack = (
            self.layer, self.start, self.end, self.parent, self._stack)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(starts)
            layers.append(layer_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def summary(self) -> dict:
        """Self seconds, total seconds and calls per layer, plus counters.
        Root spans are those with no wrapped caller; their total is the
        traced time of the operations. Call it while the logs still exist."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        root_s = 0.0
        for i in range(n):
            layer = self.layers[self.layer[i]]
            duration = self.end[i] - self.start[i]
            self_s[layer] += duration - child[i]
            total_s[layer] += duration
            calls[layer] += 1
            if self.parent[i] < 0:
                root_s += duration
        return {
            "self_s": dict(self_s),
            "total_s": dict(total_s),
            "calls": dict(calls),
            "root_s": root_s,
            "values": self.values,
            "root_repeats": self.root_repeats,
            "bytes_written": sum(os.path.getsize(path) for path in self.logs),
            "lines_parsed": self.lines_parsed,
        }
