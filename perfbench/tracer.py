"""In-memory tracing of backsim from the outside, for the benchmark's traced run.

The tracer wraps public functions of the backsim modules; the program itself
is not edited. Two kinds of wrapper:

- span: one record per call (name, start, end, parent id, self time), for
  calls at experiment, topology, population and curve boundaries;
- accumulator: a call count and total time, for functions called per
  node-slot (``step_slot`` runs about 2.2M times per fig3 run), which keeps
  the trace small.

A span's self time is its duration minus the time its child spans and the
accumulated calls made inside it cover. Calls run in one thread, one after
another, so the children's durations do not overlap and their sum is the
covered time.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []          # finished: [id, parent, name, start, end, self_s]
        self._open = []          # [id, name, start, covered]
        self.counters = {}       # "<module>.<function>" -> {"calls", "s", extra counts}

    def counter(self, name):
        return self.counters.setdefault(name, {"calls": 0, "s": 0.0})

    def _cover(self, seconds):
        if self._open:
            self._open[-1][3] += seconds

    def run_span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` and return its result."""
        span = [len(self.spans) + len(self._open), name, perf_counter(), 0.0]
        parent = self._open[-1][0] if self._open else None
        self._open.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open.pop()
            duration = end - span[2]
            self.spans.append([span[0], parent, name, span[2], end, duration - span[3]])
            self._cover(duration)

    def span_wrapper(self, name, fn, after=None):
        counter = self.counter(name)

        def traced(*args, **kwargs):
            started = perf_counter()
            result = self.run_span(name, fn, *args, **kwargs)
            counter["calls"] += 1
            counter["s"] += perf_counter() - started
            if after is not None:
                after(counter, args, kwargs, result)
            return result
        return traced

    def accumulate_wrapper(self, name, fn, after=None):
        counter = self.counter(name)
        open_spans = self._open

        def accumulated(*args, **kwargs):
            started = perf_counter()
            result = fn(*args, **kwargs)
            elapsed = perf_counter() - started
            counter["calls"] += 1
            counter["s"] += elapsed
            if open_spans:
                open_spans[-1][3] += elapsed
            if after is not None:
                after(counter, args, kwargs, result)
            return result
        return accumulated

    def self_time(self, name):
        return sum(span[5] for span in self.spans_named(name))

    def spans_named(self, name):
        return [s for s in self.spans if s[2] == name]


class CountingGenerator:
    """Duck-typed stand-in for a numpy Generator that counts and times draws.

    Every method call is counted, its returned values are counted, and its
    time is charged to the open span, whatever methods the estimator uses.
    """

    def __init__(self, rng, tracer, name="dyadic.rng"):
        self._rng = rng
        self._tracer = tracer
        self._name = name

    def __getattr__(self, attr):
        method = getattr(self._rng, attr)
        if not callable(method):
            return method
        counter = self._tracer.counter(self._name)
        per_method = self._tracer.counter(f"{self._name}.{attr}")
        tracer = self._tracer

        def drawn(*args, **kwargs):
            started = perf_counter()
            out = method(*args, **kwargs)
            elapsed = perf_counter() - started
            tracer._cover(elapsed)
            for c in (counter, per_method):
                c["calls"] += 1
                c["s"] += elapsed
                c["values"] = c.get("values", 0) + int(np.size(out))
            return out
        return drawn


def _step_after(counter, args, kwargs, result):
    counter["active"] = counter.get("active", 0) + int(result.was_active)


def _ber_after(counter, args, kwargs, result):
    sinr = args[0] if args else kwargs["sinr_linear"]
    counter["values"] = counter.get("values", 0) + int(np.size(sinr))


def _dyadic_after(counter, args, kwargs, result):
    counter["trials"] = counter.get("trials", 0) + int(args[4]) * len(args[3])


def _population_after(counter, args, kwargs, result):
    config, topology = args[0], args[2]
    num_slots = kwargs.get("num_slots", args[4] if len(args) > 4 else None)
    slots = config.num_slots if num_slots is None else num_slots
    counter["node_slots"] = counter.get("node_slots", 0) + len(topology) * slots
    counter["active_link_slots"] = counter.get("active_link_slots", 0) + int(result.ber_samples)


def _placement_after(counter, args, kwargs, result):
    counter["nodes"] = counter.get("nodes", 0) + len(result)
    counter["empty"] = counter.get("empty", 0) + int(len(result) == 0)


# (module, function, per-call span?, hook run after each call). place_nodes
# opens each topology and run_population each population; the experiment and
# curve spans come from child.py and simulate_dyadic_ber.
TARGETS = (
    ("backsim.scenario", "place_nodes", True, _placement_after),
    ("backsim.channel", "friis_gain", False, None),
    ("backsim.energymodel", "step_slot", False, _step_after),
    ("backsim.phylink", "bpsk_ber", False, _ber_after),
    ("backsim.netsim", "run_population", True, _population_after),
    ("backsim.netsim", "run_comparison", True, None),
    ("backsim.dyadic", "simulate_dyadic_ber", True, _dyadic_after),
)


def install(tracer):
    """Replace each target, wherever a backsim module binds it, by a wrapper.

    A target that no longer exists is skipped and reports zero calls.
    """
    for module_name, func_name, per_call_span, after in TARGETS:
        try:
            original = getattr(importlib.import_module(module_name), func_name, None)
        except ModuleNotFoundError:
            original = None
        if original is None:
            continue
        name = f"{module_name.split('.')[-1]}.{func_name}"
        make = tracer.span_wrapper if per_call_span else tracer.accumulate_wrapper
        wrapper = make(name, original, after)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "backsim" or mod_name.startswith("backsim."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
