"""Spans around dvbond's public functions, installed from outside.

``Tracer.install`` wraps each function in ``TRACED`` and replaces every
binding of it in every loaded ``dvbond`` module: ``pricer`` imports
``zcb_price`` by name, ``cli`` imports ``price_bond`` and so on, so a
wrapper placed only on the defining module would see none of those
calls. ``Tracer.remove`` puts the originals back; untraced timings are
taken only with no wrapper installed.

Each span records its name, start, end and parent. A span opened on a
worker thread whose own stack is empty takes as parent the innermost
span open on the main thread (the MC oracle runs chunks on a thread
pool inside ``simulate_price``). Self time is a span's duration minus
the union of the intervals its child spans cover, so overlapping
children on two threads are not counted twice.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
import time
from array import array

# (defining module, function, span name). A name a later version of the
# package no longer has is skipped and its metrics read 0.
TRACED = (
    ("dvbond.cli", "main", "cli.main"),
    ("dvbond.config", "load_scenarios", "config.load_scenarios"),
    ("dvbond.config", "scenario_from_dict", "config.scenario_from_dict"),
    ("dvbond.config", "scenario_to_dict", "config.scenario_to_dict"),
    ("dvbond.pricer", "price_bond", "pricer.price_bond"),
    ("dvbond.pricer", "price_full", "pricer.price_full"),
    ("dvbond.pricer", "price_last_interval", "pricer.price_last_interval"),
    ("dvbond.pricer", "expected_default_leg", "pricer.expected_default_leg"),
    ("dvbond.pricer", "term_I21_I23", "pricer.term_I21_I23"),
    ("dvbond.pricer", "term_I22_I24", "pricer.term_I22_I24"),
    ("dvbond.ratecurve", "zcb_price", "ratecurve.zcb_price"),
    ("dvbond.ratecurve", "coeff_A", "ratecurve.coeff_A"),
    ("dvbond.ratecurve", "coeff_B", "ratecurve.coeff_B"),
    ("dvbond.mathkit", "integrate_left_tail", "mathkit.integrate_left_tail"),
    ("dvbond.mathkit", "bivariate_cdf_quadform", "mathkit.bivariate_cdf_quadform"),
    ("dvbond.mcoracle", "simulate_price", "mcoracle.simulate_price"),
)

# Per-layer metrics computed from the spans: name -> unit.
SPAN_METRICS = {
    "ratecurve.zcb_price_calls": "count",
    "ratecurve.zcb_price_s": "s",
    "ratecurve.coeff_A_s": "s",
    "ratecurve.coeff_B_s": "s",
    "mathkit.integrate_left_tail_calls": "count",
    "mathkit.integrate_left_tail_s": "s",
    "mathkit.integrand_nodes": "count",
    "mathkit.bivariate_cdf_quadform_s": "s",
    "pricer.price_bond_calls": "count",
    "pricer.price_full_self_s": "s",
    "pricer.expected_default_leg_s": "s",
    "pricer.term_I21_I23_s": "s",
    "pricer.term_I22_I24_s": "s",
    "pricer.price_last_interval_s": "s",
    "config.load_scenarios_s": "s",
    "config.scenario_from_dict_calls": "count",
    "config.scenario_from_dict_s": "s",
    "cli.self_s": "s",
    "mcoracle.simulate_price_s": "s",
    "mcoracle.self_s": "s",
    "mcoracle.chunks": "count",
}


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self):
        self.span_names: list[str] = []
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.integrand_nodes = 0
        self.mc_calls: list[tuple] = []  # (inputs, McConfig) per simulate_price
        self._lock = threading.Lock()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._patches: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name_id: int, stack: list[int]) -> int:
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else -1
        t0 = time.perf_counter_ns()
        with self._lock:
            idx = len(self.name)
            self.name.append(name_id)
            self.start.append(t0)
            self.end.append(0)
            self.parent.append(parent)
        stack.append(idx)
        return idx

    def _close(self, idx: int, stack: list[int]) -> None:
        t1 = time.perf_counter_ns()
        stack.pop()
        with self._lock:
            self.end[idx] = t1

    def _wrap(self, fn, span: str):
        name_id = len(self.span_names)
        self.span_names.append(span)
        tracer = self

        if span == "mathkit.integrate_left_tail":
            def call(f, *args, **kwargs):
                def counted(x):
                    tracer.integrand_nodes += x.size
                    return f(x)
                return fn(counted, *args, **kwargs)
        elif span == "mcoracle.simulate_price":
            def call(inputs, cfg, *args, **kwargs):
                tracer.mc_calls.append((inputs, cfg))
                return fn(inputs, cfg, *args, **kwargs)
        else:
            call = fn

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            idx = tracer._open(name_id, stack)
            try:
                return call(*args, **kwargs)
            finally:
                tracer._close(idx, stack)

        return traced

    def install(self) -> None:
        wrappers = {}
        for module_name, attr, span in TRACED:
            fn = getattr(sys.modules.get(module_name), attr, None)
            if fn is not None:
                wrappers[id(fn)] = (fn, self._wrap(fn, span))
        for module_name, module in list(sys.modules.items()):
            if module_name != "dvbond" and not module_name.startswith("dvbond."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))

    def remove(self) -> None:
        while self._patches:
            module, attr, value = self._patches.pop()
            setattr(module, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def _children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = {}
        for i, p in enumerate(self.parent):
            if p >= 0:
                kids.setdefault(p, []).append(i)
        return kids

    def _duration_s(self, spans) -> float:
        return sum(self.end[i] - self.start[i] for i in spans) * 1e-9

    def _self_s(self, spans, kids) -> float:
        total = 0
        for i in spans:
            covered, reach = 0, self.start[i]
            for lo, hi in sorted((self.start[c], self.end[c]) for c in kids.get(i, ())):
                lo = max(lo, reach)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            total += self.end[i] - self.start[i] - covered
        return total * 1e-9

    def metrics(self, chunk_paths: int) -> dict[str, float]:
        """Every metric of ``SPAN_METRICS`` over the recorded spans.

        ``<fn>_s`` is the inclusive time of the calls to a function,
        except ``ratecurve.coeff_A_s``/``coeff_B_s``, which count only
        calls made directly from ``simulate_price`` (the ones made
        through ``zcb_price`` are inside ``zcb_price_s``).
        ``*self_s`` is time not covered by child spans.
        """
        kids = self._children()
        spans = {span: [] for _, _, span in TRACED}
        for i, name_id in enumerate(self.name):
            spans[self.span_names[name_id]].append(i)
        mc_ids = set(spans["mcoracle.simulate_price"])

        def under_mc(span):
            return [i for i in spans[span] if self.parent[i] in mc_ids]

        chunks = 0
        for _, cfg in self.mc_calls:
            pairs = 2 if getattr(cfg, "antithetic", False) else 1
            per_chunk = chunk_paths // pairs
            units = cfg.n_paths // pairs
            chunks += math.ceil(units / per_chunk)
        return {
            "ratecurve.zcb_price_calls": len(spans["ratecurve.zcb_price"]),
            "ratecurve.zcb_price_s": self._duration_s(spans["ratecurve.zcb_price"]),
            "ratecurve.coeff_A_s": self._duration_s(under_mc("ratecurve.coeff_A")),
            "ratecurve.coeff_B_s": self._duration_s(under_mc("ratecurve.coeff_B")),
            "mathkit.integrate_left_tail_calls":
                len(spans["mathkit.integrate_left_tail"]),
            "mathkit.integrate_left_tail_s":
                self._duration_s(spans["mathkit.integrate_left_tail"]),
            "mathkit.integrand_nodes": self.integrand_nodes,
            "mathkit.bivariate_cdf_quadform_s":
                self._duration_s(spans["mathkit.bivariate_cdf_quadform"]),
            "pricer.price_bond_calls": len(spans["pricer.price_bond"]),
            "pricer.price_full_self_s": self._self_s(spans["pricer.price_full"], kids),
            "pricer.expected_default_leg_s":
                self._duration_s(spans["pricer.expected_default_leg"]),
            "pricer.term_I21_I23_s": self._duration_s(spans["pricer.term_I21_I23"]),
            "pricer.term_I22_I24_s": self._duration_s(spans["pricer.term_I22_I24"]),
            "pricer.price_last_interval_s":
                self._duration_s(spans["pricer.price_last_interval"]),
            "config.load_scenarios_s":
                self._duration_s(spans["config.load_scenarios"]),
            "config.scenario_from_dict_calls":
                len(spans["config.scenario_from_dict"]),
            "config.scenario_from_dict_s":
                self._duration_s(spans["config.scenario_from_dict"]),
            "cli.self_s": self._self_s(spans["cli.main"], kids),
            "mcoracle.simulate_price_s":
                self._duration_s(spans["mcoracle.simulate_price"]),
            "mcoracle.self_s": self._self_s(spans["mcoracle.simulate_price"], kids),
            "mcoracle.chunks": chunks,
        }
