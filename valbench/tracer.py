"""Traced mode: spans around the public functions of each valtree layer.

``Tracer.install`` wraps every listed function or method and rebinds the
wrapper in every ``valtree.*`` module namespace that holds the original,
matched by identity, so internal and cross-module calls (``m_value`` calling
``evaluate``, ``suites`` calling its imported names) are caught too.

Each call records a span (name, start, end, parent).  Self time is the span's
duration minus the time its child spans cover; it is summed per name as the
spans close.  The first ``SPAN_CAP`` spans are also kept in memory and written
out by ``write_spans`` when the run ends.  The untraced runs that produce the
end-to-end numbers never install a tracer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# (layer, metric name, module, attribute path)
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("poly", "poly_parse", "valtree.poly", "poly_parse"),
    ("poly", "substitute", "valtree.poly", "BivarPoly.substitute"),
    ("poly", "frame_apply", "valtree.poly", "frame_apply"),
    ("poly", "weighted_order", "valtree.poly", "weighted_order"),
    ("valuation.eval", "evaluate", "valtree.valuation", "evaluate"),
    ("valuation.eval", "QuasiMonomialVal", "valtree.valuation", "QuasiMonomialVal.__post_init__"),
    ("valuation.chain", "canonicalize", "valtree.valuation", "canonicalize"),
    ("valuation.chain", "m_value", "valtree.valuation", "m_value"),
    ("valuation.chain", "normalize", "valtree.valuation", "normalize"),
    ("valuation.chain", "from_canonical", "valtree.valuation", "from_canonical"),
    ("valuation.chain", "multiplicity_stream", "valtree.valuation", "multiplicity_stream"),
    ("valuation.order", "meet", "valtree.valuation", "meet"),
    ("valuation.order", "compare", "valtree.valuation", "compare"),
    ("valuation.order", "infimum", "valtree.valuation", "infimum"),
    ("krull", "krull_lift", "valtree.krull", "krull_lift"),
    ("krull", "rank2_eval", "valtree.krull", "rank2_eval"),
    ("tree", "t_meet", "valtree.tree", "t_meet"),
    ("tree", "t_dpsi", "valtree.tree", "t_dpsi"),
    ("tree", "t_inf_set", "valtree.tree", "t_inf_set"),
    ("tree", "tree_axiom_report", "valtree.tree", "tree_axiom_report"),
    ("tree", "ball_in_subbasic_check", "valtree.tree", "ball_in_subbasic_check"),
    ("jsonio", "valuation_from_json", "valtree.jsonio", "valuation_from_json"),
    ("jsonio", "valuation_to_json", "valtree.jsonio", "valuation_to_json"),
    ("jsonio", "canonical_from_json", "valtree.jsonio", "canonical_from_json"),
    ("jsonio", "canonical_to_json", "valtree.jsonio", "canonical_to_json"),
    ("jsonio", "tree_from_json", "valtree.jsonio", "tree_from_json"),
    ("jsonio", "tree_to_json", "valtree.jsonio", "tree_to_json"),
    ("jsonio", "rank2_values_from_json", "valtree.jsonio", "rank2_values_from_json"),
    ("jsonio", "rank2_values_to_json", "valtree.jsonio", "rank2_values_to_json"),
    ("cli", "main", "valtree.cli", "main"),
)

# Generators and oracles of ``testkit``, reported together as one span name.
TESTKIT = (
    "gen_poly",
    "sample_polys",
    "gen_qmv",
    "gen_unit_pair",
    "gen_tree",
    "pair_form",
    "euclid_multiplicity_oracle",
    "curvette",
    "brute_meet_oracle",
    "sampling_leq_oracle",
)

SPAN_CAP = 200_000


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr] if outer else getattr(owner, attr)


class Tracer:
    def __init__(self, observers: Optional[Dict[str, Callable]] = None):
        self.names = [f"{layer}.{name}" for layer, name, _, _ in TARGETS] + ["testkit"]
        self.index = {name: i for i, name in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.errors = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.spans: List[Tuple[int, float, float, int, int]] = []  # name, start, end, parent, id
        self.dropped = 0
        self._stack: List[list] = []  # [span id, name index, start, child time]
        self._next_id = 0
        self._undo: List[Tuple[object, str, object]] = []
        self.observers = observers or {}

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, idx: int) -> None:
        self._stack.append([self._next_id, idx, time.perf_counter(), 0.0])
        self._next_id += 1

    def _exit(self, failed: bool) -> None:
        end = time.perf_counter()
        span_id, idx, start, child = self._stack.pop()
        dur = end - start
        self.self_s[idx] += dur - child
        if failed:
            self.errors[idx] += 1
        parent = -1
        if self._stack:
            top = self._stack[-1]
            top[3] += dur
            parent = top[0]
        if len(self.spans) < SPAN_CAP:
            self.spans.append((idx, start, end, parent, span_id))
        else:
            self.dropped += 1

    def _wrap(self, fn, name: str):
        idx = self.index[name]
        observe = self.observers.get(name)
        enter, exit_ = self._enter, self._exit
        calls = self.calls

        if inspect.isgeneratorfunction(fn):
            # time each resume of the generator, count the call once
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                calls[idx] += 1
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        enter(idx)
                        try:
                            value = next(inner)
                        except StopIteration:
                            exit_(False)
                            return
                        except BaseException:
                            exit_(True)
                            raise
                        exit_(False)
                        yield value
                finally:
                    inner.close()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if observe is not None:
                observe(*args)
            calls[idx] += 1
            enter(idx)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                exit_(True)
                raise
            exit_(False)
            return out

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        wrappers: Dict[int, object] = {}
        for layer, name, module, path in TARGETS:
            owner, attr, fn = _resolve(module, path)
            wrapped = self._wrap(fn, f"{layer}.{name}")
            wrappers[id(fn)] = wrapped
            if "." in path:  # a method: rebind on its class
                self._undo.append((owner, attr, fn))
                setattr(owner, attr, wrapped)
        testkit = importlib.import_module("valtree.testkit")
        for attr in TESTKIT:
            fn = getattr(testkit, attr)
            wrappers[id(fn)] = self._wrap(fn, "testkit")
        for modname, module in list(sys.modules.items()):
            if modname != "valtree" and not modname.startswith("valtree."):
                continue
            for attr, value in list(vars(module).items()):
                wrapped = wrappers.get(id(value))
                if wrapped is not None:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results ---------------------------------------------------------------

    def metrics(self) -> Dict[str, Dict[str, float]]:
        out = {}
        for i, name in enumerate(self.names):
            out[name] = {
                "calls": self.calls[i],
                "self_s": self.self_s[i],
                "errors": self.errors[i],
            }
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            head = {"spans": len(self.spans), "dropped": self.dropped, "names": self.names}
            fh.write(json.dumps(head) + "\n")
            for idx, start, end, parent, span_id in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "name": self.names[idx], "start": start,
                         "end": end, "parent": parent}
                    )
                    + "\n"
                )
