"""Tracing from outside the package, for the benchmark's traced run.

``install(tracer)`` replaces public functions and methods of the layers
``lie``, ``cells``, ``homology``, ``morse``, ``toda``, ``report`` and
``cli`` with wrappers, in every ``todatopo`` module namespace that holds
them.  Coarse calls become spans (start, end, parent span, op index);
hot per-element calls are only counted, so that the wrappers do not
swamp the self times.  Spans stay in memory until ``write_spans``.

Nothing here runs in an untraced worker: the end-to-end numbers come
from processes that never import this module.

Figures internal to ``homology._unit_strip`` (residue shape and fill,
pivots stripped, gcd scalings) are not visible through public functions
and are not reported; they need a stats channel inside the package.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

MAX_DEGREE = 4  # cells.count.d0..d4, cells.nnz.d1..d4, invariant factors d1..d4 (rank 4)

# Counts must repeat exactly across two traced passes of the same seed.
COUNT_KEYS = (
    "lie.group_order",
    "lie.multiply_calls",
    "lie.inverse_calls",
    "lie.min_coset_rep_calls",
    "cells.act_calls",
    "cells.validate_calls",
    *(f"cells.count.d{k}" for k in range(MAX_DEGREE + 1)),
    *(f"cells.nnz.d{k}" for k in range(1, MAX_DEGREE + 1)),
    "homology.factors",
    "homology.torsion_factors",
    "morse.is_transversal_calls",
    "morse.incidence_calls",
    "toda.invariants_calls",
    "toda.steps",
    "toda.blowups",
    "report.bytes",
)

TIME_KEYS = (
    "lie.group_s",
    "cells.enumerate_s",
    "cells.assembly_s",
    "cells.validate_s",
    "homology.homology_of_s",
    "homology.invariant_factors_s",
    *(f"homology.invariant_factors_s.d{k}" for k in range(1, MAX_DEGREE + 1)),
    "morse.toda_graph_s",
    "morse.edges_s",
    "morse.complex_s",
    "morse.formulas_s",
    "toda.integrate_s",
    "toda.invariants_s",
    "toda.eigenvalues_s",
    "report.write_s",
    "cli.self_s",
)

RATIO_KEYS = ("morse.transversal_ratio", "toda.steps_per_s")


def unit(key: str) -> str:
    if key in COUNT_KEYS:
        return "bytes" if key == "report.bytes" else "count"
    if key.endswith("_per_s"):
        return "1/s"
    return "ratio" if key.endswith("_ratio") else "s"


# Span key of the cli layer's own wrappers.  cli.self_s is reported as op
# wall time minus every other layer's self time; this measured figure is
# what the self-time sum is checked against.
CLI_SPAN = "cli.span_s"


class Tracer:
    """Spans and counters of one traced pass, kept per op."""

    def __init__(self):
        self.spans = []  # (span id, parent id, op, key, start, end)
        self._stack = []  # [span id, seconds covered by child spans]
        self._next_id = 0
        self.op = -1
        self.op_self = {}
        self.op_counts = {}
        self.self_s = self.counts = None
        self._degree_of = {}

    def begin_op(self, op: int) -> None:
        self.op = op
        self.self_s = self.op_self[op] = defaultdict(float)
        self.counts = self.op_counts[op] = Counter()

    def span(self, key, fn, before=None, after=None):
        """Wrap ``fn`` so that each call records a span under ``key``.

        ``key`` may be a function of the call's arguments.  ``before`` and
        ``after`` see the arguments (and result) outside the span's clock.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            name = key(args) if callable(key) else key
            stack = tracer._stack
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                tracer.self_s[name] += dur - frame[1]
                tracer.spans.append((sid, parent, tracer.op, name, start, end))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counter(self, key, fn):
        """Wrap ``fn`` so that each call only increments ``key``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks that read results outside the span clock ------------------------

    def _group_built(self, args, W):
        self.counts["lie.group_order"] += len(W)

    def _complex_built(self, args, cx):
        for k, basis in enumerate(cx.bases):
            self.counts[f"cells.count.d{k}"] += len(basis)
            if k:
                self.counts[f"cells.nnz.d{k}"] += cx.boundary(k).nnz

    def _homology_begins(self, args):
        cx = args[0]
        self._degree_of = {id(cx.boundary(k)): k for k in range(1, cx.top_degree + 1)}

    def _homology_done(self, args, groups):
        self._degree_of = {}

    def _factor_key(self, args):
        return f"homology.invariant_factors_s.d{self._degree_of.get(id(args[0]), 0)}"

    def _factors_done(self, args, factors):
        self.counts["homology.factors"] += len(factors)
        self.counts["homology.torsion_factors"] += sum(1 for d in factors if d > 1)

    def _edges_found(self, args, edges):
        self.counts["morse.edges"] += len(edges)

    def _flow_done(self, args, traj):
        self.counts["toda.steps"] += len(traj.times) - 1
        self.counts["toda.blowups"] += traj.blowup is not None

    def _invariants_done(self, args, inv):
        self.counts["toda.invariants_calls"] += 1

    def _validated(self, args, result):
        self.counts["cells.validate_calls"] += 1

    def _rendered(self, args, text):
        if isinstance(text, str):
            self.counts["report.bytes"] += len(text)


def _replace(modules, owner, name, wrapper):
    """Point every module-level reference to ``owner.name`` at ``wrapper``."""
    original = getattr(owner, name)
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
    setattr(owner, name, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the layers' public functions; call once, before any op runs."""
    from todatopo import cells, cli, homology, lie, morse, report, toda

    modules = [m for n, m in sys.modules.items() if n == "todatopo" or n.startswith("todatopo.")]
    t = tracer

    def span(owner, name, key, before=None, after=None):
        _replace(modules, owner, name, t.span(key, getattr(owner, name), before, after))

    def count(owner, name, key):
        _replace(modules, owner, name, t.counter(key, getattr(owner, name)))

    span(lie, "cartan_matrix", "lie.group_s")
    span(lie, "generate_weyl_group", "lie.group_s", after=t._group_built)
    count(lie.WeylGroup, "multiply", "lie.multiply_calls")
    count(lie.WeylGroup, "inverse", "lie.inverse_calls")
    count(lie.WeylGroup, "min_coset_rep", "lie.min_coset_rep_calls")

    span(cells, "enumerate_cells", "cells.enumerate_s")
    span(cells, "build_chain_complex", "cells.assembly_s", after=t._complex_built)
    span(cells.ChainComplex, "validate", "cells.validate_s", after=t._validated)
    count(cells, "ws_act_oriented", "cells.act_calls")
    count(cells, "ws_act_on_diagram", "cells.act_calls")

    span(homology, "homology_of", "homology.homology_of_s",
         before=t._homology_begins, after=t._homology_done)
    span(homology, "invariant_factors", t._factor_key, after=t._factors_done)

    span(morse, "toda_graph", "morse.toda_graph_s")
    span(morse, "morse_smale_edges", "morse.edges_s", after=t._edges_found)
    span(morse, "morse_complex", "morse.complex_s")
    for name in ("poincare_polynomial", "betti_one", "conjectured_betti", "principal_graph"):
        span(morse, name, "morse.formulas_s")
    count(morse, "is_transversal", "morse.is_transversal_calls")
    count(morse, "incidence", "morse.incidence_calls")

    span(toda, "integrate", "toda.integrate_s", after=t._flow_done)
    span(toda, "chevalley_invariants", "toda.invariants_s", after=t._invariants_done)
    span(toda, "eigenvalues", "toda.eigenvalues_s")

    for name in ("dump_json", "cells_csv", "cells_json_obj", "boundaries_csv",
                 "homology_json_obj", "toda_graph_dot", "morse_graph_dot", "trajectory_csv"):
        span(report, name, "report.write_s", after=t._rendered)

    for name in ("main", "cmd_cells", "cmd_homology", "cmd_morse", "cmd_simulate"):
        span(cli, name, CLI_SPAN)


def layer_metrics(tracer: Tracer, op_walls: dict, ops=None) -> dict:
    """Per-layer metrics summed over ``ops`` (all ops when None)."""
    ops = sorted(op_walls) if ops is None else ops
    self_s = defaultdict(float)
    counts = Counter()
    for op in ops:
        for key, v in tracer.op_self.get(op, {}).items():
            self_s[key] += v
        counts.update(tracer.op_counts.get(op, {}))
    wall = sum(op_walls[op] for op in ops)
    out = {key: float(self_s[key]) for key in TIME_KEYS}
    out["homology.invariant_factors_s"] = sum(
        self_s[f"homology.invariant_factors_s.d{k}"] for k in range(MAX_DEGREE + 1)
    )
    layered = sum(v for key, v in self_s.items() if key != CLI_SPAN)
    out["cli.self_s"] = wall - layered
    out.update({key: int(counts[key]) for key in COUNT_KEYS})
    tries = counts["morse.is_transversal_calls"]
    # Edges found over transversality tests made, re-tests inside incidence included.
    out["morse.transversal_ratio"] = counts["morse.edges"] / tries if tries else 0.0
    flow_s = self_s["toda.integrate_s"] + self_s["toda.invariants_s"]
    out["toda.steps_per_s"] = counts["toda.steps"] / flow_s if flow_s else 0.0
    out["_span_self_total"] = float(sum(self_s.values()))
    out["_wall"] = wall
    return out


def write_spans(tracer: Tracer, path) -> None:
    with open(path, "w") as fh:
        for sid, parent, op, key, start, end in tracer.spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "span": key,
                                 "start": start, "end": end}) + "\n")
