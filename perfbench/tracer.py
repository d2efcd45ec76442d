"""Span tracing of graphcollapse from the outside.

The tracer replaces each traced public function with a wrapper that
records a span (name, start, end, parent) and then calls the original.
A function is rebound in every graphcollapse module that holds it, so
calls made through `from .x import f` copies inside the package are seen
too. Methods are rebound on their class. A name that no longer exists is
skipped, and every metric built from it reads zero.

Spans live in flat arrays in memory and are written out once, at the
end. Self time is a span's duration minus the durations of its direct
children.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path
from typing import Callable, Optional

import numpy as np

# (module, attribute or "Class.method", span name)
TRACED = (
    ("graphs", "Graph.neighborhood", "graphs.neighborhood"),
    ("graphs", "Graph.common_neighborhood", "graphs.common_neighborhood"),
    ("graphs", "Graph.delete_vertex", "graphs.delete_vertex"),
    ("graphs", "Graph.delete_edge", "graphs.delete_edge"),
    ("graphs", "Graph.induced", "graphs.induced"),
    ("canon", "canonical_form", "canon.canonical_form"),
    ("contract", "is_strong_contractible", "contract.is_strong_contractible"),
    ("contract", "is_strong_contractible_any_order", "contract.is_strong_contractible_any_order"),
    ("contract", "contractible_reduction", "contract.contractible_reduction"),
    ("contract", "edge_extended_reduction", "contract.edge_extended_reduction"),
    ("contract", "clear_caches", "contract.clear_caches"),
    ("contract", "ContractibilityCache.get", "contract.cache_get"),
    ("contract", "ContractibilityCache.put", "contract.cache_put"),
    ("complexes", "enumerate_cliques", "complexes.enumerate_cliques"),
    ("complexes", "clique_complex", "complexes.clique_complex"),
    ("complexes", "is_collapsible", "complexes.is_collapsible"),
    ("complexes", "collapse_via_trace", "complexes.collapse_via_trace"),
    ("complexes", "SimplicialComplex.collapse", "complexes.collapse"),
    ("homology", "homology", "homology.homology"),
    ("homology", "push_cycle", "homology.push_cycle"),
    ("homology", "push_cycle_edge", "homology.push_cycle_edge"),
    ("homology", "push_cycle_sequence", "homology.push_cycle_sequence"),
    ("homology", "express_in_homology_basis", "homology.express_in_homology_basis"),
    ("exactla", "rref_mod_p", "exactla.rref_mod_p"),
    ("exactla", "rank_mod_p", "exactla.rank_mod_p"),
    ("exactla", "solve_mod_p", "exactla.solve_mod_p"),
    ("exactla", "nullspace_mod_p", "exactla.nullspace_mod_p"),
    ("exactla", "smith_normal_form", "exactla.smith_normal_form"),
    ("exactla", "invariant_factors", "exactla.invariant_factors"),
    ("exactla", "solve_integer", "exactla.solve_integer"),
    ("persistence", "PointCloud.from_points", "persistence.from_points"),
    ("persistence", "vr_filtration", "persistence.vr_filtration"),
    ("persistence", "reduce_filtration", "persistence.reduce_filtration"),
    ("persistence", "barcode", "persistence.barcode"),
    ("persistence", "oracle_persistence", "persistence.oracle_persistence"),
    ("census", "build_census", "census.build_census"),
    ("census", "classify_graph", "census.classify_graph"),
    ("census", "check_conjecture", "census.check_conjecture"),
    ("census", "deletion_order_gap", "census.deletion_order_gap"),
)

SUBGRAPH_SPANS = (
    "graphs.neighborhood",
    "graphs.common_neighborhood",
    "graphs.delete_vertex",
    "graphs.delete_edge",
    "graphs.induced",
)


def _cliques_listed(args, kwargs, result) -> int:
    return sum(len(bucket) for bucket in result.values())


def _reduction_steps(args, kwargs, result) -> int:
    return len(result[1])


def _collapse_nodes(args, kwargs, result) -> int:
    return result.nodes_expanded


def _memo_hit(args, kwargs, result) -> int:
    return result is not None


def _matrix_cells(args, kwargs, result) -> int:
    rows_cols = np.shape(args[0])
    return rows_cols[0] * rows_cols[1] if len(rows_cols) == 2 else 0


def _stages(args, kwargs, result) -> int:
    return result.stage_count


def _reduced_vertices(args, kwargs, result) -> int:
    return sum(stage.reduced.n for stage in result)


def _census_graphs(args, kwargs, result) -> int:
    return result.total


# Counters read from a traced call's arguments or result: span name ->
# (counter name, function giving the amount to add).
COUNTERS = {
    "complexes.enumerate_cliques": ("complexes.cliques", _cliques_listed),
    "contract.contractible_reduction": ("contract.reduction_steps", _reduction_steps),
    "contract.edge_extended_reduction": ("contract.reduction_steps", _reduction_steps),
    "complexes.is_collapsible": ("complexes.collapse_nodes", _collapse_nodes),
    "contract.cache_get": ("contract.memo_hits", _memo_hit),
    "exactla.rref_mod_p": ("exactla.rref_cells", _matrix_cells),
    "persistence.vr_filtration": ("persistence.stages", _stages),
    "persistence.reduce_filtration": ("persistence.reduced_vertices", _reduced_vertices),
    "census.build_census": ("census.graphs", _census_graphs),
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names = [name for _, _, name in TRACED]
        self.name_ids = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counters = {counter: 0 for counter, _ in COUNTERS.values()}
        self.installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- installation --------------------------------------------------------

    def _wrap(self, fn: Callable, name: str) -> Callable:
        name_id = self.name_ids[name]
        names, parents, starts, ends, stack = (
            self.span_name, self.span_parent, self.span_start, self.span_end, self.stack,
        )
        counter = COUNTERS.get(name)
        counters = self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(clock())
            ends.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                counters[counter[0]] += counter[1](args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        self.missing = []
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == self.package.__name__ or key.startswith(self.package.__name__ + "."))
        ]
        for module_name, attr, name in TRACED:
            module = sys.modules.get(f"{self.package.__name__}.{module_name}")
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = owner.__dict__.get(member) if owner is not None else None
            if raw is None:
                self.missing.append(name)
                continue
            if owner_name:
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name))
                else:
                    wrapped = self._wrap(raw, name)
                self.installed.append((owner, member, raw))
                setattr(owner, member, wrapped)
                continue
            wrapped = self._wrap(raw, name)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is raw:
                        self.installed.append((m, key, raw))
                        setattr(m, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, raw in reversed(self.installed):
            setattr(owner, key, raw)
        self.installed.clear()

    def reset(self) -> None:
        """Drop recorded spans and counters; installed wrappers stay valid."""
        for buf in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del buf[:]
        for counter in self.counters:
            self.counters[counter] = 0

    # -- analysis ----------------------------------------------------------------

    def mark(self) -> int:
        """Span index to pass to coverage() for spans recorded from now on."""
        return len(self.span_start)

    def _arrays(self):
        names = np.frombuffer(self.span_name, dtype=np.int32) if len(self.span_name) else np.zeros(0, np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int64) if len(self.span_parent) else np.zeros(0, np.int64)
        starts = np.frombuffer(self.span_start, dtype=np.float64) if len(self.span_start) else np.zeros(0)
        ends = np.frombuffer(self.span_end, dtype=np.float64) if len(self.span_end) else np.zeros(0)
        return names, parents, starts, ends

    def coverage(self, first_span: int) -> float:
        """Seconds covered by top-level spans recorded since first_span."""
        _, parents, starts, ends = self._arrays()
        roots = parents[first_span:] == -1
        return float((ends[first_span:] - starts[first_span:])[roots].sum())

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        names, parents, starts, ends = self._arrays()
        k = len(self.names)
        dur = ends - starts
        has_parent = parents >= 0
        children = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - children
        # Inclusive time counts each span once even when it nests inside a
        # span of the same name (the greedy test recurses).
        same_as_parent = np.zeros(len(dur), dtype=bool)
        same_as_parent[has_parent] = names[parents[has_parent]] == names[has_parent]
        outer = ~same_as_parent
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=self_time, minlength=k)
        incl_s = np.bincount(names[outer], weights=dur[outer], minlength=k)

        def idx(name):
            return self.name_ids[name]

        def count(*span_names):
            return int(sum(calls[idx(n)] for n in span_names))

        def incl(*span_names):
            return float(sum(incl_s[idx(n)] for n in span_names))

        def own(*span_names):
            return float(sum(self_s[idx(n)] for n in span_names))

        homology_spans = [n for n in self.names if n.startswith("homology.")]
        lookups = count("contract.cache_get")
        hits = self.counters["contract.memo_hits"]
        c = self.counters
        return {
            "graphs.subgraph_calls": (count(*SUBGRAPH_SPANS), "count"),
            "graphs.subgraph_s": (incl(*SUBGRAPH_SPANS), "s"),
            "canon.form_calls": (count("canon.canonical_form"), "count"),
            "canon.form_s": (incl("canon.canonical_form"), "s"),
            "contract.greedy_calls": (count("contract.is_strong_contractible"), "count"),
            "contract.greedy_self_s": (own("contract.is_strong_contractible"), "s"),
            "contract.memo_lookups": (lookups, "count"),
            "contract.memo_hits": (hits, "count"),
            "contract.memo_hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
            "contract.reduction_s": (incl("contract.contractible_reduction"), "s"),
            "contract.reduction_steps": (c["contract.reduction_steps"], "count"),
            "contract.edge_reduction_s": (incl("contract.edge_extended_reduction"), "s"),
            "complexes.cliques": (c["complexes.cliques"], "count"),
            "complexes.cliques_s": (incl("complexes.enumerate_cliques"), "s"),
            "complexes.collapse_search_s": (incl("complexes.is_collapsible"), "s"),
            "complexes.collapse_nodes": (c["complexes.collapse_nodes"], "count"),
            "complexes.trace_collapse_s": (incl("complexes.collapse_via_trace"), "s"),
            "homology.self_s": (own(*homology_spans), "s"),
            "homology.push_calls": (count("homology.push_cycle", "homology.push_cycle_edge"), "count"),
            "homology.push_s": (incl("homology.push_cycle", "homology.push_cycle_edge"), "s"),
            "homology.express_s": (incl("homology.express_in_homology_basis"), "s"),
            "exactla.rank_calls": (count("exactla.rank_mod_p"), "count"),
            "exactla.rref_calls": (count("exactla.rref_mod_p"), "count"),
            "exactla.rref_cells": (c["exactla.rref_cells"], "cells"),
            "exactla.rref_s": (incl("exactla.rref_mod_p"), "s"),
            "exactla.nullspace_s": (incl("exactla.nullspace_mod_p"), "s"),
            "exactla.solve_s": (incl("exactla.solve_mod_p", "exactla.solve_integer"), "s"),
            "exactla.smith_s": (incl("exactla.smith_normal_form"), "s"),
            "persistence.filtration_s": (incl("persistence.from_points", "persistence.vr_filtration"), "s"),
            "persistence.stages": (c["persistence.stages"], "count"),
            "persistence.reduce_stages_s": (incl("persistence.reduce_filtration"), "s"),
            "persistence.reduced_vertices": (c["persistence.reduced_vertices"], "count"),
            "persistence.barcode_self_s": (own("persistence.barcode"), "s"),
            "persistence.oracle_s": (incl("persistence.oracle_persistence"), "s"),
            "census.graphs": (c["census.graphs"], "count"),
            "census.generate_s": (incl("census.build_census") - incl("census.classify_graph"), "s"),
            "census.classify_s": (incl("census.classify_graph"), "s"),
        }

    def write(self, path: Path, meta: Optional[dict] = None) -> None:
        """Write every span: names as a table, then one row per span."""
        names, parents, starts, ends = self._arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = float(starts.min()) if len(starts) else 0.0
        np.savez_compressed(
            path,
            name=names,
            parent=parents,
            start=starts - t0,
            end=ends - t0,
            name_table=np.array(json.dumps({"names": self.names, "missing": self.missing, **(meta or {})})),
        )
