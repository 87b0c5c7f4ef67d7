"""In-memory spans around the public functions of each copulasynth module.

The tracer wraps a function object under every name that refers to it in
any copulasynth module, because ``pipeline`` and ``cli`` import functions
by name and look them up in their own namespace. Spans are kept in a list
(name, start, end, parent span, run id) and written out at exit; self time
is a span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict


def _srmse_span(args, kwargs) -> str:
    n = kwargs.get("n", args[2] if len(args) > 2 else None)
    return f"metrics.srmse_n{n}"


def _count_load(tracer, args, kwargs, result):
    tracer.counts["dataset.load_rows"] += result.n_rows


def _count_write(tracer, args, kwargs, result):
    tracer.counts["dataset.write_rows"] += args[0].n_rows
    tracer.counts["dataset.write_bytes"] += os.path.getsize(args[1])


def _count_pinv(tracer, args, kwargs, result):
    tracer.counts["copula.values_mapped"] += len(result)


def _count_family(tracer, args, kwargs, result):
    tracer.counts["bayesnet.family_scores"] += 1


def _count_sample(tracer, args, kwargs, result):
    tracer.counts["bayesnet.sampled_cells"] += result.codes.size


def _count_seed(tracer, args, kwargs, result):
    tracer.counts["ipf.cells"] += result.values.size


def _count_fit(tracer, args, kwargs, result):
    tracer.counts["ipf.iterations"] += result.iterations


def _count_distinct(tracer, args, kwargs, result):
    tracer.counts["metrics.distinct_calls"] += 1
    exclude = kwargs.get("exclude", args[1] if len(args) > 1 else None)
    tracer.distinct_inputs.add((id(args[0]), tuple(exclude or ())))


def _count_srmse(tracer, args, kwargs, result):
    tracer.counts["metrics.srmse_subsets"] += 1


# (module, function, span name or a function of the call's arguments, counter).
# A span name of None records no span, only the counter.
TRACED = (
    ("cli", "main", "cli.self", None),
    ("pipeline", "run_experiment", "pipeline.run_self", None),
    ("pipeline", "generate_table", "pipeline.generate_self", None),
    ("pipeline", "rank_recode", "pipeline.rank_recode", None),
    ("dataset", "load_schema", "dataset.load", None),
    ("dataset", "load_micro_csv", "dataset.load", _count_load),
    ("dataset", "load_marginals_csv", "dataset.load", None),
    ("dataset", "write_micro_csv", "dataset.write", _count_write),
    ("copula", "jitter_cells", "copula.jitter", None),
    ("copula", "pseudo_inverse_many", "copula.pinv", _count_pinv),
    ("bayesnet", "learn_structure", "bayesnet.structure", None),
    ("bayesnet", "family_score_mdl", "bayesnet.family_score", _count_family),
    ("bayesnet", "fit_parameters", "bayesnet.fit", None),
    ("bayesnet", "sample", "bayesnet.sample", _count_sample),
    ("ipf", "build_seed", "ipf.seed", _count_seed),
    ("ipf", "fit", "ipf.fit", _count_fit),
    ("ipf", "allocate", "ipf.allocate", None),
    ("metrics", "evaluate", "metrics.evaluate_self", None),
    ("metrics", "srmse_projected", _srmse_span, None),
    ("metrics", "srmse", None, _count_srmse),
    ("metrics", "distinct_combos", "metrics.distinct", _count_distinct),
    ("metrics", "sampled_zeros", "metrics.zeros_prf", None),
    ("metrics", "structural_zeros", "metrics.zeros_prf", None),
    ("metrics", "precision_recall_f1", "metrics.zeros_prf", None),
    ("metrics", "marginal_report", "metrics.marginal_report", None),
    ("metrics", "report_to_json", "metrics.persist", None),
    ("metrics", "write_marginal_csv", "metrics.persist", None),
)

# Every per-layer metric, in report order, with its unit.
LAYER_TIMES = (
    "cli.self",
    "pipeline.rank_recode",
    "pipeline.generate_self",
    "pipeline.run_self",
    "dataset.load",
    "dataset.write",
    "copula.jitter",
    "copula.pinv",
    "bayesnet.structure",
    "bayesnet.family_score",
    "bayesnet.fit",
    "bayesnet.sample",
    "ipf.seed",
    "ipf.fit",
    "ipf.allocate",
    "metrics.srmse_n1",
    "metrics.srmse_n2",
    "metrics.srmse_n3",
    "metrics.srmse_n4",
    "metrics.srmse_n5",
    "metrics.distinct",
    "metrics.zeros_prf",
    "metrics.marginal_report",
    "metrics.persist",
    "metrics.evaluate_self",
)
LAYER_COUNTS = (
    ("dataset.load_rows", "rows"),
    ("dataset.write_rows", "rows"),
    ("dataset.write_bytes", "bytes"),
    ("copula.values_mapped", "count"),
    ("bayesnet.family_scores", "count"),
    ("bayesnet.sampled_cells", "count"),
    ("ipf.cells", "count"),
    ("ipf.iterations", "count"),
    ("metrics.srmse_subsets", "count"),
    ("metrics.distinct_calls", "count"),
)
LAYER_UNITS = (
    tuple((f"{name}_s", "s") for name in LAYER_TIMES)
    + LAYER_COUNTS
    + (
        ("metrics.distinct_useful_ratio", "ratio"),
        ("trace.run_s", "s"),
        ("trace.other_s", "s"),
    )
)


class Tracer:
    """Spans and counters of one traced call sequence."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.distinct_inputs: set = set()
        self._open: list[int] = []

    def _wrap(self, fn, span, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if span is None:
                result = fn(*args, **kwargs)
            else:
                name = span if isinstance(span, str) else span(args, kwargs)
                parent = self._open[-1] if self._open else None
                index = len(self.spans)
                self.spans.append(None)
                self._open.append(index)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    self._open.pop()
                    self.spans[index] = (name, start, end, parent, self.run_id)
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every TRACED function wherever a copulasynth module names it."""
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if name == "copulasynth" or name.startswith("copulasynth.")
        ]
        saved = []
        for module_name, func_name, span, counter in TRACED:
            original = getattr(sys.modules[f"copulasynth.{module_name}"], func_name)
            wrapper = self._wrap(original, span, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        saved.append((module, attr, original))
                        setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_metrics(self, run_s: float) -> dict:
        """Self time per layer, the layer counters, and the untraced remainder."""
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_time = dict.fromkeys(LAYER_TIMES, 0.0)
        top_level = 0.0
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            self_time[name] += (end - start) - child_time[index]
            if parent is None:
                top_level += end - start
        calls = self.counts["metrics.distinct_calls"]
        out = {f"{name}_s": value for name, value in self_time.items()}
        out.update({name: self.counts[name] for name, _ in LAYER_COUNTS})
        out["metrics.distinct_useful_ratio"] = (
            len(self.distinct_inputs) / calls if calls else 0.0
        )
        out["trace.run_s"] = run_s
        out["trace.other_s"] = run_s - top_level
        return out

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(
                [
                    {"name": n, "start": s, "end": e, "parent": p, "run": r}
                    for n, s, e, p, r in self.spans
                ],
                handle,
            )
