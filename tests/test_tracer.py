"""The benchmark tracer's contract with the package it wraps by name."""

import importlib
import importlib.util
import math
import sys
from collections import Counter
from pathlib import Path

from copulasynth import metrics
from conftest import random_table

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    """The tracer module, with every copulasynth module it wraps imported."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module_name, *_ in tracer.TRACED:
        importlib.import_module(f"copulasynth.{module_name}")
    return tracer


def test_every_traced_name_is_a_package_callable():
    for module_name, func_name, _, _ in load_tracer().TRACED:
        module = sys.modules[f"copulasynth.{module_name}"]
        assert callable(getattr(module, func_name, None)), (module_name, func_name)


def test_tracer_counts_the_steps_evaluate_runs():
    tracer_module = load_tracer()
    ref = random_table([2, 3, 2, 4, 3, 2], 80, seed=1)
    syn = random_table([2, 3, 2, 4, 3, 2], 120, seed=2)
    tracer = tracer_module.Tracer(run_id="test")
    with tracer.installed():
        metrics.evaluate(ref, ref, syn)
    assert tracer.counts["metrics.srmse_subsets"] == sum(
        math.comb(6, n) for n in range(1, 6)
    )
    assert tracer.counts["metrics.distinct_calls"] == 1
    spans = Counter(name for name, *_ in tracer.spans)
    assert spans["metrics.zeros_prf"] == 3
