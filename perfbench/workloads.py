"""The benchmark's workloads: how each one makes its inputs and what it calls.

Every workload is built from ``make_transfer_benchmark`` (marginal skew
0.5) with the workload seed, writes its inputs as CSV before timing starts,
and synthesizes with seed 7. Target marginals and the reference sample are
both taken from the target sample. The call sequences look functions up
through their modules at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from copulasynth import cli, dataset, metrics, pipeline

SKEW = 0.5
SYNTHESIS_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    d: int
    n_source: int
    n_target: int
    output_size: int
    method: str
    via_cli: bool
    tol: float = 1e-8
    max_iter: int = 1000


def _by_name(*workloads: Workload) -> dict[str, Workload]:
    return {w.name: w for w in workloads}


# "bench" is what BENCHMARK.json runs: each iteration takes a few seconds, so
# a run of run_seconds holds several. Its IPF does exactly 10 cycles (a tol
# of 1e-12 is never reached in 10): the cycles needed to reach a fixed tol
# vary from 9 to 13 with the workload seed, which moved run_s by up to 14%.
# "tiny" is for the self-test. "large" is each workload at its original,
# larger size (generate_d20 there is the ROADMAP's large case), for one-off
# checks of how the layer shares change with size; IPF there runs to the
# default tol.
SIZES = {
    "bench": _by_name(
        Workload("synth_d12", 12, 6_000, 6_000, 40_000, "bn_copula", True),
        Workload("generate_d20", 20, 10_000, 10_000, 150_000, "bn_copula", False),
        Workload(
            "ipf_d14", 14, 10_000, 10_000, 10_000, "ipf", True, tol=1e-12, max_iter=10
        ),
    ),
    "tiny": _by_name(
        Workload("synth_d12", 6, 300, 300, 1_000, "bn_copula", True),
        Workload("generate_d20", 6, 300, 300, 1_000, "bn_copula", False),
        Workload("ipf_d14", 5, 300, 300, 1_000, "ipf", True, tol=1e-12, max_iter=10),
    ),
    "large": _by_name(
        Workload("synth_d12", 12, 20_000, 20_000, 300_000, "bn_copula", True),
        Workload("generate_d20", 20, 50_000, 50_000, 1_000_000, "bn_copula", False),
        Workload("ipf_d14", 14, 20_000, 20_000, 50_000, "ipf", True),
    ),
}


@dataclass(frozen=True)
class Paths:
    schema: str
    source: str
    target: str
    marginals: str
    config: str
    out: str

    @property
    def synthetic(self) -> str:
        return os.path.join(self.out, "synthetic.csv")

    @property
    def report(self) -> str:
        return os.path.join(self.out, "report.json")


def write_inputs(w: Workload, seed: int, root: str) -> Paths:
    """Generate the workload's source/target pair and write every input file."""
    paths = Paths(
        schema=os.path.join(root, "schema.json"),
        source=os.path.join(root, "source.csv"),
        target=os.path.join(root, "target.csv"),
        marginals=os.path.join(root, "target_marginals.csv"),
        config=os.path.join(root, "config.json"),
        out=os.path.join(root, "out"),
    )
    os.makedirs(paths.out)
    source, target = pipeline.make_transfer_benchmark(
        seed=seed, d=w.d, n_source=w.n_source, n_target=w.n_target, marginal_skew=SKEW
    )
    dataset.write_schema(source.schema, paths.schema)
    dataset.write_micro_csv(source, paths.source)
    dataset.write_micro_csv(target, paths.target)
    dataset.write_marginals_csv(dataset.marginals_of(target), paths.marginals)
    with open(paths.config, "w") as handle:
        json.dump(config_doc(w, paths), handle, indent=2)
    return paths


def config_doc(w: Workload, paths: Paths) -> dict:
    return {
        "source_data": paths.source,
        "schema": paths.schema,
        "target_marginals": paths.marginals,
        "reference_data": paths.target,
        "method": w.method,
        "output_size": w.output_size,
        "seed": SYNTHESIS_SEED,
        "tol": w.tol,
        "max_iter": w.max_iter,
        "output_dir": paths.out,
    }


def run(w: Workload, paths: Paths) -> dict[int, float]:
    """The timed call sequence; returns the SRMSE values it holds in memory.

    The command-line sequence holds none: they are in its report.json.
    """
    if w.via_cli:
        code = cli.main(["synth", "--config", paths.config])
        if code != 0:
            raise RuntimeError(f"copulasynth synth exited with code {code}")
        return {}
    schema = dataset.load_schema(paths.schema)
    source = dataset.load_micro_csv(paths.source, schema)
    reference = dataset.load_micro_csv(paths.target, schema)
    targets = dataset.load_marginals_csv(paths.marginals, schema)
    config = pipeline.SynthesisConfig(**config_doc(w, paths))
    syn, _ = pipeline.generate_table(source, targets, config, config.seed)
    dataset.write_micro_csv(syn, paths.synthetic)
    return {1: metrics.srmse_projected(reference, syn, 1)}
