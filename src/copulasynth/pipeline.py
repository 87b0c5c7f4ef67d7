"""Config-driven experiment runner.

Wires the full synthesis flow for each generator kind: rank-recode the
source sample onto its ECDF, learn the dependence model, generate,
inject target marginals where the method supports it, then evaluate and
persist.
Every random draw derives from the single config seed, so outputs are
byte-identical across runs.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import shlex
import statistics
import subprocess
import tempfile
import warnings as _warnings
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .bayesnet import fit_parameters, learn_structure
from .bayesnet import sample as bn_sample
from .copula import cells_to_targets, codes_by_block, ecdf, rank_recode
from .dataset import (
    MarginalTable,
    MicroTable,
    Schema,
    VariableSpec,
    check_type,
    is_finite_real,
    is_integer,
    load_marginals_csv,
    load_micro_csv,
    load_schema,
    marginals_of,
    new_codes,
    open_input,
    write_files,
    write_micro_csv,
)
from .errors import SynthesisError
from .ipf import allocate, build_seed
from .ipf import fit as ipf_fit
from .metrics import (
    MAX_PROJECTION,
    EvaluationReport,
    evaluate,
    kept_indices,
    report_to_json,
    srmse_by_size,
    write_marginal_csv,
)

GENERATORS = (
    "independent", "independent_copula", "ipf", "bn", "bn_copula", "external_copula"
)


def _is_str_list(value) -> bool:
    return isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value)


@dataclass(frozen=True)
class SynthesisConfig:
    """Everything one experiment needs; see load_config for the JSON form."""

    source_data: str
    schema: str
    method: str
    output_size: int
    seed: int
    target_marginals: str = "from-source"
    max_parents: int = 3
    alpha: float = 0.1
    tol: float = 1e-8
    max_iter: int = 1000
    exclude_variables: tuple[str, ...] | None = None
    output_dir: str | None = None
    reference_data: str | None = None
    population_data: str | None = None
    external_command: tuple[str, ...] | None = None

    def __post_init__(self):
        for name in ("source_data", "schema", "method", "target_marginals"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise SynthesisError(f"{name} must be a string, got {value!r}")
        optional_paths = ("output_dir", "reference_data", "population_data")
        for name in optional_paths:
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise SynthesisError(f"{name} must be a string or null, got {value!r}")
        for name in ("source_data", "schema", "target_marginals") + optional_paths:
            if getattr(self, name) == "" or "\x00" in (getattr(self, name) or ""):
                raise SynthesisError(f"{name} must be a nonempty path with no NUL")
        exclude = self.exclude_variables
        if exclude is not None and not _is_str_list(exclude):
            raise SynthesisError(
                f"exclude_variables must be a list of strings or null, got {exclude!r}"
            )
        cmd = self.external_command
        if cmd is not None and not isinstance(cmd, str) and not _is_str_list(cmd):
            raise SynthesisError(
                f"external_command must be a string or a list of strings, got {cmd!r}"
            )
        # JSON gives bools for true/false; they are ints to Python, not counts.
        for name in ("output_size", "seed", "max_parents", "max_iter"):
            value = getattr(self, name)
            if not is_integer(value):
                raise SynthesisError(f"{name} must be an integer, got {value!r}")
        for name in ("alpha", "tol"):
            value = getattr(self, name)
            if not is_finite_real(value):
                raise SynthesisError(f"{name} must be a finite number, got {value!r}")
        if self.seed < 0:
            raise SynthesisError("seed must be >= 0")
        if self.method not in GENERATORS:
            raise SynthesisError(
                f"unknown method {self.method!r}; choose one of {', '.join(GENERATORS)}"
            )
        if self.output_size <= 0:
            raise SynthesisError("output_size must be positive")
        if self.method == "external_copula" and not self.external_command:
            raise SynthesisError("external_copula requires external_command")
        if exclude is not None:
            object.__setattr__(self, "exclude_variables", tuple(exclude))
        if isinstance(cmd, str):
            try:
                cmd = shlex.split(cmd)
            except ValueError as exc:
                raise SynthesisError(f"external_command: {exc}") from None
        if cmd is not None:
            object.__setattr__(self, "external_command", tuple(cmd))


def load_config(path) -> SynthesisConfig:
    """Read a config JSON whose keys mirror SynthesisConfig verbatim."""
    with open_input(path) as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        raise SynthesisError("config must be a JSON object")
    fields = dataclasses.fields(SynthesisConfig)
    unknown = sorted(set(doc) - {f.name for f in fields})
    if unknown:
        raise SynthesisError(f"unknown config field(s): {', '.join(unknown)}")
    missing = sorted(
        f.name for f in fields if f.default is dataclasses.MISSING and f.name not in doc
    )
    if missing:
        raise SynthesisError(f"missing config field(s): {', '.join(missing)}")
    return SynthesisConfig(**doc)


def _streams(seed: int):
    """Fixed seed layout: structure search, generation, jitter."""
    children = np.random.SeedSequence(seed).spawn(3)
    structure_seed = int(children[0].generate_state(1)[0])
    return structure_seed, children[1], children[2]


def _run_external(command, data: MicroTable, marginals: MarginalTable, n: int, seed: int):
    """Send the source's ECDF values to the generator; return n rows of source ranks.

    ``data`` and ``marginals`` are ``rank_recode``'s; a rank keeps its code's ECDF
    value. The payload is ``data``'s ranks, each labelled by the repr of its ECDF
    value, written by ``write_micro_csv`` like every microdata CSV (UTF-8, ``\\r\\n``
    line ends) into a temporary file that is the generator's stdin. Its stdout and
    stderr are read as UTF-8 less a BOM whatever the locale, an undecodable byte as
    U+FFFD that its row's parse names. The n rows of uniforms it prints are
    snapped onto source ranks through ``codes_by_block`` on the source counts.
    """
    labels = [tuple(map(repr, ecdf(c).tolist())) for c in marginals.counts]
    schema = Schema(tuple(map(VariableSpec, data.schema.names, labels)))
    cmd = list(command) + ["--n", str(n), "--seed", str(seed)]
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "source.csv"
        write_micro_csv(MicroTable(schema, data.codes), path)
        try:
            with open(path, "rb") as stdin:
                proc = subprocess.run(
                    cmd, stdin=stdin, capture_output=True,
                    encoding="utf-8-sig", errors="replace",
                )
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the command
            raise SynthesisError(f"external generator failed to start: {exc}") from exc
    if proc.returncode != 0:
        detail = proc.stderr.strip().splitlines()
        raise SynthesisError(
            "external generator exited with code "
            f"{proc.returncode}: {detail[0] if detail else 'no stderr'}"
        )
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if lines:
        try:
            float(lines[0].split(",")[0])
            with contextlib.suppress(csv.Error):  # a NUL (3.10), a long field: no names
                if tuple(next(csv.reader(lines[:1]))) == data.schema.names:
                    lines = lines[1:]  # the header it was sent, with numeric names
        except ValueError:  # an optional header, if a numeric row follows it
            try:
                float(lines[1].split(",")[0])
                lines = lines[1:]
            except (IndexError, ValueError):
                pass  # no header: row 1 is named as not numeric
    if len(lines) != n:
        raise SynthesisError(
            f"external generator emitted {len(lines)} rows, expected {n}"
        )
    d = data.schema.d
    values = np.empty((n, d), dtype=np.float64, order="F")
    for i, ln in enumerate(lines, 1):
        tokens = ln.split(",")
        if len(tokens) != d:
            raise SynthesisError(
                f"external generator output row {i} has shape ({len(tokens)},), "
                f"expected ({d},)"
            )
        try:
            values[i - 1] = [float(tok) for tok in tokens]
        except ValueError as exc:
            raise SynthesisError(
                f"external generator output not numeric at row {i}: {exc}"
            ) from exc
    if not ((values > 0) & (values <= 1)).all():
        raise SynthesisError("external generator output must lie in (0,1]")
    return codes_by_block(
        marginals, lambda i, block: values[block, i], new_codes(data.schema, n)
    )


def generate_table(
    source: MicroTable, targets: MarginalTable, config: SynthesisConfig, seed: int
) -> tuple[MicroTable, tuple[str, ...]]:
    """Generate one synthetic table; returns it with any generation warnings."""
    check_type(source, MicroTable, "source")
    check_type(targets, MarginalTable, "targets")
    check_type(config, SynthesisConfig, "config")
    if source.schema != targets.schema:
        raise SynthesisError("source and target marginals use different schemas")
    if not is_integer(seed) or seed < 0:
        raise SynthesisError(f"seed must be an integer >= 0, got {seed!r}")
    n = config.output_size
    if n * source.schema.d * 8 > np.iinfo(np.intp).max:
        raise SynthesisError(f"output_size {n} exceeds an addressable table")
    structure_seed, gen_key, jitter_key = _streams(seed)
    copula = config.method.endswith("_copula")
    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always", UserWarning)
        if config.method in ("independent", "independent_copula"):
            # The independence copula: i.i.d. uniforms in (0, 1] per column.
            marg = targets if copula else marginals_of(source)
            gen_rng = np.random.default_rng(gen_key)

            def draws(i, block):
                u = gen_rng.random(block.stop - block.start)
                return np.subtract(1.0, u, out=u)

            syn = codes_by_block(marg, draws, new_codes(marg.schema, n))
        elif config.method == "ipf":
            fitted = ipf_fit(
                build_seed(source), targets, tol=config.tol, max_iter=config.max_iter
            )
            syn = allocate(fitted, n, np.random.default_rng(gen_key))
        else:  # bn, bn_copula, external_copula
            data, source_marginals = rank_recode(source) if copula else (source, None)
            if config.method == "external_copula":
                ext_seed = int(gen_key.generate_state(1)[0])
                syn = _run_external(
                    config.external_command, data, source_marginals, n, ext_seed
                )
            else:
                dag = learn_structure(
                    data, max_parents=config.max_parents, seed=structure_seed
                )
                bn = fit_parameters(data, dag, alpha=config.alpha)
                syn = bn_sample(bn, n, np.random.default_rng(gen_key))
            if copula:  # cells_to_targets writes over the cells: drop their table
                cells = syn.codes
                del syn
                cells.flags.writeable = True  # no table holds them now
                jitter_rng = np.random.default_rng(jitter_key)
                syn = cells_to_targets(cells, source_marginals, targets, jitter_rng)
    # record=True caught every warning the filters let through. The package's
    # own UserWarnings are returned; any other meets the caller's filters again.
    own = []
    for w in caught:
        if issubclass(w.category, UserWarning):
            own.append(str(w.message))
        else:
            _warnings.warn_explicit(
                w.message, w.category, w.filename, w.lineno, source=w.source
            )
    return syn, tuple(own)


def _load_inputs(config: SynthesisConfig):
    schema = load_schema(config.schema)
    source = load_micro_csv(config.source_data, schema)
    if config.target_marginals == "from-source":
        targets = marginals_of(source)
    else:
        targets = load_marginals_csv(config.target_marginals, schema)
    reference = (
        source
        if config.reference_data is None
        else load_micro_csv(config.reference_data, schema)
    )
    population = (
        None
        if config.population_data is None
        else load_micro_csv(config.population_data, schema)
    )
    return schema, source, targets, reference, population


def run_experiment(config: SynthesisConfig) -> EvaluationReport:
    """Generate, evaluate, and (when output_dir is set) persist one run."""
    _, source, targets, reference, population = _load_inputs(config)
    kept_indices(source.schema, config.exclude_variables)  # fail before generating
    syn, warns = generate_table(source, targets, config, config.seed)
    report = evaluate(reference, source, syn, population, config.exclude_variables)
    report = dataclasses.replace(report, warnings=warns)
    if config.output_dir is not None:
        text = json.dumps(report_to_json(report), indent=2, sort_keys=True) + "\n"
        writers = {
            "synthetic.csv": partial(write_micro_csv, syn),
            "report.json": lambda path: Path(path).write_text(text, "utf-8"),
            "marginals.csv": partial(write_marginal_csv, report.marginal_series),
        }
        write_files(config.output_dir, writers)
    return report


@dataclass(frozen=True, eq=False)
class PermutationStudy:
    """Projected SRMSE across random relabelings of categorical variables."""

    values: dict
    mean: dict
    std: dict


def run_permutation_study(
    config: SynthesisConfig, n_permutations: int
) -> PermutationStudy:
    """Re-run synthesis under random category-label orders.

    Each permutation relabels every categorical variable (ordinal orders
    are meaningful and stay fixed), re-runs the generator in the permuted
    coding, maps the synthetic rows back, and scores projected SRMSE
    against the unpermuted reference. Reports mean and population std per
    projection size.
    """
    if config.method != "bn_copula":
        raise SynthesisError("permutation study requires method=bn_copula")
    if not is_integer(n_permutations):
        raise SynthesisError(f"permutation count {n_permutations!r} is not an integer")
    if n_permutations < 1:
        raise SynthesisError("need at least one permutation")
    schema, source, targets, reference, _ = _load_inputs(config)
    categorical = {
        i for i, v in enumerate(schema.variables) if v.kind == "categorical"
    }
    if not categorical:
        raise SynthesisError("no categorical variables to permute")
    base = np.random.SeedSequence(config.seed)
    perm_key, run_key = base.spawn(2)
    perm_rng = np.random.default_rng(perm_key)
    run_seeds = run_key.generate_state(n_permutations)
    sizes = range(1, min(MAX_PROJECTION, schema.d) + 1)
    values: dict[int, list[float]] = {n: [] for n in sizes}

    def relabeled(table: MicroTable, lookups) -> MicroTable:
        codes = new_codes(schema, table.n_rows)
        for i, lookup in enumerate(lookups):
            # A lookup is a permutation of 0..m-1: the store cannot wrap.
            codes[:, i] = lookup[table.column(i)]
        codes.flags.writeable = False
        return MicroTable(schema, codes)

    for r in range(n_permutations):
        # Generation reads only codes and dims, so the permuted table keeps
        # the original schema: its code j stands for the original code p[j].
        perms = [
            perm_rng.permutation(m) if i in categorical else np.arange(m)
            for i, m in enumerate(schema.dims)
        ]
        counts = tuple(targets.counts[i][p] for i, p in enumerate(perms))
        syn_perm, _ = generate_table(
            relabeled(source, [np.argsort(p) for p in perms]),
            MarginalTable(schema, counts),
            config,
            int(run_seeds[r]),
        )
        syn = relabeled(syn_perm, perms)
        for n, value in srmse_by_size(reference, syn, sizes).items():
            values[n].append(value)
    mean = {n: float(np.mean(values[n])) for n in sizes}
    std = {n: float(np.std(values[n])) for n in sizes}
    return PermutationStudy(
        values={n: tuple(values[n]) for n in sizes}, mean=mean, std=std
    )


def make_transfer_benchmark(
    seed: int = 0,
    d: int = 9,
    n_source: int = 6000,
    n_target: int = 6000,
    marginal_skew: float = 0.5,
) -> tuple[MicroTable, MicroTable]:
    """Two samples sharing a copula but with skew-shifted marginals.

    Rows draw latent normals with correlation 0.6^|j-k| (a Gaussian
    copula), then discretize: the source at uniform quantile cuts, the
    target at those cuts raised to a skew-dependent power (even-index
    variables skew one way, odd-index the other). A copula uniform
    Phi(z) lies below a cut c exactly when z lies below Phi^-1(c), so the
    cuts are mapped to the normal scale once and applied to the latent
    normals. Even-index variables are categorical, odd-index ordinal;
    cardinalities cycle 2,3,4.
    """
    counts = {"seed": seed, "d": d, "n_source": n_source, "n_target": n_target}
    for name, value in counts.items():
        if not is_integer(value):
            raise SynthesisError(f"benchmark {name} must be an integer, got {value!r}")
    if not is_finite_real(marginal_skew):
        raise SynthesisError(
            f"marginal_skew must be a finite number, got {marginal_skew!r}"
        )
    if seed < 0:
        raise SynthesisError("benchmark seed must be >= 0")
    if d < 2:
        raise SynthesisError("benchmark needs d >= 2")
    if not 0.0 <= marginal_skew <= 1.0:
        raise SynthesisError("marginal_skew must lie in [0,1]")
    if n_source < 1 or n_target < 1:
        raise SynthesisError("sample sizes must be positive")
    dims = [2 + (i % 3) for i in range(d)]
    variables = tuple(
        VariableSpec(
            name=f"v{i}",
            labels=tuple(str(j) for j in range(dims[i])),
            kind="categorical" if i % 2 == 0 else "ordinal",
        )
        for i in range(d)
    )
    schema = Schema(variables)
    corr = 0.6 ** np.abs(np.subtract.outer(np.arange(d), np.arange(d)))
    chol = np.linalg.cholesky(corr)
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    def draw(n: int, powered: bool) -> MicroTable:
        latent = rng.standard_normal((n, d)) @ chol.T
        codes = new_codes(schema, n)
        for i in range(d):
            cuts = np.arange(1, dims[i]) / dims[i]
            if powered:
                gamma = 1.0 + marginal_skew if i % 2 == 0 else 1.0 / (1.0 + marginal_skew)
                cuts = cuts**gamma
            z_cuts = [statistics.NormalDist().inv_cdf(c) for c in cuts]
            # At most len(z_cuts) = m - 1: the narrowing store cannot wrap.
            codes[:, i] = np.searchsorted(z_cuts, latent[:, i], side="left")
        codes.flags.writeable = False
        return MicroTable(schema, codes)

    return draw(n_source, powered=False), draw(n_target, powered=True)
