"""Greedy construction of directed information-transfer networks.

For each target the algorithm optionally builds a self-embedding (the
target's own informative past), then grows a parent set over lagged source
variables by repeatedly taking the candidate with the largest conditional
mutual information and gating it with a maximum-statistic permutation test.
The conditioning set grows with every accepted variable, which removes
redundant candidates and lets synergistic ones surface. Accepted variables
are then re-examined with a minimum-statistic prune, the surviving set faces
a joint omnibus test, and per-variable p-values are recomputed by re-running
the maximum-statistic construction over the surviving variables in
decreasing order of contribution. Network-level false discoveries are
controlled with Benjamini-Hochberg across all candidate links.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, Realization, VariableRef, embed, normalize
from .errors import DataError, DegenerateTargetError, InferenceError
from .estimators import (
    DEFAULT_STATE_CAP,
    DiscreteEstimator,
    Estimator,
    GaussianEstimator,
    KnnEstimator,
    KnnSettings,
)
from .seeding import (
    PHASE_NOISE,
    PHASE_OMNIBUS,
    PHASE_PRUNE,
    PHASE_SEQUENTIAL,
    PHASE_SOURCES,
    PHASE_TARGET_PAST,
    derive_seed,
)
from .stats import (
    CIRCULAR_SHIFT,
    REPLICATION_SHUFFLE,
    SurrogatePolicy,
    TestResult,
    fdr_correct,
    max_statistic_test,
    min_statistic_test,
    omnibus_test,
)

MODE_MULTIVARIATE_TE = "multivariate_te"
MODE_BIVARIATE_TE = "bivariate_te"
MODE_MULTIVARIATE_MI = "multivariate_mi"
MODE_BIVARIATE_MI = "bivariate_mi"
MODES = (
    MODE_MULTIVARIATE_TE,
    MODE_BIVARIATE_TE,
    MODE_MULTIVARIATE_MI,
    MODE_BIVARIATE_MI,
)

ESTIMATOR_NAMES = ("gaussian", "knn", "discrete")

# Replication count at which the surrogate default flips from circular
# shifting (preserves within-trial autocorrelation) to trial shuffling.
_REPLICATION_SHUFFLE_THRESHOLD = 20


@dataclass(frozen=True)
class InferenceSettings:
    """Analysis mode, estimator choice, candidate lags, test levels, seed."""

    mode: str = MODE_MULTIVARIATE_TE
    estimator: str = "gaussian"
    max_lag_sources: int = 5
    min_lag_sources: int = 1
    max_lag_target: int = 5
    tau_sources: int = 1
    tau_target: int = 1
    k_neighbors: int = 4
    noise_amplitude: float = 1e-8
    state_space_cap: int = DEFAULT_STATE_CAP
    alpha_max: float = 0.05
    alpha_min: float = 0.05
    alpha_omnibus: float = 0.05
    alpha_fdr: float = 0.05
    n_perm_max: int = 200
    n_perm_min: int = 200
    n_perm_omnibus: int = 500
    n_perm_seq: int = 200
    surrogate: str = "auto"
    normalize: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise InferenceError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.estimator not in ESTIMATOR_NAMES:
            raise InferenceError(
                f"unknown estimator {self.estimator!r}; expected one of {ESTIMATOR_NAMES}"
            )
        if self.min_lag_sources < 1:
            raise InferenceError("min_lag_sources must be >= 1")
        if self.max_lag_sources < self.min_lag_sources:
            raise InferenceError("max_lag_sources must be >= min_lag_sources")
        if self.max_lag_target < 1:
            raise InferenceError("max_lag_target must be >= 1")
        if self.tau_sources < 1 or self.tau_target < 1:
            raise InferenceError("tau step counts must be >= 1")
        for name in ("alpha_max", "alpha_min", "alpha_omnibus", "alpha_fdr"):
            a = getattr(self, name)
            if not 0.0 < a < 1.0:
                raise InferenceError(f"{name} must lie in (0, 1), got {a}")
        for name in ("n_perm_max", "n_perm_min", "n_perm_omnibus", "n_perm_seq"):
            if getattr(self, name) < 1:
                raise InferenceError(f"{name} must be >= 1")
        if self.surrogate not in ("auto", CIRCULAR_SHIFT, REPLICATION_SHUFFLE):
            raise InferenceError(f"unknown surrogate scheme {self.surrogate!r}")

    @property
    def is_te_mode(self) -> bool:
        return self.mode in (MODE_MULTIVARIATE_TE, MODE_BIVARIATE_TE)

    @property
    def is_bivariate(self) -> bool:
        return self.mode in (MODE_BIVARIATE_TE, MODE_BIVARIATE_MI)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "InferenceSettings":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise InferenceError(f"unknown settings keys: {sorted(unknown)}")
        return cls(**d)


@dataclass(frozen=True)
class SelectedSource:
    """One surviving source variable with its final contribution and p-value."""

    variable: VariableRef
    cmi_bits: float
    p_value: float


@dataclass(frozen=True)
class TargetResult:
    """Per-target inference output."""

    target: int
    selected_target_past: tuple[VariableRef, ...]
    selected_sources: tuple[SelectedSource, ...]
    omnibus: TestResult
    per_source_delay: dict[int, int]
    settings: InferenceSettings


@dataclass(frozen=True)
class Link:
    """Directed source -> target edge with summed contribution in bits."""

    source: int
    target: int
    weight_bits: float
    delay: int
    p_value: float
    fdr_significant: bool


@dataclass(frozen=True)
class NetworkResult:
    """All target results plus the FDR-corrected link structure."""

    targets: tuple[TargetResult, ...]
    links: tuple[Link, ...]
    n_links_tested: int
    settings: InferenceSettings
    seed: int

    @property
    def adjacency(self) -> tuple[Link, ...]:
        """Exactly the links surviving FDR."""
        return tuple(l for l in self.links if l.fdr_significant)


def prepare_dataset(dataset: Dataset, settings: InferenceSettings) -> Dataset:
    """The dataset the estimators see: z-scored when the settings ask for it."""
    if dataset.kind == "continuous" and settings.normalize and not dataset.normalized:
        return normalize(dataset)
    return dataset


def make_estimator(settings: InferenceSettings, dataset: Dataset, target: int) -> Estimator:
    """Instantiate the configured estimator for one target analysis."""
    if settings.estimator == "discrete":
        if dataset.kind != "discrete":
            raise DataError("discrete estimator requires discrete data")
        return DiscreteEstimator(dataset.alphabet_size, settings.state_space_cap)
    if dataset.kind != "continuous":
        raise DataError(f"{settings.estimator} estimator requires continuous data")
    if settings.estimator == "gaussian":
        return GaussianEstimator()
    return KnnEstimator(
        KnnSettings(
            k=settings.k_neighbors,
            noise_amplitude=settings.noise_amplitude,
            seed=derive_seed(settings.seed, target, PHASE_NOISE),
        )
    )


def _target_past_pool(settings: InferenceSettings, target: int) -> list[VariableRef]:
    return [
        VariableRef(target, lag)
        for lag in range(settings.tau_target, settings.max_lag_target + 1, settings.tau_target)
    ]


def _source_pool(settings: InferenceSettings, target: int, n_processes: int) -> list[VariableRef]:
    return [
        VariableRef(p, lag)
        for p in range(n_processes)
        if p != target
        for lag in range(
            settings.min_lag_sources, settings.max_lag_sources + 1, settings.tau_sources
        )
    ]


class _Workspace:
    """Embedded candidate columns and test plumbing for one target."""

    def __init__(
        self,
        dataset: Dataset,
        target: int,
        settings: InferenceSettings,
        include_sources: bool = True,
    ):
        if not 0 <= target < dataset.n_processes:
            raise DataError(f"target process {target} out of range")
        if _is_degenerate(dataset, target):
            raise DegenerateTargetError(
                f"every replication of process {target} is constant"
            )
        dataset = prepare_dataset(dataset, settings)
        self.dataset = dataset
        self.target = target
        self.settings = settings
        self.estimator = make_estimator(settings, dataset, target)

        # Standalone self-embedding (include_sources=False) always needs the
        # target-past pool, whatever the configured mode.
        self.past_pool = (
            _target_past_pool(settings, target)
            if settings.is_te_mode or not include_sources
            else []
        )
        self.source_pool = (
            _source_pool(settings, target, dataset.n_processes) if include_sources else []
        )
        pool_lags = [v.lag for v in self.past_pool + self.source_pool]
        if not pool_lags:
            raise InferenceError("candidate pools are empty")
        self.max_lag = max(pool_lags)

        all_vars = tuple(self.past_pool + self.source_pool)
        realization: Realization = embed(dataset, target, all_vars, max_lag=self.max_lag)
        self._column_of = {v: j for j, v in enumerate(all_vars)}
        self._lagged = realization.lagged
        self.y = realization.present[:, np.newaxis]
        self.rep_ids = realization.replication_of_row
        self.n_rows = realization.n_rows

        if settings.surrogate == "auto":
            self.surrogate_method = (
                REPLICATION_SHUFFLE
                if dataset.n_replications >= _REPLICATION_SHUFFLE_THRESHOLD
                else CIRCULAR_SHIFT
            )
        else:
            self.surrogate_method = settings.surrogate

    def columns(self, variables) -> np.ndarray:
        """(n, len(variables)) matrix in the given variable order."""
        if not variables:
            return np.empty((self.n_rows, 0))
        idx = [self._column_of[v] for v in variables]
        return self._lagged[:, idx]

    def policy(self, phase: int, step: int) -> SurrogatePolicy:
        return SurrogatePolicy(
            method=self.surrogate_method,
            min_shift=self.max_lag + 1,
            seed=derive_seed(self.settings.seed, self.target, phase, step),
        )


def _is_degenerate(dataset: Dataset, target: int) -> bool:
    block = dataset.values[target]
    return bool(np.all(np.ptp(block, axis=0) == 0))


def _argbest(observed: np.ndarray, variables: list[VariableRef]) -> int:
    """Largest CMI; ties broken by (process asc, lag asc) for reproducibility."""
    return min(
        range(len(variables)),
        key=lambda i: (-observed[i], variables[i].process, variables[i].lag),
    )


def _greedy_select(
    ws: _Workspace,
    pool: list[VariableRef],
    conditioning: list[VariableRef],
    phase: int,
) -> list[VariableRef]:
    """Grow a variable set by argmax-CMI steps gated with the max-statistic test."""
    settings = ws.settings
    remaining = sorted(pool, key=VariableRef.sort_key)
    selected: list[VariableRef] = []
    step = 0
    while remaining:
        z = ws.columns(conditioning + selected)
        cols = ws.columns(remaining)
        observed = ws.estimator.candidates_cmi(cols, ws.y, z)
        best = _argbest(observed, remaining)
        test = max_statistic_test(
            cols,
            observed,
            ws.y,
            z,
            ws.rep_ids,
            ws.estimator,
            ws.policy(phase, step),
            settings.n_perm_max,
            settings.alpha_max,
            observed_statistic=float(observed[best]),
        )
        if not test.significant:
            break
        selected.append(remaining.pop(best))
        step += 1
    return selected


def _prune(
    ws: _Workspace,
    selected: list[VariableRef],
    conditioning: list[VariableRef],
) -> list[VariableRef]:
    """Drop weakest variables until the minimum-statistic test holds."""
    settings = ws.settings
    survivors = sorted(selected, key=VariableRef.sort_key)
    round_no = 0
    while survivors:
        outcome = min_statistic_test(
            ws.columns(survivors),
            ws.y,
            ws.columns(conditioning),
            ws.rep_ids,
            ws.estimator,
            ws.policy(PHASE_PRUNE, round_no),
            settings.n_perm_min,
            settings.alpha_min,
        )
        if outcome.result.significant:
            break
        survivors.pop(outcome.weakest)
        round_no += 1
    return survivors


def _sequential_stats(
    ws: _Workspace,
    survivors: list[VariableRef],
    conditioning: list[VariableRef],
    full_pool: list[VariableRef],
    phase_offset: int = 0,
) -> list[SelectedSource]:
    """Final per-variable p-values: re-run the max-statistic construction.

    Surviving variables are assigned in decreasing order of conditional
    contribution; at each step the null is the maximum statistic over the
    original candidate pool minus the variables already assigned, mirroring
    the multiple-comparison structure of the selection loop.
    """
    settings = ws.settings
    pool = sorted(full_pool, key=VariableRef.sort_key)
    unassigned = set(survivors)
    assigned: list[VariableRef] = []
    out: list[SelectedSource] = []
    step = 0
    while unassigned:
        pool_now = [v for v in pool if v not in assigned]
        z = ws.columns(conditioning + assigned)
        cols = ws.columns(pool_now)
        observed = ws.estimator.candidates_cmi(cols, ws.y, z)
        candidates = [i for i, v in enumerate(pool_now) if v in unassigned]
        best = min(
            candidates,
            key=lambda i: (-observed[i], pool_now[i].process, pool_now[i].lag),
        )
        test = max_statistic_test(
            cols,
            observed,
            ws.y,
            z,
            ws.rep_ids,
            ws.estimator,
            ws.policy(PHASE_SEQUENTIAL, phase_offset + step),
            settings.n_perm_seq,
            settings.alpha_max,
            observed_statistic=float(observed[best]),
        )
        variable = pool_now[best]
        out.append(
            SelectedSource(
                variable=variable,
                cmi_bits=float(observed[best]),
                p_value=test.p_value,
            )
        )
        assigned.append(variable)
        unassigned.remove(variable)
        step += 1
    return out


def select_target_past(
    dataset: Dataset, target: int, settings: InferenceSettings
) -> list[VariableRef]:
    """Greedy self-embedding of the target; empty in MI modes."""
    if not settings.is_te_mode:
        return []
    ws = _Workspace(dataset, target, settings)
    return _greedy_select(ws, ws.past_pool, [], PHASE_TARGET_PAST)


def select_sources(
    dataset: Dataset,
    target: int,
    conditioning: list[VariableRef],
    settings: InferenceSettings,
) -> list[VariableRef]:
    """Greedy source-variable selection given a fixed base conditioning set."""
    if dataset.n_processes == 1 and not settings.is_te_mode:
        return []
    ws = _Workspace(dataset, target, settings)
    return _select_sources_ws(ws, list(conditioning))


def _select_sources_ws(
    ws: _Workspace, conditioning: list[VariableRef]
) -> list[VariableRef]:
    if ws.settings.is_bivariate:
        selected: list[VariableRef] = []
        for p in sorted({v.process for v in ws.source_pool}):
            pool_p = [v for v in ws.source_pool if v.process == p]
            selected.extend(_greedy_select(ws, pool_p, conditioning, PHASE_SOURCES))
        return selected
    return _greedy_select(ws, ws.source_pool, conditioning, PHASE_SOURCES)


def prune(
    dataset: Dataset,
    target: int,
    selected: list[VariableRef],
    conditioning: list[VariableRef],
    settings: InferenceSettings,
) -> list[VariableRef]:
    """Re-test a selected set and drop variables that fail the minimum statistic."""
    if not selected:
        return []
    ws = _Workspace(dataset, target, settings)
    return _prune_ws(ws, list(selected), list(conditioning))


def _prune_ws(
    ws: _Workspace, selected: list[VariableRef], conditioning: list[VariableRef]
) -> list[VariableRef]:
    if not selected:
        return []
    if ws.settings.is_bivariate:
        survivors: list[VariableRef] = []
        for p in sorted({v.process for v in selected}):
            own = [v for v in selected if v.process == p]
            survivors.extend(_prune(ws, own, conditioning))
        return survivors
    return _prune(ws, selected, conditioning)


def _trivial_target_result(target: int, settings: InferenceSettings) -> TargetResult:
    return TargetResult(
        target=target,
        selected_target_past=(),
        selected_sources=(),
        omnibus=TestResult(0.0, 1.0, False, settings.n_perm_omnibus, settings.alpha_omnibus),
        per_source_delay={},
        settings=settings,
    )


def infer_target(dataset: Dataset, target: int, settings: InferenceSettings) -> TargetResult:
    """Full per-target pipeline: embed, select, prune, omnibus, sequential stats."""
    if dataset.n_processes == 1 and not settings.is_te_mode:
        # MI modes have no candidates at all without a second process.
        return _trivial_target_result(target, settings)
    ws = _Workspace(dataset, target, settings)
    past = (
        _greedy_select(ws, ws.past_pool, [], PHASE_TARGET_PAST)
        if settings.is_te_mode
        else []
    )
    selected = _select_sources_ws(ws, past)
    survivors = _prune_ws(ws, selected, past)
    survivors = sorted(survivors, key=VariableRef.sort_key)

    omnibus = omnibus_test(
        ws.columns(survivors),
        ws.y,
        ws.columns(past),
        ws.rep_ids,
        ws.estimator,
        ws.policy(PHASE_OMNIBUS, 0),
        settings.n_perm_omnibus,
        settings.alpha_omnibus,
    )
    if not omnibus.significant:
        survivors = []

    sources: list[SelectedSource] = []
    if survivors:
        if settings.is_bivariate:
            offset = 0
            for p in sorted({v.process for v in survivors}):
                own = [v for v in survivors if v.process == p]
                pool_p = [v for v in ws.source_pool if v.process == p]
                sources.extend(_sequential_stats(ws, own, past, pool_p, offset))
                offset += len(own)
        else:
            sources = _sequential_stats(ws, survivors, past, ws.source_pool)

    delays: dict[int, int] = {}
    for p in sorted({s.variable.process for s in sources}):
        own = [s for s in sources if s.variable.process == p]
        strongest = min(own, key=lambda s: (-s.cmi_bits, s.variable.lag))
        delays[p] = strongest.variable.lag

    return TargetResult(
        target=target,
        selected_target_past=tuple(past),
        selected_sources=tuple(sources),
        omnibus=omnibus,
        per_source_delay=delays,
        settings=settings,
    )


def _links_from_target(result: TargetResult) -> list[tuple[int, int, float, int, float]]:
    links = []
    for p in sorted(result.per_source_delay):
        own = [s for s in result.selected_sources if s.variable.process == p]
        weight = float(sum(s.cmi_bits for s in own))
        p_value = float(min(s.p_value for s in own))
        links.append((p, result.target, weight, result.per_source_delay[p], p_value))
    return links


def infer_network(
    dataset: Dataset, settings: InferenceSettings, threads: int = 1
) -> NetworkResult:
    """Run every target and assemble the FDR-corrected link structure."""
    dataset = prepare_dataset(dataset, settings)
    targets = list(range(dataset.n_processes))
    if threads > 1 and len(targets) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda t: infer_target(dataset, t, settings), targets))
    else:
        results = [infer_target(dataset, t, settings) for t in targets]

    raw_links: list[tuple[int, int, float, int, float]] = []
    for res in results:
        raw_links.extend(_links_from_target(res))
    raw_links.sort(key=lambda l: (l[1], l[0]))

    n_processes = dataset.n_processes
    n_tested = n_processes * (n_processes - 1)
    mask = fdr_correct(
        [l[4] for l in raw_links], alpha=settings.alpha_fdr, m=max(n_tested, len(raw_links))
    )
    links = tuple(
        Link(
            source=s,
            target=t,
            weight_bits=w,
            delay=d,
            p_value=p,
            fdr_significant=bool(flag),
        )
        for (s, t, w, d, p), flag in zip(raw_links, mask)
    )
    return NetworkResult(
        targets=tuple(results),
        links=links,
        n_links_tested=n_tested,
        settings=settings,
        seed=settings.seed,
    )
