"""Greedy construction of directed information-transfer networks.

Each target is analysed on one :class:`TargetWorkspace`, built once, which
embeds the target's present and every candidate column; every phase runs on
it. Selection and the final p-values are one loop of max-statistic steps:
each takes the eligible candidate with the largest conditional mutual
information, gates it with a maximum-statistic permutation test over the
remaining pool, and moves it into the conditioning set, which removes
redundant candidates and lets synergistic ones surface.
:func:`select_target_past` (the target's self-embedding, TE modes) and
:func:`select_sources` take steps while the test holds. :func:`prune`
re-examines the accepted variables with a minimum-statistic test.
:func:`infer_target` puts the survivors to a joint omnibus test, then takes
every step over the source pool with only the survivors eligible, which
gives each its p-value in decreasing order of contribution. Bivariate modes
run selection, prune and the final p-values once per source process.
Network-level false discoveries are controlled with Benjamini-Hochberg
across all candidate links.
"""
from __future__ import annotations

import dataclasses
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import takewhile

import numpy as np

from .data import Dataset, Realization, VariableRef, embed, normalize
from .errors import (
    DataError, DegenerateTargetError, InferenceError, InfonetError, InsufficientPermutationsError,
)
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
    check_permutation_count,
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
        # Each count must be able to reject at its level; sequential steps are max tests.
        for test, level in (("max", "max"), ("min", "min"), ("omnibus", "omnibus"), ("seq", "max")):
            name, alpha = f"n_perm_{test}", f"alpha_{level}"
            try:
                check_permutation_count(getattr(self, name), getattr(self, alpha))
            except InsufficientPermutationsError as err:
                raise InferenceError(f"{name} at {alpha}: {err}") from None
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


class TargetWorkspace:
    """One target's embedded candidate columns and test plumbing, built once.

    Every phase of the target's analysis runs on it: the three public steps,
    the omnibus and sequential phases of :func:`infer_target`, and
    :func:`infonet.ais.ais_estimate`. ``past_pool`` is empty in MI modes;
    ``include_sources=False`` empties ``source_pool`` and keeps the
    target-past pool whatever the mode (the self-embedding of AIS).
    Its permutation tests all read ``blocks``, the embedding's replications.
    """

    def __init__(
        self,
        dataset: Dataset,
        target: int,
        settings: InferenceSettings,
        include_sources: bool = True,
    ):
        if not 0 <= target < dataset.n_processes:
            raise DataError(f"target process {target} out of range")
        _check_target(dataset, target)
        dataset = prepare_dataset(dataset, settings)
        self.target = target
        self.settings = settings
        self.estimator = make_estimator(settings, dataset, target)

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
        self.blocks = realization.blocks
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


def _check_target(dataset: Dataset, target: int) -> None:
    if np.all(np.ptp(dataset.values[target], axis=0) == 0):
        raise DegenerateTargetError(f"every replication of process {target} is constant")


def _groups(ws: TargetWorkspace, variables) -> list[list[VariableRef]]:
    """Variable sets analysed separately: all at once, or per process when bivariate."""
    if not ws.settings.is_bivariate:
        return [list(variables)]
    processes = sorted({v.process for v in variables})
    return [[v for v in variables if v.process == p] for p in processes]


def _max_steps(
    ws: TargetWorkspace,
    pool: list[VariableRef],
    conditioning: list[VariableRef],
    eligible,
    phase: int,
    first_step: int,
    n_perm: int,
) -> Iterator[tuple[VariableRef, float, TestResult]]:
    """Greedy max-statistic steps over ``pool``, yielding ``(variable, cmi, test)``.

    Each step takes the candidate of the pool in ``eligible`` with the largest
    CMI given the conditioning, ties broken by (process asc, lag asc) for
    reproducibility, and gates it with the max-statistic test over the
    remaining pool; the variable then leaves the pool and joins the
    conditioning. Step k draws its surrogates with the seed of step
    ``first_step + k`` of ``phase``. The steps end when no eligible
    candidate remains, or when the caller stops asking.
    """
    pool = sorted(pool, key=VariableRef.sort_key)
    conditioning = list(conditioning)
    eligible = set(eligible).intersection(pool)
    step = first_step
    while eligible:
        z = ws.columns(conditioning)
        cols = ws.columns(pool)
        observed = ws.estimator.candidates_cmi(cols, ws.y, z)
        best = min(
            (i for i, v in enumerate(pool) if v in eligible),
            key=lambda i: (-observed[i], pool[i].process, pool[i].lag),
        )
        cmi = float(observed[best])
        test = max_statistic_test(
            cols,
            observed,
            ws.y,
            z,
            ws.blocks,
            ws.estimator,
            ws.policy(phase, step),
            n_perm,
            ws.settings.alpha_max,
            observed_statistic=cmi,
        )
        variable = pool.pop(best)
        yield variable, cmi, test
        conditioning.append(variable)
        eligible.remove(variable)
        step += 1


def _select(
    ws: TargetWorkspace, pool: list[VariableRef], conditioning: list[VariableRef], phase: int
) -> list[VariableRef]:
    """The variables of the max-statistic steps over ``pool`` up to the first failed test."""
    steps = _max_steps(ws, pool, conditioning, pool, phase, 0, ws.settings.n_perm_max)
    return [variable for variable, _, _ in takewhile(lambda step: step[2].significant, steps)]


def select_target_past(ws: TargetWorkspace) -> list[VariableRef]:
    """Greedy self-embedding of the target over ``ws.past_pool``."""
    return _select(ws, ws.past_pool, [], PHASE_TARGET_PAST)


def select_sources(
    ws: TargetWorkspace, conditioning: list[VariableRef]
) -> list[VariableRef]:
    """Greedy source-variable selection given a fixed base conditioning set."""
    selected: list[VariableRef] = []
    for group in _groups(ws, ws.source_pool):
        selected.extend(_select(ws, group, conditioning, PHASE_SOURCES))
    return selected


def prune(
    ws: TargetWorkspace,
    selected: list[VariableRef],
    conditioning: list[VariableRef],
) -> list[VariableRef]:
    """Drop the weakest selected variables until the minimum-statistic test holds."""
    z = ws.columns(conditioning)
    kept: list[VariableRef] = []
    for group in _groups(ws, selected):
        survivors = sorted(group, key=VariableRef.sort_key)
        while survivors:
            outcome = min_statistic_test(
                ws.columns(survivors),
                ws.y,
                z,
                ws.blocks,
                ws.estimator,
                ws.policy(PHASE_PRUNE, len(group) - len(survivors)),
                ws.settings.n_perm_min,
                ws.settings.alpha_min,
            )
            if outcome.result.significant:
                break
            survivors.pop(outcome.weakest)
        kept.extend(survivors)
    return kept


def infer_target(dataset: Dataset, target: int, settings: InferenceSettings) -> TargetResult:
    """Full per-target pipeline: embed, select, prune, omnibus, sequential stats."""
    if dataset.n_processes == 1 and not settings.is_te_mode:
        # MI modes have no candidates at all without a second process.
        omnibus = TestResult(0.0, 1.0, False, settings.n_perm_omnibus, settings.alpha_omnibus)
        return TargetResult(target, (), (), omnibus, {})
    ws = TargetWorkspace(dataset, target, settings)
    past = select_target_past(ws)
    survivors = prune(ws, select_sources(ws, past), past)
    survivors = sorted(survivors, key=VariableRef.sort_key)

    omnibus = omnibus_test(
        ws.columns(survivors),
        ws.y,
        ws.columns(past),
        ws.blocks,
        ws.estimator,
        ws.policy(PHASE_OMNIBUS, 0),
        settings.n_perm_omnibus,
        settings.alpha_omnibus,
    )
    if not omnibus.significant:
        survivors = []

    # Final p-values: the max-statistic steps over each group's whole pool,
    # taken until every survivor is assigned, in decreasing order of its
    # conditional contribution. Step seeds continue across bivariate groups.
    sources: list[SelectedSource] = []
    for group in _groups(ws, ws.source_pool):
        steps = _max_steps(
            ws, group, past, survivors, PHASE_SEQUENTIAL, len(sources), settings.n_perm_seq
        )
        sources.extend(SelectedSource(v, cmi, test.p_value) for v, cmi, test in steps)

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
    )


def _links_from_target(result: TargetResult) -> list[Link]:
    """One link per selected source process, flagged later by the network's FDR step."""
    links = []
    for p in sorted(result.per_source_delay):
        own = [s for s in result.selected_sources if s.variable.process == p]
        links.append(
            Link(
                source=p,
                target=result.target,
                weight_bits=float(sum(s.cmi_bits for s in own)),
                delay=result.per_source_delay[p],
                p_value=float(min(s.p_value for s in own)),
                fdr_significant=False,
            )
        )
    return links


def infer_network(
    dataset: Dataset, settings: InferenceSettings, threads: int = 1
) -> NetworkResult:
    """Run every target and assemble the FDR-corrected link structure.

    ``threads`` below 1 raises ``InferenceError``. A failing target stops the
    run with its error's type and a ``target {t}: `` message prefix; with
    several failing targets, the first in target order.
    """
    if threads < 1:
        raise InferenceError(f"threads must be >= 1, got {threads}")
    dataset = prepare_dataset(dataset, settings)
    targets = list(range(dataset.n_processes))
    if dataset.n_processes > 1 or settings.is_te_mode:
        # Fail before any target runs, not after the others have finished.
        for t in targets:
            _check_target(dataset, t)

    def run(t: int) -> TargetResult:
        try:
            return infer_target(dataset, t, settings)
        except InfonetError as err:
            raise type(err)(f"target {t}: {err}") from err

    if threads > 1 and len(targets) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, targets))
    else:
        results = [run(t) for t in targets]

    # A target yields at most one link per other process, so every link is one
    # of the n_tested candidates.
    raw_links = sorted(
        (link for res in results for link in _links_from_target(res)),
        key=lambda l: (l.target, l.source),
    )
    n_tested = dataset.n_processes * (dataset.n_processes - 1)
    mask = fdr_correct([l.p_value for l in raw_links], alpha=settings.alpha_fdr, m=n_tested)
    return NetworkResult(
        targets=tuple(results),
        links=tuple(
            dataclasses.replace(l, fdr_significant=bool(flag)) for l, flag in zip(raw_links, mask)
        ),
        n_links_tested=n_tested,
        settings=settings,
    )
