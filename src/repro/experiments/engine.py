"""The sharded sweep engine: grid execution over a process pool.

:func:`run_shard` is the whole unit of work — build the shard's config,
data, and strategy, train it if it is learned, back-test it, and commit
a :class:`~repro.experiments.artifacts.ShardArtifact`.  It is a
module-level function of picklable arguments, so the *same code path*
runs a shard in-process and in a worker: serial and pooled sweeps are
bit-identical by construction (each shard derives all of its randomness
from its own spec, never from execution order or process state).

:class:`SweepRunner` orchestrates: expand the spec, skip shards whose
artifacts are already committed (checkpoint/resume), run the rest
serially or on a :class:`~concurrent.futures.ProcessPoolExecutor`, and
write the sweep manifest.

Fault tolerance (PR 7): each pending shard gets up to
``RetryPolicy.max_attempts`` tries with capped exponential backoff and
deterministic jitter between them.  A shard that exhausts its attempts
is *quarantined* — reported in the :class:`SweepResult` and the
manifest with the failing worker's traceback text — and its siblings
run to completion regardless.  A :class:`~repro.resilience.FaultPlan`
can be threaded through to arm the engine's seams (transient raises,
mid-write crashes, permanently broken shards) deterministically; a
``None`` or empty plan is the unhardened path, bit-identical to before
the seams existed.
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..agents import run_backtest
from ..obs import NULL_OBS, EventLog, Obs, get_obs, use_obs
from ..registry import (
    DEFAULT_REGISTRY,
    is_trainable,
    strategy_params_from_config,
)
from ..resilience import FaultPlan, InjectedFault, RetryPolicy, injector_from
from ..utils.serialization import PathLike, save_state_dict
from .artifacts import (
    ArtifactStore,
    ShardArtifact,
    _history_to_dict,
    _metrics_to_dict,
    _result_to_series,
    execution_metrics_from_summary,
    risk_metrics_from_summary,
)
from .runner import build_experiment_data, make_trainer
from .spec import ExperimentSpec, ShardSpec

# One failed attempt is usually a transient (preempted worker, flaky
# filesystem), so the default gives every shard three tries with
# sub-minute backoff before quarantining it.
DEFAULT_SHARD_RETRY = RetryPolicy(
    max_attempts=3, base_delay=0.5, multiplier=2.0, max_delay=30.0, jitter=0.25
)


def _shard_obs(name: str, obs_dir: Optional[str], obs_level: str):
    """A fresh per-shard obs handle, or the shared null object.

    Workers cannot inherit the orchestrator's in-process handle, so
    observability crosses the pool boundary as the picklable
    ``(obs_dir, obs_level)`` pair: with a directory every unit of work
    logs events to its own ``<name>.jsonl`` (whole-line appends, no
    cross-process interleaving) and returns its metric snapshot in the
    summary.  Without a directory, an enabled in-process handle still
    gets a private (memory-only) per-shard registry so snapshots stay
    per-shard; fully disabled runs pay nothing.
    """
    parent = get_obs()
    if obs_dir is None and not parent.enabled:
        return NULL_OBS
    path = Path(obs_dir) / f"{name}.jsonl" if obs_dir is not None else None
    level = obs_level if obs_dir is not None else parent.events.level
    return Obs(events=EventLog(path=path, level=level))


def run_shard(
    shard: ShardSpec,
    store_root: str,
    fault_plan: Optional[FaultPlan] = None,
    attempt: int = 0,
    position: int = 0,
    obs_dir: Optional[str] = None,
    obs_level: str = "info",
) -> Dict[str, object]:
    """Execute one shard end to end and commit its artifact.

    Returns a small JSON-able summary (the pool ships it back instead
    of the trajectories).  Idempotent: a shard already committed in the
    store is skipped, so racing a resume against a half-finished sweep
    never recomputes finished work.

    ``fault_plan`` arms the engine's chaos seams for this attempt
    (``attempt``/``position`` key the deterministic fault draws —
    ``position`` is the shard's index in spec-expansion order).  With no
    plan the extra parameters are inert and the body is the original
    code path.

    ``obs_dir``/``obs_level`` arm per-shard observability (see
    :func:`_shard_obs`): training/backtest/commit run inside spans, the
    shard's metric snapshot persists as ``extra["obs"]`` in the
    artifact, and the summary carries it home.  Left at their defaults
    (and with no enabled process-global handle) the body is
    bit-identical to the unobserved path.
    """
    store = ArtifactStore(store_root)
    shard_id = shard.shard_id
    if store.has_shard(shard_id):
        summary: Dict[str, object] = {
            "shard_id": shard_id,
            "status": "skipped",
            "metrics": store.load_shard_metrics(shard_id),
        }
        snap = store.load_shard_obs(shard_id)
        if snap is not None:
            summary["obs"] = snap
        return summary

    obs = _shard_obs(f"shard-{shard_id}", obs_dir, obs_level)
    try:
        with use_obs(obs):
            return _run_shard_observed(
                store, shard, fault_plan, attempt, position, obs
            )
    finally:
        obs.close()


def _run_shard_observed(
    store: ArtifactStore,
    shard: ShardSpec,
    fault_plan: Optional[FaultPlan],
    attempt: int,
    position: int,
    obs,
) -> Dict[str, object]:
    """The body of :func:`run_shard` under the shard's obs handle."""
    shard_id = shard.shard_id
    injector = injector_from(fault_plan)
    if injector is not None:
        kind = injector.shard_fault(shard_id, position, attempt)
        if kind == "crash":
            # Emulate a worker killed mid-write: a partial directory
            # with arrays but no shard.json commit mark.  has_shard
            # reads it as absent, so the retry re-runs cleanly.
            directory = store.shard_dir(shard_id)
            directory.mkdir(parents=True, exist_ok=True)
            save_state_dict(
                directory / "series.npz", {"values": np.zeros(1)}
            )
            raise InjectedFault("sweep.crash", f"{shard_id}:{attempt}")
        if kind is not None:
            raise InjectedFault(f"sweep.{kind}", f"{shard_id}:{attempt}")

    config = shard.config()
    data = build_experiment_data(config)
    params = strategy_params_from_config(
        shard.strategy, config, n_assets=len(data.assets)
    )
    agent = DEFAULT_REGISTRY.create(shard.strategy, **params)

    history = None
    weights_state = None
    if is_trainable(shard.strategy):
        with obs.span("shard.train", shard=shard_id, attempt=attempt):
            history = _history_to_dict(
                make_trainer(agent, data.train, config).train()
            )
        weights_state = agent.network.state_dict()

    return _backtest_and_commit(
        store, shard, config, data, agent, params, history, weights_state
    )


def _backtest_and_commit(
    store: ArtifactStore,
    shard: ShardSpec,
    config,
    data,
    agent,
    params: Dict[str, object],
    history: Optional[Dict[str, object]],
    weights_state,
) -> Dict[str, object]:
    """Back-test a (possibly trained) agent and commit its artifact.

    The post-training half of :func:`run_shard`.

    Reads the process-global obs handle (the per-shard one inside
    :func:`run_shard`): the back-test runs in a span and, when enabled,
    the handle's snapshot is committed as ``extra["obs"]`` and echoed
    in the summary.  Disabled obs leaves artifact bytes unchanged.
    """
    obs = get_obs()
    with obs.span("shard.backtest", shard=shard.shard_id):
        result = run_backtest(
            agent,
            data.test,
            observation=config.observation,
            commission=config.commission,
            execution=shard.build_execution_engine(),
            risk=shard.build_risk_engine(),
        )
    extra: Dict[str, object] = {"assets": list(data.assets)}
    metrics = _metrics_to_dict(result.metrics)
    result_extra = dict(result.extra)
    risk_summary = result_extra.pop("risk", None)
    if result_extra:
        # Implementation-shortfall report of a non-ideal execution
        # regime; merged into the summary metrics so aggregation and
        # tables see it alongside fAPV.
        extra["execution"] = result_extra
        metrics.update(execution_metrics_from_summary(result_extra))
    if risk_summary:
        # Constraint-enforcement report of a non-none risk regime —
        # same ride-along discipline as the execution summary.
        extra["risk"] = risk_summary
        metrics.update(risk_metrics_from_summary(risk_summary))
    obs_snapshot = None
    if obs.enabled:
        # Snapshot before the commit span so the persisted view equals
        # the summary's; the commit timing still lands in the event log.
        obs_snapshot = obs.snapshot()
        extra["obs"] = obs_snapshot
    artifact = ShardArtifact(
        shard=shard,
        strategy_spec={"strategy": shard.strategy, "params": params},
        metrics=result.metrics,
        series=_result_to_series(result),
        weights_state=weights_state,
        history=history,
        extra=extra,
    )
    with obs.span("shard.commit", shard=shard.shard_id):
        store.save_shard(artifact)
    summary: Dict[str, object] = {
        "shard_id": shard.shard_id,
        "status": "ran",
        "metrics": metrics,
    }
    if obs_snapshot is not None:
        summary["obs"] = obs_snapshot
    return summary


def _guarded_run_shard(
    shard: ShardSpec,
    store_root: str,
    fault_plan: Optional[FaultPlan],
    attempt: int,
    position: int,
    obs_dir: Optional[str] = None,
    obs_level: str = "info",
) -> Dict[str, object]:
    """Pool-safe wrapper: failures come back as data, not exceptions.

    ``ProcessPoolExecutor`` pickles a worker exception without its
    traceback, so the orchestrator would only ever see the repr.  This
    wrapper formats the traceback *inside* the worker and ships it home
    in the summary, where retry/quarantine logic (and ultimately the
    manifest) can use it.  ``KeyboardInterrupt``/``SystemExit`` still
    propagate — an interrupted sweep must stop, not quarantine.
    """
    try:
        return run_shard(
            shard,
            store_root,
            fault_plan=fault_plan,
            attempt=attempt,
            position=position,
            obs_dir=obs_dir,
            obs_level=obs_level,
        )
    except Exception as exc:
        return {
            "shard_id": shard.shard_id,
            "status": "error",
            "error": repr(exc),
            "traceback": traceback.format_exc(),
        }


@dataclass
class ShardOutcome:
    """One shard's fate in a sweep run.

    ``attempts`` counts tries actually made (1 on the healthy path);
    ``error`` carries the final attempt's traceback text when the shard
    was quarantined.
    """

    shard: ShardSpec
    status: str  # "ran" | "skipped" | "quarantined"
    metrics: Dict[str, float]
    attempts: int = 1
    error: Optional[str] = None

    @property
    def shard_id(self) -> str:
        return self.shard.shard_id


@dataclass
class SweepResult:
    """Outcome of one :meth:`SweepRunner.run` call."""

    spec: ExperimentSpec
    outcomes: List[ShardOutcome]
    pending: List[ShardSpec]  # expanded but not executed (max_shards cut)

    @property
    def ran(self) -> List[ShardOutcome]:
        return [o for o in self.outcomes if o.status == "ran"]

    @property
    def skipped(self) -> List[ShardOutcome]:
        return [o for o in self.outcomes if o.status == "skipped"]

    @property
    def quarantined(self) -> List[ShardOutcome]:
        """Shards that exhausted their retry budget this run."""
        return [o for o in self.outcomes if o.status == "quarantined"]

    @property
    def complete(self) -> bool:
        return not self.pending and not self.quarantined

    def aggregate(self) -> List[Dict[str, object]]:
        """Across-seed mean±std per (experiment, strategy, cost,
        execution, risk) grid cell.

        The multi-seed evidence the single-run paper tables lack: each
        row pools every seed of one grid cell.  Cells run under a
        non-ideal execution regime additionally aggregate their
        implementation-shortfall metrics; cells run under a non-none
        risk regime their constraint-violation metrics.
        """
        groups: Dict[Tuple[int, str, str, str, str], List[Dict[str, float]]] = {}
        for outcome in self.outcomes:
            if outcome.status == "quarantined":
                continue  # no metrics to pool; reported, not aggregated
            key = (
                outcome.shard.experiment,
                outcome.shard.strategy,
                outcome.shard.cost.name,
                outcome.shard.execution.name,
                outcome.shard.risk.name,
            )
            groups.setdefault(key, []).append(outcome.metrics)
        rows = []
        for (experiment, strategy, cost, execution, risk), metrics_list in sorted(
            groups.items()
        ):
            row: Dict[str, object] = {
                "experiment": experiment,
                "strategy": strategy,
                "cost": cost,
                "execution": execution,
                "risk": risk,
                "seeds": len(metrics_list),
            }
            metrics = (
                ("fapv", "mdd", "sharpe")
                + (
                    ("shortfall", "fill_ratio")
                    if all("shortfall" in m for m in metrics_list)
                    else ()
                )
                + (
                    ("violation_rate", "lockout_rate", "risk_turnover")
                    if all("violation_rate" in m for m in metrics_list)
                    else ()
                )
            )
            for metric in metrics:
                values = np.array([m[metric] for m in metrics_list], dtype=np.float64)
                row[f"{metric}_mean"] = float(values.mean())
                row[f"{metric}_std"] = (
                    float(values.std(ddof=1)) if values.size > 1 else 0.0
                )
            rows.append(row)
        return rows


class SweepRunner:
    """Expands a spec into shards and executes them with resume.

    Parameters
    ----------
    spec:
        The sweep grid.
    store:
        Artifact store (a path is accepted) shards commit into.
    max_workers:
        Process-pool width for ``parallel=True`` runs.
    retry:
        Per-shard retry budget and backoff shape; defaults to
        :data:`DEFAULT_SHARD_RETRY`.  ``max_attempts=1`` disables
        retries (one failure quarantines immediately).
    fault_plan:
        Optional :class:`~repro.resilience.FaultPlan` arming the
        engine's chaos seams.  ``None`` (or an empty plan) leaves every
        shard on the unhardened code path.
    sleep:
        Injectable sleeper for backoff waits (tests pass a no-op).
    obs_dir / obs_level:
        Per-shard observability spec, shipped to workers as picklable
        strings (see :func:`_shard_obs`).  With a directory every shard
        writes its own JSONL event log under it and persists its metric
        snapshot into the artifact; either way the runner merges all
        shard snapshots — fresh or reloaded on resume — into the
        process-global registry when one is enabled.  Defaults are the
        unobserved path.
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        store: "ArtifactStore | PathLike",
        max_workers: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        sleep: Callable[[float], None] = time.sleep,
        obs_dir: Optional[PathLike] = None,
        obs_level: str = "info",
    ):
        self.spec = spec
        self.store = store if isinstance(store, ArtifactStore) else ArtifactStore(store)
        self.max_workers = max_workers
        self.retry = retry if retry is not None else DEFAULT_SHARD_RETRY
        plan = fault_plan
        if plan is not None and plan.is_empty():
            plan = None  # empty plan ≡ no plan, everywhere
        self.fault_plan = plan
        self._sleep = sleep
        self.obs_dir = str(obs_dir) if obs_dir is not None else None
        self.obs_level = obs_level

    def run(
        self,
        parallel: bool = False,
        max_shards: Optional[int] = None,
        progress: Optional[Callable[[str, str], None]] = None,
    ) -> SweepResult:
        """Run the sweep; skip committed shards; write the manifest.

        ``max_shards`` caps how many *pending* shards execute this call
        (the rest stay pending for the next invocation) — the hook CI
        uses to simulate an interrupted sweep, and the knob for running
        a large grid in instalments.  ``progress`` receives
        ``(shard_id, status)`` as outcomes land.

        Failures never abort siblings: a shard that errors is retried
        per the runner's :class:`~repro.resilience.RetryPolicy` and,
        if it exhausts the budget, lands as a ``"quarantined"`` outcome
        carrying the last attempt's traceback while every other shard
        still runs.  (``KeyboardInterrupt`` is not a failure — it still
        aborts the run; committed shards stay committed.)
        """
        obs = get_obs()
        shards = self.spec.expand()
        positions = {shard.shard_id: i for i, shard in enumerate(shards)}
        outcomes: List[ShardOutcome] = []
        pending: List[ShardSpec] = []
        for shard in shards:
            if self.store.has_shard(shard.shard_id):
                outcome = ShardOutcome(
                    shard, "skipped", self.store.load_shard_metrics(shard.shard_id)
                )
                outcomes.append(outcome)
                if obs.enabled:
                    # Resume merge: a skipped shard's persisted obs
                    # snapshot folds in exactly like its metrics do.
                    obs.metrics.merge_snapshot(
                        self.store.load_shard_obs(shard.shard_id)
                    )
                if progress is not None:
                    progress(shard.shard_id, "skipped")
            else:
                pending.append(shard)

        to_run = pending if max_shards is None else pending[:max_shards]
        deferred = [] if max_shards is None else pending[max_shards:]
        root = str(self.store.root)
        max_attempts = max(1, self.retry.max_attempts)

        def collect(
            shard: ShardSpec,
            summary: Dict[str, object],
            attempts: int,
            elapsed: float = 0.0,
        ) -> None:
            if summary["status"] == "error":
                outcome = ShardOutcome(
                    shard,
                    "quarantined",
                    {},
                    attempts=attempts,
                    error=str(summary.get("traceback") or summary.get("error")),
                )
            else:
                outcome = ShardOutcome(
                    shard,
                    str(summary["status"]),
                    dict(summary["metrics"]),
                    attempts=attempts,
                )
            outcomes.append(outcome)
            if obs.enabled:
                obs.metrics.merge_snapshot(summary.get("obs"))
                obs.event(
                    "shard_done",
                    shard=shard.shard_id,
                    status=outcome.status,
                    attempts=attempts,
                    elapsed=round(elapsed, 6),
                )
            if progress is not None:
                progress(shard.shard_id, outcome.status)

        if parallel and len(to_run) > 1:
            workers = self.max_workers or min(len(to_run), 4)
            with ProcessPoolExecutor(max_workers=workers) as pool:
                # Retry in waves: attempt k runs every still-failing
                # shard concurrently, then the runner sleeps the
                # longest of their backoff delays before attempt k+1.
                # Failures come back as data (_guarded_run_shard), so
                # one bad shard never poisons pool.map for the others.
                wave = list(to_run)
                for attempt in range(max_attempts):
                    n = len(wave)
                    with obs.span("sweep.wave", attempt=attempt, shards=n):
                        summaries = list(
                            pool.map(
                                _guarded_run_shard,
                                wave,
                                [root] * n,
                                [self.fault_plan] * n,
                                [attempt] * n,
                                [positions[s.shard_id] for s in wave],
                                [self.obs_dir] * n,
                                [self.obs_level] * n,
                            )
                        )
                    failed: List[ShardSpec] = []
                    for shard, summary in zip(wave, summaries):
                        if (
                            summary["status"] == "error"
                            and attempt + 1 < max_attempts
                        ):
                            failed.append(shard)
                        else:
                            collect(shard, summary, attempts=attempt + 1)
                    if not failed:
                        break
                    self._sleep(
                        max(
                            self.retry.delay(attempt, s.shard_id)
                            for s in failed
                        )
                    )
                    wave = failed
        else:
            for shard in to_run:
                position = positions[shard.shard_id]
                t0 = time.perf_counter()
                for attempt in range(max_attempts):
                    try:
                        with obs.span(
                            "sweep.shard", shard=shard.shard_id, attempt=attempt
                        ):
                            summary = run_shard(
                                shard,
                                root,
                                fault_plan=self.fault_plan,
                                attempt=attempt,
                                position=position,
                                obs_dir=self.obs_dir,
                                obs_level=self.obs_level,
                            )
                    except Exception:
                        if attempt + 1 < max_attempts:
                            self._sleep(self.retry.delay(attempt, shard.shard_id))
                            continue
                        summary = {
                            "shard_id": shard.shard_id,
                            "status": "error",
                            "traceback": traceback.format_exc(),
                        }
                    collect(
                        shard,
                        summary,
                        attempts=attempt + 1,
                        elapsed=time.perf_counter() - t0,
                    )
                    break

        # Keep outcomes in expansion order — aggregation and manifests
        # must not depend on completion order.
        outcomes.sort(key=lambda o: positions[o.shard_id])
        result = SweepResult(spec=self.spec, outcomes=outcomes, pending=deferred)

        def manifest_entry(o: ShardOutcome) -> Dict[str, object]:
            if o.status == "quarantined":
                return {
                    "shard_id": o.shard_id,
                    "status": "quarantined",
                    "attempts": o.attempts,
                    "error": o.error,
                }
            # Successful entries keep the pre-hardening shape exactly,
            # so a manifest from a recovered (retried) sweep is equal
            # to one from a fault-free sweep.
            return {
                "shard_id": o.shard_id,
                "status": "complete",
                "metrics": o.metrics,
            }

        self.store.write_manifest(
            {
                "version": 1,
                "spec": self.spec.to_json_dict(),
                "shards": [manifest_entry(o) for o in outcomes]
                + [
                    {"shard_id": s.shard_id, "status": "pending"}
                    for s in deferred
                ],
                "complete": result.complete,
            }
        )
        return result
