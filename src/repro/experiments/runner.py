"""End-to-end experiment runner regenerating the paper's tables.

``run_experiment`` executes one column-block of Table 3: build the
synthetic market, select the top-11-by-volume universe as of the
back-test start, train SDP and DRL[Jiang] on the training span, and
back-test every strategy on the hold-out span.  ``run_power_comparison``
produces the corresponding Table 4 rows from the trained agents and the
device models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..agents import (
    Agent,
    BacktestResult,
    JiangDRLAgent,
    PolicyTrainer,
    SDPAgent,
    TrainConfig,
    TrainHistory,
    run_backtest,
)
from ..autograd.optim import Adam
from ..baselines import table3_baselines
from ..data import MarketData, MarketGenerator, top_volume_assets
from ..loihi import (
    EnergyReport,
    deploy,
    energy_reduction_ratio,
    paper_cpu_model,
    paper_gpu_model,
    paper_loihi_model,
)
from ..registry import strategy_from_config
from .config import ExperimentConfig


@dataclass
class ExperimentData:
    """Market panels of one experiment (after universe selection)."""

    assets: List[str]
    train: MarketData
    test: MarketData


def build_experiment_data(config: ExperimentConfig) -> ExperimentData:
    """Generate the market and apply Table 1's window + top-k selection."""
    generator = MarketGenerator(seed=config.market_seed)
    full = generator.generate(
        config.window.train_start,
        config.window.test_end,
        period_seconds=config.period_seconds,
    )
    assets = top_volume_assets(full, config.window.test_start, k=config.num_assets)
    panel = full.select_assets(assets)
    train, test = config.window.split(panel)
    return ExperimentData(assets=assets, train=train, test=test)


@dataclass
class ExperimentResult:
    """Everything one Table 3 experiment produces."""

    config: ExperimentConfig
    assets: List[str]
    backtests: Dict[str, BacktestResult]
    sdp_history: TrainHistory
    drl_history: TrainHistory
    sdp_agent: Optional[SDPAgent] = field(repr=False, default=None)
    drl_agent: Optional[JiangDRLAgent] = field(repr=False, default=None)
    test_data: Optional[MarketData] = field(repr=False, default=None)

    def table3_rows(self) -> List[Tuple[str, float, float, float]]:
        """(strategy, MDD, fAPV, Sharpe) rows in the paper's order."""
        order = ["SDP", "DRL[Jiang]", "ONS", "Best Stock", "ANTICOR", "M0", "UCRP"]
        rows = []
        for name in order:
            if name not in self.backtests:
                continue
            r = self.backtests[name]
            rows.append((name, r.mdd, r.fapv, r.sharpe))
        for name, r in self.backtests.items():
            if name not in order:
                rows.append((name, r.mdd, r.fapv, r.sharpe))
        return rows


def make_trainer(
    agent: Agent,
    panel: MarketData,
    config: ExperimentConfig,
    optimizer=None,
    seed: Optional[int] = None,
) -> PolicyTrainer:
    """The experiment harness's trainer wiring, in one place.

    Adam at the config's learning rate (unless an ``optimizer`` is
    carried in, e.g. across walk-forward folds), the paper's minibatch
    settings, permute-assets augmentation, and the config's agent seed
    (overridable for per-fold streams).  ``run_experiment``, the sweep
    engine's shards, and walk-forward fine-tuning all train through
    this — change it here and every path trains identically.
    """
    if optimizer is None:
        optimizer = Adam(agent.parameters(), config.learning_rate)
    return PolicyTrainer(
        agent,
        panel,
        optimizer,
        observation=config.observation,
        config=TrainConfig(
            steps=config.train_steps,
            batch_size=config.batch_size,
            commission=config.commission,
            permute_assets=True,
        ),
        seed=config.agent_seed if seed is None else seed,
    )


def train_agent(
    name: str, config: ExperimentConfig, data: ExperimentData
) -> Tuple[Agent, TrainHistory]:
    """Train a learned strategy on the experiment's training panel:
    registry construction from the config plus :func:`make_trainer`."""
    agent = strategy_from_config(name, config, n_assets=len(data.assets))
    history = make_trainer(agent, data.train, config).train()
    return agent, history


def train_sdp_agent(
    config: ExperimentConfig, data: ExperimentData
) -> Tuple[SDPAgent, TrainHistory]:
    """Train the paper's SDP agent on the experiment's training panel."""
    return train_agent("sdp", config, data)


def train_drl_agent(
    config: ExperimentConfig, data: ExperimentData
) -> Tuple[JiangDRLAgent, TrainHistory]:
    """Train the DRL[Jiang] EIIE baseline on the same panel."""
    return train_agent("jiang", config, data)


def run_experiment(
    config: ExperimentConfig,
    include_baselines: bool = True,
    data: Optional[ExperimentData] = None,
    sdp: Optional[Tuple[SDPAgent, TrainHistory]] = None,
    drl: Optional[Tuple[JiangDRLAgent, TrainHistory]] = None,
) -> ExperimentResult:
    """Run one Table 3 experiment end to end.

    ``data`` and the trained agent pairs (``sdp``/``drl``, as returned
    by :func:`train_sdp_agent` / :func:`train_drl_agent`) are reused
    when supplied instead of re-derived — a caller that already built
    the panels or trained the agents (the power comparison, a sweep
    shard, a notebook iterating on baselines) back-tests without paying
    for generation or training again.
    """
    data = data if data is not None else build_experiment_data(config)
    sdp_agent, sdp_history = sdp if sdp is not None else train_sdp_agent(config, data)
    drl_agent, drl_history = drl if drl is not None else train_drl_agent(config, data)

    agents = [sdp_agent, drl_agent]
    if include_baselines:
        agents.extend(table3_baselines())

    backtests = {}
    for agent in agents:
        backtests[agent.name] = run_backtest(
            agent,
            data.test,
            observation=config.observation,
            commission=config.commission,
        )
    return ExperimentResult(
        config=config,
        assets=data.assets,
        backtests=backtests,
        sdp_history=sdp_history,
        drl_history=drl_history,
        sdp_agent=sdp_agent,
        drl_agent=drl_agent,
        test_data=data.test,
    )


@dataclass
class PowerComparison:
    """Table 4 rows for one experiment + the headline ratios."""

    experiment: int
    drl_cpu: EnergyReport
    drl_gpu: EnergyReport
    sdp_loihi: EnergyReport
    cpu_reduction: float
    gpu_reduction: float

    def rows(self) -> List[Tuple[str, str, float, float, float, float]]:
        out = []
        for label, device, rep in (
            (f"DRL-Exp{self.experiment}", "CPU", self.drl_cpu),
            (f"DRL-Exp{self.experiment}", "GPU", self.drl_gpu),
            (f"SDP-Exp{self.experiment}", "Loihi (T=5)", self.sdp_loihi),
        ):
            out.append(
                (
                    label,
                    device,
                    rep.idle_power_w,
                    rep.dynamic_power_w,
                    rep.inferences_per_s,
                    rep.nj_per_inference,
                )
            )
        return out


def run_power_comparison(
    result: ExperimentResult, num_states: int = 64
) -> PowerComparison:
    """Profile the trained agents on the Table 4 device models.

    The SDP agent's spike activity is measured on real back-test states;
    the DRL agent's MAC count feeds the CPU/GPU models.
    """
    config = result.config
    experiment = config.experiment
    deployment = deploy(result.sdp_agent.network, device=paper_loihi_model(experiment))

    data = result.test_data
    first = config.observation.first_decision_index()
    indices = np.linspace(
        first, data.n_periods - 2, num=min(num_states, data.n_periods - 1 - first),
        dtype=np.int64,
    )
    uniform = np.full(
        (indices.shape[0], data.n_assets + 1), 1.0 / (data.n_assets + 1)
    )
    # Architecture-aware state construction (flat or per-asset).
    states = result.sdp_agent.prepare_states(data, indices, uniform)

    sdp_report = deployment.profile(states, name="Loihi (T=5)")
    macs = result.drl_agent.macs_per_inference()
    cpu_report = paper_cpu_model(experiment).report(macs)
    gpu_report = paper_gpu_model(experiment).report(macs)
    return PowerComparison(
        experiment=experiment,
        drl_cpu=cpu_report,
        drl_gpu=gpu_report,
        sdp_loihi=sdp_report,
        cpu_reduction=energy_reduction_ratio(cpu_report, sdp_report),
        gpu_reduction=energy_reduction_ratio(gpu_report, sdp_report),
    )
