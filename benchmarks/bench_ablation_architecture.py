"""Architecture ablation — weight-shared vs monolithic SDP.

The reproduction's default SDP shares one spiking scorer across assets;
the paper's Algorithm 1 drawing is a monolithic network over the flat
state.  This bench trains both at identical budgets and compares
back-test performance, documenting why the shared variant is the
default (sample efficiency) while the monolithic network remains the
paper-verbatim reference.
"""

from conftest import record

from repro.agents import SDPAgent, PolicyTrainer, TrainConfig, run_backtest
from repro.autograd.optim import Adam
from repro.experiments import build_experiment_data, make_config
from repro.utils import format_table


def train_both():
    cfg = make_config(1, profile="quick", train_steps=150)
    data = build_experiment_data(cfg)
    results = {}
    for arch in ("shared", "monolithic"):
        agent = SDPAgent(
            n_assets=len(data.assets),
            observation=cfg.observation,
            architecture=arch,
            hidden_sizes=cfg.hidden_sizes,
            timesteps=cfg.timesteps,
            encoder_pop_size=cfg.encoder_pop_size,
            decoder_pop_size=cfg.decoder_pop_size,
            surrogate_amplifier=cfg.surrogate_amplifier,
            seed=cfg.agent_seed,
        )
        trainer = PolicyTrainer(
            agent, data.train, Adam(agent.parameters(), cfg.learning_rate),
            observation=cfg.observation,
            config=TrainConfig(steps=cfg.train_steps, batch_size=cfg.batch_size,
                               permute_assets=True),
            seed=cfg.agent_seed,
        )
        trainer.train()
        backtest = run_backtest(agent, data.test, observation=cfg.observation)
        results[arch] = (agent.num_parameters(), backtest)
    return results


def test_ablation_architecture(benchmark):
    results = benchmark.pedantic(train_both, rounds=1, iterations=1)

    rows = [
        (arch, params, f"{r.fapv:.3f}", f"{r.mdd:.3f}", f"{r.sharpe:+.4f}")
        for arch, (params, r) in results.items()
    ]
    table = format_table(
        ["Architecture", "Parameters", "fAPV", "MDD", "Sharpe"],
        rows,
        title="Architecture ablation — shared scorer vs monolithic Alg. 1 "
        "(same budget, experiment 1 quick profile)",
    )
    record("ablation_architecture", table)

    shared_fapv = results["shared"][1].fapv
    mono_fapv = results["monolithic"][1].fapv
    # The design claim: weight sharing is more sample-efficient.
    assert shared_fapv >= mono_fapv
