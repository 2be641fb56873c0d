"""Trainable policy agents: the SDP (paper contribution) and DRL[Jiang].

Both agents share the deterministic policy-gradient trainer
(:class:`~repro.agents.trainer.PolicyTrainer`) and the back-test loop
(:func:`~repro.agents.base.run_backtest`).
"""

from .base import Agent, BacktestResult, concat_states, run_backtest
from .jiang import EIIENetwork, JiangDRLAgent
from .sdp import SDPAgent
from .trainer import PolicyTrainer, TrainConfig, TrainHistory

__all__ = [
    "Agent",
    "BacktestResult",
    "EIIENetwork",
    "JiangDRLAgent",
    "PolicyTrainer",
    "SDPAgent",
    "TrainConfig",
    "TrainHistory",
    "concat_states",
    "run_backtest",
]
