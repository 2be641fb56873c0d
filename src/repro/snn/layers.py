"""Spiking layers: weighted synapses feeding two-state LIF populations.

A :class:`SpikingLinear` owns the synaptic weight matrix and the LIF
population it projects onto.  During a forward unroll the caller drives
it step by step; the layer threads its :class:`~repro.snn.neurons.LIFState`
through the autograd graph so STBP (eq. (13)) emerges from ordinary
backpropagation over the unrolled graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..autograd import Tensor
from ..autograd import functional as F
from ..autograd.nn import Module, Parameter, kaiming_uniform
from .neurons import (
    LIFCarries,
    LIFParameters,
    LIFState,
    LIFTrainTape,
    lif_backward_step,
    lif_step,
    lif_step_train,
)
from .surrogate import SurrogateGradient, rectangular


@dataclass
class SpikingLinearTape:
    """Static tape of one :class:`SpikingLinear` unroll for training.

    Wraps the layer's ``T + 1``-slice
    :class:`~repro.snn.neurons.LIFTrainTape` with the buffers only the
    backward needs: the LIF carries, the weight-gradient accumulator
    (kept ``(in, out)`` so the per-step ``xᵀ @ g`` lands in it directly;
    it is transposed once when flushed into ``weight.grad``), a per-step
    scratch pair, and the input-gradient buffer handed to the layer
    below.  Allocated once per (batch, T) and reused across train steps.
    """

    lif: LIFTrainTape
    carries: LIFCarries
    g_weight: np.ndarray       # (in, out) accumulated over t = T..1
    g_weight_step: np.ndarray  # (in, out) single-step scratch
    g_bias: np.ndarray         # (out,) accumulated over t = T..1
    g_bias_step: np.ndarray    # (out,) single-step scratch
    g_input: np.ndarray        # (batch, in) gradient into the layer input


class SpikingLinear(Module):
    """Fully-connected synapses followed by a two-state LIF population."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        lif: Optional[LIFParameters] = None,
        surrogate: Optional[SurrogateGradient] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError(
                f"invalid layer size ({in_features}, {out_features})"
            )
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.lif = lif if lif is not None else LIFParameters()
        self.surrogate = surrogate if surrogate is not None else rectangular()
        self.weight = Parameter(
            kaiming_uniform((out_features, in_features), in_features, rng)
        )
        self.bias = Parameter(np.zeros(out_features))
        self._state: Optional[LIFState] = None

    # ------------------------------------------------------------------
    def reset(self, batch_size: int) -> None:
        """Zero the LIF state ahead of a fresh ``T``-step unroll."""
        self._state = LIFState.zeros((batch_size, self.out_features))

    @property
    def state(self) -> LIFState:
        if self._state is None:
            raise RuntimeError("layer state not initialised; call reset() first")
        return self._state

    def step(self, input_spikes: Tensor) -> Tensor:
        """One timestep: synaptic integration + LIF dynamics.

        Parameters
        ----------
        input_spikes:
            ``(batch, in_features)`` spike (or encoder-output) tensor.

        Returns
        -------
        ``(batch, out_features)`` output spike tensor for this step.
        """
        if self._state is None:
            raise RuntimeError("layer state not initialised; call reset() first")
        drive = F.linear(input_spikes, self.weight, self.bias)
        self._state = lif_step(drive, self._state, self.lif, self.surrogate)
        return self._state.spikes

    # -- fused fast path -----------------------------------------------
    def make_train_tape(self, batch_size: int, timesteps: int) -> SpikingLinearTape:
        """Preallocated forward/backward buffers for fused STBP training."""
        shape = (batch_size, self.out_features)
        return SpikingLinearTape(
            lif=LIFTrainTape.zeros(timesteps + 1, shape),
            carries=LIFCarries.empty(shape),
            g_weight=np.empty((self.in_features, self.out_features)),
            g_weight_step=np.empty((self.in_features, self.out_features)),
            g_bias=np.empty(self.out_features),
            g_bias_step=np.empty(self.out_features),
            g_input=np.empty((batch_size, self.in_features)),
        )

    def step_train(
        self, input_spikes: np.ndarray, tape: LIFTrainTape, t: int
    ) -> np.ndarray:
        """Fused forward for timestep ``t`` (1-based).

        Same arithmetic as :meth:`step` (``x @ W.T + b`` then the LIF
        update) but recorded onto the preallocated tape instead of the
        closure graph; bit-identical spikes, zero allocations.
        """
        drive = tape.drive
        np.matmul(input_spikes, self.weight.data.T, out=drive)
        np.add(drive, self.bias.data, out=drive)
        return lif_step_train(drive, tape, self.lif, t)

    # The same kernel under its own name, so per-layer traces report
    # inference steps apart from training steps.
    step_inference = step_train

    def backward_step_train(
        self,
        grad_spikes: np.ndarray,
        input_spikes: np.ndarray,
        tape: SpikingLinearTape,
        t: int,
        need_input_grad: bool = True,
    ) -> Optional[np.ndarray]:
        """Analytic backward through timestep ``t`` (call t = T..1).

        Replays the LIF recurrences via
        :func:`~repro.snn.neurons.lif_backward_step`, then mirrors the
        closure-graph linear backward: ``dW += (xᵀ @ dI)ᵀ``,
        ``db += dI.sum(axis=0)`` (accumulated in the graph's t = T..1
        order) and, when requested, returns ``dI @ W`` — the gradient
        into this layer's input spikes (``tape.g_input``, valid until
        the next call).
        """
        g_drive = lif_backward_step(
            grad_spikes, tape.lif, tape.carries, self.lif, self.surrogate, t
        )
        # np.add.reduce is what ndarray.sum(axis=0) dispatches to —
        # identical result without the fromnumeric wrapper overhead.
        if t == len(tape.lif.voltage) - 1:
            np.matmul(input_spikes.T, g_drive, out=tape.g_weight)
            np.add.reduce(g_drive, axis=0, out=tape.g_bias)
        else:
            np.matmul(input_spikes.T, g_drive, out=tape.g_weight_step)
            np.add(tape.g_weight, tape.g_weight_step, out=tape.g_weight)
            np.add.reduce(g_drive, axis=0, out=tape.g_bias_step)
            np.add(tape.g_bias, tape.g_bias_step, out=tape.g_bias)
        if need_input_grad:
            np.matmul(g_drive, self.weight.data, out=tape.g_input)
            return tape.g_input
        return None

    def finalize_train_grads(self, tape: SpikingLinearTape) -> None:
        """Flush the tape's accumulated gradients into ``.grad``."""
        self.weight._accumulate(tape.g_weight.T)
        self.bias._accumulate(tape.g_bias)

    def __repr__(self) -> str:
        return (
            f"SpikingLinear({self.in_features}, {self.out_features}, "
            f"Vth={self.lif.v_threshold}, dc={self.lif.current_decay}, "
            f"dv={self.lif.voltage_decay})"
        )


class SpikingStack(Module):
    """A stack of :class:`SpikingLinear` layers stepped together.

    Corresponds to the ``for k = 1..L`` loop of Algorithm 1.
    """

    def __init__(self, layers: List[SpikingLinear]):
        super().__init__()
        if not layers:
            raise ValueError("SpikingStack requires at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if prev.out_features != nxt.in_features:
                raise ValueError(
                    f"layer size mismatch: {prev.out_features} -> {nxt.in_features}"
                )
        self.layers = layers

    @property
    def in_features(self) -> int:
        return self.layers[0].in_features

    @property
    def out_features(self) -> int:
        return self.layers[-1].out_features

    def reset(self, batch_size: int) -> None:
        for layer in self.layers:
            layer.reset(batch_size)

    def step(self, input_spikes: Tensor) -> Tensor:
        spikes = input_spikes
        for layer in self.layers:
            spikes = layer.step(spikes)
        return spikes

    # -- training fast path --------------------------------------------
    def make_train_tapes(self, batch_size: int, timesteps: int) -> List[SpikingLinearTape]:
        """One preallocated train tape per layer for fused STBP."""
        return [layer.make_train_tape(batch_size, timesteps) for layer in self.layers]
