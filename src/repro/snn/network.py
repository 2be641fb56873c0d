"""The Spiking Deterministic Policy network (Algorithm 1 / Fig. 1).

``SDPNetwork`` wires together the Gaussian population encoder
(eqs. (2)-(4)), a stack of two-state LIF layers (eqs. (5)-(7)), and the
population decoder (eqs. (8)-(10)).  A forward pass unrolls the network
for ``T`` timesteps and returns a portfolio-weight vector on the
probability simplex.

The network also exposes :meth:`forward_with_activity`, which records
the spike and synaptic-operation counts the Loihi energy model
(:mod:`repro.loihi.energy`) consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..autograd import Tensor, concatenate
from ..autograd.nn import Module, Parameter
from .decoding import (
    DecoderTape,
    PopulationDecoder,
    softmax_head_backward,
    softmax_head_forward,
)
from .encoding import EncoderBuffers, EncoderConfig, PopulationEncoder
from .layers import SpikingLinear, SpikingLinearTape, SpikingStack
from .neurons import LIFParameters, LIFTrainTape
from .surrogate import SurrogateGradient, rectangular

# Table 2: two hidden layers of 128 neurons; T = 5.
DEFAULT_HIDDEN_SIZES = (128, 128)
DEFAULT_TIMESTEPS = 5


@dataclass(frozen=True)
class SDPConfig:
    """Complete hyper-parameter set of the SDP network.

    Defaults follow Table 2 of the paper; encoder/decoder population
    sizes follow the population-coding literature the paper builds on
    (Tang et al. 2020).
    """

    state_dim: int
    num_actions: int
    hidden_sizes: Tuple[int, ...] = DEFAULT_HIDDEN_SIZES
    timesteps: int = DEFAULT_TIMESTEPS
    encoder_pop_size: int = 10
    decoder_pop_size: int = 10
    state_range: Tuple[float, float] = (-1.0, 1.0)
    encoder_mode: str = "deterministic"
    lif: LIFParameters = field(default_factory=LIFParameters)
    surrogate_amplifier: float = 9.0
    surrogate_window: float = 0.4

    def __post_init__(self):
        if self.timesteps <= 0:
            raise ValueError(f"timesteps must be positive, got {self.timesteps}")
        if not self.hidden_sizes:
            raise ValueError("at least one hidden layer is required")
        if self.num_actions < 2:
            raise ValueError(
                f"num_actions must be >= 2 (assets + cash), got {self.num_actions}"
            )


@dataclass
class ActivityRecord:
    """Spike/synop counts of one forward pass (for energy modelling).

    Attributes
    ----------
    timesteps:
        Unroll length T.
    batch_size:
        Number of inferences represented.
    input_spikes:
        Total encoder spikes delivered over all steps.
    layer_spikes:
        Total output spikes per spiking layer over all steps.
    synaptic_ops:
        Total synaptic operations (input spike × fan-out) per layer.
    neuron_updates:
        Total neuron-update events (neurons × steps) per layer.
    """

    timesteps: int
    batch_size: int
    input_spikes: float
    layer_spikes: List[float]
    synaptic_ops: List[float]
    neuron_updates: List[float]

    @property
    def total_spikes(self) -> float:
        return self.input_spikes + sum(self.layer_spikes)

    @property
    def total_synops(self) -> float:
        return sum(self.synaptic_ops)

    @property
    def total_neuron_updates(self) -> float:
        return sum(self.neuron_updates)

    def per_inference(self) -> "ActivityRecord":
        """Normalise counts to a single inference."""
        b = max(self.batch_size, 1)
        return ActivityRecord(
            timesteps=self.timesteps,
            batch_size=1,
            input_spikes=self.input_spikes / b,
            layer_spikes=[s / b for s in self.layer_spikes],
            synaptic_ops=[s / b for s in self.synaptic_ops],
            neuron_updates=[n / b for n in self.neuron_updates],
        )


def _stbp_backward(
    stack: SpikingStack,
    layer_tapes: List[SpikingLinearTape],
    spike_trains: np.ndarray,
    grad_sum_spikes: np.ndarray,
    timesteps: int,
) -> None:
    """Replay a recorded unroll backward through time (eq. (13)).

    Walks t = T..1 with layers in top-down order — the same schedule the
    closure graph's reverse-topological traversal produces — handing
    each layer the gradient into its output spikes (the rate-readout
    term for the top layer, the synaptic back-projection for hidden
    ones) and accumulating weight/bias gradients along the way.
    """
    layers = stack.layers
    for t in range(timesteps, 0, -1):
        g = grad_sum_spikes
        for k in range(len(layers) - 1, -1, -1):
            inp = layer_tapes[k - 1].lif.spikes[t] if k > 0 else spike_trains[t - 1]
            g = layers[k].backward_step_train(
                g, inp, layer_tapes[k], t, need_input_grad=k > 0
            )
    for layer, tape in zip(layers, layer_tapes):
        layer.finalize_train_grads(tape)


def _layer_tapes(
    stack: SpikingStack, rows: int, timesteps: int, train: bool, record: bool
) -> Tuple[List[LIFTrainTape], List[SpikingLinearTape]]:
    """Per-layer tapes of one fused forward, as ``(lif, layer_tapes)``.

    Training gets ``T + 1``-slice tapes plus the backward buffers.
    Inference gets forward-only tapes and no backward buffers: ``T + 1``
    slices when ``record`` needs every step's spikes for the activity
    counts, otherwise one slice updated in place.
    """
    if train:
        layer_tapes = stack.make_train_tapes(rows, timesteps)
        return [lt.lif for lt in layer_tapes], layer_tapes
    depth = timesteps + 1 if record else 1
    shapes = [(rows, layer.out_features) for layer in stack.layers]
    return [LIFTrainTape.zeros(depth, shape) for shape in shapes], []


def _unroll(
    layers: List[SpikingLinear],
    step: str,
    lif: List[LIFTrainTape],
    spike_trains: np.ndarray,
    sum_spikes: np.ndarray,
) -> None:
    """Algorithm 1's ``T``-step unroll on fused tapes.

    Drives every layer's ``step`` method (``step_train`` or
    ``step_inference``, one kernel under two names) through
    t = 1..T and sums the top layer's spikes into ``sum_spikes``.
    """
    steps = [getattr(layer, step) for layer in layers]
    for tape in lif:
        tape.begin()
    for t in range(1, len(spike_trains) + 1):
        spikes = spike_trains[t - 1]
        for layer_step, tape in zip(steps, lif):
            spikes = layer_step(spikes, tape, t)
        if t == 1:
            np.copyto(sum_spikes, spikes)
        else:
            np.add(sum_spikes, spikes, out=sum_spikes)


def _activity(
    layers: List[SpikingLinear],
    lif: List[LIFTrainTape],
    spike_trains: np.ndarray,
    batch: int,
) -> ActivityRecord:
    """Loihi activity counts read off a ``T + 1``-slice fused tape.

    Spike counts are whole numbers, so these totals equal the graph
    path's per-step sums exactly.
    """
    timesteps, rows = spike_trains.shape[:2]
    outputs = [tape.spikes[1:] for tape in lif]
    inputs = [spike_trains] + outputs[:-1]
    return ActivityRecord(
        timesteps=timesteps,
        batch_size=batch,
        input_spikes=float(spike_trains.sum()),
        layer_spikes=[float(o.sum()) for o in outputs],
        # Each presynaptic spike touches every postsynaptic neuron once.
        synaptic_ops=[
            float(x.sum()) * layer.out_features for x, layer in zip(inputs, layers)
        ],
        neuron_updates=[
            float(layer.out_features * timesteps * rows) for layer in layers
        ],
    )


@dataclass
class SharedTrainTape:
    """Preallocated buffers of one fused :class:`SharedSDPNetwork` pass."""

    lif: List[LIFTrainTape]                # per layer (see _layer_tapes)
    layer_tapes: List[SpikingLinearTape]   # backward buffers; train tapes only
    encoder: EncoderBuffers
    sum_spikes: np.ndarray   # (batch·assets, P)
    rates: np.ndarray        # (batch·assets, P)
    scores: np.ndarray       # (batch·assets,)
    logits: np.ndarray       # (batch, assets + 1)
    temp: np.ndarray         # (batch, assets + 1)
    temp_sum: np.ndarray     # (batch, 1)
    action: np.ndarray       # (batch, assets + 1)
    batch: int
    n_assets: int
    timesteps: int
    spike_trains: Optional[np.ndarray] = None  # (T, batch·assets, N_in)


@dataclass
class SDPTrainTape:
    """Preallocated buffers of one fused :class:`SDPNetwork` pass."""

    lif: List[LIFTrainTape]                # per layer (see _layer_tapes)
    layer_tapes: List[SpikingLinearTape]   # backward buffers; train tapes only
    encoder: EncoderBuffers
    decoder: DecoderTape
    sum_spikes: np.ndarray   # (batch, N·P)
    batch: int
    timesteps: int
    spike_trains: Optional[np.ndarray] = None  # (T, batch, N_in)


@dataclass(frozen=True)
class SharedSDPConfig:
    """Hyper-parameters of the weight-shared SDP variant.

    One spiking scorer (population encoder → LIF stack → rate readout)
    is applied to every asset's feature vector with *shared weights*;
    a learned cash bias joins the per-asset scores and eq. (10)'s
    normalisation (a softmax) produces the portfolio vector.  This is
    Algorithm 1 applied per asset — the spiking dynamics, STBP training,
    and Loihi mapping are identical — but the weight sharing gives the
    gradient 11× the signal per parameter, which is what makes the
    policy trainable at reproduction scale.
    """

    feature_dim: int
    hidden_sizes: Tuple[int, ...] = DEFAULT_HIDDEN_SIZES
    timesteps: int = DEFAULT_TIMESTEPS
    encoder_pop_size: int = 10
    output_pop_size: int = 10
    state_range: Tuple[float, float] = (-1.0, 1.0)
    encoder_mode: str = "deterministic"
    lif: LIFParameters = field(default_factory=LIFParameters)
    surrogate_amplifier: float = 9.0
    surrogate_window: float = 0.4

    def __post_init__(self):
        if self.timesteps <= 0:
            raise ValueError(f"timesteps must be positive, got {self.timesteps}")
        if not self.hidden_sizes:
            raise ValueError("at least one hidden layer is required")
        if self.feature_dim <= 0:
            raise ValueError(f"feature_dim must be positive, got {self.feature_dim}")


class SharedSDPNetwork(Module):
    """Weight-shared population-coded spiking policy (per-asset scorer)."""

    def __init__(
        self, config: SharedSDPConfig, rng: Optional[np.random.Generator] = None
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.config = config
        encoder_cfg = EncoderConfig(
            state_dim=config.feature_dim,
            pop_size=config.encoder_pop_size,
            v_min=config.state_range[0],
            v_max=config.state_range[1],
            mode=config.encoder_mode,
        )
        self.encoder = PopulationEncoder(encoder_cfg, rng=rng)
        surrogate = rectangular(config.surrogate_amplifier, config.surrogate_window)
        sizes = (
            [encoder_cfg.num_neurons]
            + list(config.hidden_sizes)
            + [config.output_pop_size]
        )
        layers = [
            SpikingLinear(sizes[i], sizes[i + 1], lif=config.lif,
                          surrogate=surrogate, rng=rng)
            for i in range(len(sizes) - 1)
        ]
        self.stack = SpikingStack(layers)
        scale = 1.0 / np.sqrt(config.output_pop_size)
        self.readout_weight = Parameter(
            rng.uniform(-scale, scale, config.output_pop_size)
        )
        self.readout_bias = Parameter(np.zeros(1))
        self.cash_bias = Parameter(np.zeros(1))

    # ------------------------------------------------------------------
    @property
    def timesteps(self) -> int:
        return self.config.timesteps

    def layer_sizes(self) -> List[Tuple[int, int]]:
        return [(l.in_features, l.out_features) for l in self.stack.layers]

    # ------------------------------------------------------------------
    def forward(
        self, asset_features: np.ndarray, timesteps: Optional[int] = None
    ) -> "Tensor":
        """Portfolio weights from per-asset features.

        Parameters
        ----------
        asset_features:
            ``(batch, n_assets, feature_dim)`` array.

        Returns
        -------
        ``(batch, n_assets + 1)`` tensor on the simplex, cash first.
        """
        action, _ = self._run(asset_features, timesteps, record=False)
        return action

    def forward_with_activity(
        self, asset_features: np.ndarray, timesteps: Optional[int] = None
    ) -> Tuple["Tensor", ActivityRecord]:
        return self._run(asset_features, timesteps, record=True)

    def forward_inference(
        self, asset_features: np.ndarray, timesteps: Optional[int] = None
    ) -> np.ndarray:
        """Graph-free fused forward; bit-identical to :meth:`forward`.

        Runs :meth:`policy_forward_fused`'s kernel on a fresh one-slice
        tape (``v``/``o`` updated in place, no backward buffers) and
        returns a plain ``(batch, n_assets + 1)`` ndarray the caller
        owns — no autograd nodes are created anywhere, and the train
        tape is left untouched.
        """
        return self._forward_fused(asset_features, timesteps).action

    def forward_inference_with_activity(
        self, asset_features: np.ndarray, timesteps: Optional[int] = None
    ) -> Tuple[np.ndarray, ActivityRecord]:
        """Fused forward that also returns the Loihi activity counts."""
        tape = self._forward_fused(asset_features, timesteps, record=True)
        return tape.action, _activity(
            self.stack.layers, tape.lif, tape.spike_trains, tape.batch
        )

    # -- fused fast path -----------------------------------------------
    def policy_forward_fused(
        self, asset_features: np.ndarray, timesteps: Optional[int] = None
    ) -> np.ndarray:
        """Recorded fused forward for training; bit-identical to
        :meth:`forward`.

        Runs the ``T``-step unroll on a compact static tape (per-layer
        ``v``/``o`` slices plus the softmax head activations) held in
        preallocated buffers that are reused across train steps, so the
        hot training loop allocates almost nothing.  Call
        :meth:`policy_backward_fused` afterwards — before any parameter
        update — to accumulate gradients.  The returned action array is
        a tape buffer, valid until the next fused forward.  Not
        thread-safe: one trainer per network instance.
        """
        return self._forward_fused(asset_features, timesteps, train=True).action

    def _forward_fused(
        self,
        asset_features: np.ndarray,
        timesteps: Optional[int],
        train: bool = False,
        record: bool = False,
    ) -> SharedTrainTape:
        """The one fused forward: training runs on the cached train tape,
        inference on a fresh tape per call (see :func:`_layer_tapes`).
        Returns the tape it ran on."""
        timesteps = timesteps if timesteps is not None else self.config.timesteps
        feats = np.asarray(asset_features, dtype=np.float64)
        if feats.ndim == 2:
            feats = feats[None]
        batch, n_assets, d = feats.shape
        if d != self.config.feature_dim:
            raise ValueError(
                f"expected feature_dim={self.config.feature_dim}, got {d}"
            )
        rows = batch * n_assets
        tape = getattr(self, "_train_tape", None) if train else None
        if tape is None or (tape.batch, tape.n_assets, tape.timesteps) != (
            batch, n_assets, timesteps
        ):
            lif, layer_tapes = _layer_tapes(self.stack, rows, timesteps, train, record)
            tape = SharedTrainTape(
                lif=lif,
                layer_tapes=layer_tapes,
                encoder=self.encoder.make_buffers(rows, timesteps),
                sum_spikes=np.empty((rows, self.stack.out_features)),
                rates=np.empty((rows, self.stack.out_features)),
                scores=np.empty(rows),
                logits=np.empty((batch, n_assets + 1)),
                temp=np.empty((batch, n_assets + 1)),
                temp_sum=np.empty((batch, 1)),
                action=np.empty((batch, n_assets + 1)),
                batch=batch,
                n_assets=n_assets,
                timesteps=timesteps,
            )
            if train:
                self._train_tape = tape
        tape.spike_trains = self.encoder.encode_buffered(
            feats.reshape(rows, d), timesteps, tape.encoder
        )
        _unroll(
            self.stack.layers, "step_train" if train else "step_inference",
            tape.lif, tape.spike_trains, tape.sum_spikes,
        )
        np.multiply(tape.sum_spikes, 1.0 / timesteps, out=tape.rates)
        np.matmul(tape.rates, self.readout_weight.data, out=tape.scores)
        np.add(tape.scores, self.readout_bias.data, out=tape.scores)
        # Concatenate [cash | per-asset scores]; the cash column is the
        # learned bias broadcast over the batch (bias · 1 ≡ bias).
        tape.logits[:, 0] = self.cash_bias.data[0]
        tape.logits[:, 1:] = tape.scores.reshape(batch, n_assets)
        softmax_head_forward(tape.logits, tape.temp, tape.temp_sum, tape.action)
        return tape

    def policy_backward_fused(self, grad_action: np.ndarray) -> None:
        """Analytic backward of :meth:`policy_forward_fused`.

        Replays the recorded tape backward — softmax head, readout, then
        BPTT through the spiking stack — mirroring every closure-graph
        op, and accumulates bit-identical gradients into the network's
        parameters.  Must run against the parameters the forward saw.
        """
        tape: Optional[SharedTrainTape] = getattr(self, "_train_tape", None)
        if tape is None or tape.spike_trains is None:
            raise RuntimeError("policy_forward_fused must be called first")
        grad_action = np.asarray(grad_action, dtype=np.float64)
        rows = tape.batch * tape.n_assets
        g_logits = softmax_head_backward(grad_action, tape.temp, tape.temp_sum)
        g_cash_bias = g_logits[:, :1].sum(axis=(0,), keepdims=True).reshape(1)
        g_scores = g_logits[:, 1:].reshape(rows)
        g_readout_bias = g_scores.sum(axis=(0,), keepdims=True).reshape(1)
        g_readout_weight = (tape.rates * g_scores[:, None]).sum(axis=(0,))
        g_rates = g_scores[:, None] * self.readout_weight.data
        g_sum_spikes = g_rates * (1.0 / tape.timesteps)
        _stbp_backward(
            self.stack, tape.layer_tapes, tape.spike_trains,
            g_sum_spikes, tape.timesteps,
        )
        self.readout_weight._accumulate(g_readout_weight)
        self.readout_bias._accumulate(g_readout_bias)
        self.cash_bias._accumulate(g_cash_bias)

    def _run(self, asset_features, timesteps, record):
        timesteps = timesteps if timesteps is not None else self.config.timesteps
        feats = np.asarray(asset_features, dtype=np.float64)
        if feats.ndim == 2:
            feats = feats[None]
        batch, n_assets, d = feats.shape
        if d != self.config.feature_dim:
            raise ValueError(
                f"expected feature_dim={self.config.feature_dim}, got {d}"
            )
        flat = feats.reshape(batch * n_assets, d)
        spike_trains = self.encoder.encode(flat, timesteps)
        self.stack.reset(batch * n_assets)

        sum_spikes = None
        layer_spikes = [0.0] * len(self.stack.layers)
        synaptic_ops = [0.0] * len(self.stack.layers)
        input_total = 0.0
        for t in range(timesteps):
            spikes = Tensor(spike_trains[t])
            if record:
                input_total += float(spike_trains[t].sum())
            for k, layer in enumerate(self.stack.layers):
                if record:
                    synaptic_ops[k] += float(spikes.data.sum()) * layer.out_features
                spikes = layer.step(spikes)
                if record:
                    layer_spikes[k] += float(spikes.data.sum())
            sum_spikes = spikes if sum_spikes is None else sum_spikes + spikes

        rates = sum_spikes * (1.0 / timesteps)
        scores = rates @ self.readout_weight + self.readout_bias
        scores = scores.reshape(batch, n_assets)
        cash = self.cash_bias.reshape(1, 1) * Tensor(np.ones((batch, 1)))
        logits = concatenate([cash, scores], axis=1)
        shifted = logits - Tensor(logits.data.max(axis=1, keepdims=True))
        temp = shifted.exp()
        action = temp / temp.sum(axis=1, keepdims=True)

        activity = None
        if record:
            activity = ActivityRecord(
                timesteps=timesteps,
                batch_size=batch,  # one *inference* covers all assets
                input_spikes=input_total,
                layer_spikes=layer_spikes,
                synaptic_ops=synaptic_ops,
                neuron_updates=[
                    float(l.out_features * timesteps * batch * n_assets)
                    for l in self.stack.layers
                ],
            )
        return action, activity

    def act(self, asset_features: np.ndarray, timesteps: Optional[int] = None) -> np.ndarray:
        action = self.forward_inference(np.asarray(asset_features)[None], timesteps)
        return action[0]


class SDPNetwork(Module):
    """Population-coded spiking policy network (the paper's SDP)."""

    def __init__(self, config: SDPConfig, rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.config = config

        encoder_cfg = EncoderConfig(
            state_dim=config.state_dim,
            pop_size=config.encoder_pop_size,
            v_min=config.state_range[0],
            v_max=config.state_range[1],
            mode=config.encoder_mode,
        )
        self.encoder = PopulationEncoder(encoder_cfg, rng=rng)
        self.decoder = PopulationDecoder(
            config.num_actions, config.decoder_pop_size, rng=rng
        )

        surrogate = rectangular(config.surrogate_amplifier, config.surrogate_window)
        sizes = (
            [encoder_cfg.num_neurons]
            + list(config.hidden_sizes)
            + [self.decoder.num_neurons]
        )
        layers = [
            SpikingLinear(
                sizes[i],
                sizes[i + 1],
                lif=config.lif,
                surrogate=surrogate,
                rng=rng,
            )
            for i in range(len(sizes) - 1)
        ]
        self.stack = SpikingStack(layers)

    # ------------------------------------------------------------------
    @property
    def timesteps(self) -> int:
        return self.config.timesteps

    def layer_sizes(self) -> List[Tuple[int, int]]:
        """(in, out) of each spiking layer, for quantisation/energy models."""
        return [(l.in_features, l.out_features) for l in self.stack.layers]

    # ------------------------------------------------------------------
    def forward(self, states: np.ndarray, timesteps: Optional[int] = None) -> Tensor:
        """Compute portfolio weights for a batch of states (Algorithm 1).

        Parameters
        ----------
        states:
            ``(batch, state_dim)`` array of continuous observations.
        timesteps:
            Optional override of the configured T (used by the T-sweep
            ablation bench).

        Returns
        -------
        ``(batch, num_actions)`` tensor on the probability simplex.
        """
        action, _ = self._run(states, timesteps, record=False)
        return action

    def forward_with_activity(
        self, states: np.ndarray, timesteps: Optional[int] = None
    ) -> Tuple[Tensor, ActivityRecord]:
        """Forward pass that also returns spike/synop counts."""
        return self._run(states, timesteps, record=True)

    def forward_inference(
        self, states: np.ndarray, timesteps: Optional[int] = None
    ) -> np.ndarray:
        """Graph-free fused forward; bit-identical to :meth:`forward`.

        Runs :meth:`policy_forward_fused`'s kernel on a fresh one-slice
        tape and returns a plain ``(batch, num_actions)`` ndarray the
        caller owns — no autograd nodes anywhere, train tape untouched.
        """
        return self._forward_fused(states, timesteps).decoder.action

    def forward_inference_with_activity(
        self, states: np.ndarray, timesteps: Optional[int] = None
    ) -> Tuple[np.ndarray, ActivityRecord]:
        """Fused forward that also returns the Loihi activity counts."""
        tape = self._forward_fused(states, timesteps, record=True)
        return tape.decoder.action, _activity(
            self.stack.layers, tape.lif, tape.spike_trains, tape.batch
        )

    # -- fused fast path -----------------------------------------------
    def policy_forward_fused(
        self, states: np.ndarray, timesteps: Optional[int] = None
    ) -> np.ndarray:
        """Recorded fused forward for training; bit-identical to
        :meth:`forward` (see :meth:`SharedSDPNetwork.policy_forward_fused`
        for the contract — tape reuse, buffer lifetime, thread-safety).
        """
        return self._forward_fused(states, timesteps, train=True).decoder.action

    def _forward_fused(
        self,
        states: np.ndarray,
        timesteps: Optional[int],
        train: bool = False,
        record: bool = False,
    ) -> SDPTrainTape:
        """The one fused forward (see
        :meth:`SharedSDPNetwork._forward_fused`)."""
        timesteps = timesteps if timesteps is not None else self.config.timesteps
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        batch = states.shape[0]
        tape = getattr(self, "_train_tape", None) if train else None
        if tape is None or (tape.batch, tape.timesteps) != (batch, timesteps):
            lif, layer_tapes = _layer_tapes(self.stack, batch, timesteps, train, record)
            tape = SDPTrainTape(
                lif=lif,
                layer_tapes=layer_tapes,
                encoder=self.encoder.make_buffers(batch, timesteps),
                decoder=self.decoder.make_train_tape(batch),
                sum_spikes=np.empty((batch, self.stack.out_features)),
                batch=batch,
                timesteps=timesteps,
            )
            if train:
                self._train_tape = tape
        tape.spike_trains = self.encoder.encode_buffered(
            states, timesteps, tape.encoder
        )
        _unroll(
            self.stack.layers, "step_train" if train else "step_inference",
            tape.lif, tape.spike_trains, tape.sum_spikes,
        )
        self.decoder.decode_train(tape.sum_spikes, timesteps, tape.decoder)
        return tape

    def policy_backward_fused(self, grad_action: np.ndarray) -> None:
        """Analytic backward of :meth:`policy_forward_fused`; accumulates
        gradients bit-identical to the closure-graph path."""
        tape: Optional[SDPTrainTape] = getattr(self, "_train_tape", None)
        if tape is None or tape.spike_trains is None:
            raise RuntimeError("policy_forward_fused must be called first")
        grad_action = np.asarray(grad_action, dtype=np.float64)
        g_sum_spikes = self.decoder.decode_backward(
            grad_action, tape.timesteps, tape.decoder
        )
        _stbp_backward(
            self.stack, tape.layer_tapes, tape.spike_trains,
            g_sum_spikes, tape.timesteps,
        )

    # ------------------------------------------------------------------
    def _run(
        self, states: np.ndarray, timesteps: Optional[int], record: bool
    ) -> Tuple[Tensor, Optional[ActivityRecord]]:
        timesteps = timesteps if timesteps is not None else self.config.timesteps
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        batch = states.shape[0]

        spike_trains = self.encoder.encode(states, timesteps)
        self.stack.reset(batch)

        sum_spikes: Optional[Tensor] = None
        layer_spikes = [0.0] * len(self.stack.layers)
        synaptic_ops = [0.0] * len(self.stack.layers)
        input_total = 0.0

        for t in range(timesteps):
            step_input = Tensor(spike_trains[t])
            if record:
                input_total += float(spike_trains[t].sum())
            spikes = step_input
            for k, layer in enumerate(self.stack.layers):
                if record:
                    # Each presynaptic spike touches every postsynaptic
                    # neuron once: synops = (# input spikes) * fan-out.
                    synaptic_ops[k] += float(spikes.data.sum()) * layer.out_features
                spikes = layer.step(spikes)
                if record:
                    layer_spikes[k] += float(spikes.data.sum())
            sum_spikes = spikes if sum_spikes is None else sum_spikes + spikes

        action = self.decoder(sum_spikes, timesteps)

        activity = None
        if record:
            neuron_updates = [
                float(layer.out_features * timesteps * batch)
                for layer in self.stack.layers
            ]
            activity = ActivityRecord(
                timesteps=timesteps,
                batch_size=batch,
                input_spikes=input_total,
                layer_spikes=layer_spikes,
                synaptic_ops=synaptic_ops,
                neuron_updates=neuron_updates,
            )
        return action, activity

    def act(self, state: np.ndarray, timesteps: Optional[int] = None) -> np.ndarray:
        """Single-state convenience wrapper returning a numpy action."""
        action = self.forward_inference(np.atleast_2d(state), timesteps)
        return action[0]
