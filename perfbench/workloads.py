"""The in-process workloads: ``train`` and ``backtest``.

Each workload function takes the seed, the measuring time and an optional
tracer, and returns a :class:`Result`.  Inputs (market panels, network
initialisation) are generated from the seed; the program under test only
ever sees those generated inputs.
"""

from __future__ import annotations

import hashlib
import resource
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

from repro.agents import PolicyTrainer, SDPAgent, TrainConfig
from repro.autograd import enable_grad
from repro.autograd.optim import SGD
from repro.data import MarketGenerator
from repro.envs import Backtester, ObservationConfig
from repro.loihi.energy import paper_loihi_model

from hostspeed import SpeedMeter

SETUP_REPEATS = 7
N_ASSETS = 4
OBSERVATION = ObservationConfig(window=6, stride=1, momentum_horizons=(1, 3, 6))

# train: the experiment grid's test-scale network on a year of 30-minute
# candles (Table 1), SGD at Table 2's learning rate, permuted assets.
TRAIN_AGENT = dict(hidden_sizes=(32, 32), timesteps=5, encoder_pop_size=4,
                   decoder_pop_size=4, surrogate_amplifier=5.0)
TRAIN_SPAN = ("2018/01/01", "2019/01/01", 1800)
TRAIN_BATCH = 32
TRAIN_LR = 1e-5
TRAIN_PREFIX_STEPS = 16  # fused steps checked against the graph oracle
TRAIN_BLOCK = 20         # steps per throughput sample (one speed-meter block)
TRAIN_VISIT = 25         # blocks per turn of one instance (about a second)

# backtest: the paper's Table 3 path, commission only, 16 panels in lockstep.
BACKTEST_AGENT = dict(hidden_sizes=(128, 128), timesteps=5, encoder_pop_size=10,
                      decoder_pop_size=10)
BACKTEST_PANELS = 16
BACKTEST_SPAN = ("2019/01/01", "2019/02/01", 7200)
ACTIVITY_SAMPLES = 32    # fixed sample of back-test states for the paper counts
BACKTEST_CHUNK = 8       # lockstep periods per speed-meter block


@dataclass
class Result:
    """What one workload run measured."""

    correct: bool = True
    attempted: int = 0
    failed: int = 0
    e2e: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    named: Dict[str, float] = field(default_factory=dict)   # printed, not gated
    layer: Dict[str, float] = field(default_factory=dict)   # per-layer values measured directly
    digests: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    spans: List[list] = field(default_factory=list)
    phases: List[dict] = field(default_factory=list)        # serve_sessions rate ladder
    root: str = ""            # span that wraps one op in a traced run
    op_seconds: float = 0.0   # harness-timed wall time of the measured ops
    n_ops: int = 0

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.correct = False
            self.notes.append(f"FAILED: {message}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()[:16]


def percentiles(values_s: List[float]) -> Dict[str, float]:
    ms = np.asarray(values_s) * 1e3
    return {f"latency_p{q}_ms": float(np.percentile(ms, q)) for q in (50, 90, 95)}


def latency_stats(values_s: List[float]) -> Dict[str, float]:
    """p50, p90 and p95 with the number of samples beyond each tail
    percentile.  Reported with every run but not gated: on the open-loop
    serving workload they move with each seed's arrival order far more
    than any usable bound (see README.md)."""
    stats = percentiles(values_s)
    n = len(values_s)
    return {"latency_p50_ms": stats["latency_p50_ms"],
            "latency_p90_ms": stats["latency_p90_ms"],
            "samples_beyond_p90": float(n - int(np.ceil(0.90 * n))),
            "latency_p95_ms": stats["latency_p95_ms"],
            "samples_beyond_p95": float(n - int(np.ceil(0.95 * n)))}


def instance_seed(seed: int, *keys: int) -> int:
    """A seed for one input set of the run, derived from the run's seed."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def timed_setups(build: Callable[[int], dict], check: Callable[[dict], None] = None) -> tuple:
    """Build the run's SETUP_REPEATS instances, ``build(k)`` for each k
    (each a cold set-up of its own inputs), and return the median
    set-up time, scaled to the reference host speed, with the products;
    ``check`` sees each product, untimed."""
    meter = SpeedMeter()
    products = []
    for k in range(SETUP_REPEATS):
        products.append(meter.time(lambda: build(k)))
        if check is not None:
            check(products[-1])
    return meter.median_scaled_s(), products


def make_panel(seed: int, span, n_assets: int = N_ASSETS):
    return MarketGenerator(seed=seed).generate(*span).select_assets(list(range(n_assets)))


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------
def _trainer(panel, seed: int, use_fused: bool):
    agent = SDPAgent(N_ASSETS, observation=OBSERVATION, seed=seed, **TRAIN_AGENT)
    trainer = PolicyTrainer(
        agent, panel, SGD(agent.parameters(), TRAIN_LR), observation=OBSERVATION,
        config=TrainConfig(steps=TRAIN_PREFIX_STEPS, batch_size=TRAIN_BATCH,
                           permute_assets=True),
        seed=seed, use_fused=use_fused,
    )
    return agent, trainer


def _train_digest(agent, trainer) -> str:
    state = agent.network.state_dict()
    return digest(*(state[k] for k in sorted(state)), trainer.pvm.snapshot())


def run_train(seed: int, seconds: float, tracer=None) -> Result:
    result = Result(root="agents.train_step")
    gen_times: List[float] = []

    def build(k):
        instance = instance_seed(seed, k)
        t0 = time.perf_counter()
        panel = make_panel(instance, TRAIN_SPAN)
        gen_times.append(time.perf_counter() - t0)
        agent, trainer = _trainer(panel, instance, use_fused=True)
        return {"seed": instance, "panel": panel, "agent": agent, "trainer": trainer}

    def prefix(product):
        # The fused prefix doubles as warm-up.
        for _ in range(TRAIN_PREFIX_STEPS):
            product["trainer"].train_step()
        product["digest"] = _train_digest(product["agent"], product["trainer"])
        result.digests.append(product["digest"])

    setup_s, instances = timed_setups(build, prefix)
    result.layer["data.generate_s"] = float(np.median(gen_times))

    # Graph-path oracle: each instance's prefix through the closure graph.
    for product in instances:
        oracle_agent, oracle = _trainer(product["panel"], product["seed"], use_fused=False)
        for _ in range(TRAIN_PREFIX_STEPS):
            oracle.train_step()
        result.check(_train_digest(oracle_agent, oracle) == product["digest"],
                     f"fused prefix of instance seed {product['seed']} differs from the graph oracle")
    trainers = [product["trainer"] for product in instances]
    del instances, oracle, oracle_agent
    if tracer is not None:
        tracer.reset()
    # The instances in turn, TRAIN_VISIT blocks of TRAIN_BLOCK steps each.
    # Turns much shorter than that make every step start with another
    # instance's data in the caches, which makes the rate depend on
    # cache contention from the rest of the host.
    step_times: List[float] = []
    meter = SpeedMeter()
    deadline = time.perf_counter() + seconds
    clock = time.perf_counter
    meter.start()
    turns = 0
    while clock() < deadline or turns < len(trainers):
        k = turns % len(trainers)
        for _ in range(TRAIN_VISIT):
            for _ in range(TRAIN_BLOCK):
                t0 = clock()
                stats = trainers[k].train_step()
                step_times.append(clock() - t0)
                result.attempted += 1
                if not np.isfinite(stats["loss"]):
                    result.failed += 1
            meter.mark(TRAIN_BLOCK, k)
            if clock() >= deadline and turns >= len(trainers) - 1:
                break
        turns += 1
    if tracer is not None:
        result.spans = tracer.spans
    result.n_ops = len(step_times)
    result.op_seconds = float(np.sum(step_times))
    result.e2e = {"setup_s": setup_s, "ops_per_s": meter.rate(),
                  "peak_rss_mb": peak_rss_mb()}
    result.samples = {"latency": len(step_times), "ops_per_s": len(meter.blocks),
                      "setup_s": SETUP_REPEATS, "peak_rss_mb": 1}
    result.named = {"train_steps_per_s": result.e2e["ops_per_s"],
                    "train_steps_per_s_raw": meter.raw_rate(),
                    "host_speed": meter.host_speed(),
                    **latency_stats(step_times)}
    result.check(result.failed == 0, f"{result.failed} steps produced a non-finite loss")
    return result


# ----------------------------------------------------------------------
# backtest
# ----------------------------------------------------------------------
def _graph_decide(agent):
    def decide(states):
        with enable_grad():
            return agent.network.forward(states).data
    return decide


def paper_quantities(agent, panels, results, seed: int) -> Dict[str, float]:
    """Spikes per layer, synops and modelled Loihi nJ per decision.

    Averaged over a fixed, seed-drawn sample of the back-test's own
    states (panel, decision index, previous target weights).
    """
    rng = np.random.default_rng(seed)
    first = OBSERVATION.first_decision_index()
    model = paper_loihi_model(1)
    spikes, synops, nj = None, 0.0, 0.0
    for _ in range(ACTIVITY_SAMPLES):
        i = int(rng.integers(len(panels)))
        j = int(rng.integers(len(results[i].weights)))
        w_prev = results[i].weights[j - 1] if j > 0 else np.eye(N_ASSETS + 1)[0]
        activity = agent.inference_activity(panels[i], first + j, w_prev).per_inference()
        layer = np.asarray(activity.layer_spikes, dtype=float)
        spikes = layer if spikes is None else spikes + layer
        synops += activity.total_synops
        nj += model.dynamic_energy_per_inference(activity) * 1e9
    out = {f"snn.spikes_per_decision.L{k}": float(v) / ACTIVITY_SAMPLES
           for k, v in enumerate(spikes)}
    out["snn.synops_per_decision"] = synops / ACTIVITY_SAMPLES
    out["loihi.nj_per_decision"] = nj / ACTIVITY_SAMPLES
    return out


def run_backtest(seed: int, seconds: float, tracer=None) -> Result:
    result = Result(root="envs.backtest")
    gen_times: List[float] = []

    def build(k):
        instance = instance_seed(seed, k)
        t0 = time.perf_counter()
        panels = [make_panel(instance_seed(instance, i), BACKTEST_SPAN)
                  for i in range(BACKTEST_PANELS)]
        gen_times.append(time.perf_counter() - t0)
        agent = SDPAgent(N_ASSETS, observation=OBSERVATION, seed=instance, **BACKTEST_AGENT)
        return {"panels": panels, "agent": agent,
                "engine": Backtester(observation=OBSERVATION)}

    setup_s, instances = timed_setups(build)
    result.layer["data.generate_s"] = float(np.median(gen_times))
    engine = instances[0]["engine"]

    # Warm-up run on the first instance.  Each instance's first run is
    # the reference its later runs must equal.
    references = {0: engine.run_many(instances[0]["agent"], instances[0]["panels"])}

    # Period-to-period intervals of the lockstep loop (one timestamp per
    # batched forward, so the probe costs nothing measurable), and a
    # speed-meter block every BACKTEST_CHUNK periods, run outside them.
    # A traced run closes a block only at the end of each run_many, so
    # no kernel runs inside the root span it accounts.
    chunk_periods = BACKTEST_CHUNK if tracer is None else -1
    intervals: List[float] = []
    meter = SpeedMeter()
    clock = time.perf_counter
    chunk = [0, 0, 0]   # instance, decisions and periods since the last block ended
    last = [None]
    decide = [None]

    def stamped(states):
        now = resume = clock()
        if chunk[2] == chunk_periods:
            meter.mark(chunk[1], chunk[0])
            chunk[1:] = [0, 0]
            resume = clock()
        if last[0] is not None:
            intervals.append(now - last[0])
        last[0] = resume
        actions = decide[0](states)
        chunk[1] += len(actions)
        chunk[2] += 1
        return actions

    if tracer is not None:
        tracer.reset()
    runs = [0] * len(instances)
    deadline = time.perf_counter() + seconds
    k = 0
    while time.perf_counter() < deadline or not all(runs):
        agent, panels = instances[k]["agent"], instances[k]["panels"]
        decide[0] = agent.decide_batch
        agent.decide_batch = stamped
        last[0] = None
        chunk[:] = [k, 0, 0]
        meter.start()
        t0 = clock()
        try:
            out = engine.run_many(agent, panels)
        finally:
            del agent.decide_batch
        t1 = meter.mark(chunk[1], k)
        result.op_seconds += t1 - t0
        result.attempted += sum(len(r.weights) for r in out)
        reference = references.setdefault(k, out)
        result.check(all(np.array_equal(r.weights, ref.weights) for r, ref in zip(out, reference)),
                     f"repeated run_many outputs differ on instance {k}")
        runs[k] += 1
        k = (k + 1) % len(instances)
    if tracer is not None:
        result.spans = tracer.spans
        tracer.reset()
    result.n_ops = result.attempted
    for k, product in enumerate(instances):
        result.digests.append(digest(*(r.weights for r in references[k])))
        # One panel through the sequential graph path must match bit for bit.
        agent = product["agent"]
        agent.decide_batch = _graph_decide(agent)
        try:
            graph = engine.run(agent, product["panels"][0])
        finally:
            del agent.decide_batch
        result.check(np.array_equal(graph.weights, references[k][0].weights),
                     f"lockstep run_many differs from the sequential graph path on instance {k}")

    agent, panels, reference = instances[0]["agent"], instances[0]["panels"], references[0]
    result.layer.update(paper_quantities(agent, panels, reference, seed))
    result.e2e = {"setup_s": setup_s, "ops_per_s": meter.rate(),
                  "peak_rss_mb": peak_rss_mb()}
    result.samples = {"latency": len(intervals), "ops_per_s": len(meter.blocks),
                      "setup_s": SETUP_REPEATS, "peak_rss_mb": 1}
    result.notes.append(f"run_many repeats per instance: {runs}")
    result.named = {"decisions_per_s": result.e2e["ops_per_s"],
                    "decisions_per_s_raw": meter.raw_rate(),
                    "host_speed": meter.host_speed(),
                    **latency_stats(intervals)}
    return result
