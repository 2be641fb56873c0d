"""The serving workloads: ``serve_sessions`` and ``serve_rounds``.

The system under test runs in its own process (the *front*): an HTTP
server (:func:`repro.serving.http.serve`) over a 1-worker
:class:`~repro.serving.ServingSupervisor`, whose worker is a forked
process of its own.  This module's client side runs in the benchmark
process and is the only load generator: at most two connections, one
thread per connection.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import multiprocessing as mp
import os
import resource
import shutil
import tempfile
import threading
import time
from typing import Dict, List, Optional

import numpy as np

from repro.execution import ExecutionEngine, LinearImpact
from repro.experiments import risk_regime_preset
from repro.serving import PortfolioService, RebalanceRequest, ServingSupervisor
from repro.serving.http import serve
from hostspeed import SpeedMeter
from tracing import merge
from workloads import (
    BACKTEST_AGENT,
    OBSERVATION,
    SETUP_REPEATS,
    Result,
    latency_stats,
    make_panel,
    peak_rss_mb,
)

SERVE_SPAN = ("2019/01/01", "2019/03/01", 1800)   # 2832 periods
SESSION_PARAMS = {"observation": OBSERVATION, **BACKTEST_AGENT}  # the back-test network
MARKET = "bench"
HTTP_TIMEOUT_S = 30.0

# serve_sessions: independent users, open loop over two keep-alive
# connections at a fixed reference rate; then the same two connections
# closed-loop (the capacity they cap the front at); then a fixed rate
# ladder for the highest rate that meets the latency limit.
SESSIONS_COUNT = 32
CONNECTIONS = 2
REFERENCE_RPS = 20.0
REFERENCE_SHARE = 0.5          # of the measuring time
CAPACITY_SHARE = 0.2
LADDER_RPS = (20.0, 23.0, 26.0, 30.0, 34.0, 39.0, 45.0, 52.0, 60.0, 69.0, 79.0, 91.0)
LADDER_STEP_S = 1.5
LATENCY_LIMIT_MS = 100.0
LATE_LIMIT_MS = 10.0           # a generator later than this invalidates the run

# serve_rounds: a desk scheduler, closed loop on one connection, one
# batch per market period over every session; risk caps and linear
# impact on; half the sessions fit the worker's residency budget.
ROUNDS_SESSIONS = 64
ROUNDS_RESIDENT = 32


def _front_config(workload: str) -> dict:
    if workload == "serve_sessions":
        return {"sessions": SESSIONS_COUNT, "max_resident": None, "engines": False}
    return {"sessions": ROUNDS_SESSIONS, "max_resident": ROUNDS_RESIDENT, "engines": True}


def _engines(on: bool):
    """The ``caps`` risk preset and linear-impact execution, or neither."""
    if not on:
        return None, None
    return (risk_regime_preset("caps").build_engine(),
            ExecutionEngine(LinearImpact(10.0), portfolio_notional=1e6))


def _session_ids(n: int) -> List[str]:
    return [f"s{i:03d}" for i in range(n)]


# ----------------------------------------------------------------------
# The front process
# ----------------------------------------------------------------------
def front_main(conn, workload: str, seed: int, tracer, out_dir: str) -> None:
    """Build the served stack, report its port, serve until told to stop.

    Runs in a process forked from the benchmark, so a traced run's
    wrappers are already installed here; the spans this process and its
    worker record are sent back when it stops.
    """
    span_dir = None
    if tracer is not None:
        span_dir = tempfile.mkdtemp(prefix="spans-", dir=out_dir)
        tracer.reset()
        tracer.worker_span_dir = span_dir
    config = _front_config(workload)
    risk, execution = _engines(config["engines"])
    state_dir = tempfile.mkdtemp(prefix="state-", dir=out_dir)
    t0 = time.perf_counter()
    panel = make_panel(seed + 500, SERVE_SPAN)
    generate_s = time.perf_counter() - t0
    supervisor = ServingSupervisor(
        os.path.join(state_dir, "store"), workers=1, risk=risk, execution=execution,
        max_resident=config["max_resident"],
    )
    try:
        supervisor.register_market(MARKET, panel)
        for session_id in _session_ids(config["sessions"]):
            supervisor.create_session(session_id, strategy="sdp",
                                      params=SESSION_PARAMS, market=MARKET)
        server = serve(supervisor, port=0, micro_batch=True)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        conn.send(("ready", server.server_address[1], generate_s))
        conn.recv()  # stop
        server.shutdown()
        server.server_close()
        thread.join(timeout=10.0)
        stats = supervisor.stats_dict()
        drain = supervisor.drain(timeout=60.0)
    finally:
        supervisor.close()
        shutil.rmtree(state_dir, ignore_errors=True)
    spans = []
    if tracer is not None:
        parts = [tracer.spans]
        for name in sorted(os.listdir(span_dir)):
            with open(os.path.join(span_dir, name)) as handle:
                parts.append(json.load(handle))
        spans = merge(*parts)
        shutil.rmtree(span_dir, ignore_errors=True)
    rss = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0
    conn.send(("done", {"stats": stats, "drain": drain, "rss_mb": rss, "spans": spans}))
    conn.close()


class Front:
    """Benchmark-side handle on one front process.

    The front is forked, not spawned: set-up time then measures building
    the served stack (panel, supervisor and worker, sessions, server),
    not re-importing numpy and the package.  The benchmark process has
    no other threads running when it forks.
    """

    def __init__(self, workload: str, seed: int, tracer, out_dir: str):
        ctx = mp.get_context("fork")
        self.conn, child = ctx.Pipe()
        self.process = ctx.Process(target=front_main,
                                   args=(child, workload, seed, tracer, out_dir))
        self.process.start()
        child.close()
        if not self.conn.poll(120.0):
            self.kill()
            raise RuntimeError("front process did not come up")
        _, self.port, self.generate_s = self.conn.recv()
        self.report: Optional[dict] = None

    def stop(self) -> dict:
        self.conn.send("stop")
        if not self.conn.poll(120.0):
            self.kill()
            raise RuntimeError("front process did not drain")
        _, self.report = self.conn.recv()
        self.process.join(timeout=30.0)
        if self.process.is_alive():
            self.kill()
        return self.report

    def kill(self) -> None:
        self.process.kill()
        self.process.join(timeout=10.0)


def start_fronts(workload: str, seed: int, tracer, out_dir: str):
    """SETUP_REPEATS cold starts; keeps the last, drains the others.
    Set-up time is their median, scaled to the reference host speed."""
    meter = SpeedMeter()
    generate = []
    front = None
    for _ in range(SETUP_REPEATS):
        if front is not None:
            front.stop()
        front = meter.time(lambda: Front(workload, seed, tracer, out_dir))
        generate.append(front.generate_s)
    return front, meter.median_scaled_s(), float(np.median(generate))


# ----------------------------------------------------------------------
# Client side
# ----------------------------------------------------------------------
class Client:
    """One keep-alive connection; reconnects after a transport error."""

    def __init__(self, port: int):
        self.port = port
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT_S)

    def post(self, path: str, payload: dict, trace_id: Optional[str] = None):
        body = json.dumps(payload)
        headers = {"Content-Type": "application/json"}
        if trace_id is not None:
            headers["X-Trace-Id"] = trace_id
        try:
            self.conn.request("POST", path, body, headers)
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException) as exc:
            self.conn.close()
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                                   timeout=HTTP_TIMEOUT_S)
            return None, repr(exc).encode()

    def close(self) -> None:
        self.conn.close()


def poisson_schedule(rng, rate: float, seconds: float) -> np.ndarray:
    """Seeded Poisson arrivals: exactly ``rate * seconds`` of them on the
    window, with exponential gaps in random order.

    The gaps are stratified (one exponential quantile per stratum, the
    strata shuffled), so every run offers the same gap distribution, the
    short gaps that batch and stall included, and seeds differ only in
    the order of arrivals.  Plain i.i.d. draws leave so much run-to-run
    variation in the share of short gaps that the latency percentiles
    mostly measured the draw.
    """
    n = max(int(round(rate * seconds)), 1)
    u = (rng.permutation(n) + rng.random(n)) / n
    gaps = -np.log1p(-u)
    return np.cumsum(gaps) / gaps.sum() * seconds * (n - 1) / n


def session_picks(rng, sessions: List[str], n: int) -> List[str]:
    """Each session equally often (to within one), in random order."""
    picks = [sessions[i % len(sessions)] for i in range(n)]
    return [picks[i] for i in rng.permutation(n)]


def run_phase(clients: List[Client], offsets: np.ndarray, sessions: List[str],
              tracer, label: str) -> List[dict]:
    """Open loop: request i is due at ``start + offsets[i]`` and goes out
    on connection ``i % len(clients)`` (one user per connection), as soon
    as it is due and that connection is free."""
    records: List[Optional[dict]] = [None] * len(offsets)
    start = time.perf_counter() + 0.02

    def drive(k: int, client: Client) -> None:
        for i in range(k, len(offsets), len(clients)):
            due = start + offsets[i]
            late = None
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
                late = time.perf_counter() - due
            trace_id = f"{label}-{i}" if tracer is not None else None
            sent = time.perf_counter()
            status, body = client.post("/rebalance", {"session_id": sessions[i]}, trace_id)
            done = time.perf_counter()
            if tracer is not None:
                tracer.record("loadgen.request", sent, done, trace_id)
            records[i] = {"due": due, "sent": sent, "done": done, "late": late,
                          "status": status, "body": body, "session": sessions[i]}

    threads = [threading.Thread(target=drive, args=(k, c)) for k, c in enumerate(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records  # type: ignore[return-value]


def _phase_summary(records: List[dict], rate: float) -> dict:
    latencies = [r["done"] - r["due"] for r in records]
    last_due = records[-1]["due"]
    backlog = sum(1 for r in records if r["sent"] > last_due + 1e-3)
    p95 = float(np.percentile(np.asarray(latencies) * 1e3, 95))
    ok = all(r["status"] == 200 for r in records)
    return {"rate": rate, "p95_ms": p95, "backlog": backlog,
            "passed": ok and p95 <= LATENCY_LIMIT_MS and backlog <= CONNECTIONS}


def max_rate(phases: List[dict]) -> float:
    """Highest ladder rate meeting the latency limit without backlog."""
    passed = [phase["rate"] for phase in phases if phase["passed"]]
    return max(passed) if passed else 0.0


def run_closed(clients: List[Client], sessions: List[str], seconds: float,
               tracer, label: str) -> tuple:
    """Every connection sends its next request as soon as the last one
    returns; requests walk ``sessions`` in order.  Returns the records
    and the completed requests per second."""
    records: List[dict] = []
    cursor = [0]
    lock = threading.Lock()
    t_start = time.perf_counter()
    deadline = t_start + seconds

    def drive(client: Client) -> None:
        while time.perf_counter() < deadline:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            session = sessions[i % len(sessions)]
            trace_id = f"{label}-{i}" if tracer is not None else None
            sent = time.perf_counter()
            status, body = client.post("/rebalance", {"session_id": session}, trace_id)
            done = time.perf_counter()
            if tracer is not None:
                tracer.record("loadgen.request", sent, done, trace_id)
            with lock:
                records.append({"due": sent, "sent": sent, "done": done, "late": None,
                                "status": status, "body": body, "session": session})

    threads = [threading.Thread(target=drive, args=(c,)) for c in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, len(records) / (time.perf_counter() - t_start)


def _decode(records: List[dict]) -> Dict[str, List[dict]]:
    by_session: Dict[str, List[dict]] = {}
    for r in records:
        if r["status"] == 200:
            payload = json.loads(r["body"])
            by_session.setdefault(payload["session_id"], []).append(payload)
    return by_session


def _replay_service(panel, workload: str):
    config = _front_config(workload)
    risk, execution = _engines(config["engines"])
    service = PortfolioService(risk=risk, execution=execution)
    service.register_market(MARKET, panel)
    for session_id in _session_ids(config["sessions"]):
        service.create_session(session_id, strategy="sdp", params=SESSION_PARAMS,
                               market=MARKET)
    return service


def _count_failures(result: Result, statuses) -> None:
    for status in statuses:
        result.attempted += 1
        if status is None:
            result.layer["serving.failures.timeouts"] += 1
        elif 400 <= status < 500:
            result.layer["serving.failures.http_4xx"] += 1
        elif status >= 500:
            result.layer["serving.failures.http_5xx"] += 1
        if status != 200:
            result.failed += 1


def _front_report(result: Result, report: dict, parent_rss: float) -> None:
    supervisor = report["stats"]["supervisor"]
    result.layer["serving.failures.worker_restarts"] = float(supervisor["worker_restarts"])
    result.layer["serving.failures.failovers"] = float(supervisor["failovers"])
    result.e2e["peak_rss_mb"] = max(parent_rss, report["rss_mb"])
    result.check(supervisor["worker_restarts"] == 0, "a worker restarted")
    result.check(all(w["exit_code"] == 0 for w in report["drain"]["workers"]),
                 "a worker did not drain cleanly")


def _new_result(root: str) -> Result:
    result = Result(root=root)
    for name in ("timeouts", "http_4xx", "http_5xx"):
        result.layer[f"serving.failures.{name}"] = 0.0
    return result


def run_serve_sessions(seed: int, seconds: float, tracer, out_dir: str) -> Result:
    result = _new_result("loadgen.request")
    # The benchmark's own copy of the panel (for the replay) also runs
    # the generator's lazy imports before any front forks.
    panel = make_panel(seed + 500, SERVE_SPAN)
    front, setup_s, generate_s = start_fronts("serve_sessions", seed, tracer, out_dir)
    result.layer["data.generate_s"] = generate_s
    rng = np.random.default_rng(seed)
    sessions = _session_ids(SESSIONS_COUNT)
    clients = [Client(front.port) for _ in range(CONNECTIONS)]
    all_records: List[dict] = []
    try:
        # Warm-up: one request per session, so every lazy path has run.
        warm = run_phase(clients, np.zeros(SESSIONS_COUNT), sessions, None, "warm")
        all_records.extend(warm)
        if tracer is not None:
            tracer.reset()
        offsets = poisson_schedule(rng, REFERENCE_RPS, seconds * REFERENCE_SHARE)
        reference = run_phase(clients, offsets, session_picks(rng, sessions, len(offsets)),
                              tracer, "ref")
        all_records.extend(reference)
        closed, capacity = run_closed(clients, session_picks(rng, sessions, SESSIONS_COUNT),
                                      seconds * CAPACITY_SHARE, tracer, "cap")
        all_records.extend(closed)
        phases = []
        ladder_deadline = time.perf_counter() + seconds * (1 - REFERENCE_SHARE - CAPACITY_SHARE)
        for k, rate in enumerate(LADDER_RPS):
            if time.perf_counter() + LADDER_STEP_S > ladder_deadline:
                break
            offsets = poisson_schedule(rng, rate, LADDER_STEP_S)
            records = run_phase(clients, offsets, session_picks(rng, sessions, len(offsets)),
                                tracer, f"step{k}")
            all_records.extend(records)
            phases.append(_phase_summary(records, rate))
            if not phases[-1]["passed"]:
                break
    finally:
        for client in clients:
            client.close()
        report = front.stop()
    measured = all_records[SESSIONS_COUNT:]
    _count_failures(result, [r["status"] for r in measured])
    result.check(result.failed == 0, f"{result.failed} of {result.attempted} requests failed")

    latencies = [r["done"] - r["due"] for r in reference]
    lates = [r["late"] for r in measured if r["late"] is not None]
    late_p95 = float(np.percentile(np.asarray(lates) * 1e3, 95)) if lates else 0.0
    result.layer["loadgen.late_p95_ms"] = late_p95
    result.check(late_p95 <= LATE_LIMIT_MS,
                 f"load generator ran late (p95 {late_p95:.2f} ms)")
    result.e2e = {"setup_s": setup_s, "ops_per_s": capacity}
    _front_report(result, report, peak_rss_mb())
    result.samples = {"latency": len(latencies), "ops_per_s": len(closed),
                      "setup_s": SETUP_REPEATS, "peak_rss_mb": 1}
    result.named = {"capacity_rps (2 connections)": capacity,
                    "max_rate_rps": max_rate(phases),
                    **latency_stats(latencies)}
    result.phases = phases
    result.n_ops = len(measured)
    result.op_seconds = float(sum(r["done"] - r["sent"] for r in measured))
    if tracer is not None:
        result.spans = merge(tracer.spans, report["spans"])

    # Correctness: every served decision equals an in-process replay of
    # the same per-session request sequence.
    served = _decode(all_records)
    replay = _replay_service(panel, "serve_sessions")
    mismatches = 0
    for session_id, payloads in served.items():
        payloads.sort(key=lambda p: p["t"])
        for payload in payloads:
            expected = replay.rebalance(session_id).to_json_dict()
            mismatches += expected != payload
    result.check(mismatches == 0, f"{mismatches} responses differ from the in-process replay")
    result.digests.append(_digest_payloads(served))
    return result


def _digest_payloads(served: Dict[str, List[dict]]) -> str:
    ordered = {k: sorted(v, key=lambda p: p["t"]) for k, v in sorted(served.items())}
    return hashlib.sha256(json.dumps(ordered, sort_keys=True).encode()).hexdigest()[:16]


def run_serve_rounds(seed: int, seconds: float, tracer, out_dir: str) -> Result:
    result = _new_result("loadgen.round")
    # The benchmark's own copy of the panel (for the replay) also runs
    # the generator's lazy imports before any front forks.
    panel = make_panel(seed + 500, SERVE_SPAN)
    front, setup_s, generate_s = start_fronts("serve_rounds", seed, tracer, out_dir)
    result.layer["data.generate_s"] = generate_s
    sessions = _session_ids(ROUNDS_SESSIONS)
    payload = {"requests": [{"session_id": s} for s in sessions]}
    client = Client(front.port)
    rounds: List[tuple] = []
    try:
        status, body = client.post("/rebalance/batch", payload)  # warm-up round
        rounds.append((0.0, status, body))
        if tracer is not None:
            tracer.reset()
        # One speed-meter block per round; its kernel runs between rounds.
        meter = SpeedMeter()
        deadline = time.perf_counter() + seconds
        meter.start()
        while time.perf_counter() < deadline:
            trace_id = f"round-{len(rounds)}" if tracer is not None else None
            sent = time.perf_counter()
            status, body = client.post("/rebalance/batch", payload, trace_id)
            done = time.perf_counter()
            meter.mark(ROUNDS_SESSIONS)
            if tracer is not None:
                tracer.record("loadgen.round", sent, done, trace_id)
            rounds.append((done - sent, status, body))
    finally:
        client.close()
        report = front.stop()
    measured = rounds[1:]
    _count_failures(result, [status for _, status, _ in measured])
    result.check(result.failed == 0, f"{result.failed} of {result.attempted} rounds failed")
    latencies = [lat for lat, _, _ in measured]
    result.e2e = {"setup_s": setup_s, "ops_per_s": meter.rate()}
    _front_report(result, report, peak_rss_mb())
    result.samples = {"latency": len(latencies), "ops_per_s": len(meter.blocks),
                      "setup_s": SETUP_REPEATS, "peak_rss_mb": 1}
    result.named = {"decisions_per_s": result.e2e["ops_per_s"],
                    "decisions_per_s_raw": meter.raw_rate(),
                    "host_speed": meter.host_speed(),
                    **latency_stats(latencies)}
    result.n_ops = len(measured)
    result.op_seconds = float(sum(latencies))
    if tracer is not None:
        result.spans = merge(tracer.spans, report["spans"])
    worker = report["stats"]["workers"][0]["detail"] or {}
    result.layer["serving.store.rehydrated_total"] = float(worker.get("rehydrated", 0))

    # Correctness: the same rounds through an in-process service.
    replay = _replay_service(panel, "serve_rounds")
    requests = [RebalanceRequest(s) for s in sessions]
    mismatches = 0
    served: Dict[str, List[dict]] = {}
    for _, status, body in rounds:
        expected = [r.to_json_dict() for r in replay.rebalance_many(requests)]
        got = json.loads(body)["responses"] if status == 200 else None
        mismatches += expected != got
        for item in got or ():
            served.setdefault(item["session_id"], []).append(item)
    result.check(mismatches == 0, f"{mismatches} rounds differ from the in-process replay")
    result.digests.append(_digest_payloads(served))
    return result
