"""Unit tests for the observability layer (``repro.obs``): metric
primitives and quantile math, the structured event log, span nesting,
the null-object discipline, snapshot merge on sweep resume, serving
instrumentation (micro-batcher thread, 2-worker supervisor), the
``GET /metrics`` endpoint, and the CLI surface."""

import json
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.__main__ import main as cli_main
from repro.experiments import ArtifactStore, ExperimentSpec, SweepRunner
from repro.obs import (
    NULL_OBS,
    EventLog,
    MetricsRegistry,
    NullObs,
    Obs,
    get_obs,
    nearest_rank_quantile,
    read_events,
    render_prometheus,
    set_obs,
    summarize_records,
    use_obs,
)
from repro.obs.metrics import Histogram

OVERRIDES = (("train_steps", 4),)


def make_spec(name="obs-unit", strategies=("sdp", "ucrp"), seeds=(1,), **kw):
    return ExperimentSpec(
        name=name,
        profile="quick",
        experiments=(1,),
        strategies=strategies,
        seeds=seeds,
        overrides=OVERRIDES,
        **kw,
    )


# ----------------------------------------------------------------------
class TestQuantiles:
    def test_nearest_rank_exact_small_n(self):
        # n=5 sorted: rank(q) = max(1, ceil(q*5)); q=0.5 -> rank 3.
        samples = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert nearest_rank_quantile(samples, 0.5) == 3.0
        assert nearest_rank_quantile(samples, 0.95) == 5.0
        assert nearest_rank_quantile(samples, 0.2) == 1.0
        assert nearest_rank_quantile(samples, 0.21) == 2.0
        assert nearest_rank_quantile(samples, 1.0) == 5.0

    def test_single_sample_every_quantile(self):
        assert nearest_rank_quantile([7.5], 0.5) == 7.5
        assert nearest_rank_quantile([7.5], 0.99) == 7.5

    def test_empty_is_nan_and_bounds_raise(self):
        assert np.isnan(nearest_rank_quantile([], 0.5))
        with pytest.raises(ValueError):
            nearest_rank_quantile([1.0], 0.0)
        with pytest.raises(ValueError):
            nearest_rank_quantile([1.0], 1.5)

    def test_histogram_small_n_quantiles(self):
        h = Histogram("h", {}, window=8)
        for v in (5.0, 1.0, 3.0):
            h.observe(v)
        assert h.quantile(0.5) == 3.0  # sorted [1,3,5], rank 2
        assert h.quantile(0.99) == 5.0
        assert h.count == 3 and h.sum == 9.0

    def test_histogram_ring_wraparound(self):
        # Window 4, observe 0..9: retained = {6,7,8,9}, lifetime
        # count/sum/min/max still cover everything.
        h = Histogram("h", {}, window=4)
        for v in range(10):
            h.observe(float(v))
        assert h.count == 10
        assert h.sum == sum(range(10))
        assert sorted(h._buf) == [6.0, 7.0, 8.0, 9.0]
        assert h.quantile(0.5) == 7.0  # over the retained window only
        snap = h.snapshot()
        assert snap["min"] == 0.0 and snap["max"] == 9.0
        assert snap["p50"] == 7.0 and snap["p99"] == 9.0

    def test_histogram_absorb_preserves_lossless_totals(self):
        a = Histogram("h", {}, window=4)
        b = Histogram("h", {}, window=4)
        for v in range(10):
            a.observe(float(v))
        b.absorb(a.snapshot())
        assert b.count == 10
        assert b.sum == a.sum
        assert b.snapshot()["min"] == 0.0
        assert b.quantile(0.5) == a.quantile(0.5)


class TestRegistry:
    def test_series_keys_split_by_labels(self):
        reg = MetricsRegistry()
        reg.counter("req", route="/a").inc()
        reg.counter("req", route="/b").inc(2)
        snap = reg.snapshot()
        assert snap["counters"]['req{route="/a"}'] == 1.0
        assert snap["counters"]['req{route="/b"}'] == 2.0

    def test_type_collision_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_merge_snapshot_rules(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(3)
        a.gauge("g").set(1.0)
        a.histogram("h").observe(2.0)
        b.counter("c").inc(4)
        b.gauge("g").set(9.0)
        b.histogram("h").observe(6.0)
        a.merge_snapshot(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"]["c"] == 7.0  # counters add
        assert snap["gauges"]["g"] == 9.0  # last writer wins
        assert snap["histograms"]["h"]["count"] == 2
        assert snap["histograms"]["h"]["p99"] == 6.0

    def test_prometheus_render_shape(self):
        reg = MetricsRegistry()
        reg.counter("repro_requests_total", help="requests").inc(5)
        reg.gauge("repro_depth").set(2)
        reg.histogram("repro_lat_seconds", component="svc").observe(0.25)
        text = render_prometheus(reg)
        assert "# HELP repro_requests_total requests" in text
        assert "# TYPE repro_requests_total counter" in text
        assert "repro_requests_total 5" in text
        assert "# TYPE repro_lat_seconds summary" in text
        assert 'repro_lat_seconds{component="svc",quantile="0.5"} 0.25' in text
        assert 'repro_lat_seconds_count{component="svc"} 1' in text
        # one HELP/TYPE header per family, every line well-formed
        assert text.count("# TYPE repro_lat_seconds summary") == 1


# ----------------------------------------------------------------------
class TestEventLog:
    def test_levels_filter_and_injectable_clock(self, tmp_path):
        ticks = iter(range(100))
        log = EventLog(
            tmp_path / "e.jsonl", level="info", clock=lambda: next(ticks)
        )
        log.emit("low", level="debug", x=1)  # dropped
        log.emit("mid", level="info", x=2)
        log.emit("high", level="error", x=3)
        log.close()
        records = list(read_events(tmp_path / "e.jsonl"))
        assert [r["kind"] for r in records] == ["mid", "high"]
        assert [r["ts"] for r in records] == [0, 1]  # deterministic clock
        assert records[0]["x"] == 2 and records[0]["level"] == "info"

    def test_numpy_fields_coerced(self):
        log = EventLog(level="debug")
        log.emit("k", value=np.float64(1.5), arr=np.arange(3))
        rec = log.tail("k")[0]
        assert rec["value"] == 1.5 and rec["arr"] == [0, 1, 2]
        assert json.dumps(rec)  # fully JSON-serialisable

    def test_read_events_skips_torn_lines(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text('{"kind": "a", "ts": 1, "level": "info"}\n{"kind": "b", "ts"\n')
        assert [r["kind"] for r in read_events(path)] == ["a"]

    def test_summarize_renders_tables(self):
        log = EventLog(level="debug")
        log.emit("span", level="debug", span="x", seconds=0.5)
        log.emit("fault_fired", level="warn", seed=3, site="s", key="k")
        out = summarize_records(log.tail())
        assert "span" in out and "fault_fired" in out
        assert "p50_s" in out and "seed" in out


# ----------------------------------------------------------------------
class TestNullObject:
    def test_default_global_is_null(self):
        assert isinstance(get_obs(), NullObs) or get_obs() is NULL_OBS

    def test_null_is_inert_and_shared(self):
        n = NULL_OBS
        assert n.enabled is False
        assert n.counter("x") is n.gauge("y")  # shared null metric
        n.counter("x").inc()
        n.event("anything", level="error")
        with n.span("s") as sp:
            pass
        assert sp.elapsed == 0.0
        assert n.snapshot() == {}

    def test_use_obs_scopes_and_restores(self):
        obs = Obs()
        before = get_obs()
        with use_obs(obs):
            assert get_obs() is obs
        assert get_obs() is before

    def test_set_obs_none_installs_null(self):
        previous = set_obs(Obs())
        try:
            set_obs(None)
            assert get_obs() is NULL_OBS
        finally:
            set_obs(previous)


class TestSpans:
    def test_nesting_paths_and_lifo_order(self):
        obs = Obs(events=EventLog(level="debug"))
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        spans = obs.events.tail("span")
        # exits emit in LIFO order, paths record the nesting
        assert [r["span"] for r in spans] == ["outer/inner", "outer"]
        keys = obs.metrics.snapshot()["histograms"].keys()
        assert 'repro_span_seconds{span="inner"}' in keys
        assert 'repro_span_seconds{span="outer"}' in keys

    def test_error_annotated(self):
        obs = Obs(events=EventLog(level="debug"))
        with pytest.raises(RuntimeError):
            with obs.span("boom"):
                raise RuntimeError("x")
        rec = obs.events.tail("span")[0]
        assert rec["error"] == "RuntimeError"

    def test_thread_local_stacks_stay_disjoint(self):
        obs = Obs(events=EventLog(level="debug"))
        barrier = threading.Barrier(2)

        def work(name):
            with obs.span(name):
                barrier.wait(timeout=5)

        threads = [
            threading.Thread(target=work, args=(f"t{i}",)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # No cross-thread nesting: each span path is its own root.
        assert sorted(r["span"] for r in obs.events.tail("span")) == ["t0", "t1"]


# ----------------------------------------------------------------------
class TestSweepIntegration:
    def test_observed_sweep_matches_dark_sweep_and_merges_on_resume(
        self, tmp_path
    ):
        spec = make_spec()
        dark_root, lit_root = tmp_path / "dark", tmp_path / "lit"
        with use_obs(NULL_OBS):
            SweepRunner(spec, dark_root).run(parallel=False)
        obs = Obs(events=EventLog(level="debug"))
        with use_obs(obs):
            SweepRunner(spec, lit_root).run(parallel=False)

        # Bit parity: recording metrics never perturbs the artifacts.
        dark_store, lit_store = ArtifactStore(dark_root), ArtifactStore(lit_root)
        shard_ids = dark_store.list_shards()
        assert shard_ids and shard_ids == lit_store.list_shards()
        for shard_id in shard_ids:
            for name in ("series.npz", "weights.npz"):
                a = dark_store.shard_dir(shard_id) / name
                b = lit_store.shard_dir(shard_id) / name
                assert a.exists() == b.exists()
                if a.exists():
                    assert a.read_bytes() == b.read_bytes()

        # The observed run persisted per-shard snapshots...
        fresh = obs.metrics.snapshot()
        assert fresh["counters"]["repro_train_steps_total"] == 4.0
        sdp = next(s for s in shard_ids if "sdp" in s)
        assert lit_store.load_shard_obs(sdp)["counters"][
            "repro_train_steps_total"
        ] == 4.0
        assert dark_store.load_shard_obs(sdp) is None

        # ...and a resume (all shards skipped) merges them back to the
        # same totals the fresh run accumulated.
        resumed = Obs(events=EventLog(level="debug"))
        with use_obs(resumed):
            result = SweepRunner(spec, lit_root).run(parallel=False)
        assert not result.ran and result.complete
        assert (
            resumed.metrics.snapshot()["counters"]["repro_train_steps_total"]
            == fresh["counters"]["repro_train_steps_total"]
        )

    def test_pool_workers_write_shard_event_logs(self, tmp_path):
        spec = make_spec(name="obs-pool")
        obs_dir = tmp_path / "obs"
        runner = SweepRunner(
            spec, tmp_path / "store", max_workers=2,
            obs_dir=obs_dir, obs_level="debug",
        )
        result = runner.run(parallel=True)
        assert result.complete
        logs = sorted(p.name for p in obs_dir.glob("shard-*.jsonl"))
        assert len(logs) == len(result.ran)
        sdp_log = next(p for p in obs_dir.glob("shard-*sdp*.jsonl"))
        kinds = {r["kind"] for r in read_events(sdp_log)}
        assert "train_step" in kinds and "span" in kinds


class TestFaultEvents:
    def test_fault_fired_carries_seed_site_key(self):
        from repro.resilience import FaultPlan, SweepFaults, injector_from

        plan = FaultPlan(seed=9, sweep=SweepFaults(broken_shards=(0,)))
        obs = Obs(events=EventLog(level="debug"))
        with use_obs(obs):
            injector = injector_from(plan)
            assert injector.shard_fault("shard-x", attempt=0, position=0) == "broken"
        rec = obs.events.tail("fault_fired")[0]
        assert rec["seed"] == 9
        assert rec["site"] == "sweep.broken"
        assert rec["key"] == "shard-x:0"
        assert injector.record == [("sweep.broken", "shard-x:0")]


# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def serving_market():
    from repro.experiments import build_experiment_data, make_config

    return build_experiment_data(make_config(1, profile="quick")).test


class TestServingInstrumentation:
    def _service(self, market, obs):
        from repro.serving import PortfolioService

        service = PortfolioService(obs=obs)
        service.register_market("m", market)
        service.create_session("s1", "ucrp", market="m")
        return service

    def test_disabled_service_pays_one_attribute_check(self, serving_market):
        service = self._service(serving_market, None)
        assert service.obs is NULL_OBS
        first = service.rebalance("s1")
        assert not first.degraded  # no behaviour change

    def test_enabled_service_records_latency_and_counters(self, serving_market):
        obs = Obs()
        service = self._service(serving_market, obs)
        service.rebalance_many(
            [__import__("repro.serving", fromlist=["RebalanceRequest"])
             .RebalanceRequest(session_id="s1")]
        )
        snap = obs.metrics.snapshot()
        key = 'repro_rebalance_latency_seconds{component="service"}'
        assert snap["histograms"][key]["count"] == 1
        assert snap["counters"]["repro_requests_total"] == 1.0
        assert service.uptime_seconds() > 0.0

    def test_microbatcher_leader_thread_span_order(self, serving_market):
        """Spans under the micro-batcher: the leader (request) thread
        runs the flush, so batcher.flush nests deterministically and
        records its batch size."""
        from repro.serving import RebalanceRequest
        from repro.serving.service import MicroBatcher

        obs = Obs(events=EventLog(level="debug"))
        service = self._service(serving_market, obs)
        service.create_session("s2", "ucrp", market="m")
        batcher = MicroBatcher(service, max_batch=2, max_wait=0.5)
        responses = {}

        def submit(sid):
            responses[sid] = batcher.submit(RebalanceRequest(session_id=sid))

        threads = [
            threading.Thread(target=submit, args=(s,)) for s in ("s1", "s2")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert set(responses) == {"s1", "s2"}
        flushes = [
            r for r in obs.events.tail("span") if r["span"] == "batcher.flush"
        ]
        assert len(flushes) == 1  # one leader, one coalesced flush
        assert flushes[0]["size"] == 2
        gauges = obs.metrics.snapshot()["gauges"]
        assert gauges["repro_batcher_queue_depth"] == 0.0  # drained

    def test_batcher_shed_counter_mirrors_stats(self, serving_market):
        from repro.serving import QueueFull, RebalanceRequest
        from repro.serving.service import MicroBatcher

        obs = Obs(events=EventLog(level="debug"))
        service = self._service(serving_market, obs)
        batcher = MicroBatcher(service, max_queue=1)
        with batcher._cond:
            batcher._pending.append((RebalanceRequest(session_id="s1"), None))
        with pytest.raises(QueueFull):
            batcher.submit(RebalanceRequest(session_id="s1"))
        assert batcher.stats.queue_rejections == 1
        snap = obs.metrics.snapshot()
        assert snap["counters"]["repro_batcher_rejections_total"] == 1.0
        assert obs.events.tail("batcher_shed")


class TestSupervisorInstrumentation:
    def test_two_worker_failover_counters_and_spans(self, tmp_path, serving_market):
        """A 2-worker supervisor under an injected crash: the failover
        heals, and the obs counters mirror the stats counters."""
        from repro.resilience import FaultPlan, ServingFaults
        from repro.serving import RebalanceRequest, ServingSupervisor
        from repro.utils.rng import stable_hash

        plan = FaultPlan(
            seed=0,
            serving=ServingFaults(
                worker_crash_batches=((stable_hash("m") % 2, 0),)
            ),
        )
        obs = Obs(events=EventLog(level="debug"))
        with ServingSupervisor(
            tmp_path / "state", workers=2, faults=plan, obs=obs
        ) as sup:
            sup.register_market("m", serving_market)
            sup.create_session("a", "ucrp", market="m")
            responses = sup.rebalance_many(
                [RebalanceRequest(session_id="a")]
            )
            assert len(responses) == 1 and not responses[0].degraded
            assert sup.stats.worker_restarts == 1
            assert sup.uptime_seconds() > 0.0
            snap = obs.metrics.snapshot()
            assert snap["counters"]["repro_worker_restarts_total"] == 1.0
            assert snap["counters"]["repro_failovers_total"] == 1.0
            assert snap["counters"]["repro_dispatch_retries_total"] == 1.0
            assert snap["gauges"]["repro_supervisor_inflight"] == 0.0
            kinds = {r["kind"] for r in obs.events.tail()}
            assert {"worker_restart", "failover"} <= kinds
            assert any(
                "repro_worker_dispatch_seconds" in k
                for k in snap["histograms"]
            )


# ----------------------------------------------------------------------
@pytest.fixture()
def http_server(serving_market):
    from repro.serving import PortfolioService
    from repro.serving.http import serve

    service = PortfolioService()
    service.register_market("m", serving_market)
    service.create_session("s1", "ucrp", market="m")
    server = serve(service, port=0, micro_batch=False)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield server, f"http://{host}:{port}"
    server.shutdown()
    server.server_close()


def _get(base, path):
    with urllib.request.urlopen(f"{base}{path}") as rsp:
        ctype = rsp.headers.get("Content-Type", "")
        return rsp.status, ctype, rsp.read().decode()


class TestHTTPFront:
    def test_health_payloads_carry_uptime_and_version(self, http_server):
        from repro import __version__

        _, base = http_server
        for path in ("/healthz", "/health", "/stats"):
            _, _, body = _get(base, path)
            payload = json.loads(body)
            assert payload["uptime_seconds"] >= 0.0, path
            assert payload["version"] == __version__, path

    def test_metrics_endpoint_prometheus_text(self, http_server):
        _, base = http_server
        req = urllib.request.Request(
            f"{base}/rebalance",
            data=json.dumps({"session_id": "s1"}).encode(),
            headers={"Content-Type": "application/json"},
        )
        urllib.request.urlopen(req).read()
        status, ctype, body = _get(base, "/metrics")
        assert status == 200
        assert ctype.startswith("text/plain")
        assert "# TYPE repro_rebalance_latency_seconds summary" in body
        assert 'repro_rebalance_latency_seconds{component="http",quantile="0.5"}' in body
        assert "repro_stats_service_requests_served 1" in body
        assert "repro_uptime_seconds" in body
        assert 'repro_http_requests_total{method="POST",route="/rebalance"} 1' in body

    def test_unknown_route_label_collapses(self, http_server):
        server, base = http_server
        with pytest.raises(urllib.error.HTTPError):
            _get(base, "/sessions/abc123")

        def collapsed():
            snap = server.obs.metrics.snapshot()
            return any('route="/sessions/*"' in key for key in snap["counters"])

        # The handler counts the request after the response is on the
        # wire, so the client can get here first; wait (bounded) for it.
        deadline = time.monotonic() + 5.0
        while not collapsed() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert collapsed()

    def test_log_message_routed_to_event_log(self, http_server):
        server, base = http_server
        server.obs.events.level = 10  # debug
        _get(base, "/healthz")
        logs = server.obs.events.tail("http_log")
        assert logs and "/healthz" in logs[0]["message"]


# ----------------------------------------------------------------------
class TestCLI:
    def test_sweep_obs_flags_and_summarize(self, tmp_path, capsys):
        obs_dir = tmp_path / "obs"
        rc = cli_main(
            [
                "sweep", "--store", str(tmp_path / "store"),
                "--profile", "quick", "--strategies", "ucrp",
                "--seeds", "1", "--train-steps", "4", "--serial",
                "--obs-dir", str(obs_dir), "--obs-level", "debug",
            ]
        )
        assert rc == 0
        assert (obs_dir / "events.jsonl").exists()
        snapshot = json.loads((obs_dir / "snapshot.json").read_text())
        assert "counters" in snapshot and "histograms" in snapshot
        capsys.readouterr()

        rc = cli_main(["obs", "summarize", str(obs_dir / "events.jsonl")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "events.jsonl" in out and "kind" in out

    def test_obs_flags_leave_disabled_run_untouched(self, tmp_path, capsys):
        # Same sweep without --obs-dir: no obs files, global stays null.
        rc = cli_main(
            [
                "sweep", "--store", str(tmp_path / "store"),
                "--profile", "quick", "--strategies", "ucrp",
                "--seeds", "1", "--train-steps", "4", "--serial",
            ]
        )
        assert rc == 0
        assert get_obs() is NULL_OBS
        capsys.readouterr()
