"""Tests for the supervised multi-worker serving tier.

Covers the :class:`~repro.serving.ServingSupervisor` contracts: market-
hash routing, single-worker bit-parity with the in-process service,
crash-mid-batch failover with replay, heartbeat healing of idle deaths,
graceful drain (zero committed responses lost, store continuity across
a restart, undrained state dirs), LRU eviction + lazy rehydration,
priority load shedding, the store's journal (crash points, torn tails,
compaction), and the HTTP front's supervisor-aware routes.
"""

import json
import os
import shutil
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.experiments import build_experiment_data, make_config, risk_regime_preset
from repro.resilience import FaultPlan, ServingFaults
from repro.serving import (
    CheckpointCorrupt,
    Draining,
    LoadShed,
    PortfolioService,
    RebalanceRequest,
    ServingSupervisor,
    SessionStateStore,
)
from repro.serving import store as store_mod
from repro.utils.rng import stable_hash


@pytest.fixture(scope="module")
def config():
    return make_config(1, profile="quick")


@pytest.fixture(scope="module")
def market(config):
    return build_experiment_data(config).test


@pytest.fixture(scope="module")
def market2():
    return build_experiment_data(make_config(2, profile="quick")).test


def two_market_names():
    """Two market names a 2-worker supervisor routes to distinct workers."""
    names = {}
    for i in range(64):
        names.setdefault(stable_hash(f"m{i}") % 2, f"m{i}")
        if len(names) == 2:
            return names[0], names[1]
    raise AssertionError("no hash split in 64 candidates")


def make_supervisor(tmp_path, market, market2=None, **kwargs):
    sup = ServingSupervisor(tmp_path / "state", **kwargs)
    name0, name1 = two_market_names()
    sup.register_market(name0, market)
    if market2 is not None:
        sup.register_market(name1, market2)
    return sup, name0, name1


def json_rounds(front, requests, rounds):
    out = []
    for _ in range(rounds):
        out.append([r.to_json_dict() for r in front.rebalance_many(requests)])
    return out


class TestRoutingAndParity:
    def test_routing_by_market_hash(self, tmp_path, market, market2):
        sup, name0, name1 = make_supervisor(
            tmp_path, market, market2, workers=2
        )
        with sup:
            assert sup.worker_of_market(name0) != sup.worker_of_market(name1)
            sup.create_session("a", "ucrp", market=name0)
            sup.create_session("b", "ucrp", market=name1)
            sup.create_session("c", "ons", market=name1)
            assert sup.session_ids() == ("a", "b", "c")
            infos = {i.session_id: i for i in sup.describe_sessions()}
            assert infos["c"].strategy == "ons"
            routed = {
                h.index: h.routed_sessions for h in sup.worker_health()
            }
            assert routed[sup.worker_of_market(name0)] == 1
            assert routed[sup.worker_of_market(name1)] == 2

    def test_requires_registered_market(self, tmp_path, market):
        sup, name0, _ = make_supervisor(tmp_path, market, workers=2)
        with sup:
            with pytest.raises(ValueError, match="require market="):
                sup.create_session("a", "ucrp")
            with pytest.raises(KeyError, match="unknown market"):
                sup.create_session("a", "ucrp", market="nope")
            with pytest.raises(ValueError, match="already exists"):
                sup.create_session("a", "ucrp", market=name0)
                sup.create_session("a", "ucrp", market=name0)

    def test_single_worker_bit_identical_to_in_process(
        self, tmp_path, market
    ):
        """The ISSUE's invariant: one worker, no fault plan == plain
        in-process service, byte for byte — including the risk book."""
        risk = risk_regime_preset("lockout")
        sup, name0, _ = make_supervisor(
            tmp_path, market, workers=1, risk=risk.build_engine()
        )
        requests = [RebalanceRequest("a"), RebalanceRequest("b")]
        with sup:
            sup.create_session("a", "ons", market=name0)
            sup.create_session("b", "ucrp", market=name0)
            supervised = json_rounds(sup, requests, rounds=4)

        service = PortfolioService(risk=risk.build_engine())
        service.register_market(name0, market)
        service.create_session("a", "ons", market=name0)
        service.create_session("b", "ucrp", market=name0)
        assert supervised == json_rounds(service, requests, rounds=4)


class TestFailover:
    def test_crash_mid_batch_replays_bit_identically(
        self, tmp_path, market, market2
    ):
        """A worker killed mid-batch (after commit, before persist) is
        restarted; the replay rehydrates from the store and recomputes
        the identical decisions — the fault-free run, byte for byte."""
        requests = [RebalanceRequest(s) for s in ("a", "b", "c")]

        def run(root, faults):
            sup, name0, name1 = make_supervisor(
                root, market, market2, workers=2, faults=faults
            )
            with sup:
                sup.create_session("a", "ons", market=name0)
                sup.create_session("b", "ons", market=name1)
                sup.create_session("c", "ucrp", market=name1)
                rounds = json_rounds(sup, requests, rounds=4)
                return rounds, sup.stats, sup.stats_dict(), name1

        healthy, _, _, name1 = run(tmp_path / "healthy", None)
        victim = stable_hash(name1) % 2
        plan = FaultPlan(
            seed=0,
            serving=ServingFaults(worker_crash_batches=((victim, 1),)),
        )
        chaos, stats, stats_dict, _ = run(tmp_path / "chaos", plan)

        assert chaos == healthy
        assert stats.worker_restarts == 1
        assert stats.failovers == 1
        report = stats_dict["failovers"][0]
        assert report["worker"] == victim
        flags = {
            s["session_id"]: s["round_in_flight"]
            for s in report["sessions"]
        }
        assert flags == {"b": True, "c": True}  # a lives on the other worker

    def test_heartbeat_restarts_idle_death(self, tmp_path, market):
        sup, name0, _ = make_supervisor(tmp_path, market, workers=2)
        with sup:
            sup.create_session("a", "ons", market=name0)
            before = [r.to_json_dict() for r in sup.rebalance_many(
                [RebalanceRequest("a")]
            )]
            victim = sup._workers[sup.worker_of_market(name0)]
            victim.process.terminate()
            victim.process.join(timeout=5.0)
            assert sup.check_workers() == [victim.index]
            assert victim.alive
            assert sup.stats.worker_restarts == 1
            after = [r.to_json_dict() for r in sup.rebalance_many(
                [RebalanceRequest("a")]
            )]

        service = PortfolioService()
        service.register_market(name0, market)
        service.create_session("a", "ons", market=name0)
        assert before == [service.rebalance("a").to_json_dict()]
        assert after == [service.rebalance("a").to_json_dict()]

    def test_unknown_session_rejected_at_front(self, tmp_path, market):
        sup, _, _ = make_supervisor(tmp_path, market, workers=2)
        with sup:
            with pytest.raises(KeyError, match="unknown session"):
                sup.rebalance("ghost")


class TestDrainAndResume:
    def test_drain_under_load_loses_no_committed_response(
        self, tmp_path, market, market2
    ):
        """Drain mid-traffic: every response committed before the drain
        is the fault-free one, new work gets ``Draining``, and a fresh
        supervisor over the same store continues bit-identically."""
        sup, name0, name1 = make_supervisor(
            tmp_path, market, market2, workers=2
        )
        requests = [RebalanceRequest(s) for s in ("a", "b")]
        sup.create_session("a", "ons", market=name0)
        sup.create_session("b", "ons", market=name1)

        committed = []
        drained_seen = threading.Event()

        def pump():
            while True:
                try:
                    committed.append(
                        [r.to_json_dict() for r in sup.rebalance_many(requests)]
                    )
                except Draining:
                    drained_seen.set()
                    return

        thread = threading.Thread(target=pump, daemon=True)
        thread.start()
        while len(committed) < 2:
            time.sleep(0.01)
        report = sup.drain(timeout=30.0)
        thread.join(timeout=30.0)
        assert drained_seen.is_set()
        assert report["sessions_checkpointed"] == 2
        assert all(w["exit_code"] == 0 for w in report["workers"])
        with pytest.raises(Draining):
            sup.rebalance_many(requests)
        with pytest.raises(Draining):
            sup.create_session("c", "ucrp", market=name0)
        assert sup.drain() is report or sup.drain() == report  # idempotent

        # Reference: the uninterrupted in-process run.
        service = PortfolioService()
        service.register_market(name0, market)
        service.register_market(name1, market2)
        service.create_session("a", "ons", market=name0)
        service.create_session("b", "ons", market=name1)
        n = len(committed)
        reference = json_rounds(service, requests, rounds=n + 3)
        assert committed == reference[:n]

        # Store continuity: a fresh supervisor resumes every session
        # and serves the next rounds bit-identically.
        resumed = ServingSupervisor(tmp_path / "state", workers=2)
        with resumed:
            assert resumed.session_ids() == ("a", "b")
            assert json_rounds(resumed, requests, rounds=3) == reference[n:]


    def test_drained_state_dir_is_a_checkpoint(self, tmp_path, market, config):
        """A drained store is the checkpoint format: ``load_checkpoint``
        restores it and continues bit-identically to an uninterrupted
        in-process run — shared SDP sessions, a private stateful ONS
        session, and risk-armed guardrail books."""
        risk = risk_regime_preset("lockout")
        sdp = dict(observation=config.observation, hidden_sizes=(16,),
                   timesteps=2, seed=config.agent_seed)
        specs = [("a", "sdp", sdp), ("b", "sdp", sdp), ("c", "ons", {})]
        requests = [RebalanceRequest(sid) for sid, _, _ in specs]
        sup, name0, _ = make_supervisor(
            tmp_path, market, workers=1, risk=risk.build_engine()
        )
        with sup:
            for sid, strategy, params in specs:
                sup.create_session(sid, strategy, params=params, market=name0)
            supervised = json_rounds(sup, requests, rounds=3)
            report = sup.drain(timeout=60.0)
        assert report["sessions_checkpointed"] == 3
        assert [w["exit_code"] for w in report["workers"]] == [0]
        state = tmp_path / "state"
        assert not (state / "shards").exists()
        assert len(list((state / "agents").glob("*.npz"))) == 1

        restored = PortfolioService.load_checkpoint(
            state, risk=risk.build_engine()
        )
        assert restored.session_ids() == ("a", "b", "c")
        assert restored._sessions["a"].agent is restored._sessions["b"].agent
        assert not restored._sessions["c"].shared
        assert restored._sessions["c"].risk_w_drifted is not None
        continued = json_rounds(restored, requests, rounds=3)

        service = PortfolioService(risk=risk.build_engine())
        service.register_market(name0, market)
        for sid, strategy, params in specs:
            service.create_session(sid, strategy, params=params, market=name0)
        assert supervised + continued == json_rounds(service, requests, rounds=6)


    def test_drain_counts_evicted_sessions(self, tmp_path, market):
        """Sessions evicted under ``max_resident`` are checkpointed by
        the drain too, and the report says so."""
        sup, name0, _ = make_supervisor(
            tmp_path, market, workers=1, max_resident=1
        )
        with sup:
            for sid in ("a", "b", "c"):
                sup.create_session(sid, "ons", market=name0)
            sup.rebalance_many([RebalanceRequest(s) for s in ("a", "b", "c")])
            report = sup.drain(timeout=30.0)
        assert report["sessions"] == 3
        assert report["sessions_checkpointed"] == 3
        restored = PortfolioService.load_checkpoint(tmp_path / "state")
        assert [i.decisions for i in restored.describe_sessions()] == [1, 1, 1]

    def test_undrained_state_dir_loads_like_drained(
        self, tmp_path, market, config
    ):
        """A supervisor closed without a drain leaves a ``state_dir``
        whose ``load_checkpoint`` continues bit-identically to the same
        directory after a drain — and to an uninterrupted run, also
        when a supervisor with another worker count resumes it."""
        risk = risk_regime_preset("lockout")
        sdp = dict(observation=config.observation, hidden_sizes=(16,),
                   timesteps=2, seed=config.agent_seed)
        specs = [("a", "sdp", sdp), ("b", "sdp", sdp), ("c", "ons", {})]
        requests = [RebalanceRequest(sid) for sid, _, _ in specs]
        # name1's sessions live on worker 1 of 2, but on worker 0 of 1.
        sup, _, name1 = make_supervisor(
            tmp_path, market, market, workers=2, risk=risk.build_engine()
        )
        with sup:
            for sid, strategy, params in specs:
                sup.create_session(sid, strategy, params=params, market=name1)
            supervised = json_rounds(sup, requests, rounds=3)
        state = tmp_path / "state"
        copy = tmp_path / "copy"
        shutil.copytree(state, copy)

        undrained = PortfolioService.load_checkpoint(
            state, risk=risk.build_engine()
        )
        from_undrained = json_rounds(undrained, requests, rounds=3)

        with ServingSupervisor(
            copy, workers=1, risk=risk.build_engine()
        ) as resumed:
            assert json_rounds(resumed, requests, rounds=3) == from_undrained

        with ServingSupervisor(state, workers=2) as resumed:
            resumed.drain(timeout=30.0)
        drained = PortfolioService.load_checkpoint(
            state, risk=risk.build_engine()
        )
        assert json_rounds(drained, requests, rounds=3) == from_undrained

        service = PortfolioService(risk=risk.build_engine())
        service.register_market(name1, market)
        for sid, strategy, params in specs:
            service.create_session(sid, strategy, params=params, market=name1)
        assert supervised + from_undrained == json_rounds(
            service, requests, rounds=6
        )


class TestResidency:
    def test_lru_eviction_rehydrates_bit_identically(
        self, tmp_path, market
    ):
        """``max_resident=1`` forces an evict/rehydrate cycle on every
        alternating request; decisions — including drifted risk state —
        must match the always-resident in-process reference."""
        risk = risk_regime_preset("lockout")
        sup, name0, _ = make_supervisor(
            tmp_path, market, workers=1, max_resident=1,
            risk=risk.build_engine(),
        )
        with sup:
            sup.create_session("a", "ons", market=name0)
            sup.create_session("b", "ons", market=name0)
            supervised = []
            for _ in range(4):
                supervised.append(sup.rebalance("a").to_json_dict())
                supervised.append(sup.rebalance("b").to_json_dict())
            detail = sup.stats_dict()["workers"][0]["detail"]
            assert detail["resident_sessions"] == 1
            assert detail["evicted"] >= 2
            assert detail["rehydrated"] >= 2

        service = PortfolioService(risk=risk.build_engine())
        service.register_market(name0, market)
        service.create_session("a", "ons", market=name0)
        service.create_session("b", "ons", market=name0)
        reference = []
        for _ in range(4):
            reference.append(service.rebalance("a").to_json_dict())
            reference.append(service.rebalance("b").to_json_dict())
        assert supervised == reference


    def test_describe_reports_evicted_sessions_committed_state(
        self, tmp_path, market
    ):
        sup, name0, _ = make_supervisor(
            tmp_path, market, workers=1, max_resident=1
        )
        service = PortfolioService()
        service.register_market(name0, market)
        with sup:
            for front in (sup, service):
                for sid in ("a", "b", "c"):
                    front.create_session(sid, "ons", market=name0)
                for _ in range(3):
                    front.rebalance_many(
                        [RebalanceRequest(s) for s in ("a", "b", "c")]
                    )
                front.rebalance("c")
            described = sup.describe_sessions()
            detail = sup.stats_dict()["workers"][0]["detail"]
        assert detail["resident_sessions"] == 1  # a and b come from the store
        assert described == service.describe_sessions()
        assert [i.decisions for i in described] == [3, 3, 4]


class TestLoadShedding:
    def test_low_priority_shed_high_priority_admitted(
        self, tmp_path, market
    ):
        """With the front saturated (one slow round in flight), a
        same-priority request is shed with the structured 429 marker
        while a higher-priority one is admitted and served."""
        plan = FaultPlan(
            seed=0,
            serving=ServingFaults(slow_rate=1.0, slow_seconds=0.6),
        )
        sup, name0, _ = make_supervisor(
            tmp_path, market, workers=1, max_pending=1, faults=plan
        )
        with sup:
            sup.create_session("a", "ucrp", market=name0)
            with ThreadPoolExecutor(max_workers=1) as pool:
                slow = pool.submit(sup.rebalance, "a")
                while sup.inflight == 0 and not slow.done():
                    time.sleep(0.005)
                with pytest.raises(LoadShed, match="at capacity"):
                    sup.rebalance_many([RebalanceRequest("a", priority=0)])
                assert sup.stats.shed_requests == 1
                urgent = sup.rebalance_many(
                    [RebalanceRequest("a", priority=5)]
                )
                assert len(urgent) == 1
                assert slow.result(timeout=30.0).t < urgent[0].t

    def test_idle_front_always_admits(self, tmp_path, market):
        sup, name0, _ = make_supervisor(
            tmp_path, market, workers=1, max_pending=1
        )
        with sup:
            sup.create_session("a", "ucrp", market=name0)
            sup.create_session("b", "ucrp", market=name0)
            # An oversized batch on an idle front must not shed.
            responses = sup.rebalance_many(
                [RebalanceRequest("a"), RebalanceRequest("b")]
            )
            assert len(responses) == 2


class TestSessionStateStore:
    def test_market_names_are_write_once(self, tmp_path, market, market2):
        store = SessionStateStore(tmp_path)
        store.save_market("m", market)
        store.save_market("m", market2)  # ignored: first write wins
        assert store.market_names() == ("m",)
        loaded = store.load_market("m")
        assert np.array_equal(loaded.close, market.close)

    def test_session_round_trip_and_corruption(self, tmp_path, market):
        service = PortfolioService()
        service.register_market("m", market)
        service.create_session("s!/1", "ons", market="m")
        service.rebalance("s!/1")
        store = SessionStateStore(tmp_path)
        store.save_session(service.export_session("s!/1"))
        assert store.session_ids() == ("s!/1",)

        other = PortfolioService()
        other.register_market("m", market)
        other.import_session(store.load_session("s!/1"))
        assert (
            other.rebalance("s!/1").to_json_dict()
            == service.rebalance("s!/1").to_json_dict()
        )

        state_file = tmp_path / "sessions" / "s%21%2F1" / "state.json"
        state_file.write_text("{ not json")
        with pytest.raises(CheckpointCorrupt):
            store.load_session("s!/1")

    @staticmethod
    def _journaled(tmp_path, market):
        """Two stored sessions and the journal entries of two batches."""
        service = PortfolioService()
        service.register_market("m", market)
        store = SessionStateStore(tmp_path)
        for sid in ("a", "b"):
            service.create_session(sid, "ons", market="m")
            store.save_session(service.export_session(sid))
        batches = []
        for _ in range(2):
            service.rebalance_many([RebalanceRequest("a"), RebalanceRequest("b")])
            batches.append(
                {sid: service.export_session_state(sid) for sid in ("a", "b")}
            )
        return batches

    @staticmethod
    def _assert_holds(store, batch):
        for sid, entry in batch.items():
            state = store.load_session_record(sid)["state"]
            assert {key: state[key] for key in entry} == entry

    @pytest.mark.parametrize(
        "point", ["before_append", "torn_record", "after_fsync"]
    )
    def test_crash_points(self, tmp_path, market, point):
        """A writer killed before an append, mid-record or right after
        its fsync: the reopened store holds the previous, the previous
        and this batch respectively."""
        first, second = self._journaled(tmp_path, market)
        pid = os.fork()
        if pid == 0:  # the writer; every path ends in os._exit
            try:
                writer = SessionStateStore(tmp_path)
                writer.open_journal(0)
                writer.append(first)
                if point == "before_append":
                    os._exit(0)
                if point == "torn_record":
                    write = os.write

                    def torn(fd, data):
                        write(fd, data[: len(data) // 2])
                        os._exit(0)

                    os.write = torn
                else:
                    fsync = os.fsync

                    def fsync_then_die(fd):
                        fsync(fd)
                        os._exit(0)

                    os.fsync = fsync_then_die
                writer.append(second)
            finally:
                os._exit(1)
        _, status = os.waitpid(pid, 0)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0

        journal = tmp_path / "journal" / "0.log"
        expected = second if point == "after_fsync" else first
        self._assert_holds(SessionStateStore(tmp_path), expected)
        if point != "torn_record":
            return
        torn_size = journal.stat().st_size
        writer = SessionStateStore(tmp_path)
        writer.open_journal(0)  # truncates the torn tail
        assert journal.stat().st_size < torn_size
        writer.append(second)
        self._assert_holds(SessionStateStore(tmp_path), second)

    def test_bad_record_before_the_tail_is_corrupt(self, tmp_path, market):
        first, second = self._journaled(tmp_path, market)
        writer = SessionStateStore(tmp_path)
        writer.open_journal(0)
        writer.append(first)
        writer.append(second)
        journal = tmp_path / "journal" / "0.log"
        data = bytearray(journal.read_bytes())
        data[20] ^= 0xFF  # inside the first record's body
        journal.write_bytes(bytes(data))
        with pytest.raises(CheckpointCorrupt, match="0.log"):
            SessionStateStore(tmp_path).load_session_record("a")

    def test_compaction_folds_the_journal(
        self, tmp_path, market, monkeypatch
    ):
        first, second = self._journaled(tmp_path, market)
        writer = SessionStateStore(tmp_path)
        writer.open_journal(0)
        writer.append(first)
        journal = tmp_path / "journal" / "0.log"
        assert SessionStateStore(tmp_path).compact() == ("a", "b")
        assert journal.stat().st_size == 0
        snapshot = json.loads(
            (tmp_path / "sessions" / "a" / "state.json").read_text()
        )
        assert snapshot["state"]["next_t"] == first["a"]["next_t"]

        # Past the size bound, the writer compacts by itself.
        monkeypatch.setattr(store_mod, "JOURNAL_COMPACT_BYTES", 1)
        writer = SessionStateStore(tmp_path)
        writer.open_journal(0)
        writer.append(second)
        assert journal.stat().st_size == 0
        self._assert_holds(SessionStateStore(tmp_path), second)

    def test_lru_overflow_order(self, tmp_path):
        store = SessionStateStore(tmp_path, max_resident=2)
        for sid in ("a", "b", "c"):
            store.touch(sid)
        assert store.overflow() == ["a"]
        assert store.resident_ids() == ("b", "c")
        store.touch("b")  # refresh: c is now least recent
        store.touch("d")
        assert store.overflow() == ["c"]


class TestHTTPFront:
    def test_supervisor_routes_and_drain_503(
        self, tmp_path, market
    ):
        from repro.serving.http import serve

        sup, name0, _ = make_supervisor(tmp_path, market, workers=2)
        server = serve(sup, port=0, micro_batch=False)
        host, port = server.server_address
        base = f"http://{host}:{port}"
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()

        def get(path):
            with urllib.request.urlopen(f"{base}{path}") as response:
                return json.loads(response.read())

        def post(path, payload):
            request = urllib.request.Request(
                f"{base}{path}",
                data=json.dumps(payload).encode(),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request) as response:
                return json.loads(response.read())

        try:
            post(
                "/sessions",
                {"session_id": "a", "strategy": "ucrp", "market": name0},
            )
            decision = post("/rebalance", {"session_id": "a", "priority": 1})
            assert "weights" in decision

            health = get("/health")
            assert health["status"] == "ok"
            assert [w["alive"] for w in health["workers"]] == [True, True]
            assert health["failovers"] == 0
            stats = get("/stats")
            assert stats["supervisor"]["requests_served"] == 1
            assert len(stats["workers"]) == 2

            sup.drain(timeout=30.0)
            assert get("/health")["status"] == "draining"
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                post("/rebalance", {"session_id": "a"})
            assert exc_info.value.code == 503
            body = json.loads(exc_info.value.read())
            assert "draining" in body["error"]
        finally:
            server.shutdown()
            server.server_close()
            sup.close()
