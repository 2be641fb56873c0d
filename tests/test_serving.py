"""Tests for the repro.serving inference service layer."""

import contextlib
import http.client
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import registry
from repro.agents import Agent, run_backtest
from repro.baselines import ONS
from repro.experiments import build_experiment_data, make_config
from repro.registry import StrategyRegistry
from repro.serving import (
    MicroBatcher,
    PortfolioService,
    RebalanceRequest,
    SessionStateStore,
)


@pytest.fixture(scope="module")
def config():
    return make_config(1, profile="quick")


@pytest.fixture(scope="module")
def market(config):
    return build_experiment_data(config).test


@pytest.fixture(scope="module")
def sdp_params(config):
    return dict(
        observation=config.observation,
        hidden_sizes=config.hidden_sizes,
        timesteps=config.timesteps,
        encoder_pop_size=config.encoder_pop_size,
        decoder_pop_size=config.decoder_pop_size,
        lif=config.lif,
        surrogate_amplifier=config.surrogate_amplifier,
        surrogate_window=config.surrogate_window,
        seed=config.agent_seed,
    )


def make_service(config, market):
    service = PortfolioService(commission=config.commission)
    service.register_market("m", market)
    return service


class TestSessions:
    def test_create_and_describe(self, config, market, sdp_params):
        service = make_service(config, market)
        info = service.create_session("s1", "sdp", params=sdp_params, market="m")
        assert info.strategy == "sdp"
        assert info.n_assets == market.n_assets
        assert info.next_t == config.observation.first_decision_index()
        assert service.describe_session("s1").decisions == 0

    def test_user_learned_strategy_gets_n_assets_injected(self, config, market):
        # The extension point: a user-registered learned strategy whose
        # factory takes n_assets is wired up like the built-ins.
        reg = StrategyRegistry()

        @reg.register("my_uniform_net")
        class MyNet(Agent):
            name = "MyNet"
            stateless = True

            def __init__(self, n_assets):
                self.n_assets = n_assets

            def act(self, data, t, w_prev):
                n = self.n_assets + 1
                return np.full(n, 1.0 / n)

        service = PortfolioService(registry=reg)
        service.register_market("m", market)
        service.create_session(
            "u", "my_uniform_net", market="m", observation=config.observation
        )
        response = service.rebalance("u")
        assert response.weights.shape == (market.n_assets + 1,)

    def test_identical_specs_share_one_agent(self, config, market, sdp_params):
        service = make_service(config, market)
        a = service.create_session("a", "sdp", params=sdp_params, market="m")
        b = service.create_session("b", "sdp", params=sdp_params, market="m")
        assert a.shared_agent and b.shared_agent
        assert service._sessions["a"].agent is service._sessions["b"].agent

    def test_stateful_strategies_get_private_agents(self, config, market):
        service = make_service(config, market)
        service.create_session("a", "ons", market="m")
        service.create_session("b", "ons", market="m")
        assert service._sessions["a"].agent is not service._sessions["b"].agent

    def test_duplicate_session_id_raises(self, config, market):
        service = make_service(config, market)
        service.create_session("a", "ucrp", market="m")
        with pytest.raises(ValueError, match="already exists"):
            service.create_session("a", "ucrp", market="m")

    def test_market_xor_data_required(self, config, market):
        service = make_service(config, market)
        with pytest.raises(ValueError, match="exactly one"):
            service.create_session("a", "ucrp")
        with pytest.raises(ValueError, match="exactly one"):
            service.create_session("a", "ucrp", market="m", data=market)

    def test_market_names_are_immutable(self, config, market):
        service = make_service(config, market)
        service.register_market("m", market)  # same panel: no-op
        other = build_experiment_data(make_config(2, profile="quick")).test
        with pytest.raises(ValueError, match="immutable"):
            service.register_market("m", other)

    def test_unknown_market_and_strategy(self, config, market):
        service = make_service(config, market)
        with pytest.raises(KeyError, match="unknown market"):
            service.create_session("a", "ucrp", market="nope")
        with pytest.raises(KeyError, match="unknown strategy"):
            service.create_session("a", "warp", market="m")

    def test_inline_data_auto_registers(self, config, market):
        service = make_service(config, market)
        service.create_session("a", "ucrp", data=market)
        assert "session:a" in service.market_names()

    def test_failed_create_leaves_no_ghost_market(self, config, market):
        service = make_service(config, market)
        with pytest.raises(KeyError, match="unknown strategy"):
            service.create_session("a", "warp", data=market)
        assert "session:a" not in service.market_names()

    def test_failed_create_leaves_no_ghost_shared_agent(
        self, config, market, sdp_params
    ):
        service = make_service(config, market)
        with pytest.raises(ValueError, match="start index"):
            service.create_session(
                "a", "sdp", params=sdp_params, market="m",
                start=market.n_periods + 5,
            )
        assert len(service._shared_agents) == 0

    def test_close_session(self, config, market):
        service = make_service(config, market)
        service.create_session("a", "ucrp", market="m")
        service.close_session("a")
        assert service.session_ids() == ()
        with pytest.raises(KeyError, match="unknown session"):
            service.rebalance("a")

    def test_inline_name_cannot_rebind_referenced_market(self, config, market):
        # foo's auto-market stays alive through bar; re-creating foo
        # with different inline data must not silently rebind it.
        other = build_experiment_data(make_config(2, profile="quick")).test
        service = make_service(config, market)
        service.create_session("foo", "ucrp", data=market)
        service.create_session("bar", "ucrp", market="session:foo")
        service.close_session("foo")
        with pytest.raises(ValueError, match="immutable"):
            service.create_session("foo", "ucrp", data=other)
        assert service._sessions["bar"].data is market

    def test_close_session_evicts_unreferenced_shared_agent(
        self, config, market, sdp_params
    ):
        service = make_service(config, market)
        service.create_session("a", "sdp", params=sdp_params, market="m")
        service.create_session("b", "sdp", params=sdp_params, market="m")
        assert len(service._shared_agents) == 1
        service.close_session("a")
        assert len(service._shared_agents) == 1  # still used by b
        service.close_session("b")
        assert len(service._shared_agents) == 0

    def test_close_session_drops_inline_market(self, config, market):
        service = make_service(config, market)
        service.create_session("a", "ucrp", data=market)
        assert "session:a" in service.market_names()
        service.close_session("a")
        assert "session:a" not in service.market_names()
        # Named markets survive their sessions.
        service.create_session("b", "ucrp", market="m")
        service.close_session("b")
        assert "m" in service.market_names()


class TestRebalanceParity:
    def test_two_sessions_match_run_backtest(self, config, market, sdp_params):
        """Acceptance bar: served weights for >= 2 concurrent sessions
        through the registry-built "sdp" strategy match a run_backtest
        trajectory on the quick profile to 1e-9."""
        agent = registry.create("sdp", n_assets=market.n_assets, **sdp_params)
        baseline = run_backtest(
            agent, market,
            observation=config.observation, commission=config.commission,
        )
        service = make_service(config, market)
        service.create_session("alice", "sdp", params=sdp_params, market="m")
        service.create_session("bob", "sdp", params=sdp_params, market="m")

        steps = min(40, baseline.weights.shape[0])
        for k in range(steps):
            responses = service.rebalance_many(
                [RebalanceRequest("alice"), RebalanceRequest("bob")]
            )
            for r in responses:
                np.testing.assert_allclose(
                    r.weights, baseline.weights[k], atol=1e-9
                )
        # Both sessions shared one agent and were decided in single
        # batched forwards.
        assert service.stats.batched_forwards == steps
        assert service.stats.largest_batch == 2

    def test_classical_session_matches_run_backtest(self, config, market):
        baseline = run_backtest(
            ONS(), market,
            observation=config.observation, commission=config.commission,
        )
        service = make_service(config, market)
        service.create_session(
            "c", "ons", market="m", observation=config.observation
        )
        for k in range(10):
            r = service.rebalance("c")
            np.testing.assert_allclose(r.weights, baseline.weights[k], atol=1e-9)

    def test_same_session_twice_in_one_batch_is_sequential(
        self, config, market, sdp_params
    ):
        service = make_service(config, market)
        service.create_session("a", "sdp", params=sdp_params, market="m")
        service.create_session("twin", "sdp", params=sdp_params, market="m")

        both = service.rebalance_many(
            [RebalanceRequest("a"), RebalanceRequest("a")]
        )
        first = service.rebalance("twin")
        second = service.rebalance("twin")
        assert both[0].t == first.t and both[1].t == second.t
        np.testing.assert_allclose(both[0].weights, first.weights, atol=1e-12)
        np.testing.assert_allclose(both[1].weights, second.weights, atol=1e-12)

    def test_batch_with_invalid_request_commits_nothing(
        self, config, market, sdp_params
    ):
        service = make_service(config, market)
        service.create_session("a", "sdp", params=sdp_params, market="m")
        before = service.describe_session("a").next_t
        with pytest.raises(ValueError, match="outside"):
            service.rebalance_many(
                [RebalanceRequest("a"), RebalanceRequest("a", t=9999)]
            )
        assert service.describe_session("a").next_t == before
        assert service.describe_session("a").decisions == 0

    def test_invalid_strategy_output_raises_not_nan(self, config, market):
        reg = StrategyRegistry()

        @reg.register("zero")
        class ZeroAgent(Agent):
            name = "Zero"
            stateless = True

            def act(self, data, t, w_prev):
                return np.zeros(data.n_assets + 1)

        service = PortfolioService(registry=reg)
        service.register_market("m", market)
        service.create_session(
            "z", "zero", market="m", observation=config.observation
        )
        with pytest.raises(ValueError, match="sum to"):
            service.rebalance("z")
        # The failed decision left the session untouched.
        assert service.describe_session("z").decisions == 0
        assert np.all(np.isfinite(service._sessions["z"].w_prev))

    def test_midbatch_strategy_failure_commits_nothing(self, config, market):
        reg = StrategyRegistry()

        @reg.register("zero")
        class ZeroAgent(Agent):
            name = "Zero"
            stateless = True

            def act(self, data, t, w_prev):
                return np.zeros(data.n_assets + 1)

        @reg.register("ucrp_ok")
        class OkAgent(Agent):
            name = "Ok"
            stateless = True

            def act(self, data, t, w_prev):
                n = data.n_assets + 1
                return np.full(n, 1.0 / n)

        service = PortfolioService(registry=reg)
        service.register_market("m", market)
        service.create_session(
            "good", "ucrp_ok", market="m", observation=config.observation
        )
        service.create_session(
            "bad", "zero", market="m", observation=config.observation
        )
        before = service.describe_session("good").next_t
        with pytest.raises(ValueError, match="sum to"):
            service.rebalance_many(
                [RebalanceRequest("good"), RebalanceRequest("bad")]
            )
        # The healthy session is untouched even though it was decided
        # earlier in the same batch.
        assert service.describe_session("good").next_t == before
        assert service.describe_session("good").decisions == 0

    def test_short_decide_batch_rejected_atomically(self, config, market):
        reg = StrategyRegistry()

        @reg.register("short")
        class ShortBatch(Agent):
            name = "Short"
            stateless = True

            def act(self, data, t, w_prev):
                n = data.n_assets + 1
                return np.full(n, 1.0 / n)

            def decide_batch(self, states):
                full = np.stack([self.act(d, t, w) for d, t, w in states])
                return full[:-1]  # off-by-one user bug

        service = PortfolioService(registry=reg)
        service.register_market("m", market)
        for sid in ("a", "b"):
            service.create_session(
                sid, "short", market="m", observation=config.observation
            )
        before = {
            sid: service.describe_session(sid).next_t for sid in ("a", "b")
        }
        with pytest.raises(ValueError, match="decide_batch"):
            service.rebalance_many(
                [RebalanceRequest("a"), RebalanceRequest("b")]
            )
        for sid in ("a", "b"):
            assert service.describe_session(sid).next_t == before[sid]
            assert service.describe_session(sid).decisions == 0

    def test_aborted_batch_rolls_back_stateful_agents(self, config, market):
        # A stateful strategy's internal state (ONS Hessian etc.) is
        # mutated inside act(); an aborted batch must restore it, or the
        # next decision silently diverges.
        reg = StrategyRegistry()

        @reg.register("zero")
        class ZeroAgent(Agent):
            name = "Zero"
            stateless = False  # served in the singles phase, after ONS acts

            def act(self, data, t, w_prev):
                return np.zeros(data.n_assets + 1)

        reg.register("ons", ONS)

        def build(with_failure):
            service = PortfolioService(registry=reg)
            service.register_market("m", market)
            service.create_session(
                "s", "ons", market="m", observation=config.observation
            )
            for _ in range(3):
                service.rebalance("s")
            if with_failure:
                service.create_session(
                    "bad", "zero", market="m", observation=config.observation
                )
                first = config.observation.first_decision_index()
                with pytest.raises(ValueError):
                    service.rebalance_many(
                        [
                            RebalanceRequest("s", t=first + 40),
                            RebalanceRequest("bad"),
                        ]
                    )
            return service

        poked, clean = build(True), build(False)
        for _ in range(2):
            x, y = poked.rebalance("s"), clean.rebalance("s")
            assert x.t == y.t
            np.testing.assert_array_equal(x.weights, y.weights)

    def test_explicit_t_and_range_checks(self, config, market, sdp_params):
        service = make_service(config, market)
        service.create_session("a", "sdp", params=sdp_params, market="m")
        first = config.observation.first_decision_index()
        r = service.rebalance(RebalanceRequest("a", t=first + 3))
        assert r.t == first + 3
        assert service.describe_session("a").next_t == first + 4
        with pytest.raises(ValueError, match="outside"):
            service.rebalance(RebalanceRequest("a", t=market.n_periods))
        with pytest.raises(ValueError, match="outside"):
            service.rebalance(RebalanceRequest("a", t=0))


class TestCheckpoint:
    def test_save_load_identical_decisions(
        self, config, market, sdp_params, tmp_path
    ):
        service = make_service(config, market)
        service.create_session("a", "sdp", params=sdp_params, market="m")
        service.create_session("b", "ons", market="m")
        requests = [RebalanceRequest("a"), RebalanceRequest("b")]
        for _ in range(4):
            service.rebalance_many(requests)

        service.save_checkpoint(tmp_path / "ckpt")
        restored = PortfolioService.load_checkpoint(tmp_path / "ckpt")
        assert restored.session_ids() == service.session_ids()
        for _ in range(3):
            original = service.rebalance_many(requests)
            reloaded = restored.rebalance_many(requests)
            for x, y in zip(original, reloaded):
                assert x.t == y.t
                np.testing.assert_array_equal(x.weights, y.weights)

    def test_same_spec_stateful_sessions_stay_private_after_load(
        self, config, market, tmp_path
    ):
        # Two same-spec ONS sessions must not collapse onto one mutable
        # agent through a checkpoint round-trip — including a second
        # save/load cycle (the restored sessions must keep per-instance
        # agent keys).
        service = make_service(config, market)
        service.create_session("a", "ons", market="m")
        service.create_session("b", "ons", market="m")
        requests = [RebalanceRequest("a"), RebalanceRequest("b")]
        for _ in range(2):
            service.rebalance_many(requests)
        service.save_checkpoint(tmp_path / "ckpt")
        restored = PortfolioService.load_checkpoint(tmp_path / "ckpt")
        assert (
            restored._sessions["a"].agent is not restored._sessions["b"].agent
        )
        restored.save_checkpoint(tmp_path / "ckpt2")
        twice = PortfolioService.load_checkpoint(tmp_path / "ckpt2")
        assert twice._sessions["a"].agent is not twice._sessions["b"].agent
        for _ in range(2):
            original = service.rebalance_many(requests)
            reloaded = restored.rebalance_many(requests)
            again = twice.rebalance_many(requests)
            for x, y, z in zip(original, reloaded, again):
                np.testing.assert_array_equal(x.weights, y.weights)
                np.testing.assert_array_equal(x.weights, z.weights)

    def test_seeked_classical_session_restores_identically(
        self, config, market, tmp_path
    ):
        # A classical session whose first request seeks past the default
        # start must re-anchor its relatives window at the seeked index
        # after a checkpoint round-trip.
        service = make_service(config, market)
        service.create_session(
            "s", "ons", market="m", observation=config.observation
        )
        first = config.observation.first_decision_index()
        service.rebalance(RebalanceRequest("s", t=first + 10))
        for _ in range(2):
            service.rebalance("s")
        service.save_checkpoint(tmp_path / "ckpt")
        restored = PortfolioService.load_checkpoint(tmp_path / "ckpt")
        for _ in range(3):
            x = service.rebalance("s")
            y = restored.rebalance("s")
            assert x.t == y.t
            np.testing.assert_array_equal(x.weights, y.weights)

    def test_restored_sessions_share_agents(
        self, config, market, sdp_params, tmp_path
    ):
        service = make_service(config, market)
        service.create_session("a", "sdp", params=sdp_params, market="m")
        service.create_session("b", "sdp", params=sdp_params, market="m")
        service.save_checkpoint(tmp_path / "ckpt")
        restored = PortfolioService.load_checkpoint(tmp_path / "ckpt")
        assert restored._sessions["a"].agent is restored._sessions["b"].agent

    def test_weights_stored_once_per_agent(
        self, config, market, sdp_params, tmp_path
    ):
        # Two sessions sharing one agent write one agent blob; a private
        # learned agent (prebuilt, no sharing key) keeps its own file.
        service = make_service(config, market)
        service.create_session("a", "sdp", params=sdp_params, market="m")
        service.create_session("b", "sdp", params=sdp_params, market="m")
        private = registry.create("sdp", n_assets=market.n_assets, **sdp_params)
        service.create_session(
            "p", "sdp", params=sdp_params, market="m", agent=private
        )
        path = service.save_checkpoint(tmp_path / "ckpt")
        assert len(list((path / "agents").glob("*.npz"))) == 1
        assert (path / "sessions" / "p" / "weights.npz").exists()
        assert not (path / "sessions" / "a" / "weights.npz").exists()
        assert json.loads((path / "service.json").read_text()) == {
            "commission": config.commission
        }

        # The blob is read once per store and handed out read-only.
        store = SessionStateStore(path)
        wa = store.load_session("a")["weights"]
        wb = store.load_session("b")["weights"]
        assert all(wa[k] is wb[k] for k in wa)
        assert not any(v.flags.writeable for v in wa.values())

        restored = PortfolioService.load_checkpoint(path)
        assert restored._sessions["p"].agent is not restored._sessions["a"].agent
        requests = [RebalanceRequest(s) for s in ("a", "b", "p")]
        for x, y in zip(
            service.rebalance_many(requests), restored.rebalance_many(requests)
        ):
            assert x.to_json_dict() == y.to_json_dict()

    def test_session_dir_weights_still_load(
        self, config, market, sdp_params, tmp_path
    ):
        # Stores written by earlier versions name every session's weights
        # "weights.npz" in the session's own directory, shared or not.
        service = make_service(config, market)
        service.create_session("a", "sdp", params=sdp_params, market="m")
        path = service.save_checkpoint(tmp_path / "ckpt")
        (blob,) = (path / "agents").glob("*.npz")
        blob.rename(path / "sessions" / "a" / "weights.npz")
        record_path = path / "sessions" / "a" / "state.json"
        record = json.loads(record_path.read_text())
        record["weights"] = "weights.npz"
        record_path.write_text(json.dumps(record))

        restored = PortfolioService.load_checkpoint(path)
        requests = [RebalanceRequest("a")]
        assert (
            service.rebalance_many(requests)[0].to_json_dict()
            == restored.rebalance_many(requests)[0].to_json_dict()
        )

    def test_resave_replaces_the_checkpoint(
        self, config, market, sdp_params, tmp_path
    ):
        # Every save writes a fresh directory, so nothing of an earlier
        # save survives into a later one: not a closed session, not its
        # inline market, and not the panel or private weights of an id
        # that was closed and then opened again.
        def private(seed):
            return registry.create(
                "sdp", n_assets=market.n_assets, **{**sdp_params, "seed": seed}
            )

        flipped = market.permute_assets(list(range(market.n_assets))[::-1])
        service = make_service(config, market)
        service.create_session("a", "ucrp", market="m")
        service.create_session("b", "ucrp", market="m")
        service.create_session("u", "sdp", params=sdp_params, data=market)
        service.create_session(
            "p", "sdp", params=sdp_params, market="m", agent=private(1)
        )
        service.save_checkpoint(tmp_path / "ckpt")
        for session_id in ("b", "u", "p"):
            service.close_session(session_id)
        service.create_session("u", "sdp", params=sdp_params, data=flipped)
        service.create_session(
            "p", "sdp", params=sdp_params, market="m", agent=private(2)
        )
        path = service.save_checkpoint(tmp_path / "ckpt")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt"]

        restored = PortfolioService.load_checkpoint(path)
        assert restored.session_ids() == ("a", "p", "u")
        assert restored.market_names() == service.market_names()
        requests = [RebalanceRequest(s) for s in ("a", "p", "u")]
        for x, y in zip(
            service.rebalance_many(requests), restored.rebalance_many(requests)
        ):
            assert x.to_json_dict() == y.to_json_dict()
        # The closed inline market is gone, so its id opens again.
        restored.close_session("u")
        restored.create_session("u", "ucrp", data=market)

    def test_sessionless_markets_survive_checkpoint(
        self, config, market, tmp_path
    ):
        service = make_service(config, market)  # registers "m", no sessions
        service.save_checkpoint(tmp_path / "ckpt")
        restored = PortfolioService.load_checkpoint(tmp_path / "ckpt")
        assert restored.market_names() == ("m",)
        restored.create_session("a", "ucrp", market="m")


class TestMicroBatcher:
    def test_concurrent_submits_all_served(self, config, market, sdp_params):
        service = make_service(config, market)
        sids = [f"s{i}" for i in range(6)]
        for sid in sids:
            service.create_session(sid, "sdp", params=sdp_params, market="m")
        batcher = MicroBatcher(service, max_batch=8, max_wait=0.05)

        first = config.observation.first_decision_index()
        with ThreadPoolExecutor(max_workers=6) as pool:
            for step in range(3):
                responses = list(
                    pool.map(
                        lambda sid: batcher.submit(RebalanceRequest(sid)), sids
                    )
                )
                assert sorted(r.session_id for r in responses) == sids
                assert all(r.t == first + step for r in responses)
        assert service.stats.requests_served == 18

    def test_submit_propagates_errors(self, config, market):
        service = make_service(config, market)
        batcher = MicroBatcher(service, max_batch=4, max_wait=0.01)
        with pytest.raises(KeyError, match="unknown session"):
            batcher.submit(RebalanceRequest("ghost"))


@contextlib.contextmanager
def serving(service, **kwargs):
    """An in-process HTTP front on a free local port; yields the port."""
    from repro.serving.http import serve

    try:
        server = serve(service, port=0, **kwargs)
    except (OSError, PermissionError) as exc:
        pytest.skip(f"cannot bind a local socket here: {exc}")
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()


class TestHTTP:
    def test_endpoint_round_trip(self, config, market, sdp_params):
        service = make_service(config, market)
        service.create_session("alice", "sdp", params=sdp_params, market="m")
        with serving(service, max_wait=0.01) as port:
            base = "http://127.0.0.1:%d" % port

            def post(path, payload):
                request = urllib.request.Request(
                    base + path,
                    data=json.dumps(payload).encode(),
                    headers={"Content-Type": "application/json"},
                    method="POST",
                )
                return json.loads(urllib.request.urlopen(request).read())

            health = json.loads(
                urllib.request.urlopen(base + "/healthz").read()
            )
            assert health["status"] == "ok"

            created = post(
                "/sessions",
                {"session_id": "carol", "strategy": "ucrp", "market": "m"},
            )
            assert created["session_id"] == "carol"

            # Tagged config objects are decodable over the wire.
            tagged = post(
                "/sessions",
                {
                    "session_id": "dave",
                    "strategy": "jiang",
                    "market": "m",
                    "params": {
                        "observation": {
                            "__type__": "ObservationConfig",
                            "window": 6,
                            "stride": 2,
                        }
                    },
                },
            )
            assert tagged["session_id"] == "dave"
            served_dave = post("/rebalance", {"session_id": "dave"})
            assert np.isclose(sum(served_dave["weights"]), 1.0)

            first = config.observation.first_decision_index()
            served = post("/rebalance", {"session_id": "alice"})
            assert served["t"] == first
            assert np.isclose(sum(served["weights"]), 1.0)

            batch = post(
                "/rebalance/batch",
                {"requests": [{"session_id": "alice"}, {"session_id": "carol"}]},
            )
            assert [r["session_id"] for r in batch["responses"]] == [
                "alice", "carol",
            ]

            listed = json.loads(
                urllib.request.urlopen(base + "/sessions").read()
            )
            assert {s["session_id"] for s in listed["sessions"]} == {
                "alice", "carol", "dave",
            }

            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post("/rebalance", {"session_id": "ghost"})
            assert excinfo.value.code == 400

    def test_internal_error_returns_json_500(self, config, market):
        reg = StrategyRegistry()

        @reg.register("boom")
        class Boom(Agent):
            name = "Boom"
            stateless = True

            def act(self, data, t, w_prev):
                raise RuntimeError("kaput")

        service = PortfolioService(registry=reg)
        service.register_market("m", market)
        service.create_session(
            "x", "boom", market="m", observation=config.observation
        )
        with serving(service, micro_batch=False) as port:
            request = urllib.request.Request(
                "http://127.0.0.1:%d/rebalance" % port,
                data=json.dumps({"session_id": "x"}).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 500
            assert "kaput" in json.loads(excinfo.value.read())["error"]

    def test_keep_alive_requests_do_not_wait_on_delayed_ack(
        self, config, market
    ):
        # Headers and body sent apart on a Nagle socket cost each
        # keep-alive request a delayed ACK (~40 ms); one send on a
        # TCP_NODELAY socket answers in about a millisecond.  No
        # micro-batcher, so its 5 ms window stays out of the timing.
        service = make_service(config, market)
        service.create_session("u", "ucrp", market="m")
        with serving(service, micro_batch=False) as port:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            try:
                for method, path, body in (
                    ("GET", "/healthz", None),
                    ("POST", "/rebalance", json.dumps({"session_id": "u"})),
                ):
                    elapsed = []
                    for _ in range(20):
                        t0 = time.perf_counter()
                        conn.request(method, path, body=body)
                        response = conn.getresponse()
                        response.read()
                        elapsed.append(time.perf_counter() - t0)
                        assert response.status == 200
                    assert statistics.median(elapsed) < 0.020, (path, elapsed)
            finally:
                conn.close()

    @pytest.mark.parametrize("length", [b"-5", b"abc"])
    def test_bad_content_length_answers_once_and_closes(
        self, config, market, length
    ):
        service = make_service(config, market)
        service.create_session("u", "ucrp", market="m")
        with serving(service) as port:
            with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
                # A valid request pipelined behind the bad one must not
                # be answered: the bad body's extent is unknown, so the
                # stream after it cannot be trusted.
                sock.sendall(
                    b"POST /rebalance HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: " + length + b"\r\n\r\n"
                    b'{"session_id": "u"}'
                    b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
                )
                reply = b""
                while chunk := sock.recv(65536):
                    reply += chunk
        assert reply.count(b"HTTP/1.1 ") == 1, reply
        head, body = reply.split(b"\r\n\r\n", 1)
        assert head.startswith(b"HTTP/1.1 400 "), head
        assert b"Connection: close" in head
        assert json.loads(body) == {"error": "invalid Content-Length"}
        # The rejected request never reached the service.
        assert service.describe_session("u").decisions == 0

    def test_query_string_does_not_change_the_route(self, config, market):
        service = make_service(config, market)
        service.create_session("u", "ucrp", market="m")
        with serving(service) as port:
            base = "http://127.0.0.1:%d" % port
            health = json.loads(
                urllib.request.urlopen(base + "/healthz?probe=1").read()
            )
            assert health["status"] == "ok"
            request = urllib.request.Request(
                base + "/rebalance?probe=1",
                data=json.dumps({"session_id": "u"}).encode(),
                method="POST",
            )
            served = json.loads(urllib.request.urlopen(request).read())
            assert served["session_id"] == "u"
            # The request metrics label the same route the handler
            # served.  The handler counts a request after its response
            # is on the wire, so wait (bounded) for the POST's count.
            wanted = [
                f'repro_http_requests_total{{method="{method}",route="{route}"}} 1'
                for method, route in (("GET", "/healthz"), ("POST", "/rebalance"))
            ]
            deadline = time.monotonic() + 5.0
            while True:
                metrics = urllib.request.urlopen(base + "/metrics").read().decode()
                if all(series in metrics for series in wanted):
                    break
                assert time.monotonic() < deadline, metrics
                time.sleep(0.01)


class TestPanelGroupedPrepare:
    """A round's sessions sharing a panel get one stacked prepare_states."""

    def _twin_panel(self, market):
        from repro.data import MarketData

        return MarketData(
            timestamps=market.timestamps,
            names=list(market.names),
            open=market.open,
            high=market.high,
            low=market.low,
            close=market.close,
            volume=market.volume,
            period_seconds=market.period_seconds,
        )

    def test_one_prepare_call_per_panel(self, config, market, sdp_params):
        service = make_service(config, market)
        service.register_market("m2", self._twin_panel(market))
        for sid, m in [("a", "m"), ("b", "m"), ("c", "m"), ("d", "m2"), ("e", "m2")]:
            service.create_session(sid, "sdp", params=sdp_params, market=m)

        agent = service._sessions["a"].agent
        assert all(
            service._sessions[s].agent is agent for s in "bcde"
        ), "identical specs must share one agent"

        calls = []
        orig = agent.prepare_states

        def counting(data, indices, w_prev):
            calls.append((id(data), len(np.atleast_1d(indices))))
            return orig(data, indices, w_prev)

        agent.prepare_states = counting
        try:
            responses = service.rebalance_many(
                [RebalanceRequest(s) for s in "abcde"]
            )
        finally:
            agent.prepare_states = orig

        # One stacked call per distinct panel, not one per session.
        assert len(calls) == 2
        assert sorted(n for _, n in calls) == [2, 3]
        assert service.stats.largest_batch == 5
        assert [r.session_id for r in responses] == list("abcde")

    def test_grouped_decisions_match_ungrouped(self, config, market, sdp_params):
        grouped = make_service(config, market)
        grouped.register_market("m2", self._twin_panel(market))
        single = make_service(config, market)
        single.register_market("m2", self._twin_panel(market))
        for sid, m in [("a", "m"), ("b", "m"), ("c", "m2")]:
            grouped.create_session(sid, "sdp", params=sdp_params, market=m)
            single.create_session(sid, "sdp", params=sdp_params, market=m)

        for _ in range(3):
            batched = grouped.rebalance_many(
                [RebalanceRequest(s) for s in "abc"]
            )
            solo = [single.rebalance(s) for s in "abc"]
            for x, y in zip(batched, solo):
                assert x.t == y.t
                assert np.array_equal(x.weights, y.weights)


class TestMicroBatcherSlotBookkeeping:
    def test_interrupt_mid_fallback_reports_committed_slots(self):
        from repro.serving.service import _Slot

        served = []

        class FakeService:
            def rebalance_many(self, requests):
                raise ValueError("force the individual fallback")

            def rebalance(self, request):
                if request.session_id == "boom":
                    raise KeyboardInterrupt()
                served.append(request.session_id)
                return f"ok:{request.session_id}"

        batcher = MicroBatcher(FakeService())
        batch = [
            (RebalanceRequest("a"), _Slot()),
            (RebalanceRequest("b"), _Slot()),
            (RebalanceRequest("boom"), _Slot()),
            (RebalanceRequest("late"), _Slot()),
        ]
        batcher._leader_active = True
        with pytest.raises(KeyboardInterrupt):
            batcher._flush(batch)

        slots = [s for _, s in batch]
        assert all(s.done for s in slots)
        # Slots whose decisions committed before the interrupt keep
        # their real responses (the old code marked them all failed).
        assert served == ["a", "b"]
        assert slots[0].response == "ok:a" and slots[0].error is None
        assert slots[1].response == "ok:b" and slots[1].error is None
        # The interrupted and the never-served slot report the interrupt.
        assert isinstance(slots[2].error, KeyboardInterrupt)
        assert isinstance(slots[3].error, KeyboardInterrupt)
        assert batcher._leader_active is False

    def test_fallback_isolates_bad_request(self, config, market, sdp_params):
        from repro.serving.service import _Slot

        service = make_service(config, market)
        service.create_session("good", "sdp", params=sdp_params, market="m")
        batcher = MicroBatcher(service)
        batch = [
            (RebalanceRequest("good"), _Slot()),
            (RebalanceRequest("ghost"), _Slot()),
        ]
        batcher._leader_active = True
        batcher._flush(batch)
        assert batch[0][1].response.session_id == "good"
        assert batch[0][1].error is None
        assert isinstance(batch[1][1].error, KeyError)


class TestExportImport:
    def test_shared_session_round_trip_continues_identically(
        self, config, market, sdp_params
    ):
        # export_session/import_session is the per-session unit the
        # multi-worker supervisor rehydrates through: an imported
        # session's next decisions must be bit-identical.
        service = make_service(config, market)
        service.create_session("s", "sdp", params=sdp_params, market="m")
        for _ in range(3):
            service.rebalance("s")
        payload = service.export_session("s")
        assert payload["shared"] and payload["weights"] is not None

        other = PortfolioService(commission=config.commission)
        other.register_market("m", market)
        info = other.import_session(payload)
        assert info.decisions == 3
        for _ in range(3):
            x = service.rebalance("s")
            y = other.rebalance("s")
            assert x.t == y.t
            np.testing.assert_array_equal(x.weights, y.weights)

    def test_imported_same_spec_sessions_share_one_agent(
        self, config, market, sdp_params
    ):
        service = make_service(config, market)
        service.create_session("a", "sdp", params=sdp_params, market="m")
        service.create_session("b", "sdp", params=sdp_params, market="m")
        other = PortfolioService(commission=config.commission)
        other.register_market("m", market)
        other.import_session(service.export_session("a"))
        other.import_session(service.export_session("b"))
        assert other._sessions["a"].agent is other._sessions["b"].agent

    def test_stateful_session_round_trip(self, config, market):
        service = make_service(config, market)
        service.create_session("s", "ons", market="m")
        for _ in range(2):
            service.rebalance("s")
        payload = service.export_session("s")
        assert not payload["shared"] and payload["agent_key"] is None

        other = PortfolioService(commission=config.commission)
        other.register_market("m", market)
        other.import_session(payload)
        for _ in range(3):
            x = service.rebalance("s")
            y = other.rebalance("s")
            assert x.t == y.t
            np.testing.assert_array_equal(x.weights, y.weights)

    def test_import_requires_registered_market(self, config, market):
        service = make_service(config, market)
        service.create_session("s", "ucrp", market="m")
        payload = service.export_session("s")
        empty = PortfolioService()
        with pytest.raises(KeyError, match="market"):
            empty.import_session(payload)
        # data= registers the panel inline and succeeds.
        empty.import_session(payload, data=market)
        assert empty.session_ids() == ("s",)
