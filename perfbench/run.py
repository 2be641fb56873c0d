"""Repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload train --seed 0 --seconds 20 --trace 0

``--workload`` is one of ``train``, ``backtest``, ``serve_sessions``,
``serve_rounds`` or ``all``.  ``--trace 0`` measures the end-to-end
metrics untraced; ``--trace 1`` runs the workload twice, untraced and
then traced, and reports the per-layer breakdown, the tracing overhead
and the unattributed residual.  The last line of standard output is one
JSON object (``correct``, ``attempted``, ``failed``, ``metrics``); the
exit code is non-zero when any correctness check fails.  Spans and the
full report are written under ``perfbench/.out/``.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread everywhere (set before numpy loads; child processes
# inherit it), so every workload runs with the same thread setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, ".out")

WORKLOADS = ("train", "backtest", "serve_sessions", "serve_rounds")
E2E = (("setup_s", "s"), ("ops_per_s", "1/s"), ("peak_rss_mb", "MB"))
RESIDUAL_LIMIT = 0.05


def per_layer_names():
    """Every per-layer metric, in report order (``--trace 1`` prints all
    of them for every workload; 0 means the workload never ran that
    layer)."""
    names = ["op_ms", "trace.residual_share"]
    names += [f"trace.overhead.{name}" for name, _ in E2E]
    names += [f"e2e.latency_p{q}_ms" for q in (50, 90, 95)]
    names += ["data.generate_s"]
    for layer in ("agents.prepare_batch", "envs.sample", "envs.pvm", "envs.observations",
                  "agents.policy_fwd", "snn.encode", "agents.head_fwd", "agents.loss", "agents.head_bwd",
                  "autograd.optim", "agents.train_step"):
        names.append(f"{layer}.self_ms")
    for k in range(3):
        names += [f"snn.lif_fwd.L{k}.self_ms", f"snn.lif_bwd.L{k}.self_ms",
                  f"snn.lif_inf.L{k}.self_ms"]
    for layer in ("agents.decide", "envs.env_step", "envs.concat_states", "metrics.evaluate",
                  "envs.backtest"):
        names.append(f"{layer}.self_ms")
    names += ["serving.http.transport_ms", "serving.http.handler.self_ms",
              "serving.batcher.wait_ms", "serving.batcher.batch_size_mean",
              "serving.supervisor.self_ms", "serving.service.rebalance.self_ms",
              "serving.export.self_ms", "serving.store.save.self_ms",
              "serving.store.bytes_written", "serving.store.load.self_ms",
              "serving.import.self_ms", "serving.store.rehydrate_share",
              "risk.step.self_ms", "execution.estimate.self_ms"]
    names += [f"serving.failures.{n}" for n in ("http_4xx", "http_5xx", "timeouts",
                                                "worker_restarts", "failovers",
                                                "dispatch_retries")]
    names += ["loadgen.late_p95_ms"]
    names += [f"snn.spikes_per_decision.L{k}" for k in range(3)]
    names += ["snn.synops_per_decision", "loihi.nj_per_decision"]
    return names


def per_layer_unit(name: str) -> str:
    if name.startswith("trace.") or name.endswith(("_share", "batch_size_mean")):
        return "ratio"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_written"):
        return "bytes"
    if name.startswith("loihi."):
        return "nJ"
    return "count"


def _fail_without_program() -> None:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write("perfbench: src/repro not found; run from a repository checkout\n")
        sys.exit(2)


def run_workload(name: str, seed: int, seconds: float, tracer=None):
    import loadgen
    import workloads

    if name == "train":
        return workloads.run_train(seed, seconds, tracer)
    if name == "backtest":
        return workloads.run_backtest(seed, seconds, tracer)
    if name == "serve_sessions":
        return loadgen.run_serve_sessions(seed, seconds, tracer, OUT_DIR)
    return loadgen.run_serve_rounds(seed, seconds, tracer, OUT_DIR)


def layer_metrics(name: str, traced, untraced, calibration) -> dict:
    """Per-layer figures from a traced run, plus the accounting."""
    from tracing import NAME, breakdown

    spans = traced.spans
    table = breakdown(spans, traced.root, traced.n_ops, calibration)
    out = {key: 0.0 for key in per_layer_names()}
    out.update({k: v for k, v in traced.layer.items() if k in out})
    decisions = traced.n_ops * (64 if name == "serve_rounds" else 1)
    for span_name, row in table.items():
        key = f"{span_name}.self_ms"
        if key in out:
            out[key] = row["self_ms"]
    if name.startswith("serve"):
        out["serving.http.transport_ms"] = table.get(traced.root, {}).get("self_ms", 0.0)
        out["serving.batcher.wait_ms"] = table.get("serving.batcher", {}).get("self_ms", 0.0)
        sup = table.get("serving.supervisor", {"calls": 0, "count": 0.0})
        if sup["calls"]:
            out["serving.batcher.batch_size_mean"] = sup["count"] / sup["calls"]
        saves = table.get("serving.store.save", {"count": 0.0})
        out["serving.store.bytes_written"] = saves["count"] / traced.n_ops
        imports = table.get("serving.import", {"calls": 0})
        out["serving.store.rehydrate_share"] = imports["calls"] / decisions
        out["serving.failures.dispatch_retries"] = float(
            sum(1 for s in spans if s[NAME] == "serving.service.rebalance")
            - sum(1 for s in spans if s[NAME] == "serving.supervisor"))
    # Accounting.  The residual is the share of the harness-timed op that
    # no layer accounts for: the root span's own self time (on the serve
    # workloads that is the HTTP transport, a named layer) plus any time
    # outside the root span.
    out["op_ms"] = traced.op_seconds * 1e3 / traced.n_ops
    root = table.get(traced.root, {"self_ms": 0.0, "total_ms": 0.0})
    unattributed = 0.0 if name.startswith("serve") else root["self_ms"]
    outside_root = max(out["op_ms"] - root["total_ms"] - calibration[1] * 1e3, 0.0)
    out["trace.residual_share"] = (unattributed + outside_root) / out["op_ms"]
    for q in (50, 90, 95):
        out[f"e2e.latency_p{q}_ms"] = untraced.named[f"latency_p{q}_ms"]
    for metric, _ in E2E:
        base = untraced.e2e[metric]
        out[f"trace.overhead.{metric}"] = traced.e2e[metric] / base - 1.0 if base else 0.0
    return out


def environment(seed: int) -> dict:
    import platform

    import numpy as np

    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "nproc": os.cpu_count(), "cpu": cpu, "seed": seed}


def _print_result(name: str, result, env: dict) -> None:
    print(f"== {name} (seed {env['seed']}; python {env['python']}, numpy {env['numpy']}, "
          f"{env['blas']} x{env['blas_threads']} threads, nproc {env['nproc']}, {env['cpu']})")
    samples = result.samples
    for metric, unit in E2E:
        print(f"  {metric:<28} {result.e2e[metric]:>14.4f} {unit:<6} n={samples.get(metric, 1)}")
    for metric, value in result.named.items():
        n = f"n={samples['latency']}" if metric.startswith("latency") else ""
        print(f"  {metric:<28} {value:>14.4f}        {n}")
    print(f"  {'failed_share':<28} {result.failed / max(result.attempted, 1):>14.4f}"
          f"        n={result.attempted}")
    for key, value in sorted(result.layer.items()):
        print(f"  {key:<36} {value:.6g}")
    print(f"  digests: {' '.join(result.digests)}")
    for note in result.notes:
        print(f"  {note}")
    for phase in result.phases:
        print(f"  ladder {phase['rate']:>5.1f} req/s  p95 {phase['p95_ms']:8.2f} ms  "
              f"backlog {phase['backlog']:3d}  {'pass' if phase['passed'] else 'FAIL'}")


def _print_layers(name: str, layers: dict) -> None:
    print(f"== {name} traced breakdown (per op)")
    for key in per_layer_names():
        if layers[key]:
            print(f"  {key:<40} {layers[key]:>12.5g} {per_layer_unit(key)}")
    if layers["trace.residual_share"] > RESIDUAL_LIMIT:
        print(f"  WARNING: unattributed residual {layers['trace.residual_share']:.1%} "
              f"exceeds {RESIDUAL_LIMIT:.0%}")


def run_one(name: str, seed: int, seconds: float, trace: bool, env: dict):
    """Returns (result, metrics dict for the JSON line)."""
    if not trace:
        result = run_workload(name, seed, seconds)
        _print_result(name, result, env)
        metrics = {m: {"value": result.e2e[m], "unit": u} for m, u in E2E}
        return [result], metrics
    from tracing import Tracer, calibrate, install

    untraced = run_workload(name, seed, seconds / 2)
    _print_result(name, untraced, env)
    tracer = Tracer()
    calibration = calibrate(tracer)
    install(tracer)
    try:
        traced = run_workload(name, seed, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    layers = layer_metrics(name, traced, untraced, calibration)
    print(f"  tracer cost per span: {calibration[0] * 1e6:.2f} us inside, "
          f"{calibration[1] * 1e6:.2f} us outside (subtracted from self times)")
    _print_layers(name, layers)
    os.makedirs(OUT_DIR, exist_ok=True)
    import json

    with open(os.path.join(OUT_DIR, f"trace-{name}-seed{seed}.json"), "w") as handle:
        json.dump({"environment": env, "root": traced.root, "n_ops": traced.n_ops,
                   "calibration_s": calibration, "per_layer": layers,
                   "spans": traced.spans}, handle)
    traced.spans = []
    metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in layers.items()}
    return [untraced, traced], metrics


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _fail_without_program()
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    import json

    if args.workload == "all":
        return run_all(args)
    env = environment(args.seed)
    runs, metrics = run_one(args.workload, args.seed, args.seconds, bool(args.trace), env)
    line = {"correct": all(r.correct for r in runs),
            "attempted": sum(r.attempted for r in runs),
            "failed": sum(r.failed for r in runs),
            "metrics": metrics}
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as handle:
        json.dump({"environment": env, **line,
                   "runs": [{"e2e": r.e2e, "samples": r.samples, "named": r.named,
                             "layer": r.layer, "digests": r.digests, "notes": r.notes,
                             "ladder": r.phases} for r in runs]},
                  handle, indent=1)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def run_all(args) -> int:
    """Every workload in a process of its own (peak RSS is per workload),
    one after another; the last line merges their JSON lines."""
    import json
    import subprocess

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        try:
            line = json.loads(lines[-1])
        except ValueError:
            line = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        merged["correct"] = merged["correct"] and line["correct"] and done.returncode == 0
        merged["attempted"] += line["attempted"]
        merged["failed"] += line["failed"]
        merged["metrics"].update({f"{name}/{k}": v for k, v in line["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
