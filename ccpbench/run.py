#!/usr/bin/env python3
"""Deployed-shape CCP benchmark.

Builds ccpbench from this checkout's sources, runs one workload in several
fresh processes (each sets the loop up from scratch, then measures an equal
share of --seconds in 50 ms sub-windows), checks every process's outputs,
and prints each metric by name with its unit, then one JSON result line:

    python3 ccpbench/run.py --workload loop64 --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics: rates and loop latencies are
medians over the sub-windows of all processes, setup_s and rss_mb medians
over the processes.
--trace 1 alternates untraced and traced processes and reports the
per-layer metrics of the traced ones, plus the tracing overhead.
Exits 1 after the result line if a correctness check failed, and exits
nonzero without a result line if the build or a process fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Fresh processes per run: set-up is timed once per process, so setup_s
# is a median over this many set-ups, and a process's speed varies with
# where the host places it (±30% between back-to-back processes here), so
# more of them steady every median. churn1m sets up a million flows
# (~9 s each), so it gets fewer.
PROCESSES = {"loop64": 10, "churn1m": 3, "heavy64_loss": 10}

END_TO_END = [
    ("acks_per_sec", "ACK/s"),
    ("loop_p50_us", "us"),
    ("loop_p99_us", "us"),
    ("churn_ops_per_sec", "ops/s"),
    ("setup_s", "s"),
    ("rss_mb", "MiB"),
]

PER_LAYER = [
    ("datapath.ack_ns", "ns"),
    ("datapath.demux_ns", "ns"),
    ("datapath.tick_ns_per_ack", "ns"),
    ("datapath.apply_ns", "ns"),
    ("datapath.create_ns", "ns"),
    ("datapath.close_ns", "ns"),
    ("datapath.cpu_ns_per_ack", "ns"),
    ("datapath.reports", "count"),
    ("datapath.urgents", "count"),
    ("datapath.frames_out", "count"),
    ("datapath.msgs_per_frame", "count"),
    ("datapath.reports_per_flow_rtt", "ratio"),
    ("datapath.index_grows", "count"),
    ("datapath.rehash_steps", "count"),
    ("datapath.batch_lanes_per_wave", "count"),
    ("datapath.simd_lane_share", "ratio"),
    ("ipc.dp_send_ns", "ns"),
    ("ipc.agent_send_ns", "ns"),
    ("ipc.dp_drain_ns", "ns"),
    ("ipc.bytes_per_frame", "bytes"),
    ("ipc.frames_refused", "count"),
    ("agent.handle_ns", "ns"),
    ("agent.queue_wait_us", "us"),
    ("agent.cmd_wait_us", "us"),
    ("agent.busy_share", "ratio"),
    ("agent.measurements", "count"),
    ("agent.urgents", "count"),
    ("agent.creates", "count"),
    ("agent.installs", "count"),
    ("lang.fold_ns", "ns"),
    ("algorithms.on_measurement_ns", "ns"),
    ("algorithms.on_urgent_ns", "ns"),
    ("agent.deferred_ops", "count"),
    ("resilience.fallbacks", "count"),
    ("failed_share", "ratio"),
    ("trace_overhead_pct", "%"),
    ("ledger_gap_pct", "%"),
    ("loop_ledger_gap_pct", "%"),
]

PROCESS_TIMEOUT_S = 150


def fail(msg):
    print(f"ccpbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no CCP sources under {ROOT}/src; run from a full checkout")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "ccpbench")
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", "4"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "ccpbench")


def run_process(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:.6f}", "--trace", "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} process timed out")
    lines = proc.stdout.strip().splitlines()
    # ccpbench exits 1, after its result line, when a check failed.
    if proc.returncode not in (0, 1) or not lines:
        fail(f"{workload} process exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if (proc.returncode == 0) != result["correct"]:
        fail(f"{workload} process exit code {proc.returncode} disagrees with its checks")
    return result


def median(results, key):
    return statistics.median(r[key] for r in results)


def pooled_median(results, key):
    """Median over the 50 ms sub-windows of every process."""
    return statistics.median(v for r in results for v in r["sub_" + key])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(PROCESSES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    binary = build()
    n = PROCESSES[args.workload]
    plain, traced = [], []
    if args.trace:
        # Alternate so drift on the machine hits both sides alike.
        share = args.seconds / (2 * n)
        for _ in range(n):
            plain.append(run_process(binary, args.workload, args.seed, share, False))
            traced.append(run_process(binary, args.workload, args.seed, share, True))
    else:
        share = args.seconds / n
        for _ in range(n):
            plain.append(run_process(binary, args.workload, args.seed, share, False))

    results = plain + traced
    attempted = sum(int(r["attempted"]) for r in results)
    failed = sum(int(r["failed"]) for r in results)
    correct = all(r["correct"] for r in results)
    for i, r in enumerate(results):
        if not r["correct"]:
            bad = [k for k in ("registries_agree", "reports_ok", "urgents_ok",
                               "installs_ok") if not r[k]]
            print(f"ccpbench: process {i} failed checks: {bad or ['failed > 0']}",
                  file=sys.stderr)

    metrics = {}
    if args.trace:
        for name, unit in PER_LAYER:
            if name in traced[0]:
                metrics[name] = {"value": median(traced, name), "unit": unit}
        metrics["failed_share"] = {"value": failed / attempted, "unit": "ratio"}
        plain_rate = pooled_median(plain, "acks_per_sec")
        traced_rate = pooled_median(traced, "acks_per_sec")
        metrics["trace_overhead_pct"] = {
            "value": 100.0 * (plain_rate - traced_rate) / plain_rate, "unit": "%"}
        metrics = {name: metrics[name] for name, _ in PER_LAYER}
    else:
        for name, unit in END_TO_END:
            pooled = "sub_" + name in plain[0]
            value = pooled_median(plain, name) if pooled else median(plain, name)
            metrics[name] = {"value": value, "unit": unit}

    samples = sum(int(r["loop_samples"]) for r in results)
    deferred = sum(int(r["agent.deferred_ops"]) for r in results)
    print(f"workload {args.workload} seed {args.seed}: {len(results)} processes, "
          f"{samples} loop samples, {deferred} deferred ops, "
          f"failed {failed}/{attempted}, correct {correct}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
