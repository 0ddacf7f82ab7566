#!/usr/bin/env python3
"""Wall-clock benchmark of gTop-k S-SGD, end to end and layer by layer.

    python3 perfbench/run.py --workload gtopk-tcp --seed 1 --seconds 30 --trace 0

Run from the repository root. The first call builds the benchmark package
(perfbench/CMakeLists.txt: the libraries in src/, tools/gtopkrun and the
worker) under $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).

A run repeats whole training sessions of one workload for --seconds. Each
session is a fresh launch: the worker process (gtopk-inproc, P = 4 threads
over InProcTransport) or `gtopkrun -n 4` worker processes (gtopk-tcp,
dense-tcp: ReliableTransport over TcpTransport on loopback). Every session's
outputs are checked (see check_* below); a failed check or a timeout fails
the run and counts the session's steps as failed.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics:
it alternates traced and untraced sessions, splits the traced steps by layer
from the spans and reports the tracing overhead. The last line of stdout is
one JSON object {correct, attempted, failed, metrics}; progress goes to
stderr. See perfbench/README.md for the metric definitions.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

P = 4
# The paper's 1GbE alpha-beta constants (Fig. 8): alpha per message, beta per
# 4-byte element. The worker prices virtual time with the same pair.
ALPHA_S = 0.436e-3
BETA_S = 3.6e-8
# Leading steps of every session left out of the timings (first-touch of
# buffers, pools and caches).
WARMUP_STEPS = 2
# End-to-end step figures are taken per block of at least this many timed
# steps (so a block's 95th percentile has ten or more steps beyond it) and
# reported as the median over the run's blocks.
BLOCK_STEPS = 200
# A session that has not finished after this many seconds is killed and its
# steps count as failed.
SESSION_TIMEOUT_S = 60.0
# The last epoch's mean training loss must be below LOSS_BOUND and below
# LOSS_RATIO times the first epoch's.
LOSS_BOUND = 0.25
LOSS_RATIO = 0.5
# Traced runs: per-layer self times plus train.unattributed_ms must add up
# to the traced step time within this share of it.
SUM_TOLERANCE = 0.01

WORKLOADS = {
    # Alg. 4 on 4 threads; nn forward/backward, selection and the update
    # do the work while the transport idles.
    "gtopk-inproc": dict(algo="gtopk", transport="inproc",
                         hidden=[320, 64], batch=8, density=0.001,
                         epochs=5, iters=10),
    # Alg. 4 as 4 processes over the wire ARQ on TCP loopback; ~10 KB
    # messages and short compute, so per-message costs weigh.
    "gtopk-tcp": dict(algo="gtopk", transport="tcp",
                      hidden=[320, 64], batch=8, density=0.005,
                      epochs=5, iters=10),
    # Dense S-SGD (Eq. 5 ring allreduce) on the same stack and model;
    # ~265 KB chunks, so per-byte costs weigh.
    "dense-tcp": dict(algo="dense", transport="tcp",
                      hidden=[320, 64], batch=8, density=0.005,
                      epochs=5, iters=10),
}


def mlp_params(wl):
    """m of the worker's MLP, counted here from the layer shapes: the
    dataset's 3x16x16 images in, its 10 classes out."""
    dims = [3 * 16 * 16] + list(wl["hidden"]) + [10]
    return sum(a * b + b for a, b in zip(dims, dims[1:]))


def topk_k(wl):
    """k = round(rho * m), at least 1 (the trainer's rule)."""
    return max(1, int(math.floor(wl["density"] * mlp_params(wl) + 0.5)))


def expected_schedule(wl):
    """(messages, payload bytes) per step summed over all P ranks.

    gTop-k (Alg. 3): log2(P) merge rounds send P-1 sparse blocks in total and
    the binomial broadcast sends P-1 more; a block is a 16-byte header plus
    k (index, value) pairs. Dense ring allreduce: 2(P-1) steps in which every
    rank sends one chunk, together moving each element 2(P-1) times.
    """
    m = mlp_params(wl)
    if wl["algo"] == "gtopk":
        return 2 * (P - 1), 2 * (P - 1) * (16 + 8 * topk_k(wl))
    return 2 * (P - 1) * P, 2 * (P - 1) * 4 * m


def expected_modeled_comm_s(wl):
    """(closed form, tolerance) of rank 0's mean virtual aggregation time.

    gTop-k, Eq. 7 with the wire header: 2 log2(P) (alpha + (2k + 4) beta).
    Dense, Eq. 5: 2(P-1) alpha + 2(P-1)/P m beta; when P does not divide m
    the ring's chunks round to whole elements, worth at most one beta per
    message.
    """
    if wl["algo"] == "gtopk":
        return 2 * math.log2(P) * (ALPHA_S + (2 * topk_k(wl) + 4) * BETA_S), 1e-12
    m = mlp_params(wl)
    closed = 2 * (P - 1) * ALPHA_S + 2 * (P - 1) / P * m * BETA_S
    return closed, 2 * (P - 1) * BETA_S + 1e-12


# ---------------------------------------------------------------------------
# Output checks. Each returns a list of failure messages (empty = pass) and
# takes its expectation as an argument, so the self-test can feed it a wrong
# one.

def check_replicas(ranks, world):
    """All ranks report and end with bit-identical parameters."""
    if sorted(r["rank"] for r in ranks) != list(range(world)):
        return ["ranks reported: %s" % sorted(r["rank"] for r in ranks)]
    hashes = {r["params_fnv"] for r in ranks}
    if len(hashes) != 1:
        return ["replicas differ: %s" % sorted(hashes)]
    return []


def check_model_size(ranks, m):
    bad = [r["rank"] for r in ranks if r["m"] != m or r["params"] != m]
    return ["model size differs from m=%d on ranks %s" % (m, bad)] if bad else []


def check_schedule(ranks, iters, msgs, nbytes):
    """Per step away from epoch boundaries, summed over ranks."""
    steps = len(ranks[0]["step_msgs"])
    for s in range(steps):
        if s % iters == iters - 1:
            continue  # the epoch's loss allgather rides on this step
        got_m = sum(r["step_msgs"][s] for r in ranks)
        got_b = sum(r["step_bytes"][s] for r in ranks)
        if got_m != msgs or got_b != nbytes:
            return ["step %d: %d messages / %d bytes, expected %d / %d"
                    % (s, got_m, got_b, msgs, nbytes)]
    return []


def check_modeled(comm_virtual_s, expected_s, tol_s):
    if abs(comm_virtual_s - expected_s) > tol_s:
        return ["modeled comm %.9g s, closed form %.9g s" % (comm_virtual_s, expected_s)]
    return []


def check_loss(epoch_loss, epochs, bound, ratio):
    if len(epoch_loss) != epochs:
        return ["%d epoch losses, expected %d" % (len(epoch_loss), epochs)]
    first, last = epoch_loss[0], epoch_loss[-1]
    if not (last < bound and last < ratio * first):
        return ["last epoch loss %.4g not below %.4g and %.2f x first (%.4g)"
                % (last, bound, ratio, first)]
    return []


def check_recovery(ranks):
    """A fault-free wire run never drops a corrupt frame or reconnects."""
    errs = []
    for key in ("corrupt_dropped", "reconnects", "frames_rejected"):
        total = sum(r.get(key, 0) for r in ranks)
        if total:
            errs.append("%s = %d on a fault-free run" % (key, total))
    return errs


def check_sum(residual, tol):
    """Per-layer self times plus train.unattributed_ms cover the traced
    step: `residual` is their sum's relative distance from it."""
    if abs(residual) > tol:
        return ["sum check: layers add up to %+.3f%% of the traced step" % (residual * 100)]
    return []


def check_session(wl, ranks):
    m = mlp_params(wl)
    msgs, nbytes = expected_schedule(wl)
    modeled, tol = expected_modeled_comm_s(wl)
    rank0 = next(r for r in ranks if r["rank"] == 0)
    errs = check_replicas(ranks, P)
    if errs:
        return errs
    errs += check_model_size(ranks, m)
    errs += check_schedule(ranks, wl["iters"], msgs, nbytes)
    errs += check_modeled(rank0["comm_virtual_s"], modeled, tol)
    errs += check_loss(rank0["epoch_loss"], wl["epochs"], LOSS_BOUND, LOSS_RATIO)
    if wl["transport"] == "tcp":
        errs += check_recovery(ranks)
    return errs


# ---------------------------------------------------------------------------
# Build and sessions.

def build_dir(root):
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(root, base, "perfbench")


def build(root):
    """Configure once, then build the worker and gtopkrun (a no-op when
    up to date). Returns (worker, gtopkrun) paths; exits on failure."""
    bdir = build_dir(root)
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", bdir, "-j4", "--target",
                      "gtopk_perfbench_worker", "gtopkrun"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % " ".join(cmd))
                if cmd[1] == "-S":
                    # Leave no half-configured cache behind for the next try.
                    os.remove(os.path.join(bdir, "CMakeCache.txt"))
                sys.exit(2)
    return os.path.join(bdir, "gtopk_perfbench_worker"), os.path.join(bdir, "gtopkrun")


def worker_args(wl, seed, trace, out_dir):
    return ["--algo", wl["algo"], "--transport", wl["transport"],
            "--world", str(P), "--hidden", ",".join(str(h) for h in wl["hidden"]),
            "--batch", str(wl["batch"]), "--density", repr(wl["density"]),
            "--epochs", str(wl["epochs"]), "--iters", str(wl["iters"]),
            "--seed", str(seed), "--trace", "1" if trace else "0",
            "--out", out_dir]


def run_session(bins, wl, seed, trace, out_dir, timeout_s=SESSION_TIMEOUT_S):
    """One launch. Returns a dict with launch time, rank reports and, when
    anything went wrong, an 'error'."""
    worker, gtopkrun = bins
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    cmd = [worker] + worker_args(wl, seed, trace, out_dir)
    if wl["transport"] == "tcp":
        cmd = [gtopkrun, "-n", str(P), "--grace", "2", "--"] + cmd
    log_path = os.path.join(out_dir, "session.log")
    with open(log_path, "w") as log:
        t_launch = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            rc = proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            rc = None
        finally:
            # The session's process group goes down with it: whatever the
            # launcher left behind, a hung session, or all of it when this
            # run is interrupted.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    if rc is None:
        return {"error": "timed out after %.3g s" % timeout_s}
    if rc != 0:
        with open(log_path) as f:
            tail = f.read()[-800:]
        return {"error": "exit code %d: %s" % (rc, tail.strip())}
    ranks = []
    for r in range(P):
        try:
            with open(os.path.join(out_dir, "rank%d.json" % r)) as f:
                ranks.append(json.load(f))
        except (OSError, ValueError) as e:
            return {"error": "rank %d report: %s" % (r, e)}
    spans = None
    if trace:
        spans = read_spans(os.path.join(out_dir, "spans0.tsv"))
    return {"t_launch": t_launch, "ranks": ranks, "spans": spans}


def read_spans(path):
    spans = []
    with open(path) as f:
        for line in f:
            name, depth, b, e, nbytes, rnd = line.rstrip("\n").split("\t")
            spans.append((name, int(depth), float(b), float(e), int(nbytes), int(rnd)))
    return spans


# ---------------------------------------------------------------------------
# Metrics.

def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    s = sorted(values)
    return s[min(len(s) - 1, max(0, int(math.ceil(q * len(s))) - 1))]


def measured_steps(rank0):
    """(step index, host seconds) of every timed step of a session: from the
    batch call that opens it to the one that opens the next."""
    t = rank0["batch_t"]
    return [(i, t[i + 1] - t[i]) for i in range(WARMUP_STEPS, len(t) - 1)]


def step_blocks(sessions):
    """The run's timed steps in blocks of consecutive sessions holding at
    least BLOCK_STEPS steps each (a short remainder joins the last block)."""
    blocks, cur = [], []
    for s in sessions:
        cur += [dt for _, dt in measured_steps(s["rank0"])]
        if len(cur) >= BLOCK_STEPS:
            blocks.append(cur)
            cur = []
    if cur:
        if blocks:
            blocks[-1] += cur
        else:
            blocks.append(cur)
    return blocks


def end_to_end(wl, sessions):
    blocks = step_blocks(sessions)
    setups = [s["rank0"]["batch_t"][0] - s["t_launch"] for s in sessions]
    total_steps = sum(len(s["rank0"]["batch_t"]) for s in sessions)
    bytes_sent = sum(s["rank0"]["comm_bytes_sent"] for s in sessions)
    rss = [s["max_rss_kb"] / 1024.0 for s in sessions]

    def over_blocks(stat):
        # Median over blocks: a stretch of host contention that hits a
        # minority of the run's blocks does not move the figure.
        return statistics.median(stat(b) for b in blocks)

    return {
        # Mean, not median: TCP launches are two-moded (see README), and
        # the mean moves with the share of slow launches.
        "setup_s": (statistics.fmean(setups), "s"),
        "samples_per_s": (over_blocks(lambda b: P * wl["batch"] * len(b) / sum(b)),
                          "samples/s"),
        "step_ms_p50": (over_blocks(statistics.median) * 1e3, "ms"),
        "step_ms_p95": (over_blocks(lambda b: percentile(b, 0.95)) * 1e3, "ms"),
        "wire_bytes_per_step": (bytes_sent / total_steps, "bytes"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }


PARTITION = {
    "bench.data": "data.batch_ms",
    "bench.nn": "nn.fwd_bwd_ms",
    "compute": "train.compute_self_ms",
    "select": "sparse.select_ms",
    "aggregate": "train.aggregate_self_ms",
    "gtopk.allreduce": "core.allreduce_self_ms",
    "dense.allreduce": "core.allreduce_self_ms",
    "gtopk.merge_round": "core.gtopk_merge_self_ms",
    "gtopk.fold": "core.gtopk_merge_self_ms",
    "gtopk.broadcast": "core.gtopk_broadcast_self_ms",
    "allreduce.ring": "collectives.ring_self_ms",
    "update": "train.update_ms",
    # Whole spans: the transport decorators below them are comm's too.
    "send": "comm.send_ms",
    "recv_wait": "comm.recv_wait_ms",
}
PHASES = ("compute", "select", "aggregate", "update")
WHOLE = ("send", "recv_wait")


def span_tree(spans):
    """Nest one rank's spans (one thread: children lie inside parents).
    Returns nodes [name, begin, end, bytes, round, parent, child_time]."""
    nodes = [[n, b, e, nb, rnd, None, 0.0] for n, _, b, e, nb, rnd in spans]
    order = sorted(range(len(nodes)), key=lambda i: (nodes[i][1], -nodes[i][2]))
    stack = []
    for i in order:
        node = nodes[i]
        while stack and nodes[stack[-1]][2] <= node[1]:
            stack.pop()
        if stack:
            node[5] = stack[-1]
            nodes[stack[-1]][6] += node[2] - node[1]
        stack.append(i)
    return nodes


def layer_totals(session):
    """Per-layer totals over a traced session's timed steps."""
    rank0 = session["rank0"]
    timed = dict(measured_steps(rank0))
    nodes = span_tree(session["spans"])
    tot = {k: 0.0 for k in set(PARTITION.values())}
    tot.update({"other_ms": 0.0, "phases_ms": 0.0, "bcast_ms": 0.0,
                "rel_deliver_s": 0.0, "rel_deliver_n": 0, "rel_recv_s": 0.0,
                "rel_recv_n": 0, "tcp_deliver_s": 0.0, "tcp_deliver_n": 0})
    rel_fit, tcp_fit = [], []

    def step_of(i):
        while i is not None and nodes[i][0] != "iteration":
            i = nodes[i][5]
        return nodes[i][4] if i is not None else None

    def key_of(i):
        """Partition key: the outermost send/recv_wait ancestor absorbs
        everything below it; spans outside a phase are unattributed."""
        chain = []
        while i is not None and nodes[i][0] != "iteration":
            chain.append(nodes[i][0])
            i = nodes[i][5]
        chain.reverse()  # from the phase down
        if not chain or chain[0] not in PHASES:
            return None
        for name in chain:
            if name in WHOLE:
                return PARTITION[name]
        if chain[-1] == "broadcast" and "gtopk.broadcast" in chain:
            return "core.gtopk_broadcast_self_ms"
        return PARTITION.get(chain[-1], "other_ms")

    for i, (name, b, e, nbytes, _, parent, child) in enumerate(nodes):
        if step_of(i) not in timed:
            continue
        dur = e - b
        key = key_of(i)
        if key is not None:
            tot[key] += (dur - child) * 1e3
        if name in PHASES and nodes[parent][0] == "iteration":
            tot["phases_ms"] += dur * 1e3
        if name == "gtopk.broadcast":
            tot["bcast_ms"] += dur * 1e3
        if name == "bench.reliable.deliver":
            tot["rel_deliver_s"] += dur - child
            tot["rel_deliver_n"] += 1
            rel_fit.append((nbytes, dur - child))
        elif name == "bench.reliable.receive":
            tot["rel_recv_s"] += dur
            tot["rel_recv_n"] += 1
        elif name == "bench.tcp.deliver":
            tot["tcp_deliver_s"] += dur
            tot["tcp_deliver_n"] += 1
            tcp_fit.append((nbytes, dur))
    tot["steps"] = len(timed)
    tot["step_ms"] = sum(timed.values()) * 1e3
    return tot, rel_fit, tcp_fit


def alpha_beta(points):
    """Least-squares t = alpha + bytes * beta (Fig. 8's fit). Returns
    (alpha us, beta us/MB); zeros when the sizes do not span a line."""
    if len(points) < 2:
        return 0.0, 0.0
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        return 0.0, 0.0
    beta = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    return (my - beta * mx) * 1e6, beta * 1e6 * 1e6


def per_layer(traced, untraced):
    """Per-layer metrics of a --trace 1 run, plus its sum-check residual."""
    agg = {}
    rel_fit, tcp_fit = [], []
    for s in traced:
        tot, rf, tf = layer_totals(s)
        for k, v in tot.items():
            agg[k] = agg.get(k, 0) + v
        rel_fit += rf
        tcp_fit += tf
    steps = agg["steps"]
    out = {}
    for key in sorted(set(PARTITION.values())):
        out[key] = (agg[key] / steps, "ms/step")
    out["core.gtopk_broadcast_ms"] = (agg["bcast_ms"] / steps, "ms/step")
    unattributed = (agg["step_ms"] - agg["phases_ms"]) / steps
    out["train.unattributed_ms"] = (unattributed, "ms/step")
    out["train.traced_step_ms"] = (agg["step_ms"] / steps, "ms/step")
    parts = sum(agg[k] for k in set(PARTITION.values())) / steps + unattributed
    residual = (parts - agg["step_ms"] / steps) / (agg["step_ms"] / steps)

    r0 = [s["rank0"] for s in traced]
    total_steps = sum(len(r["step_msgs"]) for r in r0)
    out["comm.messages_per_step"] = (sum(r["outer_msgs"] for r in r0) / total_steps, "count")
    wire = all("inner_frames" in r for r in r0)

    def ratio(a, b):
        return a / b if b else 0.0

    out["comm.reliable.deliver_self_us"] = (
        ratio(agg["rel_deliver_s"], agg["rel_deliver_n"]) * 1e6 if wire else 0.0, "us/msg")
    out["comm.reliable.receive_us"] = (
        ratio(agg["rel_recv_s"], agg["rel_recv_n"]) * 1e6 if wire else 0.0, "us/msg")
    out["comm.reliable.poll_hit_ratio"] = (
        ratio(sum(r.get("inner_try_hits", 0) for r in r0),
              sum(r.get("inner_try_calls", 0) for r in r0)), "ratio")
    out["comm.reliable.ctrl_frames_per_step"] = (
        sum(r.get("inner_ctrl_frames", 0) for r in r0) / total_steps, "count")
    out["comm.reliable.retransmits_per_step"] = (
        sum(r.get("retransmits", 0) for r in r0) / total_steps, "count")
    out["comm.reliable.byte_overhead_ratio"] = (
        ratio(sum(r.get("inner_bytes", 0) for r in r0),
              sum(r["outer_bytes"] for r in r0)), "ratio")
    a, b = alpha_beta(rel_fit) if wire else (0.0, 0.0)
    out["comm.reliable.alpha_us"] = (a, "us")
    out["comm.reliable.beta_us_per_mb"] = (b, "us/MB")
    out["comm.tcp.deliver_us"] = (ratio(agg["tcp_deliver_s"], agg["tcp_deliver_n"]) * 1e6, "us/frame")
    header = r0[0].get("tcp_frame_header_bytes", 0)
    out["comm.tcp.bytes_per_step"] = (
        sum(r.get("inner_bytes", 0) + header * r.get("inner_frames", 0) for r in r0)
        / total_steps, "bytes")
    a, b = alpha_beta(tcp_fit) if wire else (0.0, 0.0)
    out["comm.tcp.alpha_us"] = (a, "us")
    out["comm.tcp.beta_us_per_mb"] = (b, "us/MB")
    # Mean for the same reason as setup_s: the bootstrap is two-moded.
    out["comm.tcp.bootstrap_s"] = (
        statistics.fmean(r.get("tcp_bootstrap_s", 0.0) for r in r0), "s")

    def p50(sessions):
        return statistics.median(dt for s in sessions for _, dt in measured_steps(s["rank0"]))

    out["obs.trace_overhead_pct"] = ((p50(traced) / p50(untraced) - 1.0) * 100.0, "%")
    return out, residual


# ---------------------------------------------------------------------------

def run(workload, seed, seconds, trace, root, bins=None, max_sessions=None,
        timeout_s=SESSION_TIMEOUT_S):
    """Run whole sessions for `seconds`; returns the result object."""
    wl = WORKLOADS[workload]
    bins = bins or build(root)
    scratch = os.path.join(build_dir(root), "sessions", "%s-%d" % (workload, os.getpid()))
    steps_per_session = wl["epochs"] * wl["iters"]
    attempted = failed = 0
    sessions = {False: [], True: []}
    errors = []
    start = time.monotonic()
    longest = 0.0
    i = 0
    # Whole sessions only: the next one starts if it fits in what is left of
    # the run (judged by the longest so far). Traced runs alternate traced
    # and untraced sessions; the untraced half is the tracing overhead's
    # baseline, so they run at least one of each.
    while (time.monotonic() - start + longest <= seconds or i < (2 if trace else 1)) and (
            max_sessions is None or i < max_sessions):
        traced = trace and i % 2 == 0
        t0 = time.monotonic()
        s = run_session(bins, wl, seed * 1000 + i, traced,
                        os.path.join(scratch, str(i)), timeout_s)
        longest = max(longest, time.monotonic() - t0)
        attempted += steps_per_session
        if "error" not in s:
            s["rank0"] = next(r for r in s["ranks"] if r["rank"] == 0)
            errs = check_session(wl, s["ranks"])
            if traced and not errs:
                dropped = s["rank0"].get("spans_dropped", 0)
                if dropped:
                    errs.append("%d spans dropped" % dropped)
            if errs:
                s["error"] = "; ".join(errs)
        if "error" in s:
            failed += steps_per_session
            errors.append("session %d: %s" % (i, s["error"]))
            sys.stderr.write("perfbench: %s session %d FAILED: %s\n"
                             % (workload, i, s["error"]))
        else:
            s["max_rss_kb"] = max(r["maxrss_kb"] for r in s.pop("ranks"))
            sessions[traced].append(s)
            sys.stderr.write("perfbench: %s session %d ok (%s)\n"
                             % (workload, i, "traced" if traced else "untraced"))
        i += 1
    shutil.rmtree(scratch, ignore_errors=True)

    metrics = {}
    if trace and sessions[True] and sessions[False]:
        metrics, residual = per_layer(sessions[True], sessions[False])
        sys.stderr.write("perfbench: layers add up to the traced step %+.4f%%\n"
                         % (residual * 100))
        errors += check_sum(residual, SUM_TOLERANCE)
    elif not trace and sessions[False]:
        metrics = end_to_end(wl, sessions[False])
    correct = not errors
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "errors": errors,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # SIGTERM unwinds like ^C, so the running session's group is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = os.getcwd()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    for e in result.pop("errors"):
        sys.stderr.write("perfbench: check failed: %s\n" % e)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
