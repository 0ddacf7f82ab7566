#!/usr/bin/env python3
"""Regenerate the reference figures in perfbench/README.md.

    python3 perfbench/report.py [--runs 10] [--trace-runs 5] [--seconds 30]

Run from the repository root. Runs the benchmark command (run.py) --runs
times per workload untraced and --trace-runs times traced, each with its own
seed, then rewrites the README section between the reference markers with:
the machine fingerprint, the median and quartiles of every metric on every
workload, the launch-time split behind setup_s, and the per-layer alpha-beta
table fitted over the pooled messages of gtopk-tcp and dense-tcp next to the
paper's Fig. 8 constants.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

BEGIN = "<!-- reference:begin -->"
END = "<!-- reference:end -->"
# Launches slower than this lost the rendezvous race (connect_retry's 50 ms
# sleep); faster ones did not.
SLOW_LAUNCH_S = 0.045


def cli_runs(workload, seeds, seconds, trace):
    results = []
    for seed in seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True)
        res = json.loads(out.stdout.strip().splitlines()[-1])
        sys.stderr.write("report: %s trace=%d seed=%d correct=%s attempted=%d failed=%d\n"
                         % (workload, trace, seed, res["correct"], res["attempted"],
                            res["failed"]))
        results.append(res)
    return results


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def fmt(v):
    return "%.4g" % v


def metric_table(spec_metrics, results_by_wl):
    wls = list(results_by_wl)
    lines = ["| metric | unit | " + " | ".join(wls) + " |",
             "|---|---|" + "---|" * len(wls)]
    for m in spec_metrics:
        row = ["`%s`" % m["name"], m["unit"]]
        for wl in wls:
            vals = [r["metrics"][m["name"]]["value"] for r in results_by_wl[wl]
                    if m["name"] in r["metrics"]]
            if not vals:
                row.append("—")
                continue
            q1, med, q3 = quartiles(vals)
            row.append("%s [%s, %s]" % (fmt(med), fmt(q1), fmt(q3)))
        lines.append("| " + " | ".join(row) + " |")
    return lines


def fingerprint(root):
    cpu = "?"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = {}
    with open(os.path.join(run.build_dir(root), "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"(CMAKE_CXX_COMPILER|CMAKE_BUILD_TYPE):\w+=(.*)", line)
            if m:
                cache[m.group(1)] = m.group(2).strip()
    compiler = cache.get("CMAKE_CXX_COMPILER", "?")
    try:
        compiler = subprocess.run([compiler, "--version"], capture_output=True,
                                  text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    return ["- CPU: %s, %d cores (`nproc`)" % (cpu, os.cpu_count()),
            "- OS: %s %s" % (platform.system(), platform.release()),
            "- compiler: %s" % compiler,
            "- build type: %s (-O2 -g), Python %s" % (cache.get("CMAKE_BUILD_TYPE", "?"),
                                                       platform.python_version())]


def wire_sessions(root, bins, sessions):
    """Untraced launches (setup split) and traced ones (alpha-beta points)
    of both TCP workloads, run in this process."""
    setups, points = {}, {"rel": [], "tcp": []}
    scratch = os.path.join(run.build_dir(root), "report")
    for name in ("gtopk-tcp", "dense-tcp"):
        wl = run.WORKLOADS[name]
        setups[name] = []
        for i in range(sessions):
            traced = i % 4 == 0
            s = run.run_session(bins, wl, 5000 + i, traced, os.path.join(scratch, str(i)))
            if "error" in s:
                raise SystemExit("report: %s session failed: %s" % (name, s["error"]))
            s["rank0"] = next(r for r in s["ranks"] if r["rank"] == 0)
            if traced:
                _, rel_fit, tcp_fit = run.layer_totals(s)
                points["rel"] += rel_fit
                points["tcp"] += tcp_fit
            else:
                setups[name].append(s["rank0"]["batch_t"][0] - s["t_launch"])
    return setups, points


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace-runs", type=int, default=5)
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: BENCHMARK.json's run_seconds)")
    ap.add_argument("--launches", type=int, default=24,
                    help="launches per TCP workload for the setup split and fit")
    args = ap.parse_args()
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bins = run.build(root)

    e2e, layers = {}, {}
    for w in spec["workloads"]:
        e2e[w["name"]] = cli_runs(w["name"], range(1, args.runs + 1), seconds, 0)
    for w in spec["workloads"]:
        layers[w["name"]] = cli_runs(w["name"], range(101, 101 + args.trace_runs), seconds, 1)
    setups, points = wire_sessions(root, bins, args.launches)

    out = [BEGIN, "", "Generated by `python3 perfbench/report.py --runs %d --trace-runs %d`"
           " (run length %d s)." % (args.runs, args.trace_runs, seconds), "",
           "**Machine.**", ""] + fingerprint(root)
    out += ["", "**End-to-end metrics**, median [first quartile, third quartile] of %d"
            " untraced runs per workload (seeds 1..%d):" % (args.runs, args.runs), ""]
    out += metric_table(spec["end_to_end"], e2e)
    spreads = []
    for m in spec["end_to_end"]:
        worst = max((lambda v: (v[2] - v[0]) / v[1] if v[1] else 0.0)(
            quartiles([r["metrics"][m["name"]]["value"] for r in e2e[w]])) for w in e2e)
        spreads.append("`%s` %.3f (bound %.2f)" % (m["name"], worst, m["bound"]))
    out += ["", "Largest quartile spread over median, any workload: " + ", ".join(spreads) + "."]
    fails = {w: sum(r["failed"] for r in e2e[w] + layers[w]) for w in e2e}
    att = {w: sum(r["attempted"] for r in e2e[w] + layers[w]) for w in e2e}
    out += ["", "Failed steps: " + ", ".join("%s %d of %d" % (w, fails[w], att[w]) for w in e2e)
            + "."]
    out += ["", "**Per-layer metrics**, median [first quartile, third quartile] of %d"
            " traced runs per workload (seeds 101..%d); 0 where the layer does not run:"
            % (args.trace_runs, 100 + args.trace_runs), ""]
    out += metric_table(spec["per_layer"], layers)

    out += ["", "**Launch to first step** (`setup_s`) over %d untraced launches per"
            " TCP workload, split at %d ms:" % (len(next(iter(setups.values()))),
                                              SLOW_LAUNCH_S * 1e3), "",
            "| workload | fast launches | median fast | slow launches | median slow |",
            "|---|---|---|---|---|"]
    for name, vals in setups.items():
        fast = [v for v in vals if v < SLOW_LAUNCH_S]
        slow = [v for v in vals if v >= SLOW_LAUNCH_S]
        out.append("| %s | %d | %s | %d | %s |" % (
            name, len(fast), "%.1f ms" % (statistics.median(fast) * 1e3) if fast else "—",
            len(slow), "%.1f ms" % (statistics.median(slow) * 1e3) if slow else "—"))

    out += ["", "**Per-layer α-β** (least squares of each layer's self time per message"
            " against its size, pooled over the traced launches of gtopk-tcp and"
            " dense-tcp; MB = 10^6 bytes):", "",
            "| layer | messages | α (µs) | β (µs/MB) |", "|---|---|---|---|"]
    for key, label in (("rel", "`ReliableTransport::deliver` self"),
                       ("tcp", "`TcpTransport::deliver`")):
        a, b = run.alpha_beta(points[key])
        out.append("| %s | %d | %.2f | %.1f |" % (label, len(points[key]), a, b))
    # Fig. 8: alpha = 0.436 ms, beta = 3.6e-5 ms per 4-byte element.
    out.append("| paper Fig. 8, 1 GbE wire | — | %.0f | %.0f |"
               % (run.ALPHA_S * 1e6, run.BETA_S / 4 * 1e12))
    out += ["", END]

    readme = os.path.join(HERE, "README.md")
    with open(readme) as f:
        text = f.read()
    start, stop = text.index(BEGIN), text.index(END) + len(END)
    with open(readme, "w") as f:
        f.write(text[:start] + "\n".join(out) + text[stop:])
    sys.stderr.write("report: wrote %s\n" % readme)


if __name__ == "__main__":
    main()
