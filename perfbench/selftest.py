#!/usr/bin/env python3
"""Self-test of the benchmark and its output checks.

    python3 perfbench/selftest.py

Run from the repository root (it builds like run.py). For every workload it
runs one traced and one untraced session with every check on and requires
them to pass and to yield every metric BENCHMARK.json names. Then it feeds
each check a deliberately wrong expectation, or a doctored observation, and
requires the check to fail. Finally a session run under a too-short timeout
must be killed and counted as failed steps. Exit code 0 when all hold.
"""

import copy
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

failures = []


def expect(cond, what):
    sys.stderr.write("selftest: %s %s\n" % ("ok  " if cond else "FAIL", what))
    if not cond:
        failures.append(what)


def must_fail(errs, what):
    expect(bool(errs), "rejects " + what)


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    layer_names = {m["name"] for m in spec["per_layer"]}
    bins = run.build(root)
    scratch = os.path.join(run.build_dir(root), "selftest")

    for name, wl in run.WORKLOADS.items():
        traced = run.run_session(bins, wl, 11, True, os.path.join(scratch, name + "-t"))
        plain = run.run_session(bins, wl, 12, False, os.path.join(scratch, name + "-u"))
        expect("error" not in traced and "error" not in plain,
               "%s sessions complete: %s" % (name, traced.get("error") or plain.get("error")))
        if "error" in traced or "error" in plain:
            continue
        ranks = traced["ranks"]
        expect(run.check_session(wl, ranks) == [], name + " passes every check")
        expect(run.check_session(wl, plain["ranks"]) == [], name + " untraced passes")
        for s in (traced, plain):
            s["rank0"] = next(r for r in s["ranks"] if r["rank"] == 0)
            s["max_rss_kb"] = max(r["maxrss_kb"] for r in s["ranks"])
        e2e = run.end_to_end(wl, [plain])
        layers, residual = run.per_layer([traced], [plain])
        expect(set(e2e) == e2e_names, name + " reports every end-to-end metric")
        expect(set(layers) == layer_names, name + " reports every per-layer metric")
        expect(run.check_sum(residual, run.SUM_TOLERANCE) == [], name + " passes the sum check")

        # Wrong expectations and doctored observations.
        m = run.mlp_params(wl)
        msgs, nbytes = run.expected_schedule(wl)
        modeled, tol = run.expected_modeled_comm_s(wl)
        rank0 = traced["rank0"]
        bad = copy.deepcopy(ranks)
        bad[2]["params_fnv"] = "0"
        must_fail(run.check_replicas(bad, run.P), name + " a diverged replica")
        must_fail(run.check_replicas(ranks[:-1], run.P), name + " a missing rank")
        must_fail(run.check_model_size(ranks, m + 1), name + " a wrong m")
        must_fail(run.check_schedule(ranks, wl["iters"], msgs + 1, nbytes),
                  name + " a wrong message count")
        must_fail(run.check_schedule(ranks, wl["iters"], msgs, nbytes + 8),
                  name + " a wrong byte count")
        must_fail(run.check_modeled(rank0["comm_virtual_s"], modeled + 2 * tol + 1e-9, tol),
                  name + " a wrong closed form")
        must_fail(run.check_loss(rank0["epoch_loss"], wl["epochs"], 0.0, run.LOSS_RATIO),
                  name + " a loss bound of 0")
        must_fail(run.check_loss(rank0["epoch_loss"][::-1], wl["epochs"], run.LOSS_BOUND,
                                 run.LOSS_RATIO), name + " a rising loss")
        if wl["transport"] == "tcp":
            for key in ("corrupt_dropped", "reconnects", "frames_rejected"):
                bad = copy.deepcopy(ranks)
                bad[1][key] = 1
                must_fail(run.check_recovery(bad), "%s a run with %s" % (name, key))
        # An unmapped span inside a phase leaves a hole in the layer sum.
        doctored = dict(traced)
        spans = list(traced["spans"])
        for i, sp in enumerate(spans):
            if sp[0] == "compute":
                spans.append(("bench.unmapped", sp[1] + 1, sp[2], sp[2] + 0.5 * (sp[3] - sp[2]), -1, -1))
        doctored["spans"] = spans
        _, bad_residual = run.per_layer([doctored], [plain])
        must_fail(run.check_sum(bad_residual, run.SUM_TOLERANCE), name + " a hole in the layer sum")

    # A hung session is killed at its timeout and fails its steps.
    wl_name = "gtopk-tcp"
    res = run.run(wl_name, 1, 0, False, root, bins=bins, max_sessions=1, timeout_s=0.05)
    steps = run.WORKLOADS[wl_name]["epochs"] * run.WORKLOADS[wl_name]["iters"]
    expect(not res["correct"] and res["attempted"] == steps and res["failed"] == steps,
           "a timed-out session counts its steps as failed")

    if failures:
        sys.stderr.write("selftest: %d failure(s)\n" % len(failures))
        return 1
    sys.stderr.write("selftest: all checks behave\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
