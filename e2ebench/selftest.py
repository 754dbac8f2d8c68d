#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

    python3 e2ebench/selftest.py

Run from the repository root; takes about a minute once the benchmark is
built.  Checks that:

  * BENCHMARK.json is well formed and names the metrics the benchmark prints;
  * a short run of each workload passes its correctness check and prints
    every end-to-end metric (untraced) and every per-layer metric (traced),
    each with the unit BENCHMARK.json gives it, and that the traced ledger
    closes within 10% of the mean op latency;
  * with a fixed op count, rounds with the tracing decorators installed end
    in exactly the same state as rounds without them;
  * when the state the checks compare against is corrupted, each workload
    reports wrong results and exits 1;
  * in a directory holding only BENCHMARK.json and e2ebench/, the benchmark
    fails without printing a result.
"""

import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

failures = []


def check(cond, what):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        failures.append(what)


def run(args, cwd=ROOT, timeout=300):
    proc = subprocess.run([sys.executable, "e2ebench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    check(all(NAME.match(n) for n in names) and len(names) == len(set(names)),
          "metric and workload names are valid and unique")
    check(all(len(w["why"]) <= 200 and "\n" not in w["why"]
              for w in spec["workloads"]), "each why is one short line")
    check(all(UNIT.match(m["unit"])
              for m in spec["end_to_end"] + spec["per_layer"]), "units")
    check(all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]),
          "bounds within (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s" and
          setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s has unit s and the largest bound")
    return spec


def check_result(spec, workload, trace):
    proc, lines = run(["--workload", workload, "--seed", "7", "--seconds",
                       "2", "--trace", str(trace)])
    tag = "%s trace=%d" % (workload, trace)
    check(proc.returncode == 0 and len(lines) >= 2, tag + " exits 0")
    if proc.returncode != 0 or len(lines) < 2:
        print(proc.stderr[-2000:])
        return
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          tag + " result keys")
    check(result["correct"] is True and result["failed"] == 0 and
          result["attempted"] >= 1, tag + " passes its correctness check")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(got == units, tag + " prints every named metric with its unit")
    if trace:
        check(report["ledger_closed"] is True,
              tag + " ledger closes within 10%% (unaccounted %.3f)" %
              result["metrics"]["ledger.unaccounted_ratio"]["value"])
    else:
        check(all(v["value"] > 0 for v in result["metrics"].values()),
              tag + " end-to-end metrics are never 0")


def check_decorators_transparent(workload, ops):
    # Four rounds alternate untraced and traced; one client makes the
    # outcome independent of scheduling.
    proc, lines = run(["--workload", workload, "--seed", "11", "--seconds",
                       "1", "--trace", "1", "--clients", "1", "--ops",
                       str(ops)])
    tag = "%s decorators leave results unchanged" % workload
    if proc.returncode != 0 or len(lines) < 2:
        check(False, tag)
        print(proc.stderr[-2000:])
        return
    rounds = json.loads(lines[-2])["report"]["rounds"]
    digests = {r["traced"]: set() for r in rounds}
    for r in rounds:
        digests[r["traced"]].add(r["state_digest"])
    check(len(rounds) == 4 and digests[False] == digests[True] and
          len(digests[False]) == 1, tag)


def check_wrong_results_fail(workload):
    proc, lines = run(["--workload", workload, "--seed", "5", "--seconds",
                       "1", "--trace", "0", "--inject-wrong"])
    result = json.loads(lines[-1]) if lines else {}
    check(proc.returncode == 1 and result.get("correct") is False and
          result.get("failed", 0) >= 1,
          "%s wrong results fail the run and exit 1" % workload)


def check_bare_directory_fails():
    bare = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"), "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(ROOT, "e2ebench"),
                    os.path.join(bare, "e2ebench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "txn_zipf",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, env=env)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "without the sources the benchmark fails and prints no result")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    spec = load_spec()
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            check_result(spec, workload, trace)
    check_decorators_transparent("put_tcp_durable", 300)
    check_decorators_transparent("txn_zipf", 300)
    check_decorators_transparent("catchup_50us", 2)
    for workload in [w["name"] for w in spec["workloads"]]:
        check_wrong_results_fail(workload)
    check_bare_directory_fails()
    print("selftest: %s" % ("FAILED: %d checks" % len(failures)
                            if failures else "all checks passed"))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
