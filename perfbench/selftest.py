"""Benchmark self-test: ``python3 perfbench/run.py --self-test``.

Runs every workload in reduced mode twice — at seed 0 with tracing off and
at seed 1 with tracing on — each in its own process, and checks that

* the last output line has exactly the keys ``correct``, ``attempted``,
  ``failed`` and ``metrics``;
* every end-to-end (untraced) or per-layer (traced) metric named in
  ``BENCHMARK.json`` is emitted with the unit given there;
* no operation failed (``failed_ratio`` is 0);
* ``arena-warm`` executes no attack.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 600


def _problems(spec, result, trace):
    if set(result) != RESULT_KEYS:
        return [f"result keys {sorted(result)}"]
    problems = []
    if not result["attempted"] >= 1:
        problems.append("nothing attempted")
    if result["failed"] != 0 or result["correct"] is not True:
        problems.append(
            f"failed_ratio {result['failed']}/{result['attempted']} is not 0"
        )
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    emitted = result["metrics"]
    for metric in wanted:
        got = emitted.get(metric["name"])
        if got is None:
            problems.append(f"missing metric {metric['name']}")
        elif got.get("unit") != metric["unit"]:
            problems.append(
                f"{metric['name']}: unit {got.get('unit')!r}, "
                f"expected {metric['unit']!r}"
            )
        elif not isinstance(got.get("value"), (int, float)):
            problems.append(f"{metric['name']}: value {got.get('value')!r}")
    extra = sorted(set(emitted) - {metric["name"] for metric in wanted})
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {extra}")
    return problems


def self_test(root):
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    script = os.path.join(root, "perfbench", "run.py")
    failures = 0
    for workload in (entry["name"] for entry in spec["workloads"]):
        for seed, trace in ((0, 0), (1, 1)):
            command = [
                sys.executable, script, "--workload", workload,
                "--seed", str(seed), "--trace", str(trace), "--reduced",
            ]
            completed = subprocess.run(
                command, cwd=root, capture_output=True, text=True,
                timeout=RUN_TIMEOUT_S,
            )
            lines = completed.stdout.strip().splitlines()
            if completed.returncode != 0 or not lines:
                problems = [
                    f"exit {completed.returncode}: "
                    f"{completed.stderr.strip()[-2000:]}"
                ]
            else:
                result = json.loads(lines[-1])
                problems = _problems(spec, result, trace)
                if workload == "arena-warm" and trace:
                    calls = result["metrics"]["attacks.attack_many.calls"]
                    if calls["value"] != 0:
                        problems.append(f"warm run attacked: {calls}")
            label = f"{workload} seed={seed} trace={trace}"
            if problems:
                failures += 1
                print(f"FAIL {label}")
                for problem in problems:
                    print(f"  {problem}")
            else:
                print(f"ok   {label}")
    print("self-test " + ("passed" if not failures else f"failed ({failures})"))
    return 0 if not failures else 1
