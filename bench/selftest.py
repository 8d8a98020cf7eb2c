"""Self-tests of the benchmark; run from the root of the checkout:

    python3 bench/selftest.py

Checks that inputs follow the seed, that the one benchmark command prints
every metric BENCHMARK.json names with its unit, on every workload, and that
the traced and the untraced run report the same digits_min and pass_frac.
Takes a few minutes: it runs each workload twice with short runs.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402


def check_inputs_follow_seed():
    for wl in WORKLOADS.values():
        assert repr(wl.items(3)) == repr(wl.items(3)), f"{wl.name}: same seed, other inputs"
        assert repr(wl.items(3)) != repr(wl.items(4)), f"{wl.name}: other seed, same inputs"


def run(workload, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout + proc.stderr
    return lines[:-1], result


def check_metrics_printed(spec, workload, trace, lines, result):
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected, f"{workload} trace {trace}: {sorted(set(got) ^ set(expected))}"
    for name, unit in expected.items():
        pattern = rf"^{re.escape(name)} = \S+ {re.escape(unit)}\b"
        assert any(re.match(pattern, line) for line in lines), f"{name} not printed"


def traced_and_untraced(lines):
    """{metric: (traced, untraced)} from the notes of a --trace 1 run."""
    found = {}
    for line in lines:
        m = re.match(r"^\s*(digits_min|pass_frac): (\S+) .*traced, (\S+) untraced", line)
        if m:
            found[m.group(1)] = (float(m.group(2)), float(m.group(3)))
    return found


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    check_inputs_follow_seed()
    print("inputs follow the seed: ok")
    for workload in WORKLOADS:
        plain_lines, plain = run(workload, 0)
        check_metrics_printed(spec, workload, 0, plain_lines, plain)
        traced_lines, traced = run(workload, 1)
        check_metrics_printed(spec, workload, 1, traced_lines, traced)
        pairs = traced_and_untraced(traced_lines)
        assert set(pairs) == {"digits_min", "pass_frac"}, traced_lines
        for name, (with_trace, without) in pairs.items():
            assert with_trace == without, f"{workload}: {name} {with_trace} != {without}"
            # both runs make whole passes over the same inputs
            assert with_trace == plain["metrics"][name]["value"], f"{workload}: {name}"
        print(f"{workload}: metrics printed, traced accuracy equals untraced: ok")
    print("all self-tests passed")


if __name__ == "__main__":
    main()
