"""Self-test of the benchmark.

Runs every workload of BENCHMARK.json at reduced size (``--smoke``), untraced
and traced, and checks that the last line of each run is the result object
with every metric BENCHMARK.json names, in its unit.  Then checks that the
benchmark refuses to run in a directory holding only BENCHMARK.json and the
benchmark's own files.

    python3 bench/selftest.py

Run from the root of a checkout; exits non-zero if anything is off.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_result(line, specs):
    """Problems with one result line, against the metric specs it must carry."""
    result = json.loads(line)
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"keys {sorted(result)}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"attempted {result.get('attempted')!r}")
    if not isinstance(result.get("failed"), int):
        problems.append(f"failed {result.get('failed')!r}")
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in specs}
    if set(metrics) != set(want):
        problems.append(f"missing {sorted(set(want) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(want))}")
    for name, unit in want.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')!r}, want {unit!r}")
        if not (isinstance(m.get("value"), (int, float)) and math.isfinite(m["value"])):
            problems.append(f"{name}: value {m.get('value')!r}")
    return result, problems


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    command = [sys.executable, *spec["command"][1:]]
    failures = 0
    for w in spec["workloads"]:
        for trace, specs in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            argv = [*command, "--workload", w["name"], "--seed", "1", "--seconds", "1",
                    "--trace", str(trace), "--smoke"]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems = [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
            else:
                result, problems = check_result(lines[-1], specs)
                if trace == 0:
                    problems += [f"{m['name']} is 0" for m in specs
                                 if result["metrics"].get(m["name"], {}).get("value") == 0]
            failures += bool(problems)
            print(f"{w['name']} trace={trace}: {'; '.join(problems) or 'ok'}", flush=True)

    # a directory with the benchmark but no sources must be refused
    Path(".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=".bench_out") as bare:
        shutil.copy("BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        name = spec["workloads"][0]["name"]
        proc = subprocess.run([sys.executable, *spec["command"][1:], "--workload", name,
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        refused = proc.returncode != 0 and not proc.stdout.strip()
        failures += not refused
        print(f"bare directory: {'refused' if refused else 'NOT refused'}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
