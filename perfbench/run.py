#!/usr/bin/env python3
"""Build and run the dbp benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds perfbench/bench.exe with dune (build output goes to stderr),
then runs it with the same arguments.  Its standard output, whose last
line is the result JSON, passes through unchanged; with --trace 1 the
spans of the traced run are written to .perfbench/.  Exits non-zero,
printing no result, when the build fails (for instance outside a full
checkout).

With --self-test it also checks that every result the self-test
prints names exactly the metrics, with the units, that
BENCHMARK.json lists for its mode.
"""

import json
import os
import subprocess
import sys


def check_names(root, output):
    """Problems with the metric names and units of the self-test's
    results, against BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {
        "false": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "true": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems, header, seen = [], None, 0
    for line in output.splitlines():
        if line.startswith("-- ") and " trace=" in line:
            header = line[3:].split(" trace=")
        elif line.startswith('{"correct"') and header is not None:
            name, trace = header
            got = {k: v["unit"] for k, v in json.loads(line)["metrics"].items()}
            if got != want[trace]:
                missing = sorted(set(want[trace]) - set(got))
                extra = sorted(set(got) - set(want[trace]))
                units = sorted(k for k in got if k in want[trace] and got[k] != want[trace][k])
                problems.append("%s trace=%s: missing %s, extra %s, unit differs %s"
                                % (name, trace, missing, extra, units))
            header, seen = None, seen + 1
    if seen != 2 * len(spec["workloads"]):
        problems.append("expected %d results, saw %d" % (2 * len(spec["workloads"]), seen))
    return problems


def main():
    root = os.getcwd()
    build = subprocess.run(
        ["dune", "build", "--root", root, "./perfbench/bench.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    exe = os.path.join(root, "_build", "default", "perfbench", "bench.exe")
    args = sys.argv[1:]
    if "--trace" in args and "--self-test" not in args:
        i = args.index("--trace")
        if i + 1 < len(args) and args[i + 1] == "1":
            out = os.path.join(root, ".perfbench")
            os.makedirs(out, exist_ok=True)
            name = "run"
            if "--workload" in args:
                j = args.index("--workload")
                if j + 1 < len(args):
                    name = args[j + 1]
            args = args + ["--spans", os.path.join(out, "spans-%s.ndjson" % name)]
    sys.stdout.flush()
    if "--self-test" not in args:
        return subprocess.run([exe] + args).returncode
    run = subprocess.run([exe] + args, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(run.stdout)
    problems = check_names(root, run.stdout)
    for p in problems:
        print("self-test: " + p)
    if run.returncode == 0 and not problems:
        print("self-test: metric names match BENCHMARK.json")
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
