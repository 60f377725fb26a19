"""Smoke check of the benchmark itself, at tiny sizes (a few seconds).

    python3 perfbench/smoke.py

Checks that BENCHMARK.json, the metric-interaction map and the code name
the same workloads and metrics; that every run prints every metric with
its unit; that the seed code gives no failures; that a tampered digest or
a tampered round trip is counted as a failure; and that the command fails
without a result line where the library's source tree is missing.
Exits 1 on the first broken check.
"""

import json
import shutil
import subprocess
import sys

import layers
import run
from workloads import WORKLOADS, roundtrip_ok

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
INTERACTIONS = json.loads((run.HERE / "interactions.json").read_text())


def check(ok, what):
    if not ok:
        print(f"smoke: FAILED: {what}")
        sys.exit(1)


def check_declarations():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    check(declared == run.END_TO_END, "end_to_end metrics match run.END_TO_END")
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    check(declared == layers.PER_LAYER, "per_layer metrics match layers.PER_LAYER")
    names = [w["name"] for w in BENCHMARK["workloads"]]
    check(sorted(names) == sorted(WORKLOADS), "workloads match")
    check(sorted(INTERACTIONS["workloads"]) == sorted(WORKLOADS),
          "interaction map names every workload")
    check(sorted(INTERACTIONS["end_to_end"]) == sorted(run.END_TO_END),
          "interaction map names every end-to-end metric")
    check(sorted(INTERACTIONS["per_layer"]) == sorted(layers.PER_LAYER),
          "interaction map names every per-layer metric")
    for name, row in INTERACTIONS["per_layer"].items():
        for metric, workload in row["moves"] + row["no_change"]:
            check(metric in run.END_TO_END and workload in WORKLOADS,
                  f"interaction row {name} cites known names")
    lib = run.library.load(run.ROOT / "src")
    check(tuple(layers.VARIANT_NAMES) == tuple(lib.VARIANTS),
          "the per-layer variant names are the library's variants")


def check_runs():
    for name in WORKLOADS:
        for trace, units in ((0, run.END_TO_END), (1, layers.PER_LAYER)):
            lines, result, _ = run.measure(name, 3, 0.2, trace, "tiny")
            printed = {}
            for line in lines:
                if line.startswith("metric "):
                    _, metric, _, unit = line.split(" ", 4)[:4]
                    printed[metric] = unit
            for metric, unit in units.items():
                check(printed.get(metric) == unit,
                      f"{name} trace={trace} prints {metric} with unit {unit}")
                check(result["metrics"][metric]["unit"] == unit,
                      f"{name} trace={trace} result has {metric} in {unit}")
            check("failed_frac" in printed, f"{name} prints failed_frac")
            check(sorted(result["metrics"]) == sorted(units),
                  f"{name} trace={trace} result holds exactly its metrics")
            check(result["correct"] and result["failed"] == 0,
                  f"{name} trace={trace} has no failures on this code")
            check(json.loads(json.dumps(result)) == result,
                  f"{name} result is plain JSON")


def check_tampering():
    # a digest that differs from the reference fails every instance of its
    # task, in every pass
    _, clean, details = run.measure("roundtrip-small", 3, 0.2, 0, "tiny")
    check(clean["correct"], "the untampered run is correct")
    key = sorted(details["digests"])[0]
    reference = {"roundtrip-small": {key: "0" * 16}}
    _, tampered, details = run.measure("roundtrip-small", 3, 0.2, 0, "tiny",
                                       reference=reference)
    check(tampered["failed"] > 0 and not tampered["correct"],
          "a tampered reference digest counts as failed")
    check(details["mismatched"] == [key], "only the tampered task is failed")

    # a tampered round trip: wrong filling, or labels left on the border
    lib = run.library.load(run.ROOT / "src")
    shape = lib.FerrersShape((2, 1))
    f = lib.Filling(shape, {(1, 1): 1})
    t = lib.border_tableau(lib.label_diagram(f))
    check(roundtrip_ok(f, lib.reconstruct(t.word, t)), "clean round trip passes")
    other = lib.Filling(shape, {(2, 1): 1})
    check(not roundtrip_ok(f, (other, [()] * 3, [()] * 3)),
          "a round trip to another filling fails")
    check(not roundtrip_ok(f, (f, [(1,), (), ()], [()] * 3)),
          "a round trip leaving a bottom label fails")


def check_missing_library():
    """The command must fail, without a result line, where only
    BENCHMARK.json and the benchmark's own files exist."""
    bare = run.HERE / "out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(BENCHMARK["command"] + [
        "--workload", "roundtrip-small", "--seed", "1", "--seconds", "1",
        "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0, "a checkout without src fails")
    check('"correct"' not in proc.stdout, "and prints no result")


def main():
    check_declarations()
    check_runs()
    check_tampering()
    check_missing_library()
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
