"""Growth-diagram benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload roundtrip-small --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from its
``src`` directory and nowhere else, and the run fails (exit 2, no result
line) when that source tree is missing.  Single process, no threads,
standard library only.

A run is made of whole passes over the workload's inputs, at least
``MIN_PASSES`` of them and at least ``--seconds`` of wall time.  Each pass
starts with a fresh set-up (importing the package afresh and building
the inputs from the seed); ``setup_s`` is the median set-up time.  Every
instance is timed and its output checked in every pass.  Timings are
scaled by the machine's speed at the moment they were taken (see
``calibration``), and each instance counts with its median scaled time
over the passes.  With ``--trace 1`` passes alternate between untraced and
traced, and the lower layers are replayed on the first traced pass's data
afterwards; the spans are written to ``perfbench/out``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it report the environment, the input properties, every metric with its
unit and sample count, and the digests.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import layers  # noqa: E402
import library  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402
from workloads import SIZES, WORKLOADS, Tally  # noqa: E402

MIN_PASSES = 3
QUANTILE_HALF_WIDTH = 5
DEFAULT_SEED = 0
END_TO_END = {"items_per_s": "1/s", "instance_us_p50": "us",
              "instance_us_p90": "us", "setup_s": "s", "peak_rss_mb": "MB"}


def percentile(sorted_values, q):
    """The q-th percentile of an ascending list, as the mean of the values
    ranked between the (q - half)-th and (q + half)-th percentiles.  The
    instances of a workload can differ widely (a verify-count instance is
    one verifier call on one shape), so a single order statistic jumps
    whenever two instances near it trade places; the window mean does not.
    Returns the value and the number of values above the window."""
    n, half = len(sorted_values), QUANTILE_HALF_WIDTH
    lo = min(n - 1, int(n * (q - half) / 100))
    hi = max(lo + 1, -(-n * (q + half) // 100))
    window = sorted_values[lo:hi]
    return sum(window) / len(window), n - hi


def git_commit():
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload, seed, seconds, trace, size):
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "commit": git_commit(), "workload": workload, "seed": seed,
            "seconds": seconds, "trace": trace, "size": size,
            "sizes": SIZES[size]}


def load_reference():
    path = HERE / "reference.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def run_passes(workload, seed, size, seconds, tally, tracer):
    """Whole passes, each on a fresh set-up, until ``seconds`` of wall time
    and ``MIN_PASSES`` passes have gone.  With a tracer, passes alternate
    untraced / traced."""
    null = NullTracer()
    passes = []         # (traced, section id)
    setups = []         # (start ns, ns)
    keep = None
    start = perf_counter()
    while True:
        gc.collect()        # free the previous set-up before timing this one
        tally.speed.sample(force=True)
        begin = perf_counter_ns()
        lib = library.load(ROOT / "src")
        inputs = workload.build(lib, seed, size)
        setups.append((begin, perf_counter_ns() - begin))
        tally.speed.sample(force=True)
        traced = tracer is not None and len(passes) % 2 == 1
        pass_keep = None
        if traced and keep is None:
            keep = pass_keep = layers.new_keep(lib, inputs)
        section = tracer.open_section("pass") if traced else None
        tally.new_pass()
        workload.run_pass(lib, inputs, tracer if traced else null, tally,
                          pass_keep)
        if traced:
            tracer.close_section()
        passes.append((traced, section))
        if perf_counter() - start >= seconds and len(passes) >= MIN_PASSES:
            tally.speed.sample(force=True)
            return passes, setups, keep


def end_to_end(tally, setups):
    """The end-to-end metrics, speed-scaled, and the same figures raw."""
    per_instance = tally.per_instance()
    items = sum(n for _, _, n in per_instance)
    metrics, raw = {}, {}
    for out, column in ((metrics, 0), (raw, 1)):
        times = sorted(row[column] for row in per_instance)
        out["items_per_s"] = items / (sum(times) / 1e9)
        out["instance_us_p50"] = percentile(times, 50)[0] / 1000
        out["instance_us_p90"] = percentile(times, 90)[0] / 1000
    metrics["setup_s"] = statistics.median(
        tally.scaled(t, ns) for t, ns in setups) / 1e9
    raw["setup_s"] = statistics.median(ns for _, ns in setups) / 1e9
    metrics["peak_rss_mb"] = raw["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    times = sorted(row[0] for row in per_instance)
    beyond = percentile(times, 90)[1]
    samples = (f"{len(times)} instances, median of {len(tally.times)} "
               f"passes each")
    counts = {"items_per_s": samples, "instance_us_p50": samples,
              "instance_us_p90": f"{samples}, {beyond} above the p90 window",
              "setup_s": f"{len(setups)} set-ups", "peak_rss_mb": 1}
    return {m: (v, counts[m]) for m, v in metrics.items()}, raw


def measure(name, seed, seconds, trace, size_name="full", reference=None,
            out_dir=None):
    """One run; returns (lines to print, result object, details)."""
    workload = WORKLOADS[name]
    size = SIZES[size_name]
    if reference is None:
        reference = load_reference()
    tally = Tally(reference.get(name, {}))
    tracer = Tracer(tally.speed) if trace else None
    passes, setups, keep = run_passes(workload, seed, size, seconds, tally,
                                      tracer)

    env = environment(name, seed, seconds, trace, size_name)
    lines = ["env " + json.dumps(env, sort_keys=True)]
    props = {"instances_per_pass": len(tally.items),
             "items_per_pass": sum(tally.items),
             "item": workload.item, "passes": len(passes)}
    if trace:
        replay = (layers.replay_verify(tracer, keep, size)
                  if name == "verify-count" else
                  layers.replay_roundtrip(tracer, keep))
        props.update(replay["props"])
        metrics = layers.compute(tracer, tally, passes, replay)
        units = layers.PER_LAYER
    else:
        metrics, raw = end_to_end(tally, setups)
        units = END_TO_END
        speeds = [ns for _, ns in tally.speed.samples]
        lines.append(f"speed {len(speeds)} samples, kernel median "
                     f"{statistics.median(speeds) / 1e6:.4f} ms "
                     f"(reference {calibration.REF_NS / 1e6:g} ms); raw "
                     + json.dumps(raw, sort_keys=True))
    lines.append("inputs " + json.dumps(props, sort_keys=True))
    for metric, unit in units.items():
        value, samples = metrics[metric]
        lines.append(f"metric {metric} {value!r} {unit} (samples: {samples})")
    lines.append(f"metric failed_frac {tally.failed / max(1, tally.attempted)!r}"
                 f" frac ({tally.failed} of {tally.attempted} instances)")
    lines.append(f"digest {name} {tally.combined_digest()} "
                 f"({len(tally.digests)} tasks, {tally.matched_reference} match "
                 f"the reference, {len(tally.mismatched)} differ)")
    for err in tally.errors:
        lines.append(f"error {err}")

    result = {"correct": tally.failed == 0 and tally.attempted > 0,
              "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {m: {"value": metrics[m][0], "unit": u}
                          for m, u in units.items()}}
    details = {"env": env, "inputs": props, "result": result,
               "samples": {m: metrics[m][1] for m in units},
               "digests": tally.digests,
               "mismatched": sorted(tally.mismatched),
               "errors": tally.errors}
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{name}-seed{seed}-trace{int(bool(trace))}"
        (out_dir / f"{stem}.json").write_text(json.dumps(details, indent=1))
        if trace:
            tracer.write(out_dir / f"{name}-seed{seed}-spans.jsonl.gz")
    return lines, result, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        lines, result, _ = measure(args.workload, args.seed, args.seconds,
                                   args.trace, out_dir=HERE / "out")
    except library.LibraryMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
