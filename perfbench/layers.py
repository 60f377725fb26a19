"""Per-layer metrics of the traced run.

Direct spans come from the benchmark's own calls into the library during
the traced passes.  The layers those calls reach only from inside
(local rules, partition operations, shape queries, filling construction,
and everything below a verifier) are measured by replay: the same public
calls are made again, once, on the data of one traced pass: the frames
and labels read from its labelled diagrams, its shapes and fillings, and
for verify-count the verifiers' own fillings, spec constants and modes.
"""

from collections import Counter, defaultdict
from time import perf_counter_ns
from types import SimpleNamespace

from workloads import STRIP_KINDS, VERIFY_NAMES, shape_cells

MODULES = ("enumeration", "growth", "local_rules", "partitions", "shapes",
           "fillings", "correspondences")
VARIANT_NAMES = ("standard", "rsk", "dual-rsk", "rsk-prime", "dual-rsk-prime")

# name -> unit, in the order they are reported
PER_LAYER = {
    "enumeration.generate.us_per_filling": "us",
    "enumeration.fillings_generated": "count",
    **{f"enumeration.verify_s.{v}": "s" for v in VERIFY_NAMES},
    "enumeration.count_table_s": "s",
    "growth.label_diagram.us_per_cell": "us",
    "growth.reconstruct.us_per_cell": "us",
    "growth.label_self.us_per_cell": "us",
    "growth.reconstruct_self.us_per_cell": "us",
    "growth.blow_up.us_per_fine_cell": "us",
    "growth.shrink_back.us_per_call": "us",
    "growth.fine_cells": "count",
    "growth.cells_labelled": "count",
    "growth.cells_reconstructed": "count",
    **{f"local_rules.{d}.us_per_call.{v}": "us"
       for d in ("forward", "backward") for v in VARIANT_NAMES},
    "partitions.make_partition.us_per_call": "us",
    "partitions.strip_check.us_per_call": "us",
    "partitions.conjugate.us_per_call": "us",
    "shapes.cells.us_per_call": "us",
    "shapes.col_height.us_per_call": "us",
    "fillings.longest_chain.us_per_call": "us",
    "fillings.longest_chain.calls": "count",
    "fillings.filling_init.us_per_call": "us",
    "correspondences.swap_chain_statistics.us_per_call": "us",
    "correspondences.conjugate_set_partition.us_per_call": "us",
    "correspondences.conjugate_set_partition_enhanced.us_per_call": "us",
    **{f"{m}.share": "frac" for m in MODULES},
    "trace.overhead_frac": "frac",
}


def new_keep(lib, inputs):
    """What the first traced pass keeps for the replay: its library, its
    inputs, its direct diagrams and its blown-up diagrams."""
    return SimpleNamespace(lib=lib, inputs=inputs, direct=[], fine=[])


# ---------------------------------------------------------------------------
# replays

def _shape_batches(lib, tr, shape_list):
    tr.batch("shapes.cells", lib.FerrersShape.cells, [(s,) for s in shape_list])
    tr.batch("shapes.col_height", lib.FerrersShape.col_height,
             [(s, c) for s in shape_list for c in range(1, s.n_cols + 1)])


def replay_roundtrip(tr, keep):
    """Replay local rules, partition operations, shape queries and filling
    construction on the frames, labels, shapes and fillings of one pass.
    Returns per-pass counts and the input properties."""
    lib = keep.lib
    fwd, bwd, outs = defaultdict(list), defaultdict(list), []
    strips = {"H": [], "V": []}
    for variant, f, d, backward in (
            [(v, f, d, True) for v, f, d in keep.direct]
            + [("standard", f, d, False) for f, d in keep.fine]):
        kinds = STRIP_KINDS.get(variant)
        for rho, mu, nu, m, lam in frames_of(f, d):
            fwd[variant].append((rho, mu, nu, m))
            outs.append(lam)
            if kinds:
                strips[kinds[0]].append((mu, rho))
                strips[kinds[1]].append((nu, rho))
            if backward:
                bwd[variant].append((mu, nu, lam))
    fine_cells = sum(f.shape.n_cells for f, _ in keep.fine)
    coarse_cells = sum(f.shape.n_cells for v, f, _ in keep.direct
                       if v != "standard")

    section = tr.open_section("replay")
    for v in VARIANT_NAMES:
        rules = lib.get_variant(v)
        tr.batch(f"local_rules.forward.{v}", rules.forward, fwd[v])
        tr.batch(f"local_rules.backward.{v}", rules.backward, bwd[v])
    tr.batch("partitions.make_partition", lib.make_partition,
             [(list(p),) for p in outs])
    tr.batch("partitions.strip_check", lib.is_horizontal_strip, strips["H"])
    tr.batch("partitions.strip_check", lib.is_vertical_strip, strips["V"])
    tr.batch("partitions.conjugate", lib.conjugate, [(p,) for p in outs])
    _shape_batches(lib, tr, [f.shape for _, f, _ in keep.direct]
                   + [f.shape for f, _ in keep.fine])
    tr.batch("fillings.filling_init", lib.Filling,
             [(f.shape, dict(f.entries)) for _, f, _ in keep.direct])
    tr.close_section()

    n_bwd = sum(len(x) for x in bwd.values())
    counts = {"cells_labelled": sum(len(x) for x in fwd.values()),
              "cells_reconstructed": n_bwd, "fine_cells": fine_cells,
              "fillings": len(keep.direct)}
    distinct_bwd = len({(v,) + fr for v, frs in bwd.items() for fr in frs})
    props = {
        "instances_per_pass": len(keep.direct),
        "cells_per_pass": sum(f.shape.n_cells for _, f, _ in keep.direct),
        "entry_sum_histogram": entry_sums(f for _, f, _ in keep.direct),
        **label_properties(keep.direct + [("standard", f, d)
                                          for f, d in keep.fine]),
        "frames_applied_backward": n_bwd,
        "frame_reuse_share_backward": distinct_bwd / n_bwd if n_bwd else None,
        "blow_up_fine_per_coarse_cell": (fine_cells / coarse_cells
                                         if keep.fine else None),
    }
    return {"sections": [section], "counts": counts, "props": props}


def replay_verify(tr, keep, size):
    """Replay what each verifier and count table does, through public calls
    with the verifiers' spec constants."""
    lib, tasks = keep.lib, keep.inputs
    swaps = {   # class, bound, specs, image specs, modes, forward variant
        "T2": ("partial-permutation", None, lib.T2_SPECS, lib.T2_SPECS,
               "standard", "standard", "standard"),
        "T2a-NES1": ("arbitrary", size["nes1_sum"], lib.NES1_SPECS,
                     lib.NES1_IMAGE_SPECS, "nes1", "nes1-inverse", "rsk"),
        "T2a-NES2": ("zero-one", size["nes2_ones"], lib.NES2_SPECS,
                     lib.NES2_IMAGE_SPECS, "nes2", "nes2-inverse", "dual-rsk"),
    }
    table_specs = (lib.chain_spec("ne", require_rectangle=True),
                   lib.chain_spec("se", require_rectangle=True))
    partitions = {
        "T4": (lib.cross, lib.nest, lib.conjugate_set_partition,
               "correspondences.conjugate_set_partition"),
        "T6": (lib.enhanced_cross, lib.enhanced_nest,
               lib.conjugate_set_partition_enhanced,
               "correspondences.conjugate_set_partition_enhanced"),
    }
    chain = lib.longest_chain
    fillings = []
    swapped = []

    def fillings_of(shape, cls, max_n):
        it = lib.all_fillings(shape, cls, max_n)
        while True:
            got = tr.call("enumeration.all_fillings", next, it, None)
            if got is None:
                return
            fillings.append(got[1])
            yield got[1]

    section = tr.open_section("replay")
    for i, (key, kind, arg, _, _) in enumerate(tasks):
        sid = tr.begin(i)
        start = perf_counter_ns()
        if kind in swaps:
            cls, max_n, specs, image, mode, inverse, variant = swaps[kind]
            for f in fillings_of(arg, cls, max_n):
                swapped.append((variant, f))
                tr.call("fillings.longest_chain", chain, f, specs[0])
                tr.call("fillings.longest_chain", chain, f, specs[1])
                g = tr.call("correspondences.swap_chain_statistics",
                            lib.swap_chain_statistics, f, mode)
                # the verifier reads both image statistics twice: once to
                # tabulate, once to check the exchange
                for spec in image + image:
                    tr.call("fillings.longest_chain", chain, g, spec)
                tr.call("correspondences.swap_chain_statistics",
                        lib.swap_chain_statistics, g, inverse)
        elif kind == "count":
            for f in fillings_of(arg, lib.ZERO_ONE, None):
                for spec in table_specs:
                    tr.call("fillings.longest_chain", chain, f, spec)
        else:
            stat_a, stat_b, conj, span = partitions[kind]
            for n in range(arg + 1):
                it = lib.all_set_partitions(n)
                while True:
                    p = tr.call("correspondences.all_set_partitions", next, it,
                                None)
                    if p is None:
                        break
                    q = tr.call(span, conj, p)
                    for x in (p, q):
                        tr.call(f"correspondences.{stat_a.__name__}", stat_a, x)
                        tr.call(f"correspondences.{stat_b.__name__}", stat_b, x)
                    tr.call(span, conj, q)
        tr.end(sid, start, perf_counter_ns())
        tr.speed.sample()
    tr.close_section()
    layer_section = tr.open_section("replay-layers")
    _shape_batches(lib, tr, [arg for _, kind, arg, _, _ in tasks
                             if not isinstance(arg, int)])
    tr.batch("fillings.filling_init", lib.Filling,
             [(f.shape, dict(f.entries)) for f in fillings])
    tr.close_section()

    # label properties from the forward labelling each swap starts with,
    # done here, outside every timed section
    labelled = [(v, f, lib.label_diagram(f, v)) for v, f in swapped]
    props = {
        "instances_per_pass": len(tasks),
        "fillings_per_pass": len(fillings),
        "cells_per_pass": sum(f.shape.n_cells for f in fillings),
        "entry_sum_histogram": entry_sums(fillings),
        **label_properties(labelled),
        "label_properties_from": "the forward labelling of the swapped fillings",
    }
    return {"sections": [section, layer_section], "share_sections": [section],
            "counts": {"fillings": len(fillings)}, "props": props}


def entry_sums(fillings):
    return dict(sorted(Counter(sum(f.entries.values())
                               for f in fillings).items()))


def frames_of(f, d):
    """The (rho, mu, nu, m, lam) frame of every cell of a labelled diagram."""
    labels, entries = d.labels, f.entries
    return [(labels[(c - 1, r - 1)], labels[(c, r - 1)], labels[(c - 1, r)],
             entries.get((c, r), 0), labels[(c, r)])
            for c, r in shape_cells(f.shape.rows)]


def label_properties(labelled):
    """Label lengths and forward-frame reuse over (variant, filling, diagram)
    triples; the reuse share is distinct frames / frames applied."""
    lengths = [len(p) for _, _, d in labelled for p in d.labels.values()]
    frames = [(v,) + fr[:4] for v, f, d in labelled for fr in frames_of(f, d)]
    return {
        "label_length_mean": sum(lengths) / len(lengths) if lengths else None,
        "label_length_max": max(lengths, default=None),
        "frames_applied_forward": len(frames),
        "frame_reuse_share_forward": (len(set(frames)) / len(frames)
                                      if frames else None),
    }


# ---------------------------------------------------------------------------
# metrics

def _per(num, den):
    return num / den if den else 0.0


def compute(tr, tally, passes, replay):
    """All per-layer metrics as {name: (value, samples)}; a layer the
    workload never reaches reports 0 with 0 samples.  ``passes`` holds
    (traced, section id) per pass."""
    traced = [i for i, (t, _) in enumerate(passes) if t]
    untraced = [i for i, (t, _) in enumerate(passes) if not t]
    D = tr.totals([passes[i][1] for i in traced])
    R = tr.totals(replay["sections"])
    counts = replay["counts"]
    P = len(traced)

    def get(src, name):
        return src.get(name, [0, 0, 0])

    def us_per_call(src, name):
        n, ns, _ = get(src, name)
        return (_per(ns / 1000, n), n)

    out = {}
    # fillings come from direct enumeration calls (roundtrip-small) or from
    # the replay of the verifiers (verify-count), or not at all
    gen_src, runs = (D, P) if "enumeration.all_fillings" in D else (R, 1)
    generated = (counts.get("fillings", 0)
                 if "enumeration.all_fillings" in gen_src else 0)
    out["enumeration.generate.us_per_filling"] = (
        _per(get(gen_src, "enumeration.all_fillings")[1] / 1000,
             generated * runs), generated * runs)
    out["enumeration.fillings_generated"] = (generated, 1 if generated else 0)
    for v in VERIFY_NAMES:
        n, ns, _ = get(D, f"enumeration.verify.{v}")
        out[f"enumeration.verify_s.{v}"] = (_per(ns / 1e9, P) if n else 0.0, n)
    n, ns, _ = get(D, "enumeration.count_table")
    out["enumeration.count_table_s"] = (_per(ns / 1e9, P) if n else 0.0, n)

    labelled = counts.get("cells_labelled", 0)
    rebuilt = counts.get("cells_reconstructed", 0)
    fine = counts.get("fine_cells", 0)
    label_ns = get(D, "growth.label_diagram")[1]
    rebuild_ns = get(D, "growth.reconstruct")[1]
    fwd_ns = sum(get(R, f"local_rules.forward.{v}")[1] for v in VARIANT_NAMES)
    bwd_ns = sum(get(R, f"local_rules.backward.{v}")[1] for v in VARIANT_NAMES)
    out["growth.label_diagram.us_per_cell"] = (
        _per(label_ns / 1000, labelled * P), labelled * P)
    out["growth.reconstruct.us_per_cell"] = (
        _per(rebuild_ns / 1000, rebuilt * P), rebuilt * P)
    out["growth.label_self.us_per_cell"] = (
        _per((label_ns / P if P else 0) / 1000 - fwd_ns / 1000, labelled),
        labelled)
    out["growth.reconstruct_self.us_per_cell"] = (
        _per((rebuild_ns / P if P else 0) / 1000 - bwd_ns / 1000, rebuilt),
        rebuilt)
    out["growth.blow_up.us_per_fine_cell"] = (
        _per(get(D, "growth.blow_up")[1] / 1000, fine * P), fine * P)
    out["growth.shrink_back.us_per_call"] = us_per_call(D, "growth.shrink_back")
    out["growth.fine_cells"] = (fine, 1 if fine else 0)
    out["growth.cells_labelled"] = (labelled, 1 if labelled else 0)
    out["growth.cells_reconstructed"] = (rebuilt, 1 if rebuilt else 0)

    for d in ("forward", "backward"):
        for v in VARIANT_NAMES:
            out[f"local_rules.{d}.us_per_call.{v}"] = us_per_call(
                R, f"local_rules.{d}.{v}")
    for name in ("make_partition", "strip_check", "conjugate"):
        out[f"partitions.{name}.us_per_call"] = us_per_call(
            R, f"partitions.{name}")
    for name in ("cells", "col_height"):
        out[f"shapes.{name}.us_per_call"] = us_per_call(R, f"shapes.{name}")
    out["fillings.longest_chain.us_per_call"] = us_per_call(
        R, "fillings.longest_chain")
    chains = get(R, "fillings.longest_chain")[0]
    out["fillings.longest_chain.calls"] = (chains, 1 if chains else 0)
    out["fillings.filling_init.us_per_call"] = us_per_call(
        R, "fillings.filling_init")
    for name in ("swap_chain_statistics", "conjugate_set_partition",
                 "conjugate_set_partition_enhanced"):
        out[f"correspondences.{name}.us_per_call"] = us_per_call(
            R, f"correspondences.{name}")

    # shares: of the traced passes' wall time for the roundtrip workloads,
    # whose direct calls reach growth and enumeration; of the replay's wall
    # time for verify-count, whose direct calls are all verifiers
    src = tr.totals(replay["share_sections"]) if "share_sections" in replay \
        else D
    wall = get(src, "instance")[1]
    for m in MODULES:
        self_ns = sum(v[2] for k, v in src.items() if k.split(".")[0] == m)
        out[f"{m}.share"] = (_per(self_ns, wall), get(src, "instance")[0])
    traced_ns = sum(tally.pass_ns(i) for i in traced)
    untraced_ns = sum(tally.pass_ns(i) for i in untraced)
    out["trace.overhead_frac"] = (
        _per(traced_ns / P, untraced_ns / len(untraced)) - 1
        if P and untraced else 0.0, len(passes))
    return out
