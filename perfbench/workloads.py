"""The benchmark's three workloads.

Each workload builds its inputs from a seed (``build``) and runs one pass
over them (``run_pass``), timing every instance and checking its output.
The library only ever sees the generated inputs.

An instance is the unit whose time is reported; a task is the unit that
carries a digest.  For the exhaustive workloads a task is one
(variant, shape) or one verifier call, and its digest does not depend on
the seed, because the seed only permutes the task order.
"""

import hashlib
import random
import statistics
from array import array
from functools import partial
from math import comb
from time import perf_counter_ns

from calibration import Speed

SIZES = {
    "full": {"small_cells": 7, "small_sum": 3,
             "large_count": 120, "large_cells": 800,
             "t2_cells": 9, "nes_cells": 8, "nes1_sum": 3, "nes2_ones": 4,
             "t4_n": 7, "t6_n": 6, "table_cells": 9},
    "tiny": {"small_cells": 3, "small_sum": 2,
             "large_count": 10, "large_cells": 40,
             "t2_cells": 4, "nes_cells": 3, "nes1_sum": 2, "nes2_ones": 2,
             "t4_n": 3, "t6_n": 3, "table_cells": 4},
}

# The four strip variants check mu/rho and nu/rho as horizontal (H) or
# vertical (V) strips; standard checks single-square steps instead.
STRIP_KINDS = {"rsk": "HH", "dual-rsk": "HV", "rsk-prime": "VH",
               "dual-rsk-prime": "VV"}


# ---------------------------------------------------------------------------
# inputs and digests, independent of the library's own helpers

def partitions_of(n, top=None):
    """Partitions of n with parts at most ``top``, largest first."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, top or n), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def shapes(lib, lo, hi):
    return [lib.FerrersShape(p) for n in range(lo, hi + 1)
            for p in partitions_of(n)]


def shape_key(shape):
    return ",".join(map(str, shape.rows))


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def tableau_text(t):
    return f"{t.variant}:{t.word}:" + "/".join(
        ",".join(map(str, p)) for p in t.seq)


def filling_text(variant, f):
    cells = " ".join(f"{c},{r},{v}" for (c, r), v in sorted(f.entries.items()))
    return f"{variant}:{shape_key(f.shape)}:{cells}"


def roundtrip_ok(f, back):
    """A round trip returns the input filling with empty bottom and left
    labels."""
    g, bottom, left = back
    return (g.shape.rows == f.shape.rows and g.entries == f.entries
            and all(p == () for p in bottom) and all(p == () for p in left))


def shape_cells(rows):
    return [(c, r) for r, length in enumerate(rows, 1)
            for c in range(1, length + 1)]


def rook_total(shape):
    """Partial permutation fillings of a Ferrers shape (all rook numbers)."""
    heights = sorted(sum(1 for x in shape.rows if x >= c)
                     for c in range(1, shape.rows[0] + 1))
    ways = [1]
    for h in heights:
        ways = [ways[k] + (ways[k - 1] * (h - k + 1) if k else 0)
                for k in range(len(ways))] + [ways[-1] * (h - len(ways) + 1)]
    return sum(ways)


def bell(n):
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


class Tally:
    """Instance times, items, failures and task digests of a run, with the
    run's speed samples.  Times are kept in arrays, so that the memory a run
    holds (and its peak RSS) hardly depends on how many passes it makes."""

    def __init__(self, reference):
        self.reference = reference
        self.speed = Speed()
        self.starts = []        # per pass: start ns of each instance
        self.times = []         # per pass: ns of each instance
        self.items = array("q")  # items of each instance, from the first pass
        self.attempted = 0
        self.failed = 0
        self.digests = {}
        self.mismatched = []
        self.errors = []
        self.matched_reference = 0

    def new_pass(self):
        self.starts.append(array("q"))
        self.times.append(array("q"))

    def instance(self, start, end, items):
        self.starts[-1].append(start)
        self.times[-1].append(end - start)
        if len(self.times) == 1:
            self.items.append(items)
        self.attempted += 1
        self.speed.sample()

    def scaled(self, start, ns):
        return ns * self.speed.scale(start)

    def pass_ns(self, index):
        """Speed-scaled instance time of one pass."""
        return sum(map(self.scaled, self.starts[index], self.times[index]))

    def per_instance(self):
        """Per instance: its median speed-scaled time over the passes, its
        median raw time, and its items.  Every pass runs the same instances
        in the same order."""
        n = min(len(t) for t in self.times)
        passes = range(len(self.times))
        return [(statistics.median(self.scaled(self.starts[p][i],
                                               self.times[p][i]) for p in passes),
                 statistics.median(self.times[p][i] for p in passes),
                 self.items[i]) for i in range(n)]

    def error(self, where, exc):
        self.attempted += 1
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{where}: {type(exc).__name__}: {exc}")

    def task_done(self, key, value, instances, bad):
        """Count the task's ``bad`` instances as failed; if its digest
        differs from the reference or from an earlier pass, fail them all."""
        ref = self.reference.get(key)
        seen = key in self.digests
        first = self.digests.setdefault(key, value)
        if value != first or (ref is not None and value != ref):
            bad = instances
            if key not in self.mismatched:
                self.mismatched.append(key)
        elif ref is not None and not seen:
            self.matched_reference += 1
        self.failed += bad

    def combined_digest(self):
        return digest("".join(f"{k}={v};" for k, v in sorted(self.digests.items())))


# ---------------------------------------------------------------------------
# roundtrip-small

class RoundtripSmall:
    name = "roundtrip-small"
    item = "fillings"

    def build(self, lib, seed, size):
        tasks = []
        for variant in lib.VARIANTS:
            cls = lib.get_variant(variant).filling_class
            max_n = size["small_sum"] if cls == "arbitrary" else None
            for shape in shapes(lib, 1, size["small_cells"]):
                key = f"{variant}/{shape_key(shape)}" + (
                    f"/sum<={max_n}" if max_n is not None else "")
                tasks.append((key, variant, shape, cls, max_n))
        random.Random(seed).shuffle(tasks)
        return tasks

    def run_pass(self, lib, tasks, tr, tally, keep):
        for key, variant, shape, cls, max_n in tasks:
            h = hashlib.sha256()
            count = bad = 0
            it = lib.all_fillings(shape, cls, max_n)
            while True:
                sid = tr.begin(tally.attempted)
                start = perf_counter_ns()
                try:
                    got = tr.call("enumeration.all_fillings", next, it, None)
                    if got is None:
                        tr.end(sid, None, None)
                        break
                    f = got[1]
                    # label_diagram + border_tableau is growth_tableau, split
                    # so that the direct labels are at hand for the check
                    d = tr.call("growth.label_diagram", lib.label_diagram, f,
                                variant)
                    t = tr.call("growth.border_tableau", lib.border_tableau, d)
                    back = tr.call("growth.reconstruct", lib.reconstruct,
                                   t.word, t, variant)
                    fine = None
                    if variant != "standard":
                        fine_f, row_blocks, col_blocks = tr.call(
                            "growth.blow_up", lib.blow_up, f, variant)
                        fine = tr.call("growth.label_diagram",
                                       lib.label_diagram, fine_f)
                        coarse = tr.call("growth.shrink_back", lib.shrink_back,
                                         fine, row_blocks, col_blocks)
                    end = perf_counter_ns()
                    tr.end(sid, start, end)
                except Exception as exc:  # a raising instance is a failure
                    tr.end(sid, None, None)
                    tally.error(key, exc)
                    break
                tally.instance(start, end, 1)
                count += 1
                ok = roundtrip_ok(f, back)
                if fine is not None:
                    # shrink-back must match the direct labelling
                    ok = ok and coarse == d.labels
                bad += not ok
                h.update(tableau_text(t).encode())
                if keep is not None:
                    keep.direct.append((variant, f, d))
                    if fine is not None:
                        keep.fine.append((fine_f, fine))
            tally.task_done(key, h.hexdigest()[:16], count, bad)


# ---------------------------------------------------------------------------
# roundtrip-large

def random_rows(rng, cells):
    """Row lengths of a random lattice-path shape with ``cells`` cells, give
    or take 1%.  A path in a square box of side sqrt(2 cells) encloses
    ``cells`` cells on average."""
    side = round((2 * cells) ** 0.5)
    steps = ["R"] * side + ["D"] * side
    while True:
        rng.shuffle(steps)
        lengths, x = [], 0
        for step in steps:
            if step == "R":
                x += 1
            else:
                lengths.append(x)
        rows = tuple(x for x in reversed(lengths) if x)
        if abs(sum(rows) - cells) * 100 <= cells:
            return rows


def random_entries(rng, rows, cls):
    """A random filling of the class with a fixed amount of content, so that
    every seed asks for about the same work: one cross per 32 cells in
    distinct rows and columns, a one in every 12th cell, or an entry sum of
    one per 10 cells spread over half as many cells (entries 1 to 3)."""
    cells = shape_cells(rows)
    rng.shuffle(cells)
    n = len(cells)
    if cls == "partial-permutation":
        used_c, used_r, out = set(), set(), {}
        for c, r in cells:
            if c not in used_c and r not in used_r:
                out[(c, r)] = 1
                used_c.add(c)
                used_r.add(r)
                if len(out) == n // 32:
                    break
        return out
    if cls == "zero-one":
        return {cell: 1 for cell in cells[:n // 12]}
    out = {cell: 1 for cell in cells[:n // 20]}
    keys = list(out)
    extra = n // 10 - len(out)
    while extra:
        cell = rng.choice(keys)
        if out[cell] < 3:
            out[cell] += 1
            extra -= 1
    return out


class RoundtripLarge:
    name = "roundtrip-large"
    item = "filling cells"

    def build(self, lib, seed, size):
        rng = random.Random(seed)
        out = []
        for i in range(size["large_count"]):
            variant = lib.VARIANTS[i % len(lib.VARIANTS)]
            rows = random_rows(rng, size["large_cells"])
            entries = random_entries(
                rng, rows, lib.get_variant(variant).filling_class)
            f = lib.Filling(lib.FerrersShape(rows), entries)
            out.append((digest(filling_text(variant, f)), variant, f, sum(rows)))
        return out

    def run_pass(self, lib, instances, tr, tally, keep):
        for key, variant, f, cells in instances:
            sid = tr.begin(tally.attempted)
            start = perf_counter_ns()
            try:
                d = tr.call("growth.label_diagram", lib.label_diagram, f, variant)
                t = tr.call("growth.border_tableau", lib.border_tableau, d)
                back = tr.call("growth.reconstruct", lib.reconstruct, t.word, t,
                               variant)
                end = perf_counter_ns()
                tr.end(sid, start, end)
            except Exception as exc:
                tr.end(sid, None, None)
                tally.error(key, exc)
                continue
            tally.instance(start, end, cells)
            tally.task_done(key, digest(tableau_text(t)), 1,
                            not roundtrip_ok(f, back))
            if keep is not None:
                keep.direct.append((variant, f, d))


# ---------------------------------------------------------------------------
# verify-count

VERIFY_NAMES = ("T2", "T2a-NES1", "T2a-NES2", "T4", "T6")


class VerifyCount:
    name = "verify-count"
    item = "fillings checked"

    def build(self, lib, seed, size):
        """Tasks ``(key, kind, arg, call, fillings checked)``; the filling
        counts are closed forms, not the library's enumeration."""
        nes1, nes2 = size["nes1_sum"], size["nes2_ones"]
        tasks = []
        for s in shapes(lib, 1, size["t2_cells"]):
            tasks.append((f"T2/{shape_key(s)}", "T2", s,
                          partial(lib.verify_t2, shapes=[s]), rook_total(s)))
        for s in shapes(lib, 1, size["nes_cells"]):
            n = s.n_cells
            tasks.append((f"T2a-NES1/{shape_key(s)}/sum<={nes1}", "T2a-NES1", s,
                          partial(lib.verify_t2a_nes1, max_sum=nes1, shapes=[s]),
                          comb(n + nes1, n)))
            tasks.append((f"T2a-NES2/{shape_key(s)}/ones<={nes2}", "T2a-NES2", s,
                          partial(lib.verify_t2a_nes2, max_ones=nes2, shapes=[s]),
                          sum(comb(n, k) for k in range(nes2 + 1))))
        for kind, top, fn in (("T4", size["t4_n"], lib.verify_t4),
                              ("T6", size["t6_n"], lib.verify_t6)):
            for n in range(1, top + 1):
                tasks.append((f"{kind}/n<={n}", kind, n, partial(fn, n),
                              sum(bell(k) for k in range(n + 1))))
        ne = lib.chain_spec("ne", require_rectangle=True)
        se = lib.chain_spec("se", require_rectangle=True)
        cells = size["table_cells"]
        for s in shapes(lib, cells, cells):
            tasks.append((f"count/{shape_key(s)}/ne,se", "count", s,
                          partial(lib.count_table, s, lib.ZERO_ONE, ne, se),
                          2 ** cells))
        random.Random(seed).shuffle(tasks)
        return tasks

    def run_pass(self, lib, tasks, tr, tally, keep):
        for key, kind, arg, call, items in tasks:
            span = "enumeration.count_table" if kind == "count" \
                else f"enumeration.verify.{kind}"
            sid = tr.begin(tally.attempted)
            start = perf_counter_ns()
            try:
                out = tr.call(span, call)
                end = perf_counter_ns()
                tr.end(sid, start, end)
            except Exception as exc:
                tr.end(sid, None, None)
                tally.error(key, exc)
                continue
            tally.instance(start, end, items)
            if kind == "count":
                ok = table_symmetric(out.counts)
                text = ";".join(f"{n}:{s},{t}={c}"
                                for n in sorted(out.counts)
                                for (s, t), c in sorted(out.counts[n].items()))
            else:
                ok = out.verdict == "PASS"
                text = f"{out.name}|{out.verdict}|{out.details}"
            tally.task_done(key, digest(text), 1, not ok)


def table_symmetric(counts):
    """Each per-n table equals its (s, t) transpose.  This holds for every
    shape up to 9 cells at the seed code; in general it is the question
    that ``problem2_evidence`` explores, so the check pins observed
    behaviour, as the digests do."""
    return all(table.get((t, s), 0) == c
               for table in counts.values() for (s, t), c in table.items())


WORKLOADS = {w.name: w for w in (RoundtripSmall(), RoundtripLarge(),
                                 VerifyCount())}
