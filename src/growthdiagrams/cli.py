"""Command-line frontend.

Subcommands: map, inverse, demo, verify, count, greene, explore.
Exit codes: 0 for success / PASS, 1 for FAIL or a counterexample,
2 for usage errors, 3 for an instance over its budget (InstanceTooLarge).
"""

import argparse
import inspect
import json
import re
import sys

from .correspondences import (Matching, PartialTableau, SetPartition,
                              matching_to_oscillating, pair_to_vacillating,
                              setpartition_to_hesitating,
                              setpartition_to_vacillating)
from .enumeration import (VERIFIERS, InstanceTooLarge, check_greene,
                          count_table, jonsson_check, problem2_evidence,
                          verify_theorem)
from .fillings import Filling, chain_spec, filling_from_json, filling_to_json
from .growth import (GrowthTableau, blow_up, growth_tableau, label_diagram,
                     reconstruct, tableau_from_json, tableau_to_json)
from .insertion import insertion_border
from .local_rules import VARIANTS, get_variant
from .partitions import conjugate, parse_partition, part, to_compact
from .shapes import FerrersShape, shape_from_text, stack_from_text


def _read_maybe_file(text: str) -> str:
    if text == "-":
        return sys.stdin.read()
    if text.startswith("@"):
        with open(text[1:]) as fh:
            return fh.read()
    return text


def _parse_filling(args) -> Filling:
    if args.filling is not None:
        for flag, value in (("--shape", args.shape), ("--cells", args.cells)):
            if value is not None:
                raise ValueError(f"{flag} does not apply with --filling")
        return filling_from_json(_read_maybe_file(args.filling))
    if args.shape is None or args.cells is None:
        raise ValueError("need either --filling or both --shape and --cells")
    shape = shape_from_text(args.shape)
    entries = {}
    for item in args.cells.split():
        try:
            nums = [int(x) for x in item.split(",")]
        except ValueError:
            nums = ()
        if len(nums) not in (2, 3):
            raise ValueError(f"--cells takes entries c,r[,v] of integers, "
                             f"not {item!r}")
        c, r, v = nums if len(nums) == 3 else (*nums, 1)
        if (c, r) in entries:
            raise ValueError(f"--cells gives cell {c},{r} twice")
        entries[(c, r)] = v
    return Filling(shape, entries)


_LIST_SEPARATOR = re.compile(r"[,\s]+(?![^\[]*\])")


def _parse_tableau(args) -> GrowthTableau:
    """The tableau of --tableau.  A JSON tableau carries its own word and
    variant, which --word and --variant may repeat but not contradict; a
    comma list takes them from --word (required) and --variant, and so does
    a JSON tableau that names no variant."""
    text = _read_maybe_file(args.tableau)
    variant = args.variant or "standard"
    if text.lstrip().startswith("{"):
        t = tableau_from_json(text, variant)
        for flag, given, own in (("--word", args.word, t.word),
                                 ("--variant", args.variant, t.variant)):
            if given not in (None, own):
                raise ValueError(f"{flag} {given} contradicts the tableau's "
                                 f"{flag[2:]} {own}")
        return t
    if args.word is None:
        raise ValueError("--word is required with a comma-list --tableau")
    # split at commas and spaces, except inside a bracketed label "[10,1]"
    seq = tuple(parse_partition(p) for p in _LIST_SEPARATOR.split(text) if p)
    return GrowthTableau(args.word, seq, variant)


def _seq_str(seq) -> str:
    return ",".join(to_compact(p) for p in seq)


def _print_tableau(t: GrowthTableau, fmt: str):
    if fmt == "json":
        print(tableau_to_json(t))
    else:
        print(f"word    {t.word}")
        print(f"variant {t.variant}")
        print(f"border  {_seq_str(t.seq)}")


def cmd_map(args) -> int:
    f = _parse_filling(args)
    word = args.word or f.shape.word
    t = growth_tableau(f, args.variant, word)
    _print_tableau(t, args.format)
    return 0


def cmd_inverse(args) -> int:
    t = _parse_tableau(args)
    filling, bottom, left = reconstruct(t.word, t)
    if args.format == "json":
        print(json.dumps({
            "filling": json.loads(filling_to_json(filling)),
            "bottom": [list(p) for p in bottom],
            "left": [list(p) for p in left],
        }))
    else:
        print(f"filling {filling_to_json(filling)}")
        print(f"bottom  {_seq_str(bottom)}")
        print(f"left    {_seq_str(left)}")
    return 0


# ---------------------------------------------------------------------------
# demo fixtures: worked examples with their expected outputs embedded

def _rows_str(rows) -> str:
    return "/".join("".join(str(x) for x in row) for row in rows) or "-"


_RECT_SHAPE = FerrersShape((2, 2, 2, 2))
_RECT_ONES = {(1, 1): 1, (1, 3): 1, (1, 4): 1, (2, 1): 1, (2, 2): 1}
_RECT_WORD = "RRDDDD"


def _demo_border(name, filling, variant, word, expected):
    t = growth_tableau(filling, variant, word)
    lines = [f"{name}: {variant} growth along {word}",
             f"  input   {filling_to_json(filling)}",
             f"  border  {_seq_str(t.seq)}"]
    return lines, _seq_str(t.seq) == expected


def _demo_fig0():
    shape = shape_from_text("RDRDDRDDRRD")
    f = Filling(shape, {(2, 2): 1, (1, 4): 1, (5, 1): 1})
    return _demo_border("fig0", f, "standard", shape.word,
                        "e,1,1,11,11,1,1,1,e,e,1,e")


def _demo_fig2():
    p = SetPartition(7, ((1,), (2, 6), (3,), (4, 7), (5,)))
    t = PartialTableau(((1, 7), (5,)))
    out = pair_to_vacillating(p, t)
    expected = "e,e,1,1,2,2,2,2,21,21,211,21,21,11,21"
    lines = [f"fig2: pair ({p} ; {_rows_str(t.rows)}) -> vacillating",
             f"  border  {_seq_str(out.seq)}"]
    return lines, _seq_str(out.seq) == expected


def _demo_fig3():
    p = SetPartition(7, ((1, 4, 5, 7), (2, 6), (3,)))
    out = setpartition_to_vacillating(p)
    expected = "e,e,1,1,11,11,11,1,2,1,11,1,1,e,e"
    lines = [f"fig3: set partition {p} -> vacillating tableau",
             f"  border  {_seq_str(out.seq)}"]
    return lines, _seq_str(out.seq) == expected


def _demo_fig4():
    p = SetPartition(7, ((1, 4, 5, 7), (2, 6), (3,)))
    out = setpartition_to_hesitating(p)
    expected = "e,e,1,1,11,21,11,21,2,21,11,1,1,e,e"
    lines = [f"fig4: set partition {p} -> hesitating tableau",
             f"  border  {_seq_str(out.seq)}"]
    return lines, _seq_str(out.seq) == expected


def _demo_fig5():
    m = Matching(3, ((1, 4), (2, 6), (3, 5)))
    out = matching_to_oscillating(m)
    expected = "e,1,11,21,2,1,e"
    lines = [f"fig5: matching {m} -> oscillating tableau",
             f"  sequence {_seq_str(out.seq)}"]
    return lines, _seq_str(out.seq) == expected


def _tableau_from_chain(chain):
    """Fill the squares of a growing chain of partitions: the squares added
    at step i all receive the entry i."""
    rows = {}
    for i in range(1, len(chain)):
        smaller, bigger = chain[i - 1], chain[i]
        for r in range(1, len(bigger) + 1):
            for c in range(part(smaller, r) + 1, part(bigger, r) + 1):
                rows.setdefault(r, {})[c] = i
    out = []
    for r in range(1, max(rows, default=0) + 1):
        row = rows.get(r, {})
        out.append(tuple(row[c] for c in range(1, max(row, default=0) + 1)))
    return tuple(out)


def _demo_pair(name, variant, expected_p, expected_q):
    """P and Q of the 2x4 rectangle, read off the border of the sweeps and
    off the border of insertion: Q from the top border, P from the right
    side, bottom up.  Both pairs must be the paper's."""
    f = Filling(_RECT_SHAPE, _RECT_ONES)
    t = growth_tableau(f, variant, _RECT_WORD)
    v = get_variant(variant)
    heights = [_RECT_SHAPE.n_rows, *_RECT_SHAPE.col_heights]
    cols = _RECT_SHAPE.n_cols
    pairs = []
    for seq in (t.seq, insertion_border(heights, f.entries, v.right, v.down)):
        # the column-insertion variants report the transposed pair, the
        # pair of the conjugated chain
        if v.down == "V":
            seq = [conjugate(lam) for lam in seq]
        pairs.append((_tableau_from_chain(seq[cols:][::-1]),
                      _tableau_from_chain(seq[:cols + 1])))
    p, q = pairs[0]
    lines = [f"{name}: {variant} on the 2x4 rectangle",
             f"  border   {_seq_str(t.seq)}",
             f"  P        {_rows_str(p)}",
             f"  Q        {_rows_str(q)}"]
    return lines, pairs == [(expected_p, expected_q)] * 2


def _demo_fig6():
    return _demo_pair("fig6", "rsk",
                      ((1, 1, 2), (3, 4)), ((1, 1, 1), (2, 2)))


def _demo_fig7():
    return _demo_pair("fig7", "dual-rsk",
                      ((1, 1), (2, 3), (4,)), ((1, 2), (1, 2), (1,)))


def _demo_fig8():
    return _demo_pair("fig8", "rsk-prime",
                      ((1, 1), (2,), (3,), (4,)), ((1, 2), (1,), (1,), (2,)))


def _demo_fig9():
    f = Filling(_RECT_SHAPE, _RECT_ONES)
    lines, ok = _demo_pair("fig9", "dual-rsk-prime",
                           ((1, 1, 3, 4), (2,)), ((1, 1, 1, 2), (2,)))
    corner = label_diagram(f, "dual-rsk-prime").label(2, 4)
    lines.append(f"  corner   {to_compact(corner)}")
    return lines, ok and corner == (2, 1, 1, 1)


def _demo_fig6a():
    shape = FerrersShape((2, 2))
    f = Filling(shape, {(1, 1): 1, (1, 2): 2, (2, 1): 2})
    d = label_diagram(f, "rsk")
    labels = {xy: to_compact(d.label(*xy))
              for xy in ((1, 1), (1, 2), (2, 1), (2, 2))}
    fine, row_blocks, col_blocks = blow_up(f, "rsk")
    lines = [f"fig6a: rsk on a 2x2 square with entries 1,2,2,0",
             f"  corner labels {labels}",
             f"  blow-up       {filling_to_json(fine)}"]
    ok = (labels == {(1, 1): "1", (1, 2): "3", (2, 1): "3", (2, 2): "32"}
          and fine.shape.rows == (5, 5, 5, 5, 5))
    return lines, ok


_DEMOS = {"0": _demo_fig0, "2": _demo_fig2, "3": _demo_fig3, "4": _demo_fig4,
          "5": _demo_fig5, "6": _demo_fig6, "6a": _demo_fig6a,
          "7": _demo_fig7, "8": _demo_fig8, "9": _demo_fig9}


def cmd_demo(args) -> int:
    figures = [args.figure] if args.figure else list(_DEMOS)
    failed = False
    for fig in figures:
        lines, ok = _DEMOS[fig]()
        for line in lines:
            print(line)
        print(f"  {'OK' if ok else 'MISMATCH'}")
        failed = failed or not ok
    return 1 if failed else 0


# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    if args.theorem is not None and args.jonsson is not None:
        raise ValueError("give --theorem or --jonsson, not both")
    if args.jonsson is not None:
        target, params = "--jonsson", ("s",)
    else:
        target = f"--theorem {args.theorem}"
        params = inspect.signature(VERIFIERS[args.theorem]).parameters
    kwargs = {}
    for name in ("max_cells", "max_n", "s"):
        value = getattr(args, name)
        if value is None:
            continue
        if name not in params:
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"{flag} does not apply to {target}")
        kwargs[name] = value
    if args.jonsson is not None:
        report = jonsson_check(stack_from_text(args.jonsson), kwargs.get("s", 1))
    else:
        report = verify_theorem(args.theorem, **kwargs)
    if args.format == "json":
        print(json.dumps({"name": report.name, "verdict": report.verdict,
                          "details": report.details,
                          "witness": repr(report.witness) if report.witness else None}))
    else:
        print(report)
    return 0 if report.passed else 1


def cmd_count(args) -> int:
    shape = shape_from_text(args.shape)
    codes = args.chains.split(",")
    if len(codes) != 2:
        raise ValueError(f"--chains takes two codes, e.g. NE,SE, not {args.chains!r}")
    rect = args.rectangle
    spec_x = chain_spec(codes[0], require_rectangle=rect in ("x", "both"))
    spec_y = chain_spec(codes[1], require_rectangle=rect in ("y", "both"))
    table = count_table(shape, args.filling_class, spec_x, spec_y, args.max_n)
    if args.format == "json":
        print(json.dumps({
            "shape": table.shape_id, "class": table.filling_class,
            "chains": args.chains,
            "counts": {str(n): {f"{s},{t}": c for (s, t), c in tab.items()}
                       for n, tab in table.counts.items()}}))
    else:
        print("shape,class,n,s,t,count")
        for row in table.csv_rows():
            print(",".join(str(x) for x in row))
    return 0


def cmd_greene(args) -> int:
    f = _parse_filling(args)
    report = check_greene(f, args.variant, args.k)
    print(report)
    return 0 if report.passed else 1


def cmd_explore(args) -> int:
    if args.stack is not None and args.shape is not None:
        raise ValueError("give --stack or --shape, not both")
    if args.stack is not None:
        shape = stack_from_text(args.stack)
    else:
        shape = shape_from_text(args.shape)
    report = problem2_evidence(shape, args.max_n)
    print(report)
    if args.table and report.witness is not None:
        for row in report.witness.csv_rows():
            print(",".join(str(x) for x in row))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="growth-diagrams",
        description="Growth diagrams on Ferrers shapes: bijections, "
                    "chain statistics, and exhaustive verifiers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_variant(p, default="standard"):
        p.add_argument("--variant", choices=VARIANTS, default=default)

    def add_filling_inputs(p):
        p.add_argument("--filling", help="filling as JSON, @file, or - for stdin")
        p.add_argument("--shape", help="shape as D/R word or comma row lengths")
        p.add_argument("--cells", help="entries 'c,r[,v] c,r[,v] ...' with --shape")

    def add_format(p, choices=("text", "json")):
        p.add_argument("--format", choices=choices, default="text")

    p = sub.add_parser("map", help="filling -> border tableau")
    add_variant(p)
    add_filling_inputs(p)
    p.add_argument("--word", help="reading word (defaults to the shape word)")
    add_format(p)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("inverse", help="border tableau -> filling")
    add_variant(p, default=None)
    p.add_argument("--word", help="reading word (required with a comma list)")
    p.add_argument("--tableau", required=True,
                   help="comma list of compact partitions (with --word and "
                        "--variant, default standard), JSON, or @file")
    add_format(p)
    p.set_defaults(func=cmd_inverse)

    p = sub.add_parser("demo", help="run the embedded worked examples")
    p.add_argument("--figure", choices=sorted(_DEMOS))
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("verify", help="run a theorem verifier")
    p.add_argument("--theorem", choices=sorted(VERIFIERS))
    p.add_argument("--jonsson", metavar="HEIGHTS",
                   help="stack polyomino column heights, e.g. 1,3,2")
    p.add_argument("--s", type=int, help="chain bound for --jonsson (default 1)")
    p.add_argument("--max-cells", type=int)
    p.add_argument("--max-n", type=int)
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("count", help="chain-statistic count table")
    p.add_argument("--shape", required=True)
    p.add_argument("--class", dest="filling_class", default="partial-permutation",
                   choices=("partial-permutation", "zero-one", "arbitrary"))
    p.add_argument("--chains", default="NE,SE", help="two codes, e.g. NE,SE")
    p.add_argument("--rectangle", choices=("none", "x", "y", "both"),
                   default="y", help="which statistic is rectangle-bounded")
    p.add_argument("--max-n", type=int)
    add_format(p, ("csv", "json"))
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("greene", help="check corner labels against k-chain totals")
    add_variant(p)
    add_filling_inputs(p)
    p.add_argument("--k", type=int, default=3)
    p.set_defaults(func=cmd_greene)

    p = sub.add_parser("explore", help="evidence tables for the open swap question")
    p.add_argument("--stack", metavar="HEIGHTS")
    p.add_argument("--shape")
    p.add_argument("--max-n", type=int)
    p.add_argument("--table", action="store_true", help="print the CSV table")
    p.set_defaults(func=cmd_explore)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.theorem is None and args.jonsson is None:
        parser.error("verify needs --theorem or --jonsson")
    if args.command == "explore" and args.stack is None and args.shape is None:
        parser.error("explore needs --stack or --shape")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InstanceTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
