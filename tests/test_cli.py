"""End-to-end runs of the command line interface."""

import json
from pathlib import Path

import pytest

from growthdiagrams.cli import main
from growthdiagrams.shapes import FerrersShape, StackPolyomino


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# the whole stdout of ``demo``: every figure's labels, byte for byte
DEMO_OUTPUT = """\
fig0: standard growth along RDRDDRDDRRD
  input   {"shape": "RDRDDRDDRRD", "entries": [[1, 4, 1], [2, 2, 1], [5, 1, 1]]}
  border  e,1,1,11,11,1,1,1,e,e,1,e
  OK
fig2: pair (1 | 2 6 | 3 | 4 7 | 5 ; 17/5) -> vacillating
  border  e,e,1,1,2,2,2,2,21,21,211,21,21,11,21
  OK
fig3: set partition 1 4 5 7 | 2 6 | 3 -> vacillating tableau
  border  e,e,1,1,11,11,11,1,2,1,11,1,1,e,e
  OK
fig4: set partition 1 4 5 7 | 2 6 | 3 -> hesitating tableau
  border  e,e,1,1,11,21,11,21,2,21,11,1,1,e,e
  OK
fig5: matching 1-4 2-6 3-5 -> oscillating tableau
  sequence e,1,11,21,2,1,e
  OK
fig6: rsk on the 2x4 rectangle
  border   e,3,32,31,3,2,e
  P        112/34
  Q        111/22
  OK
fig6a: rsk on a 2x2 square with entries 1,2,2,0
  corner labels {(1, 1): '1', (1, 2): '3', (2, 1): '3', (2, 2): '32'}
  blow-up       {"shape": "RRRRRDDDDD", "entries": [[1, 1, 1], [2, 4, 1], [3, 5, 1], [4, 2, 1], [5, 3, 1]]}
  OK
fig7: dual-rsk on the 2x4 rectangle
  border   e,3,32,22,21,11,e
  P        11/23/4
  Q        12/12/1
  OK
fig8: rsk-prime on the 2x4 rectangle
  border   e,111,2111,211,21,2,e
  P        11/2/3/4
  Q        12/1/1/2
  OK
fig9: dual-rsk-prime on the 2x4 rectangle
  border   e,111,2111,211,21,11,e
  P        1134/2
  Q        1112/2
  corner   2111
  OK
"""


def test_demo_all_figures(capsys):
    code, out, _ = run(capsys, "demo")
    assert code == 0
    assert out == DEMO_OUTPUT


@pytest.mark.parametrize("figure",
                         ["0", "2", "3", "4", "5", "6", "6a", "7", "8", "9"])
def test_demo_single_figure(capsys, figure):
    code, out, _ = run(capsys, "demo", "--figure", figure)
    assert code == 0
    assert out.startswith(f"fig{figure}: ") and out in DEMO_OUTPUT


def test_map_text_output(capsys):
    code, out, _ = run(capsys, "map", "--shape", "RDRDDRDDRRD",
                       "--cells", "2,2 1,4 5,1")
    assert code == 0
    assert out.strip().splitlines()[-1].endswith(
        "e,1,1,11,11,1,1,1,e,e,1,e")


def test_map_json_and_inverse_round_trip(capsys):
    code, out, _ = run(capsys, "map", "--shape", "RDRDDRDDRRD",
                       "--cells", "2,2 1,4 5,1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    compact = ",".join("e" if not p else "".join(str(x) for x in p)
                       for p in doc["seq"])
    code, out, _ = run(capsys, "inverse", "--word", doc["word"],
                       "--tableau", compact, "--format", "json")
    assert code == 0
    back = json.loads(out)
    cells = {(c, r): v for c, r, v in back["filling"]["entries"]}
    assert cells == {(2, 2): 1, (1, 4): 1, (5, 1): 1}
    assert all(p == [] for p in back["bottom"] + back["left"])


def test_map_text_with_bracketed_labels_replays(capsys):
    """A label with a part above 9 prints as "[10,1]", commas and all; the
    text border still replays through inverse."""
    cells = "1,1 2,2 3,3 4,4 5,5 6,6 7,7 8,8 9,9 11,10 10,11"
    code, out, _ = run(capsys, "map", "--shape", ",".join(["11"] * 11),
                       "--cells", cells)
    assert code == 0
    lines = dict(line.split(None, 1) for line in out.splitlines())
    assert "[10],[10,1],[10]" in lines["border"]
    code, out, _ = run(capsys, "inverse", "--word", lines["word"],
                       "--tableau", lines["border"], "--format", "json")
    assert code == 0
    back = json.loads(out)
    assert {(c, r) for c, r, _ in back["filling"]["entries"]} == {
        tuple(map(int, item.split(","))) for item in cells.split()}
    assert all(p == [] for p in back["bottom"] + back["left"])


ARBITRARY_CELLS = ("1,1,2 2,2 1,2,3", {(1, 1): 2, (2, 2): 1, (1, 2): 3})
ZERO_ONE_CELLS = ("1,1 2,1 1,2", {(1, 1): 1, (2, 1): 1, (1, 2): 1})


@pytest.mark.parametrize("variant, cells, want", [
    ("standard", "1,1 2,2", {(1, 1): 1, (2, 2): 1}),
    ("rsk", *ARBITRARY_CELLS),
    ("dual-rsk", *ZERO_ONE_CELLS),
    ("rsk-prime", *ZERO_ONE_CELLS),
    ("dual-rsk-prime", *ARBITRARY_CELLS),
])
def test_map_json_replays_through_inverse(capsys, variant, cells, want):
    """A JSON tableau carries its own word and variant into inverse."""
    code, out, _ = run(capsys, "map", "--shape", "2,2", "--cells", cells,
                       "--variant", variant, "--word", "RRDD",
                       "--format", "json")
    assert code == 0
    tableau = out.strip()
    assert json.loads(tableau)["variant"] == variant
    for extra in ((), ("--word", "RRDD"), ("--variant", variant)):
        code, out, _ = run(capsys, "inverse", "--tableau", tableau,
                           "--format", "json", *extra)
        assert code == 0
        back = json.loads(out)
        assert {(c, r): v for c, r, v in back["filling"]["entries"]} == want
        assert all(p == [] for p in back["bottom"] + back["left"])


UNNAMED_TABLEAU = '{"word": "RRDD", "seq": [[], [2], [3], [2], []]}'


def test_json_tableau_without_variant_takes_the_flag(capsys):
    """A JSON tableau that names no variant is read with --variant, and
    with standard when there is none, as a comma list is."""
    code, out, _ = run(capsys, "inverse", "--variant", "rsk",
                       "--tableau", UNNAMED_TABLEAU, "--format", "json")
    assert code == 0
    entries = json.loads(out)["filling"]["entries"]
    assert sorted(map(tuple, entries)) == [(1, 1, 2), (2, 2, 1)]
    code, out, err = run(capsys, "inverse", "--tableau", UNNAMED_TABLEAU)
    assert code == 2
    assert err == ("error: step 1 (R) from () to (2,) is not a valid "
                   "standard step\n")
    code, out, _ = run(capsys, "inverse", "--format", "json", "--tableau",
                       '{"word": "RD", "seq": [[], [1], []]}')
    assert code == 0
    assert json.loads(out)["filling"]["entries"] == [[1, 1, 1]]


def test_map_rejects_filling_outside_class(capsys):
    code, _, err = run(capsys, "map", "--shape", "2,2",
                       "--cells", "1,1,2", "--variant", "standard")
    assert code == 2
    assert "error" in err


def test_inverse_rejects_bad_tableau(capsys):
    code, _, err = run(capsys, "inverse", "--word", "RD",
                       "--tableau", "e,3,e")
    assert code == 2


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    # demo prints text only, so it takes no --format
    with pytest.raises(SystemExit) as exc:
        main(["demo", "--figure", "5", "--format", "json"])
    assert exc.value.code == 2


def test_verify_theorem(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "T4", "--max-n", "4")
    assert code == 0
    assert "PASS" in out


def test_verify_jonsson(capsys):
    code, out, _ = run(capsys, "verify", "--jonsson", "1,3,2", "--s", "1")
    assert code == 0
    assert "PASS" in out


def test_count_csv(capsys):
    code, out, _ = run(capsys, "count", "--shape", "2,2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "shape,class,n,s,t,count"
    assert len(lines) > 1


def test_count_json_symmetric(capsys):
    code, out, _ = run(capsys, "count", "--shape", "2,2",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    for tab in doc["counts"].values():
        for key, cnt in tab.items():
            s, t = key.split(",")
            assert tab.get(f"{t},{s}", 0) == cnt


def test_greene_subcommand(capsys):
    code, out, _ = run(capsys, "greene", "--shape", "3,2,1",
                       "--cells", "1,3 2,2 3,1")
    assert code == 0
    assert "PASS" in out


def test_greene_past_the_oracle_caps(capsys):
    code, out, err = run(capsys, "greene", "--shape", "5,5,5,5",
                         "--cells", "1,1 2,3 3,2 4,4")
    assert (code, out, err) == (0, "greene[standard]: PASS [k in (1, 2, 3)]\n", "")


def test_greene_huge_k(capsys):
    code, out, _ = run(capsys, "greene", "--shape", "3,2,1",
                       "--cells", "1,3 2,2 3,1", "--k", str(10 ** 12))
    assert (code, out) == (0, "greene[standard]: PASS [k in 1..1000000000000]\n")


GOLDEN = Path(__file__).resolve().parent / "golden"


# every verifier at a small size
VERIFY_RUNS = (("T2", "--max-cells", "5"), ("T2a-NES1", "--max-cells", "4"),
               ("T2a-NES2", "--max-cells", "4"), ("T2sym", "--max-cells", "6"),
               ("T2asym", "--max-cells", "6"), ("T4", "--max-n", "6"),
               ("T5", "--max-n", "6"), ("T6", "--max-n", "5"))


@pytest.mark.parametrize("golden, argv", [
    ("count_432.json", [("count", "--shape", "4,3,2", "--class", "zero-one",
                         "--chains", "ne,se", "--rectangle", "both",
                         "--format", "json")]),
    ("count_332.csv", [("count", "--shape", "3,3,2", "--class", "zero-one",
                        "--chains", "ne,se", "--rectangle", "both",
                        "--format", "csv")]),
    ("explore_4443.txt", [("explore", "--shape", "4,4,4,3", "--table")]),
    ("verify.txt", [("verify", "--theorem", *run) for run in VERIFY_RUNS]),
    ("verify.json", [("verify", "--theorem", *run, "--format", "json")
                     for run in VERIFY_RUNS]),
])
def test_zero_one_tables_print_the_golden_output(capsys, golden, argv):
    """Full 0-1 tables, byte for byte with the tables enumeration printed,
    keys in the order of the generated fillings, and every verifier's
    verdict at a small size: the output of each command line of ``argv``
    in turn."""
    out = ""
    for line in argv:
        code, more, _ = run(capsys, *line)
        assert code == 0, line
        out += more
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_max_n_past_the_largest_n_stops_there(capsys, fmt):
    """A partial permutation of the shape 2,1 has at most two crosses, so
    a larger --max-n prints the same table, and no n past 2 is walked."""
    want = run(capsys, "count", "--shape", "2,1", "--max-n", "2",
               "--format", fmt)
    assert want[0] == 0
    assert run(capsys, "count", "--shape", "2,1", "--max-n", str(10 ** 12),
               "--format", fmt) == want


@pytest.mark.parametrize("fmt, want", [
    ("csv", "shape,class,n,s,t,count\n(empty),arbitrary,0,0,0,1\n"),
    ("json", '{"shape": "(empty)", "class": "arbitrary", "chains": "NE,SE", '
             '"counts": {"0": {"0,0": 1}}}\n')])
def test_empty_shape_stops_at_n_zero(capsys, fmt, want):
    """Arbitrary fillings of the empty shape have no n past 0, so a huge
    --max-n prints the single n = 0 row."""
    assert run(capsys, "count", "--shape", "", "--class", "arbitrary",
               "--max-n", str(10 ** 12), "--format", fmt) == (0, want, "")


def test_explore_is_evidence_only(capsys):
    code, out, _ = run(capsys, "explore", "--stack", "1,2,1", "--max-n", "2")
    assert code == 0
    assert "EVIDENCE" in out
    assert "PASS" not in out and "FAIL" not in out


@pytest.mark.parametrize("argv", [
    ("verify", "--theorem", "T2", "--max-cells", "6"),
    ("explore", "--shape", "3,3,2"),
    ("verify", "--jonsson", "1,3,2", "--s", "1"),
])
def test_oversize_instance_exits_3(capsys, monkeypatch, argv):
    monkeypatch.setenv("GROWTH_BUDGET", "5")
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert err == "error: more than 5 fillings generated\n"


def test_oversize_shape_exits_3_before_it_is_built(capsys, monkeypatch):
    """A row longer than the budget is refused before the shape is built,
    at once and in one line."""
    def refuse(shape):
        raise AssertionError(f"built {shape.rows[:3]}...")
    monkeypatch.setattr(FerrersShape, "__post_init__", refuse)
    monkeypatch.setenv("GROWTH_BUDGET", "1000")
    code, out, err = run(capsys, "count", "--shape", "1000000", "--max-n",
                         "1")
    assert (code, out) == (3, "")
    assert err == "error: shape '1000000' has a row of more than 1000 cells\n"


def test_oversize_stack_exits_3_before_it_is_built(capsys, monkeypatch):
    """A column taller than the budget is refused before the stack is
    built, at once and in one line."""
    def refuse(stack):
        raise AssertionError(f"built {stack.col_heights[:3]}...")
    monkeypatch.setattr(StackPolyomino, "__post_init__", refuse)
    monkeypatch.setenv("GROWTH_BUDGET", "10")
    code, out, err = run(capsys, "explore", "--stack", "1000000", "--max-n",
                         "1")
    assert (code, out) == (3, "")
    assert err == "error: stack '1000000' has a column of more than 10 cells\n"


@pytest.mark.parametrize("theorem", ["T4", "T5", "T6"])
def test_set_partition_verifiers_obey_the_budget(capsys, monkeypatch, theorem):
    # Bell(4) = 15 set partitions of {1..4}
    monkeypatch.setenv("GROWTH_BUDGET", "10")
    code, out, err = run(capsys, "verify", "--theorem", theorem, "--max-n", "4")
    assert (code, out) == (3, "")
    assert err == "error: more than 10 set partitions generated\n"


@pytest.mark.parametrize("theorem", ["T4", "T5", "T6"])
def test_set_partition_verifiers_charge_every_n_to_one_budget(
        capsys, monkeypatch, theorem):
    """Every n of one set-partition verdict is charged to one budget: up to
    n = 9 it walks Bell(0) + ... + Bell(9) = 26,443 set partitions, and
    refuses one less, although no n has more than Bell(9) = 21,147."""
    monkeypatch.setenv("GROWTH_BUDGET", "26443")
    code, out, _ = run(capsys, "verify", "--theorem", theorem, "--max-n", "9")
    assert code == 0 and "PASS" in out
    monkeypatch.setenv("GROWTH_BUDGET", "26442")
    code, out, err = run(capsys, "verify", "--theorem", theorem, "--max-n",
                         "9")
    assert (code, out) == (3, "")
    assert err == "error: more than 26442 set partitions generated\n"


def test_bad_budget_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("GROWTH_BUDGET", "abc")
    code, _, err = run(capsys, "verify", "--theorem", "T2", "--max-cells", "3")
    assert code == 2
    assert err == "error: GROWTH_BUDGET must be a positive integer, got 'abc'\n"


RSK_TABLEAU = '{"word": "RRDD", "seq": [[], [2], [3], [2], []], "variant": "rsk"}'


@pytest.mark.parametrize("argv, message", [
    (("map", "--filling", "{}"), "a filling is a JSON object"),
    (("map", "--filling", "[1, 2]"), "a filling is a JSON object"),
    (("map", "--filling", '{"shape": "RD", "entries": [[1, 1]]}'),
     "a filling is a JSON object"),
    (("inverse", "--word", "RD", "--tableau", '{"seq": []}'),
     "a growth tableau is a JSON object"),
    (("inverse", "--word", "RD", "--tableau", '{"word": "RD", "seq": "e1e"}'),
     "a growth tableau is a JSON object"),
    (("verify", "--theorem", "T2", "--max-n", "3"),
     "--max-n does not apply to --theorem T2"),
    (("verify", "--jonsson", "1,3,2", "--max-cells", "3"),
     "--max-cells does not apply to --jonsson"),
    (("verify", "--theorem", "T4", "--s", "3"),
     "--s does not apply to --theorem T4"),
    (("count", "--shape", "2,2", "--chains", "NE"),
     "--chains takes two codes"),
    (("count", "--shape", "2,2", "--chains", "NE,SE,XX"),
     "--chains takes two codes"),
    (("verify", "--jonsson", "1,3,2", "--s", "-1"), "s must be at least 1"),
    (("verify", "--jonsson", "1,3,2", "--s", "0"), "s must be at least 1"),
    (("greene", "--shape", "3,2,1", "--cells", "1,3", "--k", "0"),
     "k must be at least 1"),
    (("count", "--shape", "2,2", "--max-n", "-1"), "max_n must be at least 0"),
    (("explore", "--shape", "2,2", "--max-n", "-1"),
     "max_n must be at least 0"),
    (("verify", "--theorem", "T4", "--max-n", "-1"),
     "max_n must be at least 0"),
    (("verify", "--theorem", "T2", "--max-cells", "0"), "no shape to check"),
    (("verify", "--theorem", "T4", "--jonsson", "1,3,2"),
     "give --theorem or --jonsson, not both"),
    (("explore", "--stack", "1,2", "--shape", "2,1"),
     "give --stack or --shape, not both"),
    (("map", "--filling", '{"shape": "RD", "entries": []}', "--shape", "1"),
     "--shape does not apply with --filling"),
    (("map", "--filling", '{"shape": "RD", "entries": []}', "--cells", "1,1"),
     "--cells does not apply with --filling"),
    (("greene", "--filling", '{"shape": "RD", "entries": []}', "--shape", "1",
      "--cells", "1,1"), "--shape does not apply with --filling"),
    (("map", "--shape", "2,2", "--cells", "1"),
     "--cells takes entries c,r[,v] of integers, not '1'"),
    (("map", "--shape", "2,2", "--cells", "1,1,1,1"),
     "--cells takes entries c,r[,v] of integers, not '1,1,1,1'"),
    (("map", "--shape", "2,2", "--cells", "1,x"),
     "--cells takes entries c,r[,v] of integers, not '1,x'"),
    (("map", "--shape", "2,2", "--cells", "1,1 2,2 1,1,0"),
     "--cells gives cell 1,1 twice"),
    (("map", "--filling", '{"shape": "RRDD", "entries": [[1, 1, 1], [1, 1, 0]]}'),
     "the entries give cell 1,1 twice"),
    (("inverse", "--tableau", "e,1,e"),
     "--word is required with a comma-list --tableau"),
    (("inverse", "--tableau", RSK_TABLEAU, "--variant", "dual-rsk"),
     "--variant dual-rsk contradicts the tableau's variant rsk"),
    (("inverse", "--tableau", RSK_TABLEAU, "--word", "RDRD"),
     "--word RDRD contradicts the tableau's word RRDD"),
    (("count", "--shape", "3,x"), "'x' in '3,x' is not an integer"),
    (("verify", "--jonsson", "1,,2"), "'' in '1,,2' is not an integer"),
    (("explore", "--stack", "1,x"), "'x' in '1,x' is not an integer"),
    (("inverse", "--word", "RD", "--tableau", "e,[1 ,e"),
     "unbalanced brackets in '[1'"),
], ids=["filling-no-keys", "filling-not-object", "filling-short-entry",
        "tableau-no-word", "tableau-seq-not-list", "max-n-for-T2",
        "max-cells-for-jonsson", "s-for-T4", "one-chain-code",
        "three-chain-codes", "jonsson-negative-s", "jonsson-zero-s",
        "greene-zero-k", "count-negative-max-n", "explore-negative-max-n",
        "T4-negative-max-n", "T2-no-shapes", "theorem-and-jonsson",
        "stack-and-shape", "filling-and-shape", "filling-and-cells",
        "greene-filling-and-shape", "cells-one-number", "cells-four-numbers",
        "cells-not-integer", "cells-twice", "filling-cell-twice",
        "comma-tableau-no-word",
        "json-tableau-other-variant", "json-tableau-other-word",
        "count-shape-not-integer", "jonsson-empty-height",
        "explore-stack-not-integer", "comma-tableau-open-bracket"])
def test_malformed_input_exits_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
