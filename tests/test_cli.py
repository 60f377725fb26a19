"""End-to-end runs of the command line interface."""

import json

import pytest

from growthdiagrams.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_demo_all_figures(capsys):
    code, out, _ = run(capsys, "demo")
    assert code == 0
    assert "MISMATCH" not in out
    assert out.count("OK") >= 10


@pytest.mark.parametrize("figure",
                         ["0", "2", "3", "4", "5", "6", "6a", "7", "8", "9"])
def test_demo_single_figure(capsys, figure):
    code, out, _ = run(capsys, "demo", "--figure", figure)
    assert code == 0
    assert "MISMATCH" not in out


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


@pytest.mark.parametrize("theorem", ["T4", "T5", "T6"])
def test_set_partition_verifiers_obey_the_budget(capsys, monkeypatch, theorem):
    # Bell(4) = 15 set partitions of {1..4}
    monkeypatch.setenv("GROWTH_BUDGET", "10")
    code, out, err = run(capsys, "verify", "--theorem", theorem, "--max-n", "4")
    assert (code, out) == (3, "")
    assert err == "error: more than 10 set partitions generated\n"


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
    (("inverse", "--tableau", "e,1,e"),
     "--word is required with a comma-list --tableau"),
    (("inverse", "--tableau", RSK_TABLEAU, "--variant", "dual-rsk"),
     "--variant dual-rsk contradicts the tableau's variant rsk"),
    (("inverse", "--tableau", RSK_TABLEAU, "--word", "RDRD"),
     "--word RDRD contradicts the tableau's word RRDD"),
], ids=["filling-no-keys", "filling-not-object", "filling-short-entry",
        "tableau-no-word", "tableau-seq-not-list", "max-n-for-T2",
        "max-cells-for-jonsson", "s-for-T4", "one-chain-code",
        "three-chain-codes", "jonsson-negative-s", "jonsson-zero-s",
        "greene-zero-k", "count-negative-max-n", "explore-negative-max-n",
        "T4-negative-max-n", "T2-no-shapes", "theorem-and-jonsson",
        "stack-and-shape", "filling-and-shape", "filling-and-cells",
        "greene-filling-and-shape", "cells-one-number", "cells-four-numbers",
        "cells-not-integer", "cells-twice", "comma-tableau-no-word",
        "json-tableau-other-variant", "json-tableau-other-word"])
def test_malformed_input_exits_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
