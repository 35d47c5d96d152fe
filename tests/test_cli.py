import json
import os

import pytest

from weylorbits.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


FIG_ARGS = ("--type", "A", "--rank", "3", "--I", "1", "--J", "3")


def test_poset_text(capsys):
    code, out, _ = run(capsys, "poset", *FIG_ARGS)
    assert code == 0
    assert out.startswith("12 nodes, 22 cover edges")
    assert "s2 s1 s3 s2 s1" in out


def test_poset_json(capsys):
    code, out, _ = run(capsys, "poset", *FIG_ARGS, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["nodes"]) == 12 and len(data["edges"]) == 22
    lengths = sorted(node["length"] for node in data["nodes"])
    assert lengths == [0, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 5]


def test_poset_dot(capsys):
    code, out, _ = run(capsys, "poset", *FIG_ARGS, "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert out.count("->") == 22
    assert "rank = same;" in out


def test_poset_output_file(tmp_path, capsys):
    target = tmp_path / "poset.json"
    code, out, _ = run(
        capsys, "poset", *FIG_ARGS, "--format", "json", "--output", str(target)
    )
    assert code == 0 and out == ""
    assert len(json.loads(target.read_text())["nodes"]) == 12


def test_deterministic_output(capsys):
    _, first, _ = run(capsys, "poset", *FIG_ARGS, "--format", "json")
    _, second, _ = run(capsys, "poset", *FIG_ARGS, "--format", "json")
    assert first == second


def test_poset_usage_errors(capsys):
    code, _, err = run(capsys, "poset", "--type", "E", "--rank", "5")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "poset", "--type", "A", "--rank", "3", "--I", "1", "--J", "1")
    assert code == 2
    code, _, _ = run(capsys, "poset", "--type", "A")  # missing --rank
    assert code == 2


def test_compare_comparable(capsys):
    code, out, _ = run(capsys, "compare", *FIG_ARGS, "1", "3 2")
    assert code == 0
    assert "s1 <=_O s3 s2" in out and "witness" in out


def test_compare_incomparable(capsys):
    code, out, _ = run(capsys, "compare", *FIG_ARGS, "1 2", "3 2")
    assert code == 1
    assert "not s1 s2 <=_O s3 s2" in out


def test_compare_perm_and_nr(capsys):
    code, out, _ = run(
        capsys,
        "compare",
        *FIG_ARGS,
        "--perm",
        "--nr",
        "4 2",
        "1 2 3 4",
        "4 3 1 2",
    )
    assert code == 0
    assert "S_w = (0 0 1 2)" in out
    assert "S_w = (4 3 0 0)" in out
    assert "leq_D: True" in out


def test_compare_bad_word(capsys):
    code, _, err = run(capsys, "compare", *FIG_ARGS, "9", "1")
    assert code == 2 and "error" in err


def test_classify_text(capsys):
    code, out, _ = run(capsys, "classify", "--type", "G", "--rank", "2", "3 2", "1 0")
    assert code == 0
    assert "rationally orthogonal: False" in out
    assert "case G2both" in out
    assert "height: 4  spherical: False" in out
    assert "weighted Dynkin diagram: 0 2" in out


def test_classify_json(capsys):
    code, out, _ = run(
        capsys,
        "classify",
        "--type",
        "D",
        "--rank",
        "4",
        "--format",
        "json",
        "1 2 1 1",
        "1 0 0 0",
        "0 0 1 0",
        "0 0 0 1",
    )
    assert code == 0
    data = json.loads(out)
    assert data["rationally_orthogonal"] is False
    assert data["height"] == 4 and data["spherical"] is False
    assert {c["case"] for c in data["cases"]} == {"D4"}
    assert data["dynkin_labels"] == [0, 2, 0, 0]


def test_classify_usage_errors(capsys):
    code, _, _ = run(capsys, "classify", "--type", "A", "--rank", "3", "7 0 0")
    assert code == 2
    code, _, _ = run(capsys, "classify", "--type", "A", "--rank", "3", "1 0 0", "1 1 0")
    assert code == 2


def test_cascade(capsys):
    code, out, _ = run(capsys, "cascade", "--type", "A", "--rank", "3")
    assert code == 0
    assert "chain cascade of A3" in out
    assert "[1, 1, 1]" in out and "[0, 1, 0]" in out


def test_cascade_depth(capsys):
    code, full, _ = run(capsys, "cascade", "--type", "B", "--rank", "3")
    code2, cut, _ = run(capsys, "cascade", "--type", "B", "--rank", "3", "--depth", "1")
    assert code == 0 and code2 == 0
    assert len(cut.splitlines()) < len(full.splitlines())


def test_orbits_text(capsys):
    code, out, _ = run(capsys, "orbits", "--n", "4", "--r", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 13  # header + 12 rows
    assert "(0 0 1 2)" in lines[1]


def test_orbits_json(capsys):
    code, out, _ = run(capsys, "orbits", "--n", "4", "--r", "2", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 12
    dims = sorted(row["b_orbit_dimension"] for row in rows)
    assert dims[0] == 3 and dims[-1] == 8
    for row in rows:
        assert row["b_orbit_dimension"] - dims[0] == row["length"]


def test_orbits_r_zero(capsys):
    code, out, _ = run(capsys, "orbits", "--n", "3", "--r", "0", "--format", "json")
    assert code == 0 and len(json.loads(out)) == 1


def test_orbits_usage(capsys):
    code, _, _ = run(capsys, "orbits", "--n", "3", "--r", "2")
    assert code == 2


def test_selftest_default(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_selftest_flags(capsys):
    code, out, _ = run(capsys, "selftest", "--nr", "5 2", "--coxeter", "B3")
    assert code == 0
    assert "order equivalence (n=5, r=2): ok" in out
    assert "cover equivalence (B3): ok" in out


def test_cap_override(capsys, monkeypatch):
    monkeypatch.setenv("WEYLORBITS_CAP", "5")
    code, _, err = run(capsys, "poset", "--type", "A", "--rank", "3")
    assert code == 3 and "error" in err
    monkeypatch.setenv("WEYLORBITS_CAP", "banana")
    code, _, _ = run(capsys, "poset", "--type", "A", "--rank", "3")
    assert code == 2


def test_unknown_command(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def _assert_usage_error(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_bad_star_pair(capsys):
    _assert_usage_error(capsys, "poset", *FIG_ARGS, "--star", "x:y")


def test_perm_not_a_permutation(capsys):
    _assert_usage_error(capsys, "compare", *FIG_ARGS, "--perm", "1 1 2 3", "1 2 3 4")


def test_selftest_nr_needs_two_integers(capsys):
    _assert_usage_error(capsys, "selftest", "--nr", "3")


def test_selftest_unknown_coxeter(capsys):
    _assert_usage_error(capsys, "selftest", "--coxeter", "Z9")


def test_selftest_coxeter_without_index_3(capsys):
    _assert_usage_error(capsys, "selftest", "--coxeter", "G2")


def test_cascade_negative_depth(capsys):
    _assert_usage_error(capsys, "cascade", "--type", "A", "--rank", "3", "--depth", "-1")


def test_cap_applies_to_cached_group(capsys, monkeypatch):
    monkeypatch.delenv("WEYLORBITS_CAP", raising=False)
    code, _, _ = run(capsys, "poset", "--type", "A", "--rank", "3")
    assert code == 0
    monkeypatch.setenv("WEYLORBITS_CAP", "23")
    code, out, err = run(capsys, "poset", "--type", "A", "--rank", "3")
    assert code == 3 and out == ""
    assert err == "error: enumeration cap exceeded; partial size 23\n"
    monkeypatch.setenv("WEYLORBITS_CAP", "24")
    code, _, _ = run(capsys, "poset", "--type", "A", "--rank", "3")
    assert code == 0


def test_orbits_honours_cap(capsys, monkeypatch):
    monkeypatch.setenv("WEYLORBITS_CAP", "10")
    code, out, err = run(capsys, "orbits", "--n", "4", "--r", "2")
    assert code == 3 and out == ""
    assert err == "error: enumeration cap exceeded; partial size 10\n"
    monkeypatch.setenv("WEYLORBITS_CAP", "24")
    code, _, _ = run(capsys, "orbits", "--n", "4", "--r", "2")
    assert code == 0


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


@pytest.mark.parametrize(
    "name,argv",
    [
        ("classify-5-G2.text", ("classify", "--type", "G", "--rank", "2", "3 2", "1 0")),
        ("cascade-E7.text", ("cascade", "--type", "E", "--rank", "7")),
    ],
)
def test_cap_ignored_by_commands_that_do_not_enumerate(capsys, monkeypatch, name, argv):
    monkeypatch.setenv("WEYLORBITS_CAP", "10")
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        assert out == fh.read()


@pytest.mark.parametrize("cap", ["0", "-3", "banana"])
def test_bad_cap_is_a_usage_error(capsys, monkeypatch, cap):
    monkeypatch.setenv("WEYLORBITS_CAP", cap)
    _assert_usage_error(capsys, "poset", *FIG_ARGS)
