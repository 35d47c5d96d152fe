import json
import os
import subprocess
import sys
import tracemalloc

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


# Each command accepts only the formats it renders; the rest exit 2.
@pytest.mark.parametrize(
    "argv",
    [
        ("compare", *FIG_ARGS, "1", "3", "--format", "json"),
        ("compare", *FIG_ARGS, "1", "3", "--format", "dot"),
        ("classify", "--type", "G", "--rank", "2", "--format", "dot", "3 2", "1 0"),
        ("cascade", "--type", "A", "--rank", "3", "--format", "json"),
        ("cascade", "--type", "A", "--rank", "3", "--format", "dot"),
        ("orbits", "--n", "4", "--r", "2", "--format", "dot"),
    ],
    ids=["compare-json", "compare-dot", "classify-dot", "cascade-json", "cascade-dot", "orbits-dot"],
)
def test_unrendered_format_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "invalid choice" in err


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


def test_star_repeated_source(capsys):
    # the last pair must not silently win
    _assert_usage_error(
        capsys, "poset", "--type", "A", "--rank", "5", "--I", "1", "--J", "5", "--K", "3",
        "--star", "1:3 1:5",
    )


def test_perm_not_a_permutation(capsys):
    _assert_usage_error(capsys, "compare", *FIG_ARGS, "--perm", "1 1 2 3", "1 2 3 4")


def test_selftest_nr_needs_two_integers(capsys):
    _assert_usage_error(capsys, "selftest", "--nr", "3")


def test_selftest_unknown_coxeter(capsys):
    _assert_usage_error(capsys, "selftest", "--coxeter", "Z9")


def test_selftest_coxeter_without_index_3(capsys):
    _assert_usage_error(capsys, "selftest", "--coxeter", "G2")


@pytest.mark.parametrize(
    "coxeter", ["B_3", "B+3", "B3 ", " B3", "B\u00b3", "B\u0663", "B"],
    ids=["underscore", "sign", "trailing-space", "leading-space", "superscript", "arabic-indic", "no-rank"],
)
def test_selftest_coxeter_rank_is_ascii_digits(capsys, coxeter):
    code, out, err = run(capsys, "selftest", "--coxeter", coxeter)
    assert (code, out) == (2, "")
    assert err == f"error: cannot parse --coxeter {coxeter!r}; expected e.g. B3\n"


@pytest.mark.parametrize("coxeter", ["b3", "B03"])
def test_selftest_prints_the_normalized_coxeter_name(capsys, coxeter):
    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "selftest-coxeter-B3.text")
    with open(golden, encoding="utf-8") as fh:
        expected = fh.read()
    code, out, _ = run(capsys, "selftest", "--coxeter", coxeter)
    assert (code, out) == (0, expected)


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--type", "E", "--rank", "9", "1 0 0 0 0 0 0 0 0"),
        ("cascade", "--type", "Z", "--rank", "3"),
        ("cascade", "--type", "D", "--rank", "-1"),
        ("poset", "--type", "D", "--rank", "2", "--I", "1", "--J", "2"),
        ("compare", "--type", "G", "--rank", "3", "1", "2"),
    ],
    ids=["classify-E9", "cascade-Z3", "cascade-D-1", "poset-D2", "compare-G3"],
)
def test_unsupported_system_is_a_usage_error(capsys, argv):
    _assert_usage_error(capsys, *argv)


@pytest.mark.parametrize("nr", ["banana", "4 2"])
def test_compare_nr_outside_type_a(capsys, nr):
    _assert_usage_error(
        capsys, "compare", "--type", "B", "--rank", "3", "--I", "1", "--J", "3", "--nr", nr, "1", "2"
    )


def test_compare_nr_n_must_match_rank(capsys):
    # S_4 needs n = 4; an n that is not rank + 1 is a usage error
    _assert_usage_error(
        capsys, "compare", *FIG_ARGS, "--perm", "--nr", "99 2", "1 2 3 4", "4 3 1 2"
    )


A5_K3 = ("--type", "A", "--rank", "5", "--I", "1", "--J", "5", "--K", "3")
A5_I12 = ("--type", "A", "--rank", "5", "--I", "1 2", "--J", "4 5")


@pytest.mark.parametrize(
    "datum,nr",
    [
        (FIG_ARGS, "4 1"),  # the r = 1 datum of S_4 is K = {2}
        (A5_K3, "6 1"),
        (A5_K3, "6 3"),
        (A5_I12 + ("--star", "1:5 2:4"), "6 3"),  # the type-A star is 1:4 2:5
        (("--type", "A", "--rank", "3", "--K", "1 2"), "4 0"),  # r = 0 needs K = {1, 2, 3}
    ],
)
def test_compare_nr_needs_the_type_a_datum(capsys, datum, nr):
    # the identity lies in every W(I,J,K), so only the datum check can refuse
    identity = " ".join(map(str, range(1, int(nr.split()[0]) + 1)))
    _assert_usage_error(capsys, "compare", *datum, "--perm", "--nr", nr, identity, identity)


@pytest.mark.parametrize(
    "datum,nr",
    [
        (FIG_ARGS, "4 2"),
        (A5_K3, "6 2"),
        (A5_I12, "6 3"),
        (A5_I12 + ("--star", "1:4 2:5"), "6 3"),
        (("--type", "A", "--rank", "3", "--K", "1 2 3"), "4 0"),
    ],
)
def test_compare_nr_on_the_type_a_datum(capsys, datum, nr):
    code, out, err = run(capsys, "compare", *datum, "--nr", nr, "1", "2")
    assert code in (0, 1) and err == ""
    assert "leq_D: " in out


def test_compare_nr_negative_r(capsys):
    _assert_usage_error(capsys, "compare", *FIG_ARGS, "--nr", "4 -1", "1", "2")


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


@pytest.mark.parametrize("argv", [("selftest",), ("selftest", "--nr", "9 2")])
def test_selftest_honours_cap(capsys, monkeypatch, argv):
    # S_9 has 362880 elements: the cap must stop the run before the checks
    monkeypatch.setenv("WEYLORBITS_CAP", "5")
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err == "error: enumeration cap exceeded; partial size 5\n"


def test_selftest_caps_before_enumerating():
    # a fresh interpreter, so no earlier test has built S_9: the cap must stop
    # the run before the --nr datum enumerates its group
    script = (
        "import sys\n"
        "from weylorbits.cli import main\n"
        "from weylorbits.roots import build_root_system\n"
        "code = main(['selftest', '--nr', '9 2'])\n"
        "print(code, getattr(build_root_system('A', 8), '_weyl_group', None) is None)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, WEYLORBITS_CAP="5", PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.stdout == "3 True\n", proc.stderr


def test_selftest_bad_nr_beats_cap(capsys, monkeypatch):
    monkeypatch.setenv("WEYLORBITS_CAP", "5")
    _assert_usage_error(capsys, "selftest", "--nr", "3")
    _assert_usage_error(capsys, "selftest", "--coxeter", "Z9")
    _assert_usage_error(capsys, "selftest", "--coxeter", "G2")


@pytest.mark.parametrize(
    "cap,argv,system,partial",
    [
        ("5", ["orbits", "--n", "60", "--r", "2"], ("A", 59), 5),
        (None, ["poset", "--type", "E", "--rank", "7", "--I", "1", "--J", "7"], ("E", 7), 1000000),
    ],
    ids=["orbits-A59-cap5", "poset-E7-default-cap"],
)
def test_cap_refuses_before_building_the_system(cap, argv, system, partial):
    # a fresh interpreter, so no earlier test has built the system: the cap is
    # compared with |W| before the root system is generated
    script = (
        "from weylorbits import roots\n"
        "from weylorbits.cli import main\n"
        f"code = main({argv!r})\n"
        f"print(code, {system!r} in roots._SYSTEMS)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if k != "WEYLORBITS_CAP"}
    env["PYTHONPATH"] = src
    if cap:
        env["WEYLORBITS_CAP"] = cap
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.stdout == "3 False\n", proc.stderr
    assert proc.stderr == f"error: enumeration cap exceeded; partial size {partial}\n"


def test_orbits_builds_no_root_system():
    # a fresh interpreter: orbits checks the cap on |S_n| and lists the
    # quotient on the A_{n-1} bonds alone, so no root system is built
    script = (
        "import io, sys\n"
        "from weylorbits import roots\n"
        "from weylorbits.cli import main\n"
        "sys.stdout = io.StringIO()\n"
        "code = main(['orbits', '--n', '6', '--r', '2'])\n"
        "sys.stdout = sys.__stdout__\n"
        "print(code, roots._SYSTEMS)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if k != "WEYLORBITS_CAP"}
    env["PYTHONPATH"] = src
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.stdout == "0 {}\n", proc.stderr


@pytest.mark.parametrize("cap", [None, "5"], ids=["default-cap", "cap5"])
def test_cap_refuses_an_absurd_rank_before_its_degrees(cap, capsys, monkeypatch):
    # |W| >= 2^rank, so a rank above the cap's bit length needs no degrees
    from weylorbits import roots

    real = roots.degrees

    def degrees(family, rank):
        if rank >= 10**7:
            raise RuntimeError("degrees formed for an absurd rank")
        return real(family, rank)

    monkeypatch.setattr(roots, "degrees", degrees)  # read by roots.capped_order
    if cap is None:
        monkeypatch.delenv("WEYLORBITS_CAP", raising=False)
    else:
        monkeypatch.setenv("WEYLORBITS_CAP", cap)
    code, out, err = run(capsys, "orbits", "--n", str(10**7 + 1), "--r", "2")
    assert code == 3 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize(
    "cap,argv",
    [
        ("24", ["poset", "--type", "A", "--rank", "3"]),
        ("24", ["orbits", "--n", "4", "--r", "2"]),
        ("120", ["selftest"]),
    ],
    ids=["poset", "orbits", "selftest"],
)
def test_cap_above_the_default_raises_the_limit(cap, argv):
    # a fresh interpreter with a default cap of 10: a WEYLORBITS_CAP of |W| must
    # let the group be enumerated, not fall back to the default
    script = (
        "from weylorbits.weyl import WeylGroup\n"
        "from weylorbits.cli import main\n"
        "WeylGroup.DEFAULT_CAP = 10\n"
        f"raise SystemExit(main({argv!r}))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, WEYLORBITS_CAP=cap, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


A9_COMPARE = ("compare", "--type", "A", "--rank", "9", "--I", "1", "--J", "9", "1", "1 2")


def test_raised_cap_compares_without_a_group(capsys, monkeypatch):
    # |W(A9)| = 3628800 is over the default cap: under a raised cap the
    # witness is found on keys, and no WeylGroup (whose default cap would
    # refuse A9) is made
    from weylorbits.weyl import WeylGroup

    made = []
    real = WeylGroup.__init__

    def init(self, system, *args, **kwargs):
        made.append((system.family, system.rank))
        real(self, system, *args, **kwargs)

    monkeypatch.setattr(WeylGroup, "__init__", init)
    monkeypatch.setenv("WEYLORBITS_CAP", "10000000")
    code, out, err = run(capsys, *A9_COMPARE)
    assert (code, err, made) == (0, "", [])
    assert out.splitlines()[-1] == "s1 <=_O s1 s2 (witness s1)"
    monkeypatch.delenv("WEYLORBITS_CAP")
    code, out, err = run(capsys, *A9_COMPARE)
    assert (code, out, made) == (3, "", [])
    assert err == "error: enumeration cap exceeded; partial size 1000000\n"


@pytest.mark.parametrize(
    "cap,argv",
    [
        (None, ("poset", "--type", "E", "--rank", "7", "--I", "9", "--J", "7")),
        (None, ("poset", "--type", "E", "--rank", "7", "--I", "x", "--J", "7")),
        (None, ("compare", "--type", "E", "--rank", "7", "--I", "1", "--J", "7", "--star", "1:6", "1", "2")),
        ("5", ("poset", "--type", "A", "--rank", "3", "--I", "9", "--J", "3")),
    ],
    ids=["E7-index", "E7-parse", "E7-star", "A3-cap5-index"],
)
def test_bad_datum_beats_cap(capsys, monkeypatch, cap, argv):
    # the datum is validated on the Cartan matrix before the cap is applied
    if cap is None:
        monkeypatch.delenv("WEYLORBITS_CAP", raising=False)
    else:
        monkeypatch.setenv("WEYLORBITS_CAP", cap)
    _assert_usage_error(capsys, *argv)


A3000 = ("--type", "A", "--rank", "3000")


@pytest.mark.parametrize(
    "argv,code",
    [
        (("poset", *A3000, "--I", "1", "--J", "3"), 3),
        (("selftest", "--coxeter", "A3000"), 3),
        (("poset", *A3000, "--I", "3001", "--J", "3"), 2),
        (("poset", *A3000, "--I", "1", "--J", "2"), 2),
        (("compare", *A3000, "--I", "1 2", "--J", "4 5", "--star", "1:5 2:5", "1", "2"), 2),
    ],
    ids=["poset", "selftest", "bad-index", "connected", "bad-star"],
)
def test_datum_check_builds_no_cartan_table(capsys, monkeypatch, argv, code):
    # the datum is checked on the Cartan entries among I u J u K before the
    # cap: a rank x rank matrix at rank 3000 took over 100 MB before exit 3
    monkeypatch.setenv("WEYLORBITS_CAP", "5")
    tracemalloc.start()
    try:
        got = main(list(argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert got == code and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert peak < 8 * 2**20, peak


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


def _bad_outputs(tmp_path):
    targets = [str(tmp_path / "missing" / "out.txt"), str(tmp_path)]
    if os.path.exists("/dev/full"):
        targets.append("/dev/full")  # opens, but every write fails with ENOSPC
    return targets


@pytest.mark.parametrize(
    "argv",
    [
        ("poset", *FIG_ARGS),
        ("orbits", "--n", "4", "--r", "2"),
        ("compare", *FIG_ARGS, "1 2", "3 2"),  # incomparable: exit 1 if written
    ],
    ids=["poset", "orbits", "compare"],
)
def test_unwritable_output_is_a_usage_error(capsys, tmp_path, argv):
    for target in _bad_outputs(tmp_path):
        _assert_usage_error(capsys, *argv, "--output", target)


@pytest.mark.parametrize(
    "argv",
    [
        ("cascade", "--type", "a", "--rank", "3"),
        ("classify", "--type", "b", "--rank", "2", "5 5"),
        ("poset", "--type", "d", "--rank", "4", "--I", "1", "--J", "3"),
    ],
    ids=["cascade", "classify-error", "poset"],
)
def test_lowercase_type_reads_as_uppercase(capsys, argv):
    # --type is normalized once, by the parser: every output names the
    # system in uppercase, as the uppercase spelling does
    upper = tuple(arg.upper() if prev == "--type" else arg for prev, arg in zip(("",) + argv, argv))
    assert run(capsys, *argv) == run(capsys, *upper)
