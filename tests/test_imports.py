"""Import footprint: the package and the CLI load only the layers a command runs.

Each footprint is read in a fresh interpreter (`python -S`, so no site hook
imports anything first) from its `sys.modules` after the command.
"""

import ast
import os
import subprocess
import sys

import pytest

import weylorbits

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Runs cli.main on argv with stdout captured, then prints the exit code, the
# loaded weylorbits.* submodules, whether json was imported, and which of the
# stdlib modules in STDLIB were imported.
STDLIB = ("dataclasses", "fractions", "inspect")
CHILD = """
import io, sys
from weylorbits import cli
sys.stdout = io.StringIO()
code = cli.main(sys.argv[1:])
sys.stdout = sys.__stdout__
stdlib = [m for m in %r if m in sys.modules]
print(repr((code, sorted(m for m in sys.modules if m.startswith("weylorbits.")), "json" in sys.modules, stdlib)))
""" % (STDLIB,)


def _child(script, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script, *argv], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.strip().splitlines()[-1])


def test_package_import_loads_no_layer():
    loaded = _child(
        "import sys, weylorbits\n"
        "print(repr(sorted(m for m in sys.modules if m.startswith('weylorbits.'))))"
    )
    assert loaded == []


def test_nilpotent_needs_only_roots():
    loaded = _child(
        "import sys, weylorbits.nilpotent\n"
        "print(repr(sorted(m for m in sys.modules if m.startswith('weylorbits'))))"
    )
    assert loaded == ["weylorbits", "weylorbits.nilpotent", "weylorbits.roots"]


A3 = ("--type", "A", "--rank", "3", "--I", "1", "--J", "3")
COMMANDS = {
    "poset": ("poset", *A3),
    "compare": ("compare", *A3, "1 2", "3 2"),
    "classify": ("classify", "--type", "G", "--rank", "2", "3 2", "1 0"),
    "cascade": ("cascade", "--type", "A", "--rank", "3"),
    "orbits": ("orbits", "--n", "4", "--r", "2"),
    "selftest": ("selftest",),
}
# cli imports only roots; weyl comes with the quotient layers
BASE = ["weylorbits.cli", "weylorbits.roots"]
QUOTIENT = sorted(BASE + ["weylorbits.quotient", "weylorbits.weyl"])
NILPOTENT = sorted(BASE + ["weylorbits.nilpotent"])
ORBITS = sorted(QUOTIENT + ["weylorbits.linkpatterns"])


@pytest.mark.parametrize(
    "argv,code,modules",
    [
        (COMMANDS["poset"], 0, QUOTIENT),
        (COMMANDS["compare"], 1, QUOTIENT),
        (COMMANDS["classify"], 0, NILPOTENT),
        (COMMANDS["cascade"], 0, NILPOTENT),
        (COMMANDS["orbits"], 0, ORBITS),
        (COMMANDS["selftest"], 0, ORBITS),
    ],
    ids=["poset", "compare", "classify", "cascade", "orbits", "selftest"],
)
def test_command_loads_only_its_layers(argv, code, modules):
    assert _child(CHILD, *argv)[:3] == (code, modules, False)


# No command loads dataclasses or inspect. fractions is loaded only by
# classify, whose case coefficients are Fractions: nilpotent imports it only
# when a case is labelled and roots only when span_membership returns
# coefficients, so cascade does without it.
@pytest.mark.parametrize(
    "name,stdlib",
    [
        ("poset", []),
        ("compare", []),
        ("orbits", []),
        ("classify", ["fractions"]),
        ("cascade", []),
        ("selftest", []),
    ],
    ids=["poset", "compare", "orbits", "classify", "cascade", "selftest"],
)
def test_command_stdlib_footprint(name, stdlib):
    assert _child(CHILD, *COMMANDS[name])[3] == stdlib


@pytest.mark.parametrize(
    "argv",
    [
        ("poset", *A3, "--format", "json"),
        ("classify", "--type", "G", "--rank", "2", "--format", "json", "3 2", "1 0"),
        ("orbits", "--n", "4", "--r", "2", "--format", "json"),
    ],
    ids=["poset", "classify", "orbits"],
)
def test_json_output_loads_json(argv):
    code, _, json_loaded, _ = _child(CHILD, *argv)
    assert code == 0 and json_loaded


def test_exports_resolve_to_their_module_objects():
    for name in weylorbits.__all__:
        value = getattr(weylorbits, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
        assert vars(weylorbits)[name] is value, name  # cached after the first read
        assert value.__module__.startswith("weylorbits."), name
    assert len(set(weylorbits.__all__)) == len(weylorbits.__all__)
    assert set(weylorbits.__all__) <= set(dir(weylorbits))


def test_star_import():
    namespace = {}
    exec("from weylorbits import *", namespace)
    for name in weylorbits.__all__:
        assert namespace[name] is getattr(weylorbits, name), name


def test_unknown_attribute():
    with pytest.raises(AttributeError):
        weylorbits.no_such_name
    assert not hasattr(weylorbits, "no_such_name")
    assert weylorbits.__version__ == "0.1.0"
