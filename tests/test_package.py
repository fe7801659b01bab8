"""Tests for what ``import rgsmooth`` loads and what it exports.

A smoothing call runs only ``chain`` and ``smoothing``, so the
CSV/SVG layer (``io``) and the exact-rational API (``rescale``) load on
first use.  Each check that depends on what is loaded runs in a fresh
interpreter, since this one has long since loaded everything.
"""

import subprocess
import sys

import pytest

import rgsmooth

LAZY_MODULES = ("io", "rescale")
# Standard modules that numpy does not load either: the value types need no generated code,
# and Fraction loads when the first one is made.
STDLIB_UNUSED = ("dataclasses", "fractions", "decimal")


def run_python(script):
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.parametrize(
    "statement, unloaded",
    [("import rgsmooth", ["rgsmooth.io", "rgsmooth.rescale", "csv", "numpy.typing", *STDLIB_UNUSED]),
     ("import rgsmooth.cli", ["rgsmooth.rescale", "numpy.typing", *STDLIB_UNUSED])],
    ids=["package", "cli"],
)
def test_import_leaves_unused_modules_unloaded(statement, unloaded):
    script = f"import sys\n{statement}\nprint(*[m for m in {unloaded!r} if m in sys.modules])"
    assert run_python(script) == []


def test_package_import_loads_only_chain_and_smoothing():
    script = ("import sys, rgsmooth\n"
              "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'rgsmooth'))")
    assert run_python(script) == ["rgsmooth", "rgsmooth.chain", "rgsmooth.smoothing"]


def test_error_types_keep_their_bases_and_attributes():
    from rgsmooth import (ChainTooShortError, InvalidInputError, InvalidScalingError, ParseError,
                          TooManyStepsError)

    assert InvalidInputError.__bases__ == (ValueError,)
    assert TooManyStepsError.__bases__ == (ValueError,)
    for cls in (InvalidScalingError, ChainTooShortError, ParseError):
        assert cls.__bases__ == (InvalidInputError,)
    too_many = TooManyStepsError("too many", 7)
    assert (str(too_many), too_many.max_steps) == ("too many", 7)
    parse = ParseError("bad cell", 3, 2)
    assert (str(parse), parse.row, parse.column) == ("bad cell", 3, 2)
    assert ParseError("bad row", 4).column is None


def test_every_export_is_its_submodules_own_object():
    # Prints each name that resolves to another object, or is not kept in the package's globals.
    script = (
        "import sys, rgsmooth\n"
        f"for name in [*rgsmooth.__all__, *{LAZY_MODULES!r}]:\n"
        "    value = getattr(rgsmooth, name)\n"
        "    own = sys.modules.get('rgsmooth.' + name) or getattr(sys.modules[value.__module__], name)\n"
        "    if value is not own or vars(rgsmooth).get(name) is not value:\n"
        "        print(name)\n"
    )
    assert run_python(script) == []


def test_star_import_binds_all_of_all():
    script = (
        "import rgsmooth\n"
        "namespace = {}\n"
        "exec('from rgsmooth import *', namespace)\n"
        "print(*sorted(set(rgsmooth.__all__) - set(namespace)))\n"
    )
    assert run_python(script) == []


def test_dir_lists_all():
    assert set(rgsmooth.__all__) <= set(dir(rgsmooth))


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        rgsmooth.no_such_name  # noqa: B018
    with pytest.raises(ImportError, match="no_such_name"):
        from rgsmooth import no_such_name  # noqa: F401
