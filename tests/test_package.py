"""The package namespace: every public name loads its home layer on first use."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sumprod

SRC = Path(sumprod.__file__).resolve().parents[1]


def fresh(code: str) -> str:
    """stdout of `code` run in a new interpreter that has not loaded sumprod."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


LOADED = "print(sorted(m for m in sys.modules if m.startswith('sumprod.')))"


def test_import_loads_no_layer():
    assert fresh(f"import sys, sumprod\n{LOADED}") == "[]\n"


def test_a_search_loads_only_the_layers_it_runs():
    code = f"import sys, sumprod\nassert sumprod.search_min('g', 3, 8).complete\n{LOADED}"
    want = ["sumprod.arith", "sumprod.exactset", "sumprod.extremal", "sumprod.limits"]
    assert fresh(code) == f"{want}\n"


def test_every_public_name_is_its_home_modules_object():
    code = (
        "import sys, sumprod\n"
        "for name in sumprod.__all__:\n"
        "    obj = getattr(sumprod, name)\n"
        "    home = sys.modules[obj.__module__]\n"
        "    assert home.__name__.startswith('sumprod.'), (name, home)\n"
        "    assert getattr(home, name) is obj, name\n"
        "print(len(sumprod.__all__))"
    )
    assert fresh(code) == "64\n"


def test_dir_and_star_import_cover_all():
    code = (
        "import sumprod\n"
        "assert set(sumprod.__all__) <= set(dir(sumprod))\n"
        "assert {'__version__', 'arith', 'verdicts'} <= set(dir(sumprod))\n"
        "ns = {}\n"
        "exec('from sumprod import *', ns)\n"
        "bound = set(ns) - {'__builtins__'}\n"
        "assert bound == set(sumprod.__all__), bound ^ set(sumprod.__all__)\n"
        "print(len(bound))"
    )
    assert fresh(code) == "64\n"


def test_layers_resolve_as_submodules_on_first_use():
    code = (
        "import sys, sumprod\n"
        "assert sumprod.arith is sys.modules['sumprod.arith']\n"
        "assert sumprod.verdicts.Verdict is sumprod.Verdict\n"
        f"{LOADED}"
    )
    want = ["sumprod.arith", "sumprod.exactset", "sumprod.limits", "sumprod.verdicts"]
    assert fresh(code) == f"{want}\n"


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sumprod.no_such_name
    assert not hasattr(sumprod, "cli_helpers")
    with pytest.raises(ImportError):
        exec("from sumprod import no_such_name", {})


@pytest.mark.parametrize(
    "first",
    [
        "import sumprod.energy",
        "import sumprod; sumprod.verify_prop10",
        "import sumprod.cli",
        "from sumprod.theorems import beta",
    ],
)
def test_energy_is_the_function_whatever_loads_first(first):
    """`energy` is both a public function and a layer; importing the layer
    binds it on the package, and the package keeps the function."""
    code = (
        f"{first}\n"
        "import sys, types, sumprod\n"
        "from sumprod import energy\n"
        "fn = sys.modules['sumprod.energy'].energy\n"
        "print(sumprod.energy is fn, energy is fn, isinstance(fn, types.FunctionType))"
    )
    assert fresh(code) == "True True True\n"
