"""Exact arithmetic for sum sets, product sets, additive energy,
multiplicative dimension, and the inequality checkers built on them.

Every public name is loaded on first use (PEP 562), so `import sumprod`
compiles no layer and `sumprod.search_min` loads only the four layers a
search runs.  `sumprod.cli` still imports every layer when it is loaded,
since each command needs its own layer and the benchmark's tracer wraps all
eight."""

import sys
from importlib import import_module

__version__ = "0.1.0"

# public name -> home module, in the order of __all__
_HOME = {
    "CapExceeded": "limits",
    "ContainsResult": "progressions",
    "Enclosure": "verdicts",
    "ExponentMatrix": "arith",
    "FactorizationBudgetExceeded": "limits",
    "FinSet": "exactset",
    "LayerDecomposition": "energy",
    "MultDim": "arith",
    "PairGraph": "exactset",
    "ProgressionDesc": "progressions",
    "RationalPower": "verdicts",
    "RepCounts": "energy",
    "SearchResult": "extremal",
    "SetParseError": "limits",
    "Verdict": "verdicts",
    "WeightVector": "energy",
    "beta": "theorems",
    "box_sum": "exactset",
    "combine": "exactset",
    "compare": "verdicts",
    "contains": "progressions",
    "dilate": "exactset",
    "dim_budget_diagnostic": "theorems",
    "dim_chain_check": "progressions",
    "energy": "energy",
    "enumerate_progression": "progressions",
    "es_example": "extremal",
    "exponent_matrix": "arith",
    "f_value": "extremal",
    "factor_fraction": "arith",
    "factor_int": "arith",
    "first_primes": "arith",
    "fold_constant": "energy",
    "g_value": "extremal",
    "is_prime": "arith",
    "is_proper": "progressions",
    "iterate": "exactset",
    "layer_inequality_check": "energy",
    "layer_partition": "energy",
    "log_of": "verdicts",
    "mult_dim": "arith",
    "parse_progression": "progressions",
    "parse_set": "exactset",
    "power_of": "verdicts",
    "quadrature_energy": "energy",
    "rep_counts": "energy",
    "restricted_combine": "exactset",
    "search_min": "extremal",
    "simple_closure": "exactset",
    "size_cap": "limits",
    "sum_diff": "exactset",
    "tail_monotonicity_check": "energy",
    "vector_simple_sum_count": "arith",
    "verify_intro_suite": "theorems",
    "verify_lemma3": "theorems",
    "verify_prop9": "theorems",
    "verify_prop10": "theorems",
    "verify_prop11": "theorems",
    "verify_prop13": "theorems",
    "verify_ruzsa": "theorems",
    "verify_section3": "extremal",
    "verify_theorem1": "theorems",
    "verify_theorem3_chain": "theorems",
    "weighted_energy": "energy",
}
_LAYERS = frozenset(_HOME.values())

__all__ = list(_HOME)


def __getattr__(name: str):
    """A layer as a submodule, or a public name from its home module, bound
    here so that later lookups do not come back."""
    home = _HOME.get(name, name)
    if home not in _LAYERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{home}")
    if home == name:
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({n for n in globals() if n.startswith("__")} | set(__all__) | _LAYERS)


class _Package(type(sys)):
    """`sumprod.energy` is the function, as `__all__` says, not the submodule
    of the same name: importing the submodule binds it here, and the setter
    drops that binding."""

    @property
    def energy(self):
        return import_module(f"{__name__}.energy").energy

    @energy.setter
    def energy(self, value) -> None:
        pass


sys.modules[__name__].__class__ = _Package
