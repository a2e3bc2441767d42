"""Exact invariants for moduli of holomorphic triples and for
representation varieties of surface groups in U(p, q).

All arithmetic is integer or ``fractions.Fraction``; no value in or
out of this package is a float. The library computes stability
thresholds, wall-and-chamber decompositions of the stability
parameter line, dimensions and flip data of triple moduli, the
Toledo invariant with its bound, Morse-theoretic bookkeeping, the
census of connected-component classes, and an executable classifier
of what is known about each moduli space.

Imports are deferred. ``import triplemoduli`` loads no submodule; each
public name, and each submodule name such as ``triplemoduli.walls``,
imports its submodule on first access (PEP 562). Defining the result
records (``errors.record``, which needs no dataclasses import) is
about two fifths of the cost of importing a math module, so a process,
such as one CLI request, pays only for those it uses.
"""

import sys as _sys
import types as _types
from importlib import import_module as _import_module

# The public names, by the submodule that defines them.
_EXPORTS = {
    "census": (
        "CensusReport",
        "ClassPair",
        "CoprimePartition",
        "TauQuotientFacts",
        "canonicalize",
        "coprime_partition",
        "enumerate_region",
        "omega_membership",
        "tau_quotient_facts",
    ),
    "classify": ("SubspaceVerdict", "Verdict", "classify"),
    "errors": ("DomainError",),
    "higgs": (
        "HiggsType",
        "MinimaRealization",
        "MWReport",
        "RigidityReport",
        "RIGIDITY_DIM_WARNING",
        "ToledoReport",
        "coprime_smooth",
        "expected_dim",
        "minima_triple_type",
        "mw_relations",
        "rigidity",
        "toledo",
        "vanishing_pattern",
    ),
    "morse": (
        "MORSE_NEGATIVE_ADVISORY",
        "HodgeChain",
        "dim_h1_weight",
        "morse_index",
        "uk_profile",
    ),
    "rationals": ("Rational", "jsonable", "parse_rat", "rat_str"),
    "triples": (
        "AlphaInterval",
        "BaseFactor",
        "FibrationDims",
        "Thresholds",
        "TripleType",
        "WitnessOutcome",
        "WitnessReport",
        "alpha_range",
        "alpha_slope",
        "chi",
        "delta_alpha",
        "dim_stable_moduli",
        "dual",
        "fibration_dims",
        "slope",
        "thresholds",
        "triple_slope",
        "witness_check",
    ),
    "walls": (
        "Chamber",
        "ChamberReport",
        "FlipDims",
        "GenericityFacts",
        "Wall",
        "WallTest",
        "WallWitness",
        "chambers",
        "enumerate_walls",
        "flip_dims",
        "integer_genericity",
        "is_critical",
        "wall_alpha",
    ),
}

_SUBMODULE = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = list(_SUBMODULE)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULE:
        value = getattr(_import_module("." + _SUBMODULE[name], __name__), name)
    elif name in _EXPORTS:
        value = _import_module("." + name, __name__)
    else:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})


class _Package(_types.ModuleType):
    """The package module. Importing a submodule binds it on the package
    under its own name; for ``classify``, the package attribute stays the
    function, whatever the import order."""

    def __setattr__(self, name, value):
        if name == "classify" and isinstance(value, _types.ModuleType):
            value = value.classify
        super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package
