"""Exact invariants for moduli of holomorphic triples and for
representation varieties of surface groups in U(p, q).

All arithmetic is integer or ``fractions.Fraction``; no value in or
out of this package is a float. The library computes stability
thresholds, wall-and-chamber decompositions of the stability
parameter line, dimensions and flip data of triple moduli, the
Toledo invariant with its bound, Morse-theoretic bookkeeping, the
census of connected-component classes, and an executable classifier
of what is known about each moduli space.
"""

from .census import (
    CensusReport,
    ClassPair,
    CoprimePartition,
    TauQuotientFacts,
    canonicalize,
    coprime_partition,
    enumerate_region,
    omega_membership,
    tau_quotient_facts,
)
from .classify import SubspaceVerdict, Verdict, classify
from .errors import DomainError
from .higgs import (
    HiggsType,
    MinimaRealization,
    MWReport,
    RigidityReport,
    RIGIDITY_DIM_WARNING,
    ToledoReport,
    coprime_smooth,
    expected_dim,
    minima_triple_type,
    mw_relations,
    rigidity,
    toledo,
    vanishing_pattern,
)
from .morse import (
    MORSE_NEGATIVE_ADVISORY,
    HodgeChain,
    dim_h1_weight,
    morse_index,
    uk_profile,
)
from .rationals import Rational, jsonable, parse_rat, rat_str
from .triples import (
    AlphaInterval,
    BaseFactor,
    FibrationDims,
    Thresholds,
    TripleType,
    WitnessOutcome,
    WitnessReport,
    alpha_range,
    alpha_slope,
    chi,
    delta_alpha,
    dim_stable_moduli,
    dual,
    fibration_dims,
    slope,
    thresholds,
    triple_slope,
    witness_check,
)
from .walls import (
    Chamber,
    ChamberReport,
    FlipDims,
    GenericityFacts,
    Wall,
    WallTest,
    WallWitness,
    chambers,
    enumerate_walls,
    flip_dims,
    integer_genericity,
    is_critical,
    wall_alpha,
)

__all__ = [
    "AlphaInterval",
    "BaseFactor",
    "CensusReport",
    "Chamber",
    "ChamberReport",
    "ClassPair",
    "CoprimePartition",
    "DomainError",
    "FibrationDims",
    "FlipDims",
    "GenericityFacts",
    "HiggsType",
    "HodgeChain",
    "MORSE_NEGATIVE_ADVISORY",
    "MWReport",
    "MinimaRealization",
    "Rational",
    "RigidityReport",
    "RIGIDITY_DIM_WARNING",
    "SubspaceVerdict",
    "TauQuotientFacts",
    "Thresholds",
    "ToledoReport",
    "TripleType",
    "Verdict",
    "Wall",
    "WallTest",
    "WallWitness",
    "WitnessOutcome",
    "WitnessReport",
    "alpha_range",
    "alpha_slope",
    "canonicalize",
    "chambers",
    "chi",
    "classify",
    "coprime_partition",
    "coprime_smooth",
    "delta_alpha",
    "dim_h1_weight",
    "dim_stable_moduli",
    "dual",
    "enumerate_region",
    "enumerate_walls",
    "expected_dim",
    "fibration_dims",
    "flip_dims",
    "integer_genericity",
    "is_critical",
    "jsonable",
    "minima_triple_type",
    "morse_index",
    "mw_relations",
    "omega_membership",
    "parse_rat",
    "rat_str",
    "rigidity",
    "slope",
    "tau_quotient_facts",
    "thresholds",
    "toledo",
    "triple_slope",
    "uk_profile",
    "vanishing_pattern",
    "wall_alpha",
    "witness_check",
]

__version__ = "0.1.0"
