"""unitcert: exact-arithmetic certification of the residual unit-group bit in
the totally real octic fields Q(sqrt2, sqrt pq, sqrt ps), plus the general
local machinery for separating squareclass candidates by finitely many
Legendre bits at split places."""

from .arith import hilbert_symbol, is_prime, jacobi, sqrt_mod
from .certify import (
    AffineCertificate,
    SeparationCertificate,
    TestFunctional,
    certify_affine,
    separate_candidates,
)
from .errors import (
    DenominatorNotInvertible,
    HypothesisViolation,
    Inseparable,
    InvalidPlace,
    NonUnitResidue,
    NotASquareInBiquad,
    OracleDisagreement,
    RankDeficient,
    SearchExhausted,
    UnitCertError,
)
from .fields import (
    BiquadField,
    OcticField,
    Tower,
    TowerElement,
    biquad_unit_index,
    sqrt_exact,
    sqrt_octic,
    theta,
    theta_factors,
)
from .pell import QuadUnit, fundamental_pell, is_squarefree
from .residual import (
    Certificate,
    ClassicalDatum,
    Generator,
    PlaceDecision,
    SplitPlace,
    classical_datum,
    decide_mu_hilbert,
    delta,
    enumerate_places,
    fsu,
    iter_split_primes,
    noncollapse_check,
    residue_at,
    survey_places,
)

__version__ = "0.1.0"

__all__ = [
    "AffineCertificate", "BiquadField", "Certificate", "ClassicalDatum",
    "DenominatorNotInvertible", "Generator", "HypothesisViolation",
    "Inseparable", "InvalidPlace", "NonUnitResidue", "NotASquareInBiquad",
    "OcticField", "OracleDisagreement", "PlaceDecision", "QuadUnit",
    "RankDeficient", "SearchExhausted", "SeparationCertificate",
    "SplitPlace", "TestFunctional", "Tower", "TowerElement",
    "UnitCertError", "biquad_unit_index", "certify_affine",
    "classical_datum", "decide_mu_hilbert", "delta", "enumerate_places",
    "fsu", "fundamental_pell", "hilbert_symbol", "is_prime",
    "is_squarefree", "iter_split_primes", "jacobi", "noncollapse_check",
    "residue_at", "separate_candidates", "sqrt_exact",
    "sqrt_mod", "sqrt_octic", "survey_places", "theta", "theta_factors",
]
