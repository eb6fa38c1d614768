"""unitcert: exact-arithmetic certification of the residual unit-group bit in
the totally real octic fields Q(sqrt2, sqrt pq, sqrt ps), plus the general
local machinery for separating squareclass candidates by finitely many
Legendre bits at split places.

`import unitcert` loads none of its modules: an export is imported from its
home module on first access (PEP 562) and kept in the package namespace."""

import importlib

__version__ = "0.1.0"

_HOME = {  # each export's home module, the one list of the exports
    name: module
    for module, names in (
        ("arith", "hilbert_symbol is_prime jacobi sqrt_mod"),
        ("certify", "AffineCertificate SeparationCertificate TestFunctional certify_affine "
                    "separate_candidates"),
        ("errors", "DenominatorNotInvertible HypothesisViolation Inseparable InvalidPlace "
                   "NonUnitResidue NotASquareInBiquad OracleDisagreement RankDeficient "
                   "SearchExhausted UnitCertError"),
        ("fields", "BiquadField OcticField Tower TowerElement biquad_unit_index sqrt_exact "
                   "sqrt_octic theta theta_factors"),
        ("pell", "QuadUnit fundamental_pell is_squarefree"),
        ("residual", "Certificate ClassicalDatum Generator PlaceDecision SplitPlace "
                     "classical_datum decide_mu_hilbert delta enumerate_places fsu "
                     "iter_split_primes noncollapse_check residue_at survey_places"),
    )
    for name in names.split()
}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
