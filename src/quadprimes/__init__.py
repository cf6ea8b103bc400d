"""Exact prime counts for quadratic polynomials and the analytic quantities
that predict them.

The library computes pi_f(N), the number of n with 0 <= f(n) <= N and f(n)
prime (counted with multiplicity over n), by a segmented factoring sieve, and
compares it against the singular-series main term |A| * V(|A|) together with
the character-side diagnostics beta, L, B, g(Delta) built from L(1, chi_Delta).
"""

from .analytic import (
    BuchstabReport,
    MainTermReport,
    buchstab,
    main_term_report,
    v_product,
)
from .character import (
    ExceptionalityMetrics,
    class_number,
    is_discriminant,
    is_fundamental_discriminant,
    kronecker,
    l_one,
    l_one_class_number_oracle,
    metrics,
)
from .errors import (
    BudgetError,
    BudgetExceeded,
    CommonFactor,
    ConsistencyError,
    DegenerateA,
    DegenerateMainTerm,
    FactorizationOverflow,
    NotADiscriminant,
    NotFundamental,
    NotPrime,
    ParityObstruction,
    QuadprimesError,
    RangeExceeded,
    ResolutionExceeded,
    SpecParseError,
    SquareDiscriminant,
    ToleranceUnreachable,
    UndefinedSymbol,
    ValidationError,
    ZeroLeadingCoefficient,
)
from .polynomial import (
    AdmissiblePolynomial,
    EnumerationDomain,
    RootSet,
    enumeration_domain,
    rho,
    roots_mod,
    roots_mod_prime,
    validate,
)
from .records import (
    RunRecord,
    append_record,
    find_latest,
    from_json_line,
    load_records,
    to_json_line,
)
from .sieve import (
    CongruenceCount,
    SieveBudget,
    SieveResult,
    a_d_count,
    s_count,
    s_p_count,
    sieve_pi,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissiblePolynomial",
    "BuchstabReport",
    "BudgetError",
    "BudgetExceeded",
    "CommonFactor",
    "CongruenceCount",
    "ConsistencyError",
    "DegenerateA",
    "DegenerateMainTerm",
    "EnumerationDomain",
    "ExceptionalityMetrics",
    "FactorizationOverflow",
    "MainTermReport",
    "NotADiscriminant",
    "NotFundamental",
    "NotPrime",
    "ParityObstruction",
    "QuadprimesError",
    "RangeExceeded",
    "ResolutionExceeded",
    "RootSet",
    "RunRecord",
    "SieveBudget",
    "SieveResult",
    "SpecParseError",
    "SquareDiscriminant",
    "ToleranceUnreachable",
    "UndefinedSymbol",
    "ValidationError",
    "ZeroLeadingCoefficient",
    "a_d_count",
    "append_record",
    "buchstab",
    "class_number",
    "enumeration_domain",
    "find_latest",
    "from_json_line",
    "is_discriminant",
    "is_fundamental_discriminant",
    "kronecker",
    "l_one",
    "l_one_class_number_oracle",
    "load_records",
    "main_term_report",
    "metrics",
    "rho",
    "roots_mod",
    "roots_mod_prime",
    "s_count",
    "s_p_count",
    "sieve_pi",
    "to_json_line",
    "v_product",
    "validate",
]
