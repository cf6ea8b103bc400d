"""Exception taxonomy shared across the package.

Every error carries a process exit code so the command line front end can
translate failures uniformly: validation problems exit 2, resource budget
problems exit 3, internal consistency failures exit 4.
"""

from __future__ import annotations


class QuadprimesError(Exception):
    exit_code = 1


class ValidationError(QuadprimesError):
    exit_code = 2


class BudgetError(QuadprimesError):
    exit_code = 3


class ConsistencyError(QuadprimesError):
    exit_code = 4


# polynomial validation

class ZeroLeadingCoefficient(ValidationError):
    pass


class CommonFactor(ValidationError):
    pass


class ParityObstruction(ValidationError):
    pass


class SquareDiscriminant(ValidationError):
    pass


class NotPrime(ValidationError):
    pass


# character arguments

class UndefinedSymbol(ValidationError):
    pass


class NotADiscriminant(ValidationError):
    pass


class NotFundamental(ValidationError):
    pass


class DegenerateA(ValidationError):
    pass


class DegenerateMainTerm(ValidationError):
    pass


class SpecParseError(ValidationError):
    pass


# resource budgets

class BudgetExceeded(BudgetError):
    pass


class FactorizationOverflow(BudgetError):
    pass


class ToleranceUnreachable(BudgetError):
    pass


class RangeExceeded(BudgetError):
    pass


class ResolutionExceeded(BudgetError):
    pass

