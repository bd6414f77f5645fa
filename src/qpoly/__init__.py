"""qpoly: exact q-orthogonal polynomials and their nonlinear connection
formulae in terms of classical polynomials.

Everything is computed in exact arithmetic over the rational-function field
Q(s, Lambda) with s**2 = q and Lambda = q**lambda; every construction is
paired with an independently computed oracle (defining sums vs product
expansions, explicit closed forms vs generating-function extraction,
partition sums vs direct construction).
"""

from .field import (
    DivisionByZero,
    IntPoly,
    LambdaPresent,
    NumericPole,
    ParseError,
    PoleAtOne,
    RationalFunction,
    parse_poly,
    parse_rational,
    poly_gcd,
)
from .series import (
    ConstantTermNotOne,
    FRACTION_RING,
    NonInvertibleConstant,
    NonzeroConstantTerm,
    OrderExceeded,
    OrderMismatch,
    Ring,
    TruncatedSeries,
)
from .qkernel import (
    IndexOutOfRange,
    q_binomial,
    q_exp_product_form,
    q_exp_sum,
    q_factorial,
    q_number,
    q_pochhammer,
    quesne_c,
    quesne_series,
)
from .families import (
    COSPOLY_RING,
    CosPolynomial,
    LaguerreIndex,
    ZPOLY_RING,
    ZPolynomial,
    falling_binomial,
    gegenbauer_classical,
    gegenbauer_weight,
    hermite_classical,
    laguerre_classical,
    q_gegenbauer_direct,
    q_gegenbauer_genfun,
    q_hermite,
    q_laguerre,
)
from .connection import (
    BetaPolynomial,
    CPolynomial,
    ConnectionExpansion,
    ConnectionTerm,
    LaguerrePartitionSolution,
    LambdaPolynomial,
    PartitionSolution,
    SUM_RULE_COMBINATIONS,
    gegenbauer_classical_lambda,
    gegenbauer_connection,
    gegenbauer_connection_value,
    gegenbauer_sum_rule,
    hermite_connection,
    laguerre_connection,
    laguerre_partitions,
    partitions_of,
    sum_rule_explicit,
)
from .verify import VerificationReport, run_suite

__version__ = "0.1.0"
