"""Out-of-range arguments: every public entry point rejects them."""

from fractions import Fraction

import pytest

from qpoly.cli import main
from qpoly.connection import (
    gegenbauer_classical_lambda,
    gegenbauer_connection,
    gegenbauer_sum_rule,
    gegenbauer_sum_rule_logs,
    hermite_connection,
    laguerre_connection,
    laguerre_partitions,
    partitions_of,
    sum_rule_explicit,
)
from qpoly.families import (
    ZPOLY_RING,
    gegenbauer_classical,
    gegenbauer_genfun_series,
    gegenbauer_weight,
    hermite_classical,
    q_gegenbauer_direct,
    q_gegenbauer_genfun,
    q_hermite,
    q_laguerre,
)
from qpoly.field import RationalFunction as RF
from qpoly.qkernel import (
    q_exp_product_form,
    q_exp_sum,
    q_factorial,
    q_number,
    q_pochhammer,
    quesne_c,
)
from qpoly.series import TruncatedSeries
from qpoly.verify import run_suite

_ARGUMENT = TruncatedSeries.monomial(ZPOLY_RING, ZPOLY_RING.one, 1, 3)

_REJECTED = {
    "partitions_of": lambda: partitions_of(-1),
    "laguerre_partitions-n": lambda: laguerre_partitions(-1, 0),
    "laguerre_partitions-k": lambda: laguerre_partitions(0, -1),
    "hermite_connection": lambda: hermite_connection(-1),
    "laguerre_connection-n": lambda: laguerre_connection(-1, 0),
    "laguerre_connection-k": lambda: laguerre_connection(0, -1),
    "laguerre_connection-aux-order": lambda: laguerre_connection(3, 3, {0: 2}),
    "gegenbauer_connection": lambda: gegenbauer_connection(-1),
    "gegenbauer_classical_lambda": lambda: gegenbauer_classical_lambda(-1),
    "hermite_classical": lambda: hermite_classical(-1),
    "gegenbauer_classical": lambda: gegenbauer_classical(-1),
    "q_hermite": lambda: q_hermite(-1),
    "q_laguerre-n": lambda: q_laguerre(-1, 0),
    "q_laguerre-k": lambda: q_laguerre(0, -1),
    "q_gegenbauer_direct": lambda: q_gegenbauer_direct(-1),
    "gegenbauer_genfun_series": lambda: gegenbauer_genfun_series(-1),
    "q_gegenbauer_genfun": lambda: q_gegenbauer_genfun(-1),
    "q_number": lambda: q_number(-1),
    "q_factorial": lambda: q_factorial(-1),
    "q_pochhammer": lambda: q_pochhammer(RF.q(), 1, -1),
    "quesne_c": lambda: quesne_c(0),
    "gegenbauer_weight": lambda: gegenbauer_weight(0),
    "gegenbauer_sum_rule": lambda: gegenbauer_sum_rule(0),
    "gegenbauer_sum_rule_logs": lambda: gegenbauer_sum_rule_logs(0),
    "sum_rule_explicit": lambda: sum_rule_explicit(6),
    "q_exp_sum": lambda: q_exp_sum("x", _ARGUMENT, 1),
    "q_exp_product_form": lambda: q_exp_product_form("x", _ARGUMENT, 1),
    "TruncatedSeries.monomial": lambda: TruncatedSeries.monomial(ZPOLY_RING, ZPOLY_RING.one, -1, 3),
    "run_suite": lambda: run_suite("nope"),
}


@pytest.mark.parametrize("name", [*_REJECTED, "cli-eval-laguerre-k"])
def test_out_of_range_arguments_are_rejected(name, capsys):
    if name == "cli-eval-laguerre-k":
        with pytest.raises(SystemExit) as err:
            main(["eval", "laguerre", "--n", "2", "--k", "-1"])
        assert err.value.code == 2
        assert capsys.readouterr().err.endswith("qpoly eval: error: --k must be >= 0\n")
        return
    with pytest.raises(ValueError):
        _REJECTED[name]()


@pytest.mark.parametrize("order", ["1", 1.0, Fraction(1)])
def test_laguerre_aux_order_that_is_not_an_int_raises_type_error(order):
    # only the rows read the auxiliary integers, so a mis-keyed one would
    # change no total
    with pytest.raises(TypeError):
        laguerre_connection(3, 3, {order: 2})
