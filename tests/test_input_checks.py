"""Input checks that no other test reaches: each row calls one public
entry point with a bad argument and pins the exception type and message
as the program words them."""

import re

import pytest

from carlitz.cmod import (
    bernoulli_carlitz, carlitz_exp, carlitz_log, omega_minpoly, torsion_poly,
)
from carlitz.coleman import (
    ColemanSeries, cyclotomic_unit_series, eval_at_omega, x_field,
)
from carlitz.cw import cw_verify, dlog
from carlitz.cyclo import CycloField, galois_act
from carlitz.fq import Fq
from carlitz.groupring import CharSpec, GroupRing
from carlitz.poly import ZZ, Poly, is_irreducible, poly_parse
from carlitz.series import TruncSeries

F2, F3 = Fq.get(2), Fq.get(3)
T = poly_parse("T", F2)


def group_rings_mixed():
    return GroupRing.get(T, 1).one() + GroupRing.get(T, 2).one()


CASES = [
    (lambda: torsion_poly(T, 0), ValueError, "level must be >= 1"),
    (lambda: omega_minpoly(T, 0), ValueError, "level must be >= 1"),
    (lambda: carlitz_exp(F2, 1), ValueError, "precision must be >= 2"),
    (lambda: carlitz_log(F2, 1), ValueError, "precision must be >= 2"),
    (lambda: bernoulli_carlitz(-1, F2), ValueError, "index must be >= 0"),
    (lambda: cyclotomic_unit_series(Poly(F2, "T", []), T), ValueError,
     "both indices must be nonzero"),
    (lambda: eval_at_omega(ColemanSeries(x_field(F2).gen()), 1), ValueError,
     "evaluation needs the prime attached to the series"),
    (lambda: dlog(TruncSeries.zero(F2, "z")), ZeroDivisionError,
     "dlog of zero"),
    (lambda: dlog(3), TypeError, "cannot take dlog of 3"),
    (lambda: cw_verify(T, poly_parse("T", F3), 4), ValueError,
     "mixed coefficient fields"),
    (lambda: galois_act(3, CycloField.get(T, 1).omega), TypeError,
     "Galois element must be a polynomial, got 3"),
    (lambda: CharSpec(0, {}), ValueError, "character order must be >= 1"),
    (lambda: is_irreducible(Poly(F2, "T", [])), ValueError,
     "zero polynomial"),
    (lambda: is_irreducible(Poly(ZZ, "T", [1, 1])), TypeError,
     "irreducibility test expects F_q coefficients"),
    (lambda: TruncSeries(F2, "z", 0, [1, 1, 1], 2), ValueError,
     "stored coefficients exceed declared precision"),
    (lambda: TruncSeries.one(F2, "z").compose(TruncSeries.zero(F2, "z", 3)),
     ValueError, "composition with a series with no known terms"),
    (lambda: TruncSeries.one(F2, "z") + TruncSeries.one(F3, "z"), ValueError,
     "mixed series arithmetic"),
    (group_rings_mixed, ValueError, "mixed group rings"),
]


@pytest.mark.parametrize("call,exc,message", CASES)
def test_bad_input_raises_its_own_message(call, exc, message):
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        call()
