import math
import random

import pytest

from carlitz.cyclo import (
    CycloField, cyclotomic_unit, field_norm, galois_act, upsilon,
    valuation_at_p,
)
from carlitz.fq import Fq
from carlitz.poly import Poly, is_irreducible, monic_enumerate, poly_parse


def irreducibles(fq, d):
    return [p for p in monic_enumerate(fq, d) if is_irreducible(p)]


def rand_elem(rng, field):
    rep = Poly(field.F, "x",
               [field.F.coerce(rng.randrange(field.fq.q))
                for _ in range(field.degree)])
    return field.coerce(rep)


def test_degrees_match_unit_group_order():
    for q in (2, 3):
        fq = Fq.get(q)
        for d in (1, 2):
            for pi in irreducibles(fq, d):
                for n in (1, 2):
                    field = CycloField.get(pi, n)
                    expect = q ** ((n - 1) * d) * (q ** d - 1)
                    assert field.degree == expect
                    assert len(field.galois_reps()) == expect


def test_omega_is_a_root_of_its_minpoly():
    f2 = Fq.get(2)
    pi = poly_parse("T^2+T+1", f2)
    field = CycloField.get(pi, 2)
    m = field.minpoly_A.map_coeffs(field.F.coerce, ring=field.F)
    assert m.eval(field.omega, ring=field).rep.is_zero()


def test_norm_of_omega_down_to_base_is_pm_pi():
    for q in (2, 3):
        fq = Fq.get(q)
        for pi in irreducibles(fq, 1) + irreducibles(fq, 2):
            field = CycloField.get(pi, 1)
            nrm = field_norm(field.omega, 0)
            sign = (-1) ** field.degree
            assert nrm == field.F.coerce(pi) * field.F.coerce(sign)


def test_tower_norm_sends_omega2_to_omega1():
    for q in (2, 3):
        fq = Fq.get(q)
        pi = poly_parse("T", fq)
        field2 = CycloField.get(pi, 2)
        field1 = CycloField.get(pi, 1)
        assert field_norm(field2.omega, 1) == field1.omega


def test_galois_action_is_an_action():
    rng = random.Random(97)
    f2 = Fq.get(2)
    pi = poly_parse("T^2+T+1", f2)
    field = CycloField.get(pi, 1)
    reps = field.galois_reps()
    for _ in range(10):
        a, b = rng.choice(reps), rng.choice(reps)
        e = rand_elem(rng, field)
        assert galois_act(a * b, e) == galois_act(a, galois_act(b, e))
    one = Poly(f2, "T", [f2.one])
    e = rand_elem(rng, field)
    assert galois_act(one, e) == e


def test_galois_action_is_a_field_automorphism():
    rng = random.Random(13)
    f3 = Fq.get(3)
    pi = poly_parse("T", f3)
    field = CycloField.get(pi, 2)
    a = poly_parse("T+1", f3)
    for _ in range(8):
        x, y = rand_elem(rng, field), rand_elem(rng, field)
        assert galois_act(a, x + y) == galois_act(a, x) + galois_act(a, y)
        assert galois_act(a, x * y) == galois_act(a, x) * galois_act(a, y)
    # fixes the base field pointwise
    c = field.coerce(field.F.coerce(poly_parse("T^2+1", f3)))
    assert galois_act(a, c) == c


def test_conjugates_of_omega_are_distinct_torsion_points():
    f2 = Fq.get(2)
    pi = poly_parse("T^2+T+1", f2)
    field = CycloField.get(pi, 1)
    images = [galois_act(a, field.omega) for a in field.galois_reps()]
    assert len({tuple(e.rep.coeffs) for e in images}) == field.degree


def test_norm_is_multiplicative_down_the_tower():
    rng = random.Random(55)
    f2 = Fq.get(2)
    pi = poly_parse("T", f2)
    field = CycloField.get(pi, 2)
    for target in (1, 0):
        for _ in range(6):
            x, y = rand_elem(rng, field), rand_elem(rng, field)
            assert field_norm(x * y, target) == \
                field_norm(x, target) * field_norm(y, target)


def test_valuations():
    f3 = Fq.get(3)
    pi = poly_parse("T", f3)
    field = CycloField.get(pi, 2)
    assert valuation_at_p(field.omega) == 1
    assert valuation_at_p(field.zero) == math.inf
    # pi is totally ramified with index = field degree
    assert valuation_at_p(field.coerce(field.F.coerce(pi))) == field.degree
    assert valuation_at_p(field.one) == 0


def test_upsilon_valuation_is_exponent_sum():
    f2 = Fq.get(2)
    pi = poly_parse("T^2+T+1", f2)
    field = CycloField.get(pi, 1)
    reps = field.galois_reps()
    assert len(reps) == 3
    for exps in ([1, 0, 0], [1, 1, 1], [2, -1, 0], [0, -2, 1]):
        c = upsilon(field, dict(zip(reps, exps)))
        assert valuation_at_p(c) == sum(exps)


def test_cyclotomic_units_are_units_and_cocycle():
    f3 = Fq.get(3)
    pi = poly_parse("T", f3)
    field = CycloField.get(pi, 1)
    a = poly_parse("T+1", f3)
    b = poly_parse("T+2", f3)
    d = poly_parse("2", f3)
    cab = cyclotomic_unit(a, b, field)
    assert valuation_at_p(cab) == 0
    assert cab * cyclotomic_unit(b, a, field) == field.one
    assert cab * cyclotomic_unit(b, d, field) == cyclotomic_unit(a, d, field)


def test_rejected_inputs():
    f2 = Fq.get(2)
    pi = poly_parse("T", f2)
    field = CycloField.get(pi, 1)
    with pytest.raises(ValueError):
        galois_act(pi, field.omega)  # not prime to pi
    with pytest.raises(ValueError):
        field_norm(field.omega, 2)  # above the field's own level
    other = CycloField.get(poly_parse("T+1", f2), 1)
    with pytest.raises(ValueError):
        field.coerce(other.omega)
