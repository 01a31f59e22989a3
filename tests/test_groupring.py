import pytest

import carlitz.groupring as grmod
from carlitz.errors import CharacterError
from carlitz.fq import Fq
from carlitz.groupring import (
    CharSpec, GroupRing, character_table, cyclotomic_poly,
)
from carlitz.poly import ZZ, Poly, poly_parse


def test_cyclotomic_polys():
    expect = {
        1: [-1, 1],
        2: [1, 1],
        3: [1, 1, 1],
        4: [1, 0, 1],
        6: [1, -1, 1],
        12: [1, 0, -1, 0, 1],
    }
    for m, coeffs in expect.items():
        p = cyclotomic_poly(m)
        assert [p.coeff(i) for i in range(len(coeffs))] == coeffs
        assert p.degree == len(coeffs) - 1


def test_cyclotomic_integer_arithmetic():
    R = CharSpec(3, {}).values()
    w = R.gen()
    assert w * w == R.coerce(-1) - w
    assert w ** 3 == R.one
    assert (R.one + w + w * w).is_zero()
    assert w ** 4 == w
    assert R.coerce(5).rep == Poly(ZZ, "x", [5])
    assert (R.one + w).rep.degree == 1
    with pytest.raises(ValueError):
        w ** -1  # Z is not a field: no inverse by the extended gcd


def test_fourth_roots():
    R = CharSpec(4, {}).values()
    i = R.gen()
    assert i * i == R.coerce(-1)
    assert i ** 4 == R.one
    assert (R.one + i) * (R.one - i) == R.coerce(2)


def test_group_ring_multiplication_table():
    f2 = Fq.get(2)
    pi = poly_parse("T^2+T+1", f2)
    G = GroupRing(pi, 1)
    assert G.group_order() == 3
    t = poly_parse("T", f2)
    t1 = poly_parse("T+1", f2)
    g = G.element(t)
    assert g * g == G.element(t1)  # T^2 = T+1 mod pi
    assert g * (g * g) == G.one()
    x = G.element(t1) - g
    assert x.augmentation() == 0
    assert (G.one() + g + g * g).augmentation() == 3
    assert x.coefficient(t) == -1
    assert g * x == G.one() - G.element(t1)
    assert x.act(t) == g * x


def test_projection_to_lower_levels():
    f2 = Fq.get(2)
    pi = poly_parse("T^2+T+1", f2)
    G2 = GroupRing(pi, 2)
    G1 = GroupRing(pi, 1)
    assert G2.group_order() == 12
    z = G2.element(poly_parse("T^3", f2)) + G2.element(poly_parse("T+1", f2), 2)
    z1 = z.project(1)
    assert z1.ring == G1
    # T^3 = T(T+1) = 1 mod pi
    assert z1 == G1.one() + G1.element(poly_parse("T+1", f2), 2)
    z0 = z.project(0)
    assert z0.ring.group_order() == 1
    assert z0.augmentation() == 3
    assert z0 == GroupRing(pi, 0).one().scale(3)
    with pytest.raises(ValueError):
        z1.project(2)


def test_translation_and_projection_are_key_maps():
    f3 = Fq.get(3)
    pi = poly_parse("T^2+1", f3)
    G, G1 = GroupRing(pi, 2), GroupRing(pi, 1)
    keys = G.group_keys()
    x = G.zero()
    for i, k in enumerate(keys[::7]):
        x = x + G.element(k, i - 3)
    for a in ("T", "2*T+1", "T^3+T+2", "T^5"):
        a = poly_parse(a, f3)
        perm = G.translation(a)
        assert perm == {k: G.mul_key(G.key(a), k) for k in keys}
        assert sorted(perm.values(), key=Poly.sort_key) == \
            sorted(keys, key=Poly.sort_key)
        assert x.act(a) == G.element(a) * x
    for bad in ("T^2+1", "0", "T^4+2*T^2+1"):
        with pytest.raises(ValueError, match="is not prime to"):
            G.translation(poly_parse(bad, f3))
        with pytest.raises(ValueError, match="is not prime to"):
            x.act(poly_parse(bad, f3))
    keymap = G.projection(G1)
    assert keymap == {k: G1.key(k) for k in keys}
    assert x.project(1, G1, keymap) == x.project(1)


def test_items_are_sorted_and_sparse():
    f3 = Fq.get(3)
    pi = poly_parse("T", f3)
    G = GroupRing(pi, 2)
    z = G.zero()
    assert z.items() == []
    two = G.element(poly_parse("2", f3), 5) + G.element(poly_parse("1", f3), 0)
    assert len(two.items()) == 1  # zero coefficients dropped
    assert two.items()[0][1] == 5


def test_group_ring_rejects_bad_level_and_modulus():
    f2, f3 = Fq.get(2), Fq.get(3)
    with pytest.raises(ValueError, match="level must be >= 0"):
        GroupRing(poly_parse("T", f2), -1)
    for pi in (poly_parse("T^2+1", f2),  # (T+1)^2
               poly_parse("2*T+1", f3)):  # irreducible, not monic
        with pytest.raises(ValueError, match="is not monic irreducible"):
            GroupRing(pi, 1)


def test_element_keys_are_canonical():
    f2 = Fq.get(2)
    pi = poly_parse("T^2+T+1", f2)
    G = GroupRing(pi, 1)
    big = poly_parse("T^3", f2)  # reduces to 1
    assert G.element(big) == G.one()
    with pytest.raises(ValueError):
        G.element(pi)  # not a unit


def test_character_table_order3():
    f2 = Fq.get(2)
    pi = poly_parse("T^2+T+1", f2)
    G = GroupRing(pi, 1)
    t = poly_parse("T", f2)
    tab = character_table(G, CharSpec(3, {t: 1}))
    assert tab[G.key(t)] == 1
    assert tab[G.key(poly_parse("T+1", f2))] == 2
    assert tab[G.key(poly_parse("1", f2))] == 0
    assert len(tab) == 3


def test_character_table_covers_reached_subgroup_only():
    f3 = Fq.get(3)
    pi = poly_parse("T", f3)
    G = GroupRing(pi, 2)  # order 6 group
    two = poly_parse("2", f3)
    tab = character_table(G, CharSpec(2, {two: 1}))
    assert len(tab) == 2  # the subgroup generated by the scalar 2
    assert sorted(tab.values()) == [0, 1]


def test_character_table_rejects_non_homomorphism():
    f2 = Fq.get(2)
    pi = poly_parse("T^2+T+1", f2)
    G = GroupRing(pi, 1)
    with pytest.raises(CharacterError):
        character_table(G, CharSpec(2, {poly_parse("T", f2): 1}))


def test_trivial_character():
    f2 = Fq.get(2)
    G = GroupRing(poly_parse("T^2+T+1", f2), 1)
    tab = character_table(G, CharSpec(1, {poly_parse("T", f2): 0}))
    assert set(tab.values()) == {0}


def test_group_keys_are_enumerated_once_and_handed_out_fresh(monkeypatch):
    f3 = Fq.get(3)
    calls, residues = [], grmod.all_residues

    def counted(*args):
        calls.append(args)
        return residues(*args)

    monkeypatch.setattr(grmod, "all_residues", counted)
    for pi, n in ((poly_parse("T", f3), 2), (poly_parse("T^2+1", f3), 1),
                  (poly_parse("T", f3), 0)):
        G = GroupRing(pi, n)
        keys = G.group_keys()
        assert len(keys) == G.group_order()
        keys.append(keys[0])  # a caller's edit
        keys.reverse()
        assert len(G.group_keys()) == G.group_order()
        assert G.group_keys() == GroupRing(pi, n).group_keys()
    assert len(calls) == 6  # once per ring built
