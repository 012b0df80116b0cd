"""Monomial orders: classical comparisons and the block elimination order."""

import pickle

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from oracles import order_key
from vanish.fields import QQ
from vanish.ideals import Ideal
from vanish.orders import (
    GREVLEX,
    GRLEX,
    LEX,
    MonomialOrder,
    elimination_order,
)
from vanish.poly import PolyRing

# every kind and every inner order; (1, 3) and (2, 0) are not prefixes
ALL_ORDERS = [LEX, GRLEX, GREVLEX] + [
    MonomialOrder("block", elim=elim, inner=inner)
    for elim in ((0,), (0, 1), (1, 3), (2, 0))
    for inner in ("lex", "grlex", "grevlex")]

# a weighted order on 1 to 6 variables, weights from 1 to 5, with two
# exponent tuples of that length
WEIGHTED_PAIRS = st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.builds(lambda w, last: MonomialOrder("weighted", weights=tuple(w), last=last),
              st.lists(st.integers(1, 5), min_size=n, max_size=n), st.integers(0, n - 1)),
    *[st.lists(st.integers(0, 5), min_size=n, max_size=n).map(tuple)] * 2))

# two exponent tuples of one length, 4 to 6 variables
EXPONENT_PAIRS = st.integers(4, 6).flatmap(lambda n: st.tuples(
    *[st.lists(st.integers(0, 5), min_size=n, max_size=n).map(tuple)] * 2))


def sort_desc(order, exps):
    return sorted(exps, key=order.key, reverse=True)


class TestClassicalOrders:
    def test_lex_ignores_total_degree(self):
        # x > y^5 under lex in two variables
        assert sort_desc(LEX, [(1, 0), (0, 5)]) == [(1, 0), (0, 5)]

    def test_grlex_breaks_ties_lexicographically(self):
        # degree first, then lex: x^2*y > x*y^2 > y^3, and z^2 < x*y
        assert sort_desc(GRLEX, [(0, 3, 0), (2, 1, 0), (1, 2, 0)]) == [
            (2, 1, 0), (1, 2, 0), (0, 3, 0)]
        assert sort_desc(GRLEX, [(0, 0, 2), (1, 1, 0)]) == [(1, 1, 0), (0, 0, 2)]

    def test_grevlex_prefers_small_last_exponent(self):
        # classic separating example: x*y^2*z > x^2*z^2 under grlex,
        # but x^2*z^2 < x*y^2*z under grevlex as well; the orders differ on
        # x^2*y*z^2 vs x*y^3*z: grlex says first, grevlex says second.
        a, b = (2, 1, 2), (1, 3, 1)
        assert sort_desc(GRLEX, [a, b]) == [a, b]
        assert sort_desc(GREVLEX, [a, b]) == [b, a]

    def test_grevlex_known_chain(self):
        # degree-2 monomials in x,y,z in descending grevlex order
        chain = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1),
                 (0, 0, 2)]
        shuffled = list(reversed(chain))
        assert sort_desc(GREVLEX, shuffled) == chain

    def test_all_orders_refine_divisibility(self):
        small, big = (1, 0, 2), (2, 1, 2)
        for order in (LEX, GRLEX, GREVLEX):
            assert order.key(big) > order.key(small)

    def test_multiplicative_invariance(self):
        pairs = [((2, 0, 1), (1, 1, 1)), ((0, 3, 0), (1, 0, 2))]
        shift = (1, 2, 0)
        for a, b in pairs:
            for order in (LEX, GRLEX, GREVLEX):
                before = order.key(a) > order.key(b)
                a2 = tuple(i + j for i, j in zip(a, shift))
                b2 = tuple(i + j for i, j in zip(b, shift))
                assert (order.key(a2) > order.key(b2)) == before


class TestEliminationOrder:
    def test_block_precedence(self):
        # eliminating the first variable: any monomial containing it beats
        # any monomial that does not, regardless of inner degrees
        order = elimination_order(1)
        assert order.key((1, 0, 0)) > order.key((0, 9, 9))

    def test_inner_block_falls_back(self):
        order = elimination_order(1)
        # same elimination part: inner grevlex decides
        assert order.key((1, 2, 1)) > order.key((1, 1, 2))

    def test_two_variable_block(self):
        order = elimination_order(2)
        # tag block dominates the tail
        assert order.key((0, 1, 0, 0)) > order.key((0, 0, 5, 5))
        # inside the tag block the comparison is grevlex
        assert order.key((2, 0, 0, 0)) > order.key((1, 1, 0, 0))

    def test_inner_lex(self):
        order = elimination_order(1, inner="lex")
        assert order.key((0, 1, 0)) > order.key((0, 0, 7))

    def test_validation(self):
        with pytest.raises(ValueError):
            elimination_order(0)
        with pytest.raises(ValueError):
            elimination_order(1, inner="mystery")


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ALL_ORDERS), EXPONENT_PAIRS)
def test_key_matches_reference(order, pair):
    a, b = pair
    # the key ranks like the oracle's and tells distinct tuples apart
    assert (order.key(a) < order.key(b)) == (order_key(order, a) < order_key(order, b))
    assert (order.key(a) == order.key(b)) == (a == b)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ALL_ORDERS), EXPONENT_PAIRS)
def test_key_is_additive_and_non_negative(order, pair):
    a, b = pair
    # the packings are read off the key, and rely on both
    ka, kb = order.key(a), order.key(b)
    assert order.key(tuple(x + y for x, y in zip(a, b))) == tuple(
        x + y for x, y in zip(ka, kb))
    assert len(ka) == len(kb) and min(ka, default=0) >= 0


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ALL_ORDERS), st.sampled_from([0, 200, 255, 256, 70000]),
       st.lists(st.integers(0, 4) | st.integers(124, 127), min_size=4, max_size=4).map(tuple),
       st.lists(st.integers(0, 4) | st.integers(124, 127), min_size=4, max_size=4).map(tuple))
def test_packing_matches_key(order, bound, a, b):
    # K ranks like key and is additive; E decodes and tests divisibility
    packing = order.packing(4, bound)
    assert packing.limit > bound
    ka, ea = packing.pack(a)
    kb, eb = packing.pack(b)
    assert (ka < kb) == (order.key(a) < order.key(b))
    assert (ka == kb) == (a == b)
    assert packing.pack(tuple(x + y for x, y in zip(a, b))) == (ka + kb, ea + eb)
    assert packing.unpack(ea) == a
    assert (not (eb - ea) & packing.guard) == all(x <= y for x, y in zip(a, b))
    # with the fields full: exponents up to the limit minus 1
    ta, tb = (tuple(packing.limit - 1 - x for x in t) for t in (a, b))
    kta, ktb = packing.pack(ta)[0], packing.pack(tb)[0]
    assert (kta < ktb) == (order.key(ta) < order.key(tb))
    assert (kta == ktb) == (ta == tb)


def test_packing_limits():
    # exponents below the limit pack; at the limit, packing or a product
    # setting a guard bit is an overflow the caller must widen for
    packing = GREVLEX.packing(3)
    top = packing.limit - 1
    _, e = packing.pack((top, 0, 1))
    assert packing.unpack(e) == (top, 0, 1)
    assert (e + packing.pack((1, 0, 0))[1]) & packing.guard
    assert not (e + packing.pack((0, top, 0))[1]) & packing.guard
    with pytest.raises(OverflowError):
        packing.pack((0, packing.limit, 0))
    wider = GREVLEX.packing(3, packing.limit)
    assert wider.limit == packing.limit ** 2
    assert wider.unpack(wider.pack((0, packing.limit, 0))[1]) == (0, packing.limit, 0)
    assert GREVLEX.packing(3) is packing


class TestOrderIdentity:
    def test_singletons_compare(self):
        assert GREVLEX == GREVLEX
        assert GREVLEX != LEX

    def test_usable_as_dict_keys(self):
        cache = {GREVLEX: 1, LEX: 2, elimination_order(1): 3}
        assert cache[GREVLEX] == 1
        assert cache[elimination_order(1)] == 3

    def test_pickle_round_trip(self):
        order = MonomialOrder("block", elim=(1, 3), inner="lex")
        copy = pickle.loads(pickle.dumps(order))
        assert copy == order
        assert copy.key((1, 2, 3, 4)) == order.key((1, 2, 3, 4))
        assert copy.packing(4).pack((1, 2, 3, 4)) == order.packing(4).pack((1, 2, 3, 4))

    def test_weighted_identity_is_its_weights_and_last_variable(self):
        order = MonomialOrder("weighted", weights=(3, 4, 5), last=1)
        copy = pickle.loads(pickle.dumps(order))
        assert copy == order and hash(copy) == hash(order)
        assert copy.key((1, 2, 3)) == order.key((1, 2, 3))
        assert copy.packing(3).pack((1, 2, 3)) == order.packing(3).pack((1, 2, 3))
        others = [MonomialOrder("weighted", weights=(3, 4, 6), last=1),
                  MonomialOrder("weighted", weights=(3, 4, 5), last=2)]
        assert all(o != order for o in others)

    def test_weighted_orders_keep_their_bases_apart(self):
        # the ideal caches a basis per order, and orders differing only in
        # the last variable give different reduced bases here
        ring = PolyRing(QQ, ("x", "y", "z"))
        x, y, z = ring.gens()
        ideal = Ideal(ring, [y**3 - x**2 * z, x * z - y**2])
        by_x, by_z = (MonomialOrder("weighted", weights=(1, 1, 1), last=i) for i in (0, 2))
        a, b = ideal.groebner_basis(by_x), ideal.groebner_basis(by_z)
        assert set(ideal._gb_cache) == {by_x, by_z}
        assert a.polys != b.polys and a.is_reduced() and b.is_reduced()

    def test_weighted_validation(self):
        for weights, last in (((1, 0, 2), 0), ((1, -2, 2), 0), ((), 0), ((1, 2), 2),
                              ((1, 2), -1), ((1.5, 2), 0)):
            with pytest.raises(ValueError):
                MonomialOrder("weighted", weights=weights, last=last)
        with pytest.raises(ValueError):
            MonomialOrder("grevlex", weights=(1, 1))
        with pytest.raises(ValueError):     # three weights for four variables
            MonomialOrder("weighted", weights=(1, 2, 3), last=0).key((1, 0, 0, 1))


@settings(max_examples=300, deadline=None)
@given(WEIGHTED_PAIRS)
def test_weighted_key_matches_reference_and_packs(case):
    order, a, b = case
    ka, kb = order.key(a), order.key(b)
    assert (ka < kb) == (order_key(order, a) < order_key(order, b))
    assert (ka == kb) == (a == b)
    assert order.key(tuple(x + y for x, y in zip(a, b))) == tuple(x + y for x, y in zip(ka, kb))
    assert min(ka) >= 0
    packing = order.packing(len(a), 200)
    (pa, ea), (pb, eb) = packing.pack(a), packing.pack(b)
    assert (pa < pb) == (ka < kb) and packing.unpack(ea) == a
    ta, tb = (tuple(packing.limit - 1 - x for x in t) for t in (a, b))
    assert (packing.pack(ta)[0] < packing.pack(tb)[0]) == (order.key(ta) < order.key(tb))
