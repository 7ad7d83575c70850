"""Tests for the exact polynomial kernel."""

import random
import threading
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from minimal_gap_lab.ratpoly import RatPoly, poly_combine, poly_diff, poly_is_zero
from minimal_gap_lab.ratpoly import EXP_BITS, MAX_DEGREE

x, y, z = RatPoly.variables("xyz")


def test_add_cancellation():
    assert poly_combine(x + y, x - y, "add") == 2 * x


def test_mul_difference_of_squares():
    assert poly_combine(x + y, x - y, "mul") == x * x - y * y


def test_mul_by_zero_is_empty():
    p = 3 * x * y + z ** 2
    out = poly_combine(p, RatPoly.zero(), "mul")
    assert out.is_zero()
    assert out.terms == {}


def test_diff_basic():
    assert poly_diff(x ** 2 * y, "x") == 2 * x * y
    assert poly_diff(x ** 2 * y, "z").is_zero()
    assert poly_diff(x ** 3 - 3 * x, "x") == 3 * x ** 2 - 3


def test_is_zero_square_expansion():
    assert poly_is_zero((x + y) ** 2 - x ** 2 - 2 * x * y - y ** 2)
    assert not poly_is_zero(x - y)


def test_is_zero_shape_norm_identity_q3():
    # Independent oracle: expand |A|^2 - 4|a|^4 - 4|b|^4 - 8<a,b>^2 with sympy
    # for q = 3 and confirm it is zero, then require the kernel to agree on
    # the same expansion built from RatPoly primitives.
    q = 3
    sa = sympy.symbols(f"a_1:{q + 1}")
    sb = sympy.symbols(f"b_1:{q + 1}")
    A = [[2 * sa[i] * sa[j] + 2 * sb[i] * sb[j] for j in range(q)] for i in range(q)]
    normA2 = sum(A[i][j] ** 2 for i in range(q) for j in range(q))
    na, nb = sum(u * u for u in sa), sum(u * u for u in sb)
    ab = sum(u * v for u, v in zip(sa, sb))
    assert sympy.expand(normA2 - 4 * na ** 2 - 4 * nb ** 2 - 8 * ab ** 2) == 0

    a = RatPoly.variables([f"a_{i}" for i in range(1, q + 1)])
    b = RatPoly.variables([f"b_{i}" for i in range(1, q + 1)])
    Ap = [[2 * a[i] * a[j] + 2 * b[i] * b[j] for j in range(q)] for i in range(q)]
    normA2p = sum((Ap[i][j] ** 2 for i in range(q) for j in range(q)), RatPoly.zero())
    nap = sum((u * u for u in a), RatPoly.zero())
    nbp = sum((u * u for u in b), RatPoly.zero())
    abp = sum((u * v for u, v in zip(a, b)), RatPoly.zero())
    assert poly_is_zero(normA2p - 4 * nap ** 2 - 4 * nbp ** 2 - 8 * abp ** 2)


def test_variable_alignment_by_name():
    p = RatPoly.variable("s") + RatPoly.variable("a_1")
    q = RatPoly.variable("t") * RatPoly.variable("a_1")
    out = p * q
    assert out.vars == ("a_1", "s", "t")


def test_exponent_length_mismatch_rejected():
    with pytest.raises(ValueError):
        RatPoly(("x", "y"), {(1,): Fraction(1)})


def test_constructor_rejects_bad_terms():
    with pytest.raises(TypeError):
        RatPoly(("x",), {(1,): 0.5})
    with pytest.raises(ValueError):
        RatPoly(("x",), {(-1,): 1})
    with pytest.raises(TypeError):
        x / 0.5


def test_cancellation_drops_variables():
    assert (x + y - x).vars == ("y",)
    assert x + y - x == y
    assert (x * y + z - x * y).vars == ("z",)
    assert (x - x).vars == ()
    assert x - x == RatPoly.zero()


def test_zero_product_has_no_variables():
    for r in (0 * x, x * 0, RatPoly.zero() * (x + y), x * (y - y)):
        assert r == RatPoly.zero()
        assert r.vars == ()


def test_equality_with_inexact_operands_is_false():
    assert not x == None          # noqa: E711 -- the operator is under test
    assert x != None              # noqa: E711
    assert not x == 0.5
    assert x != 0.5
    assert x not in [None, 0.5, "x"]
    assert not RatPoly.constant(1) == 1.0


def test_constant_hashes_as_its_value():
    for value in (0, 2, -7, Fraction(3, 4)):
        c = RatPoly.constant(value)
        assert c == value
        assert hash(c) == hash(value)
    assert {RatPoly.constant(2): "two"}[2] == "two"
    assert {Fraction(1, 2)} == {RatPoly.constant(Fraction(1, 2))}
    assert hash(RatPoly.zero()) == hash(0)


def test_dump_format_golden():
    p = Fraction(3, 2) * x ** 2 * y - z + 5
    assert p.dump() == "3/2  2  1  0\n-1  0  0  1\n5  0  0  0"
    assert RatPoly.zero().dump() == "0"


def _random_poly(rng, names=("x", "y", "z"), max_terms=4, max_exp=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in names)
        terms[exps] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return RatPoly(names, terms)


small_coeff = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@st.composite
def small_poly(draw):
    """A polynomial in a random subset of {x, y, z}, listed in random order,
    so operands are remapped onto their union; zero and constants included."""
    names = draw(st.lists(st.sampled_from("xyz"), unique=True, max_size=3))
    exps = st.tuples(*[st.integers(0, 3)] * len(names))
    return RatPoly(names, dict(draw(st.lists(st.tuples(exps, small_coeff),
                                             max_size=4))))


def assert_canonical(r):
    assert r == RatPoly(r.vars, r.terms)
    assert list(r.vars) == sorted(r.vars)
    assert all(len(e) == len(r.vars) for e in r.terms)
    assert all(any(e[i] for e in r.terms) for i in range(len(r.vars)))
    assert all(type(c) is Fraction and c != 0 for c in r.terms.values())


def _to_sympy(p):
    syms = sympy.symbols(p.vars) if p.vars else ()
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*[s ** e for s, e in zip(syms, exps)])
                for exps, c in p.terms.items()), sympy.Integer(0))


@settings(max_examples=150, deadline=None)
@given(small_poly(), small_poly(), st.integers(0, 3),
       small_coeff.filter(lambda c: c != 0))
def test_arithmetic_results_are_canonical(p, q, n, c):
    results = [p + q, p - q, q - p, p + q - p, p * q, (p + q) * (p - q),
               -p, 2 * p, p + 1, 1 - p, p ** n, p / c, q / 3]
    for r in results:
        assert_canonical(r)
    assert p + q - p == q
    assert p - p == RatPoly.zero()
    # an independent engine: sympy's expansion of the same sum and product
    assert sympy.expand(_to_sympy(p + q) - _to_sympy(p) - _to_sympy(q)) == 0
    assert sympy.expand(_to_sympy(p * q) - _to_sympy(p) * _to_sympy(q)) == 0


@settings(max_examples=60, deadline=None)
@given(small_poly(), small_poly(), small_poly())
def test_ring_axioms(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + q == q + p


@settings(max_examples=60, deadline=None)
@given(small_poly(), small_poly())
def test_product_rule(p, q):
    lhs = poly_diff(poly_combine(p, q, "mul"), "x")
    rhs = p * poly_diff(q, "x") + q * poly_diff(p, "x")
    assert lhs == rhs


def test_is_zero_agrees_with_random_evaluation():
    # Structural zero is authoritative; this is the sanity cross-check against
    # exact evaluation at random rational points.
    rng = random.Random(2024)
    for _ in range(1000):
        p = _random_poly(rng)
        structurally_zero = poly_is_zero(p)
        points = [
            {n: Fraction(rng.randint(-50, 50), rng.randint(1, 20)) for n in p.vars}
            for _ in range(50)
        ]
        values = [p.evaluate(pt) for pt in points]
        if structurally_zero:
            assert all(v == 0 for v in values)
        else:
            assert any(v != 0 for v in values)


def test_evaluate_exact():
    p = Fraction(1, 3) * x ** 2 - y
    assert p.evaluate({"x": Fraction(3, 2), "y": Fraction(1, 4)}) == Fraction(1, 2)


# -- packed-monomial kernel --------------------------------------------------

def test_vars_sorted_whatever_the_registration_order():
    late = RatPoly.variable("zz_first")      # registered first, sorts last
    early = RatPoly.variable("aa_second")
    p = 3 * late ** 2 * early - early + Fraction(1, 2)
    assert p.vars == ("aa_second", "zz_first")
    assert p.terms == {(1, 2): Fraction(3), (1, 0): Fraction(-1),
                       (0, 0): Fraction(1, 2)}
    same = RatPoly(("aa_second", "zz_first"),
                   {(1, 2): 3, (1, 0): -1, (0, 0): Fraction(1, 2)})
    assert p == same
    assert hash(p) == hash(same)
    assert p.dump() == same.dump() == "3  1  2\n-1  1  0\n1/2  0  0"
    assert repr(p) == repr(same) == \
        "RatPoly(3*aa_second*zz_first^2 + -1*aa_second + 1/2)"
    assert RatPoly(("zz_first", "aa_second"), {(2, 1): 3}) == 3 * late ** 2 * early


def test_constructor_rejects_duplicate_variable_names():
    with pytest.raises(ValueError, match="duplicate"):
        RatPoly(("x", "x"), {(1, 1): 1})


def test_exponent_past_the_field_width_raises():
    top = MAX_DEGREE
    edge = RatPoly(("x",), {(top,): 1})
    assert edge.total_degree() == top
    assert edge.diff("x") == top * RatPoly(("x",), {(top - 1,): 1})
    with pytest.raises(OverflowError, match=str(MAX_DEGREE)):
        RatPoly(("x",), {(top + 1,): 1})
    with pytest.raises(OverflowError, match=str(MAX_DEGREE)):
        RatPoly(("x", "y"), {(top, 1): 1})       # no single field overflows
    with pytest.raises(OverflowError, match=str(MAX_DEGREE)):
        edge * x
    with pytest.raises(OverflowError, match=str(MAX_DEGREE)):
        (x + 1) ** (top + 1)
    with pytest.raises(OverflowError, match=str(MAX_DEGREE)):
        RatPoly(("y",), {(1 << EXP_BITS - 1,): 1}) ** 2


def test_loose_degree_bound_after_cancellation_does_not_raise():
    big = RatPoly(("x",), {(MAX_DEGREE - 1,): 1})
    p = big + y - big                   # its degree bound is still MAX_DEGREE - 1
    assert p == y
    assert p * x * y == x * y ** 2


def test_integral_fraction_coefficients():
    half = x / 2
    assert half * 2 == x
    assert (x * Fraction(1, 3)) * 3 == x
    assert hash(half * 2) == hash(x)
    assert half + half == x
    assert hash(half + half) == hash(x)
    assert RatPoly(("x",), {(1,): Fraction(4, 2)}) == 2 * x
    assert hash(RatPoly.constant(Fraction(6, 3))) == hash(2)
    for p in (half * 2, half + half, half, x * y / Fraction(1, 2)):
        assert all(type(c) is Fraction for c in p.terms.values())
    assert (half * 2).terms == {(1,): Fraction(1)}


def test_threads_register_fresh_names_in_distinct_slots():
    barrier = threading.Barrier(2)
    made = [[], []]

    def register(t):
        barrier.wait(timeout=10)
        made[t] = [RatPoly.variable(f"fresh_{t}_{i}") for i in range(20)]

    threads = [threading.Thread(target=register, args=(t,)) for t in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    product = RatPoly.constant(1)
    for v in made[0] + made[1]:
        product = product * v
    # names sharing a slot would collapse into one variable of degree 2
    assert len(product.vars) == 40
    assert product.terms == {(1,) * 40: Fraction(1)}


# -- the fused sum of products -------------------------------------------------

factor = st.one_of(small_poly(), st.integers(-3, 3), small_coeff)


def _chained(pairs):
    total = RatPoly.zero()
    for x_, y_ in pairs:
        total = total + x_ * y_
    return total


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(factor, factor), max_size=6))
def test_sum_of_products_equals_the_chained_fold(pairs):
    fused = RatPoly.sum_of_products(pairs)
    assert fused == _chained(pairs)
    assert hash(fused) == hash(_chained(pairs))
    assert_canonical(fused)
    assert RatPoly.sum_of_products(iter(pairs)) == fused
    cancelled = RatPoly.sum_of_products(pairs + [(x_, -y_) for x_, y_ in pairs])
    assert cancelled == RatPoly.zero()
    assert cancelled.terms == {} and cancelled.vars == ()


def test_sum_of_products_edge_cases():
    assert RatPoly.sum_of_products([]) == RatPoly.zero()
    assert RatPoly.sum_of_products([]).vars == ()
    assert RatPoly.sum_of_products([(x, y), (-x, y)]).vars == ()
    assert RatPoly.sum_of_products([(2, 3), (Fraction(1, 2), 4)]) == 8
    half = RatPoly.sum_of_products([(x, Fraction(1, 2)), (x, Fraction(1, 2))])
    assert half == x and hash(half) == hash(x)
    assert_canonical(half)
    assert RatPoly.sum_of_products([(x, RatPoly.zero()), (0, y)]).is_zero()
    with pytest.raises(TypeError):
        RatPoly.sum_of_products([(x, 0.5)])


@settings(max_examples=60, deadline=None)
@given(st.integers(MAX_DEGREE - 4, MAX_DEGREE), st.integers(0, 4), small_poly())
def test_sum_of_products_overflows_where_mul_does(e, f, p):
    big = RatPoly(("x",), {(e,): 1})
    other = RatPoly(("y",), {(f,): 1}) + 1
    try:
        expected = big * other
    except OverflowError:
        with pytest.raises(OverflowError, match=str(MAX_DEGREE)):
            RatPoly.sum_of_products([(p, p), (big, other)])
    else:
        assert RatPoly.sum_of_products([(big, other), (p, 0)]) == expected


def test_sum_of_products_loose_degree_bound_does_not_raise():
    big = RatPoly(("x",), {(MAX_DEGREE - 1,): 1})
    p = big + y - big                   # its degree bound is still MAX_DEGREE - 1
    assert RatPoly.sum_of_products([(p, x * y), (x, x)]) == x * y ** 2 + x ** 2
