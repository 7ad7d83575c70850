"""Tests for the symbolic identity suite.

The q <= 3 cases are cross-checked against an independent sympy expansion
oracle (different engine, different code path); larger q relies on the exact
kernel alone, with numeric spot checks at random rational points.
"""

import collections
import random
import time
from fractions import Fraction

import numpy as np
import pytest
import sympy

from minimal_gap_lab import identities
from minimal_gap_lab.identities import (
    GROUPS,
    SymbolFamily,
    all_proved,
    check_b2_decomposition,
    check_eigen_charpoly,
    check_gap_factorizations,
    check_invariant_identities,
    check_third_order_contractions,
    dot,
    norm2,
    run_identity_group,
    run_identity_suite,
)
from minimal_gap_lab.ratpoly import RatPoly


# ---------------------------------------------------------------- oracles

def _sympy_vec(name, q):
    return sympy.symbols(f"{name}_1:{q + 1}")


def _sympy_rho0(a, b):
    q = len(a)
    mats = [sympy.Matrix([[a[i], b[i]], [b[i], -a[i]]]) for i in range(q)]
    total = 0
    for Sa in mats:
        for Sb in mats:
            C = Sa * Sb - Sb * Sa
            total += sum(x ** 2 for x in C)
    return sympy.expand(total)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_invariant_identities_match_sympy_oracle(q):
    a, b = _sympy_vec("a", q), _sympy_vec("b", q)
    na = sum(x ** 2 for x in a)
    nb = sum(x ** 2 for x in b)
    ab = sum(x * y for x, y in zip(a, b))
    A = sympy.Matrix(q, q, lambda i, j: 2 * a[i] * a[j] + 2 * b[i] * b[j])
    normA2 = sum(x ** 2 for x in A)
    S = sympy.trace(A)
    rho0 = _sympy_rho0(a, b)
    assert sympy.expand(normA2 - (4 * na ** 2 + 4 * nb ** 2 + 8 * ab ** 2)) == 0
    assert sympy.expand(rho0 - (16 * na * nb - 16 * ab ** 2)) == 0
    assert sympy.expand(2 * S ** 2 - rho0 - 2 * normA2) == 0

    assert all_proved(check_invariant_identities(q))


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6])
def test_invariant_identities_proved(q):
    reports = check_invariant_identities(q)
    assert len(reports) == 4
    assert all_proved(reports)


def test_invariant_identities_q6_runtime():
    start = time.monotonic()
    assert all_proved(check_invariant_identities(6))
    assert time.monotonic() - start < 5.0


def test_rho0_vanishes_in_codimension_one():
    # single shape operator commutes with itself
    a = SymbolFamily("a", 1).components()
    b = SymbolFamily("b", 1).components()
    from minimal_gap_lab.identities import rho0_commutators

    assert rho0_commutators(a, b).is_zero()


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6])
def test_eigen_charpoly_proved(q):
    assert check_eigen_charpoly(q).proved


def test_eigen_charpoly_q2_against_cofactor_oracle():
    # direct 2x2 determinant with sympy, then the frozen instance a=(1,0),
    # b=(0,1): A = 2I, charpoly (lam-2)^2, S = 4, rho0 = 16.
    q = 2
    a, b = _sympy_vec("a", q), _sympy_vec("b", q)
    lam = sympy.Symbol("lam")
    A = sympy.Matrix(q, q, lambda i, j: 2 * a[i] * a[j] + 2 * b[i] * b[j])
    det = ((lam * sympy.eye(q)) - A).det()
    S = sympy.trace(A)
    rho0 = _sympy_rho0(a, b)
    assert sympy.expand(det - (lam ** 2 - S * lam + rho0 / 4)) == 0

    inst = {a[0]: 1, a[1]: 0, b[0]: 0, b[1]: 1}
    assert det.subs(inst).equals((lam - 2) ** 2)
    assert S.subs(inst) == 4
    assert rho0.subs(inst) == 16


def test_eigen_closed_form_matches_dense_solver():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        q = rng.integers(1, 9)
        a = rng.standard_normal(q)
        b = rng.standard_normal(q)
        A = 2 * np.outer(a, a) + 2 * np.outer(b, b)
        S = np.trace(A)
        d = np.sqrt((a @ a - b @ b) ** 2 + 4 * (a @ b) ** 2)
        lam_closed = np.array([S / 2 + d, S / 2 - d])
        lam = np.linalg.eigvalsh(A)[::-1]
        scale = max(1.0, S)
        if q == 1:
            assert abs(lam_closed[0] - lam[0]) < 1e-10 * scale
            assert abs(lam_closed[1]) < 1e-10 * scale
        else:
            assert np.all(np.abs(lam_closed - lam[:2]) < 1e-10 * scale)
            assert np.all(np.abs(lam[2:]) < 1e-10 * scale)


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6])
def test_b2_decomposition_proved(q):
    assert check_b2_decomposition(q).proved


def test_b2_against_sympy_oracle_q2():
    q = 2
    a, b = _sympy_vec("a", q), _sympy_vec("b", q)
    na = sum(x ** 2 for x in a)
    nb = sum(x ** 2 for x in b)
    ab = sum(x * y for x, y in zip(a, b))
    S = 2 * na + 2 * nb
    rho0 = 16 * na * nb - 16 * ab ** 2
    la = [a[i] * (2 - S) + 2 * b[i] * ab - 2 * a[i] * nb for i in range(q)]
    lb = [b[i] * (2 - S) + 2 * a[i] * ab - 2 * b[i] * na for i in range(q)]
    lhs = 2 * (sum(x ** 2 for x in la) + sum(x ** 2 for x in lb))
    rhs = S * (2 - S) ** 2 - sympy.Rational(1, 4) * (8 - 5 * S) * rho0
    assert sympy.expand(lhs - rhs) == 0


def test_b2_hand_case_q1():
    # a = (alpha), b = 0: both sides reduce to 2 alpha^2 (2 - 2 alpha^2)^2
    alpha = Fraction(3, 5)
    S = 2 * alpha ** 2
    lap_a = alpha * (2 - S)
    lhs = 2 * lap_a ** 2
    rhs = S * (2 - S) ** 2
    assert lhs == rhs == 2 * alpha ** 2 * (2 - 2 * alpha ** 2) ** 2


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6])
def test_third_order_contractions_proved(q):
    reports = check_third_order_contractions(q)
    assert len(reports) == 3
    assert all_proved(reports)


def test_third_order_contraction_vanishes_q1():
    # codimension one has flat normal bundle: the R-perp contraction is 0
    q = 1
    a = SymbolFamily("a", q).components()
    b = SymbolFamily("b", q).components()
    a1 = SymbolFamily("a1", q).components()
    a2 = SymbolFamily("a2", q).components()
    closed = 32 * (dot(a, a2) * dot(b, a1) - dot(a, a1) * dot(b, a2))
    # for q=1 the closed form itself collapses: <a,a2><b,a1> = <a,a1><b,a2>
    assert closed.is_zero() or closed == (closed - closed)
    assert closed.is_zero()


def test_third_order_contraction_sympy_oracle_q2():
    q = 2
    a, b = _sympy_vec("a", q), _sympy_vec("b", q)
    a1, a2 = _sympy_vec("c", q), _sympy_vec("d", q)
    h = {(0, 0): a, (0, 1): b, (1, 0): b, (1, 1): [-x for x in a]}
    pick = {0: a1, 1: a2, 2: [-x for x in a1], 3: [-x for x in a2]}
    hg = {(i, j, k): pick[i + j + k] for i in (0, 1) for j in (0, 1) for k in (0, 1)}

    def r_perp(al, be, k, m):
        return sum(h[k, t][al] * h[t, m][be] - h[k, t][be] * h[t, m][al]
                   for t in (0, 1))

    contraction = sum(
        2 * hg[i, j, k][al] * hg[i, j, m][be] * r_perp(be, al, k, m)
        for i in (0, 1) for j in (0, 1) for k in (0, 1) for m in (0, 1)
        for al in range(q) for be in range(q)
    )
    sdot = lambda u, v: sum(x * y for x, y in zip(u, v))
    closed = 32 * (sdot(a, a2) * sdot(b, a1) - sdot(a, a1) * sdot(b, a2))
    assert sympy.expand(contraction - closed) == 0


def test_third_order_numeric_evaluation_q3():
    # symbolic identity evaluated at a random rational instance agrees with
    # direct numeric evaluation, exactly
    rng = random.Random(11)
    q = 3
    reports = check_third_order_contractions(q)
    assert all_proved(reports)
    a = SymbolFamily("a", q).components()
    b = SymbolFamily("b", q).components()
    a1 = SymbolFamily("a1", q).components()
    a2 = SymbolFamily("a2", q).components()
    point = {}
    for fam in ("a", "b", "a1", "a2"):
        for i in range(1, q + 1):
            point[f"{fam}_{i}"] = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
    lhs = 4 * (norm2(a1) + norm2(a2))
    av = [point[f"a1_{i}"] for i in range(1, q + 1)]
    bv = [point[f"a2_{i}"] for i in range(1, q + 1)]
    direct = 4 * (sum(x * x for x in av) + sum(x * x for x in bv))
    assert lhs.evaluate(point) == direct


def test_gap_factorizations_proved():
    reports = check_gap_factorizations()
    assert len(reports) == 4
    assert all_proved(reports)
    by_name = {r.name: r for r in reports}
    assert "rho0" in by_name["simons_substitution"].note


def test_gap_factorization_instance():
    # frozen instance a=(1,0), b=(0,1): S=4, |A|^2=8, rho0=16;
    # S(3S-4) - (S^2-rho0) = 32 and 2(|A|^2 + rho0 - 2S) = 32
    S, normA2, rho0 = 4, 8, 16
    assert S * (3 * S - 4) - (S ** 2 - rho0) == 32
    assert 2 * (normA2 + rho0 - 2 * S) == 32


def test_gradS_identity_random_rational_points():
    # symbolic |grad S|^2 expansion vs exact numeric evaluation of the closed
    # form at 100 random rational points
    q = 3
    rng = random.Random(5)
    a = SymbolFamily("a", q).components()
    b = SymbolFamily("b", q).components()
    a1 = SymbolFamily("a1", q).components()
    a2 = SymbolFamily("a2", q).components()
    s1 = 4 * (dot(a, a1) + dot(b, a2))
    s2 = 4 * (dot(a, a2) - dot(b, a1))
    symbolic = s1 ** 2 + s2 ** 2
    for _ in range(100):
        pt = {}
        vec = {}
        for fam in ("a", "b", "a1", "a2"):
            vals = [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(q)]
            vec[fam] = vals
            for i, v in enumerate(vals, start=1):
                pt[f"{fam}_{i}"] = v
        f = lambda u, v: sum(x * y for x, y in zip(vec[u], vec[v]))
        closed = 16 * (
            f("a", "a1") ** 2 + f("b", "a2") ** 2 + f("a", "a2") ** 2
            + f("b", "a1") ** 2
            + 2 * f("a", "a1") * f("b", "a2") - 2 * f("a", "a2") * f("b", "a1")
        )
        assert symbolic.evaluate(pt) == closed


def test_suite_shape_and_verdicts(identity_suite):
    reports = identity_suite
    # 5 groups per q; group sizes 4 + 1 + 1 + 3 + 4
    assert len(reports) == 6 * 13
    assert all_proved(reports)
    assert {r.q for r in reports} == {1, 2, 3, 4, 5, 6}


def test_suite_proves_all_91_identities_to_q7():
    # the `identities --qmax 7` workload of the benchmark
    reports = run_identity_suite(qmax=7)
    assert len(reports) == 7 * 13 == 91
    assert all_proved(reports)
    assert {r.q for r in reports} == set(range(1, 8))


def test_failure_reporting_carries_residual():
    bad = RatPoly.variable("S") - 1
    from minimal_gap_lab.identities import _report

    rep = _report("made_up", 2, bad)
    assert rep.verdict == "failed"
    assert rep.residual is not None
    assert not rep.proved


def test_gap_root_form_specializations():
    # t = 0: the quadratic factor is 18 (S^2 - 3S + 20/9);
    # t = 1: it is 9 S^2 - 38 S + 40 = (S - 2)(9 S - 20), so the roots are
    # exactly the threshold values 2 and 20/9
    S = RatPoly.variable("S")
    factor_t0 = 18 * (S ** 2 - 3 * S + Fraction(20, 9))
    assert (factor_t0 - (18 * S ** 2 - 54 * S + 40)).is_zero()
    factor_t1 = 9 * S ** 2 - 38 * S + 40
    assert (factor_t1 - (S - 2) * (9 * S - 20)).is_zero()


# -- shared raw sides and the fused kernel ------------------------------------

RHO0_READERS = {"rho0_closed_form", "S_squared_split", "charpoly_rank_two",
                "b2_laplacian_part"}


def test_a_wrong_shared_commutator_side_fails_every_reader(monkeypatch):
    # the suite builds rho0 once per q and lends it to three groups: a wrong
    # value must reach each of them, and the next suite must not see it
    true_rho0 = identities.rho0_commutators
    monkeypatch.setattr(identities, "rho0_commutators",
                        lambda a, b: true_rho0(a, b) + 1)
    reports = run_identity_suite(qmax=3)
    for q in (2, 3):
        failed = {r.name for r in reports if r.q == q and not r.proved}
        assert failed == RHO0_READERS
    monkeypatch.undo()
    reports = run_identity_suite(qmax=7)
    assert len(reports) == 91
    assert all_proved(reports)


def test_suite_builds_each_shared_side_once_per_q(monkeypatch):
    calls = collections.Counter()
    for name in ("rho0_commutators", "fundamental_matrix_sym",
                 "check_gap_factorizations"):
        def counted(*args, _name=name, _original=getattr(identities, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(identities, name, counted)
    assert all_proved(run_identity_suite(qmax=4))
    assert calls == {"rho0_commutators": 4, "fundamental_matrix_sym": 4,
                     "check_gap_factorizations": 1}


@pytest.mark.parametrize("q", [1, 3])
def test_groups_run_alone_give_the_suite_rows(q):
    suite = [(r.name, r.q, r.verdict) for r in run_identity_suite(qmax=q)
             if r.q == q]
    alone = [(r.name, r.q, r.verdict) for group in GROUPS
             for r in run_identity_group(group, q)]
    assert alone == suite


def test_suite_to_q7_stays_under_ten_thousand_ring_operations(monkeypatch):
    # a chained `total = total + x * y` copies its running sum at every
    # step; the suite made 19284 adds and 19723 products that way
    counts = collections.Counter()
    for slot, kind in (("__add__", "add"), ("__radd__", "add"),
                       ("__mul__", "mul"), ("__rmul__", "mul")):
        def counted(self, other, _kind=kind, _original=getattr(RatPoly, slot)):
            counts[_kind] += 1
            return _original(self, other)

        monkeypatch.setattr(RatPoly, slot, counted)
    assert all_proved(run_identity_suite(qmax=7))
    assert 0 < counts["add"] < 10000
    assert 0 < counts["mul"] < 10000


def test_helpers_on_caller_vectors_match_the_chained_sums():
    u = [RatPoly.variable("x") + 1, Fraction(1, 2) * RatPoly.variable("y"), 3]
    v = [RatPoly.variable("y"), RatPoly.variable("x") - 2, RatPoly.variable("x")]
    chained = u[0] * v[0] + u[1] * v[1] + u[2] * v[2]
    assert dot(u, v) == chained
    assert norm2(u) == u[0] * u[0] + u[1] * u[1] + 9
    assert dot([], []).is_zero()
    with pytest.raises(ValueError):
        dot(u, v[:2])
    A = [[u[0], u[1]], [v[0], v[1]]]
    B = [[v[2], u[2]], [u[0], v[0]]]
    C = identities.commutator(A, B)
    for i in (0, 1):
        for j in (0, 1):
            assert C[i][j] == sum(
                (A[i][t] * B[t][j] - B[i][t] * A[t][j] for t in (0, 1)),
                RatPoly.zero())
    assert identities.frob2(A) == sum((e * e for row in A for e in row),
                                      RatPoly.zero())
    lam = RatPoly.variable("lam")
    M = [[lam - 1, u[0], RatPoly.zero()], [v[0], lam, u[1]],
         [RatPoly.constant(2), v[1], lam + 3]]
    expand = (M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
              - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
              + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0]))
    assert identities.poly_det(M) == expand
