"""Symbolic proofs of the algebraic identities satisfied by the second
fundamental form of a minimal surface in a unit sphere.

Everything here is expressed per normal direction through the component
vectors a = (h_11^alpha), b = (h_12^alpha) and, at third order,
a1 = (h_111^alpha), a2 = (h_112^alpha).  Minimality and the Codazzi symmetry
are baked into the parametrization once (h_22 = -h_11, h_122 = -h_111, ...),
after which each identity is a plain polynomial equation decided exactly by
the RatPoly kernel.  A "proved" verdict means the difference of the two sides
expands to the structurally zero polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from minimal_gap_lab.ratpoly import RatPoly

FAMILY_NAMES = ("a", "b", "a1", "a2")


@dataclass(frozen=True)
class SymbolFamily:
    """A named q-vector of scalar symbols, e.g. a -> (a_1, ..., a_q)."""

    name: str
    dimension: int

    def __post_init__(self):
        if self.name not in FAMILY_NAMES:
            raise ValueError(f"unknown symbol family {self.name!r}")
        if self.dimension < 0:
            raise ValueError("dimension must be nonnegative")

    def components(self) -> list[RatPoly]:
        return RatPoly.variables(
            f"{self.name}_{i}" for i in range(1, self.dimension + 1)
        )


@dataclass(frozen=True)
class IdentityReport:
    name: str
    q: int
    verdict: str                       # "proved" | "failed"
    residual: RatPoly | None = None
    note: str = ""

    @property
    def proved(self) -> bool:
        return self.verdict == "proved"


def _report(name: str, q: int, residual: RatPoly, note: str = "") -> IdentityReport:
    if residual.is_zero():
        return IdentityReport(name, q, "proved", None, note)
    return IdentityReport(name, q, "failed", residual, note)


# -- small polynomial linear algebra ---------------------------------------

ONE = RatPoly.constant(1)
sum_of_products = RatPoly.sum_of_products


def poly_sum(polys):
    """Sum of polynomials, accumulated in one term map."""
    return sum_of_products((p, 1) for p in polys)


def dot(u, v):
    return sum_of_products(zip(u, v, strict=True))


def norm2(u):
    return dot(u, u)


def shape_matrix(a_alpha, b_alpha):
    """Traceless symmetric 2x2 shape operator for one normal direction."""
    return [[a_alpha, b_alpha], [b_alpha, -a_alpha]]


def commutator(A, B):
    """AB - BA for square matrices, each entry one sum of products."""
    n = len(A)
    neg_B = [[-x for x in row] for row in B]
    return [
        [sum_of_products([(A[i][t], B[t][j]) for t in range(n)]
                         + [(neg_B[i][t], A[t][j]) for t in range(n)])
         for j in range(n)]
        for i in range(n)
    ]


def frob2(A):
    return sum_of_products((entry, entry) for row in A for entry in row)


def fundamental_matrix_sym(a, b):
    """A = 2 a a^T + 2 b b^T entrywise, as polynomials."""
    q = len(a)
    a2, b2 = [2 * x for x in a], [2 * x for x in b]
    return [[sum_of_products(((a2[i], a[j]), (b2[i], b[j]))) for j in range(q)]
            for i in range(q)]


def rho0_commutators(a, b):
    """Sum of squared commutator norms over all ordered pairs of normals."""
    mats = [shape_matrix(ai, bi) for ai, bi in zip(a, b)]
    return sum_of_products((entry, entry) for Sa in mats for Sb in mats
                           for row in commutator(Sa, Sb) for entry in row)


def poly_det(M):
    """Determinant of a square polynomial matrix by memoized Laplace expansion."""
    n = len(M)
    if n == 0:
        return ONE
    neg_M = [[-x for x in row] for row in M]
    memo = {}

    def minor(row, colmask):
        if row == n:
            return ONE
        hit = memo.get(colmask)
        if hit is not None:
            return hit
        cofactors = []
        sign = 1
        for j in range(n):
            bit = 1 << j
            if not colmask & bit:
                continue
            if not M[row][j].is_zero():
                signed = M if sign > 0 else neg_M
                cofactors.append((signed[row][j], minor(row + 1, colmask & ~bit)))
            sign = -sign
        total = memo[colmask] = sum_of_products(cofactors)
        return total

    return minor(0, (1 << n) - 1)


# -- third-order parametrization ---------------------------------------------

def grad_h_table(a1, a2):
    """h_{ijk} for i,j,k in {1,2}, totally symmetric and trace free.

    The number of indices equal to 2 determines the entry:
    0 -> a1, 1 -> a2, 2 -> -a1, 3 -> -a2.
    """
    pick = {0: a1, 1: a2, 2: [-x for x in a1], 3: [-x for x in a2]}
    table = {}
    for i in (0, 1):
        for j in (0, 1):
            for k in (0, 1):
                table[i, j, k] = pick[i + j + k]
    return table


def h_table(a, b):
    neg_a = [-x for x in a]
    return {(0, 0): a, (0, 1): b, (1, 0): b, (1, 1): neg_a}


# -- raw sides shared between groups -----------------------------------------

class SharedSides:
    """Raw sides that more than one identity group expands, each built once.

    `run_identity_suite` makes one for its whole run and passes it to every
    group; a check called alone makes its own.  Entries are keyed by the
    codimension q, and nothing outlives the object.
    """

    def __init__(self):
        self._built = {}

    def _once(self, key, build):
        value = self._built.get(key)
        if value is None:
            value = self._built[key] = build()
        return value

    def vector(self, family: str, q: int) -> list[RatPoly]:
        """The components of a symbol family, e.g. (a_1, ..., a_q)."""
        return self._once((family, q), lambda: SymbolFamily(family, q).components())

    def matrix(self, q: int) -> list[list[RatPoly]]:
        """The matrix A = 2 a a^T + 2 b b^T."""
        return self._once(("A", q), lambda: fundamental_matrix_sym(
            self.vector("a", q), self.vector("b", q)))

    def rho0(self, q: int) -> RatPoly:
        """The commutator sum rho0, expanded from the shape operators."""
        return self._once(("rho0", q), lambda: rho0_commutators(
            self.vector("a", q), self.vector("b", q)))

    def norms(self, q: int) -> tuple[RatPoly, RatPoly, RatPoly]:
        """(|a|^2, |b|^2, <a, b>)."""
        a, b = self.vector("a", q), self.vector("b", q)
        return self._once(("norms", q), lambda: (norm2(a), norm2(b), dot(a, b)))

    def gap_factorizations(self) -> list[IdentityReport]:
        """The q-free group's reports."""
        return self._once("gap_factorizations", check_gap_factorizations)


def _gradient_closed_forms(a, b, a1, a2):
    """Closed forms of the two components of grad S and of |grad S|^2."""
    d11, d22, d12, d21 = dot(a, a1), dot(b, a2), dot(a, a2), dot(b, a1)
    s1 = 4 * (d11 + d22)
    s2 = 4 * (d12 - d21)
    grad2 = 16 * (
        d11 ** 2 + d22 ** 2 + d12 ** 2 + d21 ** 2 + 2 * d11 * d22 - 2 * d12 * d21
    )
    return s1, s2, grad2


# -- the identity checks ----------------------------------------------------

def check_invariant_identities(q: int, sides: SharedSides | None = None
                               ) -> list[IdentityReport]:
    """The four pointwise invariant identities, raw matrix side vs closed form."""
    if q < 1:
        raise ValueError("q must be >= 1")
    sides = SharedSides() if sides is None else sides
    A = sides.matrix(q)
    normA2_raw = frob2(A)
    trace_raw = poly_sum(A[i][i] for i in range(q))
    rho0_raw = sides.rho0(q)

    na, nb, ab = sides.norms(q)

    reports = [
        _report("A_norm_closed_form", q,
                normA2_raw - (4 * na ** 2 + 4 * nb ** 2 + 8 * ab ** 2)),
        _report("rho0_closed_form", q,
                rho0_raw - (16 * na * nb - 16 * ab ** 2)),
    ]

    s1, s2, grad_closed = _gradient_closed_forms(
        *(sides.vector(family, q) for family in FAMILY_NAMES))
    reports.append(_report("gradS_squared_expansion", q,
                           s1 ** 2 + s2 ** 2 - grad_closed))

    reports.append(_report("S_squared_split", q,
                           2 * trace_raw ** 2 - (rho0_raw + 2 * normA2_raw)))
    return reports


def check_eigen_charpoly(q: int, sides: SharedSides | None = None) -> IdentityReport:
    """det(lam I - A) = lam^(q-2) (lam^2 - S lam + rho0/4) as polynomials.

    For q = 1 the statement degenerates to det = lam - S together with
    rho0 = 0, which is what gets checked.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    sides = SharedSides() if sides is None else sides
    lam = RatPoly.variable("lam")
    A = sides.matrix(q)
    S = poly_sum(A[i][i] for i in range(q))
    rho0 = sides.rho0(q)

    M = [[lam - A[i][j] if i == j else -A[i][j] for j in range(q)] for i in range(q)]
    det = poly_det(M)

    if q == 1:
        # sum of squares: zero iff both parts vanish
        residual = (det - (lam - S)) ** 2 + rho0 ** 2
        return _report("charpoly_rank_two", q, residual,
                       note="q=1: reduces to det = lam - S with rho0 = 0")
    rhs = lam ** (q - 2) * (lam ** 2 - S * lam + rho0 / 4)
    return _report("charpoly_rank_two", q, det - rhs)


def check_b2_decomposition(q: int, sides: SharedSides | None = None) -> IdentityReport:
    """2(|Lap a|^2 + |Lap b|^2) = S(2-S)^2 - (8-5S)/4 * rho0."""
    if q < 1:
        raise ValueError("q must be >= 1")
    sides = SharedSides() if sides is None else sides
    a, b = sides.vector("a", q), sides.vector("b", q)
    na, nb, ab = sides.norms(q)
    S = 2 * na + 2 * nb
    rho0 = sides.rho0(q)

    two_minus_S, two_ab, m2_na, m2_nb = 2 - S, 2 * ab, -2 * na, -2 * nb
    lap_a = [sum_of_products(((ai, two_minus_S), (bi, two_ab), (ai, m2_nb)))
             for ai, bi in zip(a, b)]
    lap_b = [sum_of_products(((bi, two_minus_S), (ai, two_ab), (bi, m2_na)))
             for ai, bi in zip(a, b)]

    lhs = 2 * norm2(lap_a + lap_b)      # the lists joined: |Lap a|^2 + |Lap b|^2
    rhs = S * (2 - S) ** 2 - (8 - 5 * S) * rho0 / 4
    return _report("b2_laplacian_part", q, lhs - rhs)


def check_third_order_contractions(q: int, sides: SharedSides | None = None
                                   ) -> list[IdentityReport]:
    """Contractions of the totally symmetric trace-free third-order tensor."""
    if q < 1:
        raise ValueError("q must be >= 1")
    sides = SharedSides() if sides is None else sides
    a, b, a1, a2 = (sides.vector(family, q) for family in FAMILY_NAMES)

    h = h_table(a, b)
    neg_h = {key: [-x for x in vec] for key, vec in h.items()}
    hg = grad_h_table(a1, a2)

    b1_raw = sum_of_products(
        (x, x) for i in (0, 1) for j in (0, 1) for k in (0, 1) for x in hg[i, j, k])
    reports = [
        _report("b1_norm_form", q, b1_raw - 4 * (norm2(a1) + norm2(a2))),
    ]

    # normal curvature from the shape operators: R(alpha,beta,k,m)
    def r_perp(alpha, beta, k, m):
        return sum_of_products(
            [(h[k, t][alpha], h[t, m][beta]) for t in (0, 1)]
            + [(neg_h[k, t][beta], h[t, m][alpha]) for t in (0, 1)])

    # sum_ijkm,ab 2 h_ijk^a h_ijm^b R(b,a,k,m); R does not depend on i, j
    terms = []
    for k in (0, 1):
        for m in (0, 1):
            for alpha in range(q):
                for beta in range(q):
                    hg_hg = sum_of_products(
                        (hg[i, j, k][alpha], hg[i, j, m][beta])
                        for i in (0, 1) for j in (0, 1))
                    terms.append((r_perp(beta, alpha, k, m), hg_hg))
    contraction = 2 * sum_of_products(terms)
    closed = 32 * (dot(a, a2) * dot(b, a1) - dot(a, a1) * dot(b, a2))
    reports.append(_report("normal_curvature_contraction", q, contraction - closed))

    # gradient of S from the raw contraction 2 h_ij . h_ijk
    s_k = [2 * sum_of_products(pair for i in (0, 1) for j in (0, 1)
                               for pair in zip(h[i, j], hg[i, j, k], strict=True))
           for k in (0, 1)]
    s1, s2, grad_closed = _gradient_closed_forms(a, b, a1, a2)
    # sum of squares: zero iff each of the three statements holds
    residual = (
        (s_k[0] - s1) ** 2
        + (s_k[1] - s2) ** 2
        + (s_k[0] ** 2 + s_k[1] ** 2 - grad_closed) ** 2
    )
    reports.append(_report("gradS_from_contraction", q, residual))
    return reports


def check_gap_factorizations() -> list[IdentityReport]:
    """Integrand rewrites behind the first and second gap estimates.

    All statements are polynomial identities in S and either r (the squared
    normal curvature sum rho0) or the pinching parameter t, with the
    denominator 18 - 9 t^2 cleared; square roots never appear, only sums and
    products of the two quadratic roots.
    """
    S = RatPoly.variable("S")
    r = RatPoly.variable("r")
    t = RatPoly.variable("t")
    half = Fraction(1, 2)

    # (i) quartic integrand in rho0 form: substitute (S - 2 lam2)^2 = S^2 - r
    #     and 2 (rho_perp)^2 = r/2.
    lhs1 = S * (3 * S - 4) * (3 * S - 5) + half * (16 - 9 * S) * (S ** 2 - r)
    rhs1 = half * S * (S - 2) * (9 * S - 20) + half * r * (9 * S - 16)
    reports = [_report("second_gap_rho_form", 0, lhs1 - rhs1)]

    # (ii) root form: with (S - 2 lam2)^2 = t^2 S^2 the quartic integrand is
    #      (S/2) ((18-9t^2) S^2 - 2(27-8t^2) S + 40); the quadratic factor has
    #      root sum 2(27-8t^2)/(18-9t^2) and root product 40/(18-9t^2).
    lhs2 = S * (3 * S - 4) * (3 * S - 5) + half * (16 - 9 * S) * t ** 2 * S ** 2
    rhs2 = half * S * ((18 - 9 * t ** 2) * S ** 2 - 2 * (27 - 8 * t ** 2) * S + 40)
    # completed-square bookkeeping: (27-8t^2)^2 + 45/4 - (8t^2-9/2)^2 must
    # equal 40 (18-9t^2) for the two quadratic forms to match.  Sum of
    # squares: zero iff both statements hold.
    bookkeeping = (
        (27 - 8 * t ** 2) ** 2 + Fraction(45, 4) - (8 * t ** 2 - Fraction(9, 2)) ** 2
        - 40 * (18 - 9 * t ** 2)
    )
    reports.append(_report("second_gap_root_form", 0,
                           (lhs2 - rhs2) ** 2 + bookkeeping ** 2))

    # (iii) pointwise identity behind the first gap: with |A|^2 = S^2 - r/2,
    #       S(3S-4) - (S^2 - r) = 2(|A|^2 + r - 2S).
    normA2 = S ** 2 - r / 2
    lhs3 = S * (3 * S - 4) - (S ** 2 - r)
    rhs3 = 2 * (normA2 + r - 2 * S)
    reports.append(_report("first_gap_pointwise", 0, lhs3 - rhs3))

    # bookkeeping step of the same derivation, in the rho0 convention:
    # (2-S)(-(3/2)S^2 + |A|^2 + r) = (2-S)(-S^2/2 + r/2).  The variant with
    # the unsquared normal curvature in place of r is dimensionally
    # inconsistent and is not verified.
    lhs4 = (2 - S) * (Fraction(-3, 2) * S ** 2 + normA2 + r)
    rhs4 = (2 - S) * (-(S ** 2) / 2 + r / 2)
    reports.append(_report(
        "simons_substitution", 0, lhs4 - rhs4,
        note="verified with the squared normal-curvature sum rho0; the "
             "rho_perp variant reading is dimensionally inconsistent",
    ))
    return reports


# -- suite driver ------------------------------------------------------------

# The largest `identities --qmax` the CLI accepts.  The suite's time grows
# about 1.5-1.7x per q and `poly_det` memoizes up to 2**q minors: qmax = 14
# took 1.5 s of CPU at 32 MB peak RSS on a 2-vCPU x86-64 box.
QMAX_LIMIT = 14

GROUPS = (
    "invariant_identities",
    "eigen_charpoly",
    "b2_decomposition",
    "third_order_contractions",
    "gap_factorizations",
)


def run_identity_group(group: str, q: int, sides: SharedSides | None = None
                       ) -> list[IdentityReport]:
    """One group's reports at codimension q; `sides` lends the raw sides
    other groups of the same run have built."""
    sides = SharedSides() if sides is None else sides
    if group == "invariant_identities":
        return check_invariant_identities(q, sides)
    if group == "eigen_charpoly":
        return [check_eigen_charpoly(q, sides)]
    if group == "b2_decomposition":
        return [check_b2_decomposition(q, sides)]
    if group == "third_order_contractions":
        return check_third_order_contractions(q, sides)
    if group == "gap_factorizations":
        # q-independent; replicated per q so every row of the suite is total
        return [replace(r, q=q) for r in sides.gap_factorizations()]
    raise ValueError(f"unknown identity group {group!r}")


def run_identity_suite(qmax: int = 6) -> list[IdentityReport]:
    """All identity groups for q = 1..qmax, in deterministic order.

    Every raw side that several groups share is built once per q, and the
    q-free gap factorizations once per run.
    """
    if qmax < 1:
        raise ValueError("qmax must be >= 1")
    sides = SharedSides()
    reports = []
    for q in range(1, qmax + 1):
        for group in GROUPS:
            reports.extend(run_identity_group(group, q, sides))
    return reports


def all_proved(reports) -> bool:
    return all(r.proved for r in reports)
