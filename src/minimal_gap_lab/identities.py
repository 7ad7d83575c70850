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

from dataclasses import dataclass
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

ZERO = RatPoly.zero()


def dot(u, v):
    total = ZERO
    for x, y in zip(u, v, strict=True):
        total = total + x * y
    return total


def norm2(u):
    return dot(u, u)


def shape_matrix(a_alpha, b_alpha):
    """Traceless symmetric 2x2 shape operator for one normal direction."""
    return [[a_alpha, b_alpha], [b_alpha, -a_alpha]]


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    return [
        [dot(A[i], [B[t][j] for t in range(k)]) for j in range(m)]
        for i in range(n)
    ]


def mat_sub(A, B):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]


def commutator(A, B):
    return mat_sub(mat_mul(A, B), mat_mul(B, A))


def frob2(A):
    return sum((entry * entry for row in A for entry in row), ZERO)


def fundamental_matrix_sym(a, b):
    """A = 2 a a^T + 2 b b^T entrywise, as polynomials."""
    q = len(a)
    return [[2 * a[i] * a[j] + 2 * b[i] * b[j] for j in range(q)] for i in range(q)]


def rho0_commutators(a, b):
    """Sum of squared commutator norms over all ordered pairs of normals."""
    mats = [shape_matrix(ai, bi) for ai, bi in zip(a, b)]
    total = ZERO
    for Sa in mats:
        for Sb in mats:
            total = total + frob2(commutator(Sa, Sb))
    return total


def poly_det(M):
    """Determinant of a square polynomial matrix by memoized Laplace expansion."""
    n = len(M)
    if n == 0:
        return RatPoly.constant(1)
    memo = {}

    def minor(row, colmask):
        if row == n:
            return RatPoly.constant(1)
        key = colmask
        hit = memo.get(key)
        if hit is not None:
            return hit
        total = ZERO
        sign = 1
        for j in range(n):
            bit = 1 << j
            if not colmask & bit:
                continue
            entry = M[row][j]
            if entry.is_zero():
                sign = -sign
                continue
            total = total + sign * entry * minor(row + 1, colmask & ~bit)
            sign = -sign
        memo[key] = total
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


# -- the identity checks ----------------------------------------------------

def check_invariant_identities(q: int) -> list[IdentityReport]:
    """The four pointwise invariant identities, raw matrix side vs closed form."""
    if q < 1:
        raise ValueError("q must be >= 1")
    a = SymbolFamily("a", q).components()
    b = SymbolFamily("b", q).components()

    A = fundamental_matrix_sym(a, b)
    normA2_raw = frob2(A)
    trace_raw = sum((A[i][i] for i in range(q)), ZERO)
    rho0_raw = rho0_commutators(a, b)

    na, nb, ab = norm2(a), norm2(b), dot(a, b)

    reports = [
        _report("A_norm_closed_form", q,
                normA2_raw - (4 * na ** 2 + 4 * nb ** 2 + 8 * ab ** 2)),
        _report("rho0_closed_form", q,
                rho0_raw - (16 * na * nb - 16 * ab ** 2)),
    ]

    a1 = SymbolFamily("a1", q).components()
    a2 = SymbolFamily("a2", q).components()
    s1 = 4 * (dot(a, a1) + dot(b, a2))
    s2 = 4 * (dot(a, a2) - dot(b, a1))
    grad_closed = 16 * (
        dot(a, a1) ** 2 + dot(b, a2) ** 2 + dot(a, a2) ** 2 + dot(b, a1) ** 2
        + 2 * dot(a, a1) * dot(b, a2) - 2 * dot(a, a2) * dot(b, a1)
    )
    reports.append(_report("gradS_squared_expansion", q,
                           s1 ** 2 + s2 ** 2 - grad_closed))

    reports.append(_report("S_squared_split", q,
                           2 * trace_raw ** 2 - (rho0_raw + 2 * normA2_raw)))
    return reports


def check_eigen_charpoly(q: int) -> IdentityReport:
    """det(lam I - A) = lam^(q-2) (lam^2 - S lam + rho0/4) as polynomials.

    For q = 1 the statement degenerates to det = lam - S together with
    rho0 = 0, which is what gets checked.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    lam = RatPoly.variable("lam")
    a = SymbolFamily("a", q).components()
    b = SymbolFamily("b", q).components()
    A = fundamental_matrix_sym(a, b)
    S = sum((A[i][i] for i in range(q)), ZERO)
    rho0 = rho0_commutators(a, b)

    M = [[(lam if i == j else ZERO) - A[i][j] for j in range(q)] for i in range(q)]
    det = poly_det(M)

    if q == 1:
        # sum of squares: zero iff both parts vanish
        residual = (det - (lam - S)) ** 2 + rho0 ** 2
        return _report("charpoly_rank_two", q, residual,
                       note="q=1: reduces to det = lam - S with rho0 = 0")
    rhs = lam ** (q - 2) * (lam ** 2 - S * lam + rho0 / 4)
    return _report("charpoly_rank_two", q, det - rhs)


def check_b2_decomposition(q: int) -> IdentityReport:
    """2(|Lap a|^2 + |Lap b|^2) = S(2-S)^2 - (8-5S)/4 * rho0."""
    if q < 1:
        raise ValueError("q must be >= 1")
    a = SymbolFamily("a", q).components()
    b = SymbolFamily("b", q).components()
    na, nb, ab = norm2(a), norm2(b), dot(a, b)
    S = 2 * na + 2 * nb
    rho0 = rho0_commutators(a, b)

    lap_a = [ai * (2 - S) + 2 * bi * ab - 2 * ai * nb for ai, bi in zip(a, b)]
    lap_b = [bi * (2 - S) + 2 * ai * ab - 2 * bi * na for ai, bi in zip(a, b)]

    lhs = 2 * (norm2(lap_a) + norm2(lap_b))
    rhs = S * (2 - S) ** 2 - (8 - 5 * S) * rho0 / 4
    return _report("b2_laplacian_part", q, lhs - rhs)


def check_third_order_contractions(q: int) -> list[IdentityReport]:
    """Contractions of the totally symmetric trace-free third-order tensor."""
    if q < 1:
        raise ValueError("q must be >= 1")
    a = SymbolFamily("a", q).components()
    b = SymbolFamily("b", q).components()
    a1 = SymbolFamily("a1", q).components()
    a2 = SymbolFamily("a2", q).components()

    h = h_table(a, b)
    hg = grad_h_table(a1, a2)

    b1_raw = sum(
        (norm2(hg[i, j, k]) for i in (0, 1) for j in (0, 1) for k in (0, 1)),
        ZERO,
    )
    reports = [
        _report("b1_norm_form", q, b1_raw - 4 * (norm2(a1) + norm2(a2))),
    ]

    # normal curvature from the shape operators: R(alpha,beta,k,m)
    def r_perp(alpha, beta, k, m):
        total = ZERO
        for t in (0, 1):
            total = total + (h[k, t][alpha] * h[t, m][beta]
                             - h[k, t][beta] * h[t, m][alpha])
        return total

    # sum_ijkm,ab 2 h_ijk^a h_ijm^b R(b,a,k,m); R does not depend on i, j
    contraction = ZERO
    for k in (0, 1):
        for m in (0, 1):
            for alpha in range(q):
                for beta in range(q):
                    hg_hg = ZERO
                    for i in (0, 1):
                        for j in (0, 1):
                            hg_hg = hg_hg + hg[i, j, k][alpha] * hg[i, j, m][beta]
                    contraction = contraction + 2 * r_perp(beta, alpha, k, m) * hg_hg
    closed = 32 * (dot(a, a2) * dot(b, a1) - dot(a, a1) * dot(b, a2))
    reports.append(_report("normal_curvature_contraction", q, contraction - closed))

    # gradient of S from the raw contraction 2 h_ij . h_ijk
    s_k = []
    for k in (0, 1):
        total = ZERO
        for i in (0, 1):
            for j in (0, 1):
                total = total + 2 * dot(h[i, j], hg[i, j, k])
        s_k.append(total)
    grad_closed = 16 * (
        dot(a, a1) ** 2 + dot(b, a2) ** 2 + dot(a, a2) ** 2 + dot(b, a1) ** 2
        + 2 * dot(a, a1) * dot(b, a2) - 2 * dot(a, a2) * dot(b, a1)
    )
    # sum of squares: zero iff each of the three statements holds
    residual = (
        (s_k[0] - 4 * (dot(a, a1) + dot(b, a2))) ** 2
        + (s_k[1] - 4 * (dot(a, a2) - dot(b, a1))) ** 2
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
# about 1.4-1.9x per q and `poly_det` memoizes up to 2**q minors: qmax = 14
# took 3.3 s at 45 MB peak RSS on a 2-vCPU x86-64 box, qmax = 18 took 28 s.
QMAX_LIMIT = 14

GROUPS = (
    "invariant_identities",
    "eigen_charpoly",
    "b2_decomposition",
    "third_order_contractions",
    "gap_factorizations",
)


def run_identity_group(group: str, q: int) -> list[IdentityReport]:
    if group == "invariant_identities":
        return check_invariant_identities(q)
    if group == "eigen_charpoly":
        return [check_eigen_charpoly(q)]
    if group == "b2_decomposition":
        return [check_b2_decomposition(q)]
    if group == "third_order_contractions":
        return check_third_order_contractions(q)
    if group == "gap_factorizations":
        # q-independent; replicated per q so every row of the suite is total
        return [IdentityReport(r.name, q, r.verdict, r.residual, r.note)
                for r in check_gap_factorizations()]
    raise ValueError(f"unknown identity group {group!r}")


def run_identity_suite(qmax: int = 6) -> list[IdentityReport]:
    """All identity groups for q = 1..qmax, in deterministic order."""
    if qmax < 1:
        raise ValueError("qmax must be >= 1")
    reports = []
    for q in range(1, qmax + 1):
        for group in GROUPS:
            reports.extend(run_identity_group(group, q))
    return reports


def all_proved(reports) -> bool:
    return all(r.proved for r in reports)
