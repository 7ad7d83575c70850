"""Exact sparse multivariate polynomials over the rationals.

This is the kernel under every symbolic identity check: all coefficients are
`fractions.Fraction` (arbitrary precision, always in lowest terms, positive
denominator), so a polynomial is zero if and only if its term map is empty.
Zero-testing is a structural decision, never a probabilistic one.

Only the public constructor `RatPoly(vars, terms)` validates: it is the input
boundary, and it checks every exponent tuple and coefficient.  Arithmetic
builds its results in canonical form directly and wraps them unchecked.  When
a coefficient of a sum cancelled, a variable may be unused, and the sum drops
it from its own exponent tuples.  A product of nonzero factors never loses a
variable: the rationals are an integral domain, so deg_x(pq) = deg_x p +
deg_x q, and a product is zero only when a factor is.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational as _RationalABC

Rational = Fraction

_COMBINE_OPS = ("add", "sub", "mul")


def _as_rational(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, _RationalABC)):
        return Fraction(value)
    raise TypeError(f"exact coefficient expected, got {type(value).__name__}")


class RatPoly:
    """Sparse polynomial with rational coefficients in canonical form.

    Canonical form: variables are sorted by name, variables that occur in no
    term are dropped, and no term has a zero coefficient; `sorted_terms` lists
    the terms in graded lexicographic order (highest total degree first).  Two
    RatPoly values are mathematically equal iff they are structurally equal.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables, terms):
        variables = tuple(variables)
        cleaned = {}
        for exps, coeff in terms.items():
            coeff = _as_rational(coeff)
            if coeff == 0:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(variables):
                raise ValueError("exponent tuple length does not match variable count")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            cleaned[exps] = cleaned.get(exps, Fraction(0)) + coeff
        cleaned = {e: c for e, c in cleaned.items() if c != 0}

        used = [i for i, _ in enumerate(variables)
                if any(e[i] for e in cleaned)]
        order = sorted(used, key=lambda i: variables[i])
        self.vars = tuple(variables[i] for i in order)
        self.terms = {tuple(e[i] for i in order): c for e, c in cleaned.items()}

    @classmethod
    def _canonical(cls, variables: tuple, terms: dict) -> "RatPoly":
        """Wrap terms already in canonical form, unchecked: nonzero `Fraction`
        coefficients, sorted `variables`, each one used by some term."""
        poly = object.__new__(cls)
        poly.vars = variables
        poly.terms = terms
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "RatPoly":
        return cls((), {})

    @classmethod
    def constant(cls, value) -> "RatPoly":
        return cls((), {(): _as_rational(value)})

    @classmethod
    def variable(cls, name: str) -> "RatPoly":
        return cls((name,), {(1,): Fraction(1)})

    @classmethod
    def variables(cls, names) -> list["RatPoly"]:
        return [cls.variable(n) for n in names]

    # -- canonical term order ----------------------------------------------

    def sorted_terms(self):
        """Terms in graded-lex order, leading term first."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _aligned(p: "RatPoly", q: "RatPoly"):
        """Remap both term maps onto the union variable tuple; an operand
        already on it is passed through uncopied."""
        if p.vars == q.vars:
            return p.vars, p.terms, q.terms
        union = tuple(sorted(set(p.vars) | set(q.vars)))
        index = {name: i for i, name in enumerate(union)}

        def remap(poly):
            if poly.vars == union:
                return poly.terms
            pos = [index[name] for name in poly.vars]
            out = {}
            for exps, coeff in poly.terms.items():
                full = [0] * len(union)
                for slot, e in zip(pos, exps):
                    full[slot] = e
                out[tuple(full)] = coeff
            return out

        return union, remap(p), remap(q)

    def _coerce(self, other):
        if isinstance(other, RatPoly):
            return other
        return RatPoly.constant(other)

    def __add__(self, other):
        other = self._coerce(other)
        union, a, b = self._aligned(self, other)
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        cancelled = False
        for exps, coeff in b.items():
            acc = out.get(exps)
            if acc is not None:
                coeff += acc
                if not coeff:
                    del out[exps]
                    cancelled = True
                    continue
            out[exps] = coeff
        if cancelled:
            # a cancelled term may have used the last power of some variable
            used = [i for i, column in enumerate(zip(*out)) if any(column)]
            if len(used) < len(union):
                union = tuple(union[i] for i in used)
                out = {tuple(e[i] for i in used): c for e, c in out.items()}
        return RatPoly._canonical(union, out)

    __radd__ = __add__

    def __neg__(self):
        return RatPoly._canonical(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        if not self.terms or not other.terms:
            return RatPoly.zero()
        union, a, b = self._aligned(self, other)
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                acc = out.get(key)
                out[key] = c1 * c2 if acc is None else acc + c1 * c2
        # terms may cancel, but no variable vanishes from a nonzero product
        return RatPoly._canonical(union, {e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        scalar = _as_rational(scalar)
        return RatPoly._canonical(self.vars,
                                  {e: c / scalar for e, c in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = RatPoly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, RatPoly):
            if not isinstance(other, (int, _RationalABC)):
                return NotImplemented
            other = RatPoly.constant(other)
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        if not self.vars:        # a constant equals, so hashes as, its value
            return hash(self.terms.get((), 0))
        return hash((self.vars, frozenset(self.terms.items())))

    # -- calculus / evaluation ----------------------------------------------

    def diff(self, var: str) -> "RatPoly":
        """Exact partial derivative; zero if `var` is absent."""
        if var not in self.vars:
            return RatPoly.zero()
        i = self.vars.index(var)
        out = {}
        for exps, coeff in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            key = exps[:i] + (e - 1,) + exps[i + 1:]
            out[key] = out.get(key, Fraction(0)) + coeff * e
        return RatPoly(self.vars, out)

    def evaluate(self, assignment: dict) -> Fraction:
        """Exact evaluation; every variable of the polynomial must be assigned."""
        vals = []
        for name in self.vars:
            if name not in assignment:
                raise KeyError(f"no value for variable {name!r}")
            vals.append(_as_rational(assignment[name]))
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for v, e in zip(vals, exps):
                term *= v ** e
            total += term
        return total

    # -- debug dump -----------------------------------------------------------

    def dump(self) -> str:
        """One term per line: "coeff  e1 e2 ... en", graded-lex order."""
        if not self.terms:
            return "0"
        lines = []
        for exps, coeff in self.sorted_terms():
            lines.append("  ".join([str(coeff)] + [str(e) for e in exps]))
        return "\n".join(lines)

    def __repr__(self):
        if not self.terms:
            return "RatPoly(0)"
        bits = []
        for exps, coeff in self.sorted_terms():
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.vars, exps) if e
            )
            bits.append(f"{coeff}" if not mono else f"{coeff}*{mono}")
        return "RatPoly(" + " + ".join(bits) + ")"


def poly_combine(p: RatPoly, q: RatPoly, op: str) -> RatPoly:
    """Exact add/sub/mul; variable sets are merged by name."""
    if op not in _COMBINE_OPS:
        raise ValueError(f"op must be one of {_COMBINE_OPS}, got {op!r}")
    if op == "add":
        return p + q
    if op == "sub":
        return p - q
    return p * q


def poly_diff(p: RatPoly, var: str) -> RatPoly:
    return p.diff(var)


def poly_is_zero(p: RatPoly) -> bool:
    """Exact structural zero test (empty canonical term map)."""
    return p.is_zero()
