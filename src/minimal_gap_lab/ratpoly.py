"""Exact sparse multivariate polynomials over the rationals.

This is the kernel under every symbolic identity check.  Coefficients are
exact rationals in lowest terms with a positive denominator, so a polynomial
is zero if and only if its term map is empty.  Zero-testing is a structural
decision, never a probabilistic one.

Packed monomials.  A monomial is one Python int: the exponent of each
variable occupies its own `EXP_BITS`-wide field, at the bit offset of the
variable's slot.  Slots come from one process-wide registry that gives each
new variable name the next free slot; inserts are locked, so threads that
meet fresh names at once still get distinct slots.  A product of monomials
is then one int addition, operands over different variables need no
alignment, and a variable that no term uses is simply absent from every key.

Exponent limit.  Each polynomial carries an upper bound on its total degree,
which bounds every field of every key.  An operation whose result could have
total degree above `MAX_DEGREE` (2**EXP_BITS - 1) raises `OverflowError`
naming the limit; a field never carries into the next one.

Coefficients.  A coefficient is stored as an `int` when it is integral and
as a `Fraction` otherwise: the two compare and hash alike, and integer
arithmetic is several times faster.  The public views are decoded on demand:
`vars` lists the used variables sorted by name, and `terms` maps exponent
tuples (in `vars` order) to `Fraction` coefficients.

Sums of products.  `RatPoly.sum_of_products` adds up many products x * y
in one term map, so a long sum such as a dot product or a cofactor expansion
does not copy its running total once per term, as a chain of `+` does.

Only the public constructor `RatPoly(vars, terms)` validates: it is the input
boundary, and it checks every name, exponent tuple and coefficient.
Arithmetic builds its results in canonical form directly and wraps them
unchecked.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from numbers import Rational as _RationalABC

Rational = Fraction

EXP_BITS = 16
MAX_DEGREE = (1 << EXP_BITS) - 1      # also the mask of one exponent field

_COMBINE_OPS = ("add", "sub", "mul")

# the slot registry: name -> slot, and slot -> name
_slot_of: dict[str, int] = {}
_slot_names: list[str] = []
_registry_lock = threading.Lock()


def _offset(name: str) -> int:
    """Bit offset of `name`'s exponent field; registers a new name."""
    slot = _slot_of.get(name)
    if slot is None:
        with _registry_lock:
            slot = _slot_of.get(name)
            if slot is None:
                slot = len(_slot_names)
                _slot_names.append(name)
                _slot_of[name] = slot
    return slot * EXP_BITS


def _fields(key: int):
    """(slot, exponent) for each nonzero exponent field of a packed key."""
    slot = 0
    while key:
        exp = key & MAX_DEGREE
        if exp:
            yield slot, exp
        key >>= EXP_BITS
        slot += 1


def _key_degree(key: int) -> int:
    return sum(exp for _, exp in _fields(key))


def _check_degree(degree: int) -> None:
    if degree > MAX_DEGREE:
        raise OverflowError(
            f"total degree {degree} exceeds the exponent limit MAX_DEGREE = "
            f"{MAX_DEGREE} ({EXP_BITS}-bit fields)")


def _as_rational(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, _RationalABC)):
        return Fraction(value)
    raise TypeError(f"exact coefficient expected, got {type(value).__name__}")


def _stored(c):
    """The storage form of a nonzero coefficient: int when integral."""
    if c.__class__ is int:
        return c
    return c.numerator if c.denominator == 1 else c


class RatPoly:
    """Sparse polynomial with rational coefficients in canonical form.

    Canonical form: no term has a zero coefficient, and every coefficient is
    in its storage form (see `_stored`).  `vars` is sorted by name and lists
    only variables that occur in some term; `sorted_terms` lists the terms in
    graded lexicographic order (highest total degree first).  Two RatPoly
    values are mathematically equal iff their packed term maps are equal.
    """

    __slots__ = ("_terms", "_deg")

    def __init__(self, variables, terms):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable name")
        offsets = [_offset(name) for name in variables]
        packed = {}
        for exps, coeff in terms.items():
            coeff = _as_rational(coeff)
            if coeff == 0:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(variables):
                raise ValueError("exponent tuple length does not match variable count")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            _check_degree(sum(exps))
            key = sum(e << off for e, off in zip(exps, offsets))
            packed[key] = packed.get(key, 0) + coeff
        self._terms = {k: _stored(c) for k, c in packed.items() if c}
        self._deg = max(map(_key_degree, self._terms), default=0)

    @classmethod
    def _canonical(cls, terms: dict, degree: int) -> "RatPoly":
        """Wrap a packed term map already in canonical form, unchecked;
        `degree` bounds its total degree from above."""
        poly = object.__new__(cls)
        poly._terms = terms
        poly._deg = degree
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "RatPoly":
        return cls._canonical({}, 0)

    @classmethod
    def constant(cls, value) -> "RatPoly":
        return cls((), {(): _as_rational(value)})

    @classmethod
    def variable(cls, name: str) -> "RatPoly":
        return cls((name,), {(1,): 1})

    @classmethod
    def variables(cls, names) -> list["RatPoly"]:
        return [cls.variable(n) for n in names]

    # -- decoded views ---------------------------------------------------------

    @property
    def vars(self) -> tuple:
        """The variables some term uses, sorted by name."""
        used = 0
        for key in self._terms:
            used |= key
        return tuple(sorted(_slot_names[slot] for slot, _ in _fields(used)))

    @property
    def terms(self) -> dict:
        """{exponent tuple in `vars` order: Fraction coefficient}, a copy."""
        offsets = [_slot_of[name] * EXP_BITS for name in self.vars]
        return {tuple((key >> off) & MAX_DEGREE for off in offsets): Fraction(c)
                for key, c in self._terms.items()}

    # -- canonical term order ----------------------------------------------

    def sorted_terms(self):
        """Terms in graded-lex order, leading term first."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def is_zero(self) -> bool:
        return not self._terms

    def total_degree(self) -> int:
        return max(map(_key_degree, self._terms), default=0)

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, RatPoly):
            return other
        if other.__class__ is int:
            return RatPoly._canonical({0: other} if other else {}, 0)
        return RatPoly.constant(other)

    def __add__(self, other):
        other = self._coerce(other)
        a, b = self._terms, other._terms
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for key, coeff in b.items():
            acc = out.get(key)
            if acc is not None:
                coeff += acc
                if not coeff:
                    del out[key]
                    continue
                if coeff.__class__ is not int:
                    coeff = _stored(coeff)
            out[key] = coeff
        return RatPoly._canonical(out, max(self._deg, other._deg))

    __radd__ = __add__

    def __neg__(self):
        return RatPoly._canonical({k: -c for k, c in self._terms.items()}, self._deg)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        a, b = self._terms, other._terms
        if not a or not b:
            return RatPoly.zero()
        degree = self._deg + other._deg
        if degree > MAX_DEGREE:        # the bounds may be loose after a cancellation
            degree = self.total_degree() + other.total_degree()
            _check_degree(degree)
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            # one term: keys shift injectively and nothing cancels
            (k2, c2), = b.items()
            return RatPoly._canonical(
                {k1 + k2: _stored(c1 * c2) for k1, c1 in a.items()}, degree)
        out = {}
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                key = k1 + k2
                acc = out.get(key)
                out[key] = c1 * c2 if acc is None else acc + c1 * c2
        return RatPoly._canonical(
            {k: _stored(c) for k, c in out.items() if c}, degree)

    __rmul__ = __mul__

    @staticmethod
    def sum_of_products(pairs) -> "RatPoly":
        """Sum of x * y over the (x, y) pairs; a factor may be an exact scalar.

        Every product is accumulated into one packed term map, canonicalized
        once at the end, so a long sum never copies its running total.  The
        degree checks of `__mul__` run on every pair before anything is
        expanded.
        """
        coerce = RatPoly._coerce
        operands = []
        degree = 0
        for x, y in pairs:
            if x.__class__ is not RatPoly:
                x = coerce(x)
            if y.__class__ is not RatPoly:
                y = coerce(y)
            if not x._terms or not y._terms:
                continue
            d = x._deg + y._deg
            if d > MAX_DEGREE:         # the bounds may be loose after a cancellation
                d = x.total_degree() + y.total_degree()
                _check_degree(d)
            if d > degree:
                degree = d
            operands.append((x._terms, y._terms))
        out = {}
        get = out.get
        for a, b in operands:
            if len(a) < len(b):
                a, b = b, a
            for k2, c2 in b.items():
                for k1, c1 in a.items():
                    key = k1 + k2
                    acc = get(key)
                    out[key] = c1 * c2 if acc is None else acc + c1 * c2
        return RatPoly._canonical(
            {k: c if c.__class__ is int else _stored(c) for k, c in out.items() if c},
            degree)

    def __truediv__(self, scalar):
        scalar = _as_rational(scalar)
        return RatPoly._canonical(
            {k: _stored(c / scalar) for k, c in self._terms.items()}, self._deg)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        if n * self._deg > MAX_DEGREE:     # fail before expanding anything
            _check_degree(n * self.total_degree())
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
        return self._terms == other._terms

    def __hash__(self):
        terms = self._terms
        if not terms or (len(terms) == 1 and 0 in terms):
            return hash(terms.get(0, 0))   # a constant equals, so hashes as, its value
        return hash(frozenset(terms.items()))

    # -- calculus / evaluation ----------------------------------------------

    def diff(self, var: str) -> "RatPoly":
        """Exact partial derivative; zero if `var` is absent."""
        if var not in self.vars:
            return RatPoly.zero()
        off = _slot_of[var] * EXP_BITS
        out = {}
        for key, coeff in self._terms.items():
            e = (key >> off) & MAX_DEGREE
            if e:
                out[key - (1 << off)] = _stored(coeff * e)
        return RatPoly._canonical(out, self._deg - 1)

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
        if not self._terms:
            return "0"
        lines = []
        for exps, coeff in self.sorted_terms():
            lines.append("  ".join([str(coeff)] + [str(e) for e in exps]))
        return "\n".join(lines)

    def __repr__(self):
        if not self._terms:
            return "RatPoly(0)"
        names = self.vars
        bits = []
        for exps, coeff in self.sorted_terms():
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(names, exps) if e
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
