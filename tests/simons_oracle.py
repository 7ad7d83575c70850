"""The Simons route on six-coefficient chart series, kept only as a test
oracle.

`surfaces.second_norm_field` carries S as a trace series: its value, its
derivatives along two orthonormal directions and the trace of its chart
Hessian.  This module carries every chart coefficient of degree <= 2 through
the same projection, one product per pair of monomials, and takes the
Laplacian from the second-order coefficients, so a test can compare the two
routes node by node.  `to_trace` maps a chart series to the trace form.
"""

import functools
import itertools
import math

import numpy as np

from minimal_gap_lab.surfaces import HESSIAN_SLOTS

from fd_oracle import metric_christoffel

# exponents (a, b) of the monomials du^a dv^b, in coefficient-axis order
MONOMIALS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
# for each coefficient k, the pairs (i, j) whose monomials multiply to it
PAIRS = tuple(
    tuple((i, j) for i, j in itertools.product(range(6), repeat=2)
          if (MONOMIALS[i][0] + MONOMIALS[j][0], MONOMIALS[i][1] + MONOMIALS[j][1])
          == MONOMIALS[k])
    for k in range(6))


class Chart:
    """A field's chart series of degree 2: c[k] is the coefficient of
    MONOMIALS[k], so c = (f, f_u, f_v, f_uu / 2, f_uv, f_vv / 2), each with
    its value axes and then the points."""

    __array_ufunc__ = None           # ndarray operators defer to ours

    def __init__(self, c):
        self.c = c

    @classmethod
    def lift(cls, jet, derivs) -> "Chart":
        """The series of the chart derivatives d_u^i d_v^j X, (i, j) in
        `derivs`, from a jet of order >= i + j + 2; value axes: the
        derivative, then the component."""
        return cls(np.stack([
            np.stack([jet.derivative(i + a, j + b) / (math.factorial(a) * math.factorial(b))
                      for a, b in MONOMIALS])
            for i, j in derivs], axis=1))

    @staticmethod
    def stack(series) -> "Chart":
        return Chart(np.stack([s.c for s in series], axis=1))

    @staticmethod
    def einsum(subscripts, x, y) -> "Chart":
        return x._product(lambda a, b: np.einsum(subscripts, a, b), y)

    def _product(self, op, other) -> "Chart":
        if not isinstance(other, Chart):
            return Chart(np.stack([op(ck, other) for ck in self.c]))
        return Chart(np.stack([functools.reduce(np.add, [op(self.c[i], other.c[j])
                                                         for i, j in pairs])
                               for pairs in PAIRS]))

    def __getitem__(self, index) -> "Chart":
        if not isinstance(index, tuple):
            index = (index,)
        return Chart(self.c[(slice(None),) + index])

    def __neg__(self) -> "Chart":
        return Chart(-self.c)

    def __add__(self, other: "Chart") -> "Chart":
        return Chart(self.c + other.c)

    def __sub__(self, other: "Chart") -> "Chart":
        return Chart(self.c - other.c)

    def __mul__(self, other) -> "Chart":
        return self._product(np.multiply, other)

    __rmul__ = __mul__

    def __truediv__(self, other: "Chart") -> "Chart":
        q = []
        for k, pairs in enumerate(PAIRS):
            acc = self.c[k]
            for i, j in pairs:
                if i != k:
                    acc = acc - q[i] * other.c[j]
            q.append(acc / other.c[0])
        return Chart(np.stack(q))

    def sqrt(self) -> "Chart":
        r = [np.sqrt(self.c[0])]
        for k in range(1, 6):
            acc = self.c[k]
            for i, j in PAIRS[k]:
                if i != k and j != k:
                    acc = acc - r[i] * r[j]
            r.append(acc / (2.0 * r[0]))
        return Chart(np.stack(r))


def to_trace(c, directions) -> np.ndarray:
    """The trace series (f, d_1 f, d_2 f, T f) of a chart series' coefficients
    `c` along `directions` = (L, g^-1): the first-order coefficients times L,
    and T f = g^cd f_cd from the second-order ones."""
    L, ginv = directions
    return np.stack([
        c[0],
        L[0, 0] * c[1],
        L[1, 0] * c[1] + L[1, 1] * c[2],
        2.0 * (ginv[0, 0] * c[3] + ginv[0, 1] * c[4] + ginv[1, 1] * c[5]),
    ])


def _dot(x, y):
    return Chart.einsum("c...,c...->...", x, y)


def second_norm_field(jet) -> Chart:
    """S = |h|^2 as a degree-2 chart series, from a jet of order >= 4: each
    Hessian slot minus its radial and tangential parts, then S from the six
    inner products of the normal parts and the inverse metric series."""
    Xs = Chart.lift(jet, ((0, 0), (1, 0), (0, 1)))
    X, Xc = Xs[0], Xs[1:]
    Xu, Xv = Xc[0], Xc[1]
    g_uu, g_uv, g_vv = _dot(Xu, Xu), _dot(Xu, Xv), _dot(Xv, Xv)
    ginv = Chart.stack([Chart.stack([g_vv, -g_uv]), Chart.stack([-g_uv, g_uu])]) \
        / (g_uu * g_vv - g_uv * g_uv)[None, None]
    K = []
    for key in HESSIAN_SLOTS:
        T = Chart.lift(jet, [key])[0]
        products = Chart.einsum("x...,ex...->e...", T, Xs)
        T = T - products[:1] * X
        coeff = Chart.einsum("e...,ef...->f...", products[1:], ginv)
        K.append(T - Chart.einsum("f...,fx...->x...", coeff, Xc))
    Kuu, Kuv, Kvv = K
    p, r, s = ginv[0, 0], ginv[0, 1], ginv[1, 1]
    return (p * p * _dot(Kuu, Kuu) + s * s * _dot(Kvv, Kvv)
            + 2.0 * (p * s + r * r) * _dot(Kuv, Kuv)
            + 4.0 * (p * r * _dot(Kuu, Kuv) + r * s * _dot(Kuv, Kvv))
            + 2.0 * r * r * _dot(Kuu, Kvv))


def laplace_beltrami(jet, field: Chart) -> np.ndarray:
    """g^cd f_cd - gamma^e f_e from a chart series: f_uu = 2 c[3],
    f_uv = c[4], f_vv = 2 c[5]."""
    f = field.c
    ginv, gamma = metric_christoffel(jet)
    return (2.0 * (ginv[0, 0] * f[3] + ginv[0, 1] * f[4] + ginv[1, 1] * f[5])
            - gamma[0] * f[1] - gamma[1] * f[2])
