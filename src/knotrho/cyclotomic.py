"""Exact arithmetic in cyclotomic fields with certified sign decisions.

Elements of Q(zeta_d) are residues of rational-coefficient polynomials
modulo the d-th cyclotomic polynomial Phi_d.  The canonical representative
has degree < deg Phi_d, so the zero test is trivial: an element is zero
iff its representative is the zero polynomial.  Signs of symbolically-real
elements are decided by evaluating at a chosen primitive root
e^{2*pi*i*k/d}: first a machine-float pass with a rigorous forward error
bound, then interval arithmetic at doubling precision for the rare cases
floats cannot separate from zero.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from .exceptions import (
    ConductorLimitError,
    InternalInconsistencyError,
    InvalidParameterError,
)
from .records import Record

# Largest phi(d) for which an exact context may be built; float-mode
# evaluation never builds a context and has no such limit.
MAX_EXACT_DEGREE = 200_000

_EPS = 2.0 ** -52


def _divisors(n: int) -> list[int]:
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    return small + large[::-1]


def _prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    return out + [n] if n > 1 else out


def _poly_trim(a: list[int]) -> list[int]:
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _poly_divexact(num: list[int], den: list[int]) -> list[int]:
    """Exact division in Z[t]; top-down long division, each step must divide."""
    num = _poly_trim(list(num))
    den = _poly_trim(list(den))
    lead = den[-1]
    dn = len(den) - 1
    if len(num) == 1 and num[0] == 0:
        return [0]
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            q, r = divmod(c, lead)
            if r:
                raise ArithmeticError("inexact polynomial division")
            out[i - dn] = q
            base = i - dn
            for j, dj in enumerate(den):
                num[base + j] -= q * dj
    if any(num[:dn]):
        raise ArithmeticError("inexact polynomial division")
    return out


# Conductors kept per ring cache: a ring of degree phi(d) holds O(phi(d))
# integers, about 21 MB at phi(d) = 2 * 10^5, so 16 rings take at most about
# 340 MB, and cyclotomic_polynomial rebuilds one in O(2^omega(d) phi(d)), far
# below the exact work that needs it.  16 holds the 14 small rings that a
# round of the scrambled-scan benchmark cycles through.
RING_CACHE_SIZE = 16


@lru_cache(maxsize=RING_CACHE_SIZE)
def cyclotomic_polynomial(d: int) -> tuple[int, ...]:
    """Ascending integer coefficients of the d-th cyclotomic polynomial:
    Phi_d(x) = Phi_r(x^(d/r)) for r the product of the primes of d, and
    Phi_r, r > 1, is the power series prod (1 - x^e)^mu(r/e) over e | r cut
    after degree phi(r), one O(phi(r)) pass per divisor, no recursion."""
    if d < 1:
        raise InvalidParameterError(f"conductor must be positive, got {d}")
    if d == 1:
        return (-1, 1)
    primes = _prime_factors(d)
    q = d // math.prod(primes)
    n = math.prod(p - 1 for p in primes)  # phi(r)
    signed = [(1, (-1) ** len(primes))]  # (e, mu(r/e)) over the divisors e of r
    for p in primes:
        signed += [(e * p, -mu) for e, mu in signed]
    series = [1] + [0] * n
    for e, mu in signed:
        if e > n:
            continue
        if mu > 0:
            series[e:] = [u - v for u, v in zip(series[e:], series)]
        else:
            for j in range(e):
                series[j::e] = accumulate(series[j::e])
    out = [0] * (n * q + 1)
    out[::q] = series
    return tuple(out)


def euler_phi(d: int) -> int:
    """Euler phi by trial-division factorization (no polynomial built)."""
    if d < 1:
        raise InvalidParameterError(f"conductor must be positive, got {d}")
    primes = _prime_factors(d)
    return d // math.prod(primes) * math.prod(p - 1 for p in primes)


def exact_degree(d: int) -> int:
    """phi(d), or ConductorLimitError when exact arithmetic at conductor d
    would exceed MAX_EXACT_DEGREE."""
    degree = euler_phi(d)
    if degree > MAX_EXACT_DEGREE:
        raise ConductorLimitError(
            f"exact arithmetic at conductor {d} needs degree {degree} > {MAX_EXACT_DEGREE};"
            " use float mode for roots with huge reduced denominator"
        )
    return degree


class UnitRoot(Record):
    """The point omega = e^{2*pi*i*k/d} on the unit circle.

    The original (k, d) pair is kept (normalized to 0 <= k < d) so grid
    iteration stays faithful; num/den hold the reduced fraction, and the
    reduced denominator is the conductor of the cyclotomic field omega
    generates.  omega = 1 iff num == 0.
    """

    _fields = ("k", "d")

    def __init__(self, k: int, d: int):
        if d < 1:
            raise InvalidParameterError(f"root denominator must be positive, got {d}")
        k %= d
        g = math.gcd(k, d)
        self.__dict__.update(k=k, d=d, num=k // g, den=d // g)

    @classmethod
    def parse(cls, text: str) -> "UnitRoot":
        """Parse 'k/d' (or a bare integer k, meaning k/1)."""
        parts = text.split("/")
        try:
            if len(parts) == 1:
                return cls(int(parts[0]), 1)
            if len(parts) == 2:
                return cls(int(parts[0]), int(parts[1]))
        except ValueError as exc:
            raise InvalidParameterError(f"cannot parse root of unity {text!r}") from exc
        raise InvalidParameterError(f"cannot parse root of unity {text!r}")

    @property
    def is_one(self) -> bool:
        return self.num == 0

    def conjugate(self) -> "UnitRoot":
        return UnitRoot((self.d - self.k) % self.d, self.d)

    def as_fraction(self) -> Fraction:
        return Fraction(self.k, self.d)

    def to_complex(self) -> complex:
        if self.num == 0:
            return 1.0 + 0.0j
        return cmath.exp(2j * math.pi * self.num / self.den)

    def __str__(self) -> str:
        return f"{self.k}/{self.d}"


class CycField:
    """Arithmetic context for Z[x]/(Phi_d) and its fraction field Q(zeta_d).

    Coefficient sequences are plain lists (ints, or Fractions when callers
    introduce them); all operations return canonical representatives of
    length exactly phi(d).
    """

    __slots__ = ("d", "degree", "phi", "_phi_nonzero", "_xinv_row")

    def __init__(self, d: int):
        degree = exact_degree(d)
        phi = cyclotomic_polynomial(d)
        self.d = d
        self.degree = degree
        self.phi = phi
        self._phi_nonzero = tuple((j, phi[j]) for j in range(degree) if phi[j])
        # x is a unit: phi[0] = ±1, and x^{-1} = -phi[0]*(phi[1] + phi[2] x + ...).
        a0 = phi[0]
        self._xinv_row = tuple(-a0 * phi[j + 1] for j in range(degree))

    # -- low-level list arithmetic -------------------------------------

    def zero_list(self) -> list:
        return [0] * self.degree

    def reduce_list(self, coeffs: list) -> list:
        """Reduce a (possibly long) coefficient list mod Phi_d, in place."""
        deg = self.degree
        nz = self._phi_nonzero
        for i in range(len(coeffs) - 1, deg - 1, -1):
            c = coeffs[i]
            if c:
                coeffs[i] = 0
                base = i - deg
                for j, aj in nz:
                    coeffs[base + j] -= c * aj
        del coeffs[deg:]
        if len(coeffs) < deg:
            coeffs.extend([0] * (deg - len(coeffs)))
        return coeffs

    def mul_lists(self, a: list, b: list) -> list:
        na = [(i, c) for i, c in enumerate(a) if c]
        if len(na) > self.degree // 2:
            nb_count = sum(1 for c in b if c)
            if nb_count < len(na):
                a, b = b, a
                na = [(i, c) for i, c in enumerate(a) if c]
        if not na:
            return self.zero_list()
        out = [0] * (len(a) + len(b) - 1)
        nb = len(b)
        for i, c in na:
            seg = b if c == 1 else [c * x for x in b]
            out[i:i + nb] = [o + s for o, s in zip(out[i:i + nb], seg)]
        return self.reduce_list(out)

    def mul_xinv_list(self, a: list) -> list:
        low = a[0]
        out = a[1:] + [0]
        if low:
            out = [o + low * r for o, r in zip(out, self._xinv_row)]
        return out

    def mul_x_plus_xinv_list(self, a: list) -> list:
        """a (x + x^{-1}) for a list a of at most phi(d) coefficients, in
        O(phi(d)): the top term a_(n-1) x^n of x a is reduced by a_(n-1) Phi_d."""
        a = a + [0] * (self.degree - len(a))
        top = a[-1]
        return [u + w - top * c for u, w, c in zip([0] + a, self.mul_xinv_list(a), self.phi)]

    def conj_list(self, a: list) -> list:
        # Horner for sum a_j * (x^{-1})^j; complex conjugation sends x to x^{-1}.
        acc = self.zero_list()
        acc[0] = a[-1]
        for j in range(len(a) - 2, -1, -1):
            acc = self.mul_xinv_list(acc)
            acc[0] += a[j]
        return acc

    # -- element constructors ------------------------------------------

    def element(self, coeffs) -> "CyclotomicElement":
        lst = list(coeffs)
        if len(lst) > self.degree:
            lst = self.reduce_list(lst)
        elif len(lst) < self.degree:
            lst = lst + [0] * (self.degree - len(lst))
        return CyclotomicElement(self, tuple(lst))

    def zero(self) -> "CyclotomicElement":
        return self.element([])

    def one(self) -> "CyclotomicElement":
        return self.element([1])

    def scalar(self, c) -> "CyclotomicElement":
        return self.element([c])

    def gen(self) -> "CyclotomicElement":
        return self.element([0, 1])

    def gen_inv(self) -> "CyclotomicElement":
        return CyclotomicElement(self, self._xinv_row)

    def __repr__(self) -> str:
        return f"CycField(d={self.d})"


@lru_cache(maxsize=RING_CACHE_SIZE)
def cyc_field(d: int) -> CycField:
    return CycField(d)


class CyclotomicElement:
    """Residue of a rational-coefficient polynomial modulo Phi_d.

    Immutable by convention; coefficients are ints (kept exact throughout
    the signature engine) or Fractions when a caller introduces them.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, fld: CycField, coeffs: tuple):
        self.field = fld
        self.coeffs = coeffs

    # -- structure -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    @property
    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise InvalidParameterError("element is not rational")
        return Fraction(self.coeffs[0])

    def __eq__(self, other) -> bool:
        if isinstance(other, CyclotomicElement):
            return self.field.d == other.field.d and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.is_rational and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        return hash((self.field.d, self.coeffs))

    # -- arithmetic --------------------------------------------------------

    def _wrap(self, lst: list) -> "CyclotomicElement":
        return CyclotomicElement(self.field, tuple(lst))

    def __add__(self, other):
        other = self._coerce(other)
        return self._wrap([a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return self._wrap([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __neg__(self):
        return self._wrap([-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return self.field.zero()
            return self._wrap([other * a for a in self.coeffs])
        other = self._coerce(other)
        return self._wrap(self.field.mul_lists(list(self.coeffs), list(other.coeffs)))

    __rmul__ = __mul__

    def _coerce(self, other) -> "CyclotomicElement":
        if isinstance(other, CyclotomicElement):
            if other.field.d != self.field.d:
                raise InvalidParameterError(
                    f"conductor mismatch: {self.field.d} vs {other.field.d}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.scalar(other)
        raise TypeError(f"cannot combine CyclotomicElement with {type(other)!r}")

    def conjugate(self) -> "CyclotomicElement":
        return self._wrap(self.field.conj_list(list(self.coeffs)))

    def norm_squared(self) -> "CyclotomicElement":
        return self * self.conjugate()

    # -- evaluation --------------------------------------------------------

    def evaluate(self, root: UnitRoot) -> complex:
        """Float value at omega = e^{2 pi i num/den}; den must equal the conductor."""
        self._check_root(root)
        ev = _float_eval_with_bound(self.coeffs, root.num, root.den)
        if ev is None:
            return complex(_interval_eval_midpoint(self.coeffs, root.num, root.den))
        return ev[0]

    def _check_root(self, root: UnitRoot) -> None:
        if root.den != self.field.d:
            raise InternalInconsistencyError(
                f"evaluation root has conductor {root.den}, element lives at {self.field.d}"
            )

    def __repr__(self) -> str:
        terms = [f"{c}*x^{i}" for i, c in enumerate(self.coeffs) if c]
        body = " + ".join(terms) if terms else "0"
        return f"<{body} mod Phi_{self.field.d}>"


# -- certified evaluation ----------------------------------------------------


def _float_eval_with_bound(coeffs, num: int, den: int):
    """Horner evaluation at e^{2 pi i num/den} with a rigorous error bound.

    Returns (complex value, absolute error bound) or None when coefficients
    overflow float range.  Worst-case analysis: the rounded root is within
    21*eps of the true one (contributing <= 21*n*eps*S through P'), Horner
    rounding contributes <= 2*n*eps*S, and coefficient conversion <= eps*S,
    with S = sum|a_j|; the factor (32n+16) covers the total with margin.
    """
    try:
        fl = [float(c) for c in coeffs]
        s_abs = math.fsum(abs(x) for x in fl)
    except OverflowError:
        return None
    if not math.isfinite(s_abs):
        return None
    omega = cmath.exp(2j * math.pi * num / den)
    v = 0j
    for c in reversed(fl):
        v = v * omega + c
    bound = (32.0 * len(fl) + 16.0) * _EPS * s_abs
    return v, bound


def _coeff_bits(c) -> int:
    if isinstance(c, Fraction):
        return c.numerator.bit_length() + c.denominator.bit_length()
    return abs(c).bit_length()


def _iv_number(c, iv):
    if isinstance(c, Fraction):
        return iv.mpf(c.numerator) / c.denominator
    return iv.mpf(c)


def _interval_real_part(coeffs, num: int, den: int, iv):
    """Re P(e^{2 pi i num/den}) = sum c_j cos(2 pi (j num mod den)/den) as
    an outward-rounded interval at iv's current precision."""
    two_pi = 2 * iv.pi
    total = iv.mpf(0)
    for j, c in enumerate(coeffs):
        if c:
            total += _iv_number(c, iv) * iv.cos(two_pi * ((j * num) % den) / den)
    return total


def _interval_real_sign(coeffs, num: int, den: int) -> tuple[int, float]:
    """Sign of Re(P(omega)) via outward-rounded interval arithmetic.

    Precision doubles until zero is excluded, up to a cap that always
    suffices for a nonzero real value.  Scaled by the common denominator L
    of the coefficients, alpha = L*P(omega) is an algebraic integer whose
    phi(den) conjugates are at most S = sum|L a_j| in modulus; its norm is
    a nonzero integer, so |alpha| >= S^-(phi-1), and max_bits + 64 +
    (phi-1)*ceil(log2 S) bits separate it from zero.  Callers guarantee
    P(omega) is a nonzero real number, so reaching the cap without a sign
    is an internal inconsistency.
    """
    from mpmath import iv  # loaded on the first refinement: most runs never need one

    scale = math.lcm(*(c.denominator for c in coeffs if isinstance(c, Fraction)))
    scaled = [int(c * scale) for c in coeffs if c]
    max_bits = max(abs(c).bit_length() for c in scaled)
    s_abs = sum(abs(c) for c in scaled)
    cap = max_bits + 64 + (euler_phi(den) - 1) * (s_abs - 1).bit_length()
    prec = max(128, max_bits + 64)
    saved = iv.prec
    try:
        while True:
            iv.prec = prec
            total = _interval_real_part(coeffs, num, den, iv)
            if total.a > 0:
                return 1, float(total.mid)
            if total.b < 0:
                return -1, float(abs(total.mid))
            if prec >= cap:
                break
            prec = min(2 * prec, cap)
    finally:
        iv.prec = saved
    raise InternalInconsistencyError(
        f"interval refinement at {prec} bits failed to separate a symbolically-nonzero"
        " value from zero"
    )


def _interval_eval_midpoint(coeffs, num: int, den: int):
    """Real-part midpoint at high precision (used only when floats overflow)."""
    from mpmath import iv

    max_bits = max((_coeff_bits(c) for c in coeffs if c), default=1)
    saved = iv.prec
    try:
        iv.prec = max(128, max_bits + 64)
        return float(_interval_real_part(coeffs, num, den, iv).mid)
    finally:
        iv.prec = saved


def certified_sign(element: CyclotomicElement, root: UnitRoot) -> tuple[int, float]:
    """(sign, approximate magnitude) of a symbolically-real element at root.

    Exact zero is read off the canonical residue; otherwise the float stage
    decides when its rigorous bound separates the value from zero, with
    interval refinement as the fallback.
    """
    if element.is_zero:
        return 0, 0.0
    element._check_root(root)
    ev = _float_eval_with_bound(element.coeffs, root.num, root.den)
    if ev is not None:
        v, bound = ev
        re = v.real
        if abs(re) > bound:
            return (1 if re > 0 else -1), abs(re)
    return _interval_real_sign(element.coeffs, root.num, root.den)


def eval_with_bound(element: CyclotomicElement, root: UnitRoot):
    """(complex value, error radius) of an element, or None if floats overflow."""
    if element.is_zero:
        return 0j, 0.0
    element._check_root(root)
    return _float_eval_with_bound(element.coeffs, root.num, root.den)
