"""Exact arithmetic in the supported coefficient fields.

Three fields are supported, all exact:

* ``Q``   -- the rationals,
* ``Qw``  -- Q(w) = Q[t]/(t^2 + t + 1),
* ``Fp``  -- a prime field with p = 1 (mod 3), p not in {2, 3}, together
  with a chosen cube root of unity ``omega`` (smallest such residue unless
  overridden).

A ``Scalar`` of F_p holds its residue; one of Q or Q(w) holds ((a, b), den)
meaning (a + b*w)/den, den > 0, gcd(a, b, den) = 1 and b = 0 over Q: the
raw layout of the term maps (``spoly``) and the rank-18 kernel. Scalar
arithmetic has two branches, residues and integer pairs (``pair_scalar``
normalizes); ``Fraction`` is only where text or input meets the layout.

Each field is one shared ``FieldSpec`` instance, compared by identity. Scalars
are immutable; equality is representation equality, and every representation
is canonical. Fields, scalars and the values built on them pickle and copy.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import (
    DivisionByZero,
    FieldMismatch,
    NumberTooLarge,
    UnsupportedField,
    UnsupportedFieldForTest,
    ZeroInput,
)

RATIONALS = "Q"
CYCLOTOMIC = "Qw"
PRIME = "Fp"

# the candidates one enumeration over F_p may test: forms in an orbit scan,
# cubics in the search for an irreducible modulus
DEFAULT_SCAN_BUDGET = 10**6

# the most bits a power over Q or Q(w) may be charged (``Scalar.__pow__``)
POWER_BIT_CAP = 2**18

# psi_12, the least strong pseudoprime to the twelve prime bases 2..37
# (Sorenson and Webster, Math. Comp. 86, 2017): ``is_prime`` is a proof below it
PRIME_PROOF_BOUND = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Miller-Rabin with the twelve prime bases 2..37.

    Deterministic for n < ``PRIME_PROOF_BOUND`` (about 3.19e23), which
    covers every 64-bit n; above it, a strong probable-prime test that
    composites pass, psi_12 itself first. ``FieldSpec.prime`` refuses every
    modulus from the bound on.
    """
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def iroot(m: int, n: int) -> int | None:
    """Exact integer n-th root of m >= 0, or None if m is not an n-th power."""
    if m < 0:
        raise ValueError("iroot expects m >= 0")
    if m in (0, 1) or n == 1:
        return m
    if n == 2:
        r = isqrt(m)
        return r if r * r == m else None
    hi = 1 << ((m.bit_length() + n - 1) // n + 1)
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**n < m:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**n == m else None


def power(base, n: int, unit, mul=operator.mul):
    """base^n for n >= 0 by square-and-multiply, ``unit`` when n = 0.

    ``mul(x, y)`` is the product; it is only ever applied to powers of
    ``base``, so it need not be commutative.
    """
    if n < 0:
        raise ValueError("power needs n >= 0")
    result = unit
    while n:
        if n & 1:
            result = mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return result


def poly_mulmod(x, y, low, p: int) -> tuple:
    """x*y modulo the monic t^n + low[n-1] t^(n-1) + ... + low[0] over F_p, as
    n residues, lowest coefficient first like x and y. Each t^k, k >= n, is
    folded down by t^n = -(low[n-1] t^(n-1) + ... + low[0]), highest first."""
    n = len(low)
    prod = [0] * max(len(x) + len(y) - 1, n)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y, i):
                prod[j] += a * b
    for k in range(len(prod) - 1, n - 1, -1):
        q = prod.pop() % p
        if q:
            for i, c in enumerate(low, k - n):
                prod[i] -= q * c
    return tuple([c % p for c in prod])


def hessian(c):
    """The Hessian covariant h0*u^2 + h1*u*v + h2*v^2 of the cubic with
    coefficients c = (c0, c1, c2, c3), as (h0, h1, h2) =
    (c1^2 - 3*c0*c2, c1*c2 - 9*c0*c3, c2^2 - 3*c1*c3): -1/4 of
    f_uu*f_vv - f_uv^2. The coefficients are raw ints or Scalars."""
    c0, c1, c2, c3 = c
    return c1 * c1 - 3 * c0 * c2, c1 * c2 - 9 * c0 * c3, c2 * c2 - 3 * c1 * c3


def arith(c: Scalar):
    """What the raw formulas below compute on for the Scalar c: its residue
    over F_p, and c itself over Q and Q(w), whose pairs have no arithmetic."""
    return c.val if c.field.p else c


def form_discriminant(c):
    """The discriminant of the cubic with coefficients c = (c0, c1, c2, c3),
    raw ints or Scalars."""
    c0, c1, c2, c3 = c
    return (
        18 * c0 * c1 * c2 * c3
        - 4 * c1**3 * c3
        + c1**2 * c2**2
        - 4 * c0 * c2**3
        - 27 * c0**2 * c3**2
    )


def form_value(c, u, v):
    """The value at (u, v) of the cubic form with coefficients
    c = (c0, c1, c2, c3), c0*u^3 + c1*u^2*v + c2*u*v^2 + c3*v^3, by Horner's
    rule. The coefficients and arguments are raw ints or Scalars."""
    c0, c1, c2, c3 = c
    return ((c0 * u + c1 * v) * u + c2 * v * v) * u + c3 * v * v * v


def triple_root_class(raw, p: int) -> int | None:
    """The cube class (c0 or c3)^((p - 1)/3) of lambda when the raw cubic
    (c0, c1, c2, c3) over F_p is lambda*L^3, L linear, exactly when its
    Hessian covariant vanishes (0 for the zero form); else None."""
    if any(h % p for h in hessian(raw)):
        return None
    c0, _, _, c3 = raw
    return pow(c0 or c3, (p - 1) // 3, p)


def resolvent(c):
    """Cardano's (h0, G) of the raw cubic c = (c0, c1, c2, c3), with
    h0 = c1^2 - 3*c0*c2 (the u^2 coefficient of ``hessian``) and
    G = 2*c1^3 - 9*c0*c1*c2 + 27*c0^2*c3: x = 3*c0*t + c1 turns 27*c0^2*f(t, 1)
    into x^3 - 3*h0*x + G, and G^2 - 4*h0^3 = -27*c0^2*Delta. For z a root of
    z^2 + G*z + h0^3 and u^3 = z, x = u + h0/u is a root, as
    x^3 = u^3 + h0^3/u^3 + 3*h0*x = -G + 3*h0*x."""
    c0, c1, c2, c3 = c
    return c1 * c1 - 3 * c0 * c2, 2 * c1 * c1 * c1 - 9 * c0 * c1 * c2 + 27 * c0 * c0 * c3


def root_count(c, delta: int, p: int) -> int:
    """r, the number of roots on P^1(F_p) of the raw cubic c over F_p,
    p = 1 (mod 3), with discriminant delta != 0 (mod p).

    c is three distinct lines over the algebraic closure, so over F_p it is
    three lines (r = 3), a line times an irreducible quadratic (r = 1) or
    irreducible (r = 0). Stickelberger's criterion (a squarefree polynomial
    of degree n with k irreducible factors over F_p has a square
    discriminant iff n - k is even; for a binary form, move a non-root to
    (1:0) first, which scales Delta by a sixth power) gives: Delta is a
    non-square iff r = 1.

    Delta a square, so r is 3 or 0. If c0 = 0, (1:0) is a root and r = 3.
    Otherwise G^2 - 4*h0^3 (``resolvent``) is a square s^2, since -3 is a
    square mod p = 1 (mod 3). The roots z = (s - G)/2 and z' = (-s - G)/2 of
    z^2 + G*z + h0^3 are not both 0 (else G = h0 = 0 and Delta = 0); take
    z != 0. With w a primitive cube root of 1 and u^3 = z, the three roots
    are x_k = w^k*u + w^-k*v, v = h0/u, distinct as Delta != 0. If z is a
    cube of F_p, every x_k is in F_p: r = 3. If r = 3, then
    u = (x_0 + w^2*x_1 + w*x_2)/3 lies in F_p (the v-terms sum to
    v*(1 + w + w^2) = 0), so z = u^3 is a cube. So r = 3 iff
    z^((p - 1)/3) = 1.
    """
    if pow(delta, (p - 1) // 2, p) != 1:
        return 1
    if c[0] % p == 0:
        return 3
    _, g = resolvent(c)
    s = 3 * c[0] * prime_power_root_mod(-3 * delta, 2, p)
    z = (s - g) * (p + 1) // 2 % p or (-s - g) * (p + 1) // 2 % p  # (+-s - G)/2
    return 3 if pow(z, (p - 1) // 3, p) == 1 else 0


def lone_root(c, p: int) -> tuple:
    """The root (x, y) on P^1(F_p) of the raw cubic c over F_p, p = 1 (mod 3),
    when it has only one (r = 1 in ``root_count``).

    If c0 = 0 it is (1, 0). Otherwise d = G^2 - 4*h0^3 (``resolvent``) is a
    non-square like Delta, and so h0 != 0. In F_p(sqrt(d)), conjugation is
    the Frobenius, so z = (-G + sqrt(d))/2 has norm z^(p + 1) = h0^3. Then
    u = z^k/h0, k = (p + 2)/3, has u^3 = z and norm h0^(p + 2)/h0^2 = h0, so
    its conjugate is h0/u, and the root x = u + h0/u of x^3 - 3*h0*x + G is
    the trace V_k/h0, V_n = z^n + conj(z)^n the Lucas sequence of P = -G and
    Q = h0^3, by the ladder V_2n = V_n^2 - 2Q^n, V_2n+1 = V_n V_n+1 - P Q^n.
    The root is (t, 1), t = (x - c1)/(3*c0), checked: f(t, 1) != 0 raises.
    """
    c0, c1 = c[0], c[1]
    if c0 % p == 0:
        return 1, 0
    h0, g = resolvent(c)
    h3, v, w, q = pow(h0, 3, p), 2, -g % p, 1  # V_n, V_n+1, Q^n from n = 0 up to k
    for bit in bin((p + 2) // 3)[2:]:  # n -> 2n + 1 on a 1, n -> 2n on a 0
        if bit == "1":
            v, w, q = (v * w + g * q) % p, (w * w - 2 * q * h3) % p, q * q * h3 % p
        else:
            v, w, q = (v * v - 2 * q) % p, (v * w + g * q) % p, q * q % p
    t = (v * pow(h0, -1, p) - c1) * pow(3 * c0, -1, p) % p
    if form_value(c, t, 1) % p:
        raise AssertionError(f"{tuple(c)} has no root at ({t} : 1) mod {p}")
    return t, 1


def prime_power_root_mod(a: int, r: int, p: int) -> int | None:
    """One solution of x^r = a (mod p) for prime r, or None.

    Adleman-Manders-Miller; reduces to Tonelli-Shanks for r = 2. When
    r | p - 1 a root exists iff a^((p-1)/r) = 1.
    """
    a %= p
    if a == 0:
        return 0
    if (p - 1) % r != 0:
        # x -> x^r is a bijection
        return pow(a, pow(r, -1, p - 1), p)
    if pow(a, (p - 1) // r, p) != 1:
        return None
    s, t = 0, p - 1
    while t % r == 0:
        t //= r
        s += 1
    b = 2
    while pow(b, (p - 1) // r, p) == 1:
        b += 1
    g = pow(b, t, p)  # generator of the r-Sylow subgroup, order r^s
    # x0 = a^alpha with r*alpha = 1 (mod t); then x0^r / a lies in the Sylow.
    alpha = pow(r, -1, t) if t > 1 else 0
    x = pow(a, alpha, p)
    e = pow(x, r, p) * pow(a, -1, p) % p
    # Pohlig-Hellman digits of e in base g; e is an r-th power in the Sylow,
    # so the lowest digit vanishes and the division by r below is exact.
    d = 0
    for i in range(s):
        probe = pow(e * pow(g, -d, p) % p, r ** (s - 1 - i), p)
        unit = pow(g, r ** (s - 1), p)
        digit, acc = 0, 1
        while acc != probe:
            acc = acc * unit % p
            digit += 1
        d += digit * r**i
    if d % r != 0:
        return None
    return x * pow(g, (r**s - d // r) % (r**s), p) % p


@functools.lru_cache(maxsize=256)
def _omega_residues(p: int) -> tuple[int, int]:
    """Both primitive cube roots of unity mod p (roots of t^2 + t + 1), least first."""
    s = prime_power_root_mod(p - 3, 2, p)  # sqrt(-3)
    if s is None:
        raise UnsupportedField(f"p = {p} has no primitive cube root of unity")
    inv2 = pow(2, -1, p)
    r1 = (-1 + s) * inv2 % p
    r2 = (-1 - s) * inv2 % p
    return (min(r1, r2), max(r1, r2))


class FieldSpec:
    """One of Q, Q(w), or F_p with its chosen omega residue. Immutable; each
    field is one shared instance, so fields compare and hash by identity."""

    __slots__ = ("kind", "p", "omega_residue")

    def __setattr__(self, *_):
        raise AttributeError("FieldSpec is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return _registered, (self.kind, self.p, self.omega_residue)

    # -- constructors -------------------------------------------------

    @staticmethod
    def rationals() -> "FieldSpec":
        return _registered(RATIONALS, None, None)

    @staticmethod
    def cyclotomic() -> "FieldSpec":
        return _registered(CYCLOTOMIC, None, None)

    @staticmethod
    def prime(p: int, omega: int | None = None) -> "FieldSpec":
        if p is None or p in (2, 3) or p % 3 != 1 or not is_prime(p):
            raise UnsupportedField(f"p must be a prime = 1 (mod 3), not in {{2, 3}}; got {p}")
        if p >= PRIME_PROOF_BOUND:
            raise UnsupportedField(f"p must be below psi_12 = {PRIME_PROOF_BOUND}; got {p}")
        roots = _omega_residues(p)
        w = roots[0] if omega is None else omega % p
        if w not in roots:
            raise UnsupportedField(f"{omega} is not a cube root of 1 mod {p} (roots: {roots})")
        return _registered(PRIME, p, w)

    # -- scalar factories ---------------------------------------------

    def scalar(self, value) -> "Scalar":
        """Coerce an int, a Scalar of this field, an (a, b) pair (Q(w) only) or
        what ``Fraction`` reads exactly (a float, Decimal or "p/q" text)."""
        if isinstance(value, int):  # the fast path, and bool too
            return Scalar(self, value % self.p if self.p else ((value, 0), 1))
        if isinstance(value, Scalar):
            if value.field != self:
                raise FieldMismatch("scalar belongs to a different field")
            return value
        pair = isinstance(value, tuple) and self.kind == CYCLOTOMIC
        a, b = map(Fraction, value if pair else (value, 0))  # Fraction refuses a pair elsewhere
        if self.p:
            if a.denominator % self.p == 0:
                raise DivisionByZero("denominator vanishes mod p")
            return Scalar(self, a.numerator * pow(a.denominator, -1, self.p) % self.p)
        den = lcm(a.denominator, b.denominator)
        a, b = a.numerator * (den // a.denominator), b.numerator * (den // b.denominator)
        return Scalar(self, ((a, b), den))

    def zero(self) -> "Scalar":
        return self.scalar(0)

    def one(self) -> "Scalar":
        return self.scalar(1)

    def omega(self) -> "Scalar":
        """The chosen primitive cube root of unity; an error over Q."""
        if self.kind == RATIONALS:
            raise UnsupportedField("Q has no primitive cube root of unity")
        if self.kind == PRIME:
            return Scalar(self, self.omega_residue)
        return Scalar(self, ((0, 1), 1))

    def has_omega(self) -> bool:
        return self.kind != RATIONALS

    def cube_roots_of_unity(self) -> list["Scalar"]:
        if self.kind == RATIONALS:
            return [self.one()]
        w = self.omega()
        return [self.one(), w, w * w]

    def elements(self):
        """Iterate all field elements (Fp only)."""
        if self.kind != PRIME:
            raise UnsupportedField("only Fp is finite")
        for v in range(self.p):
            yield Scalar(self, v)

    # -- JSON ----------------------------------------------------------

    def to_json(self):
        if self.kind == PRIME:
            return {"kind": "Fp", "p": self.p, "omega": self.omega_residue}
        return {"kind": self.kind}

    @staticmethod
    def from_json(obj) -> "FieldSpec":
        kind = obj["kind"]
        if kind == "Fp":
            return FieldSpec.prime(obj["p"], obj.get("omega"))
        if kind in (RATIONALS, CYCLOTOMIC):
            return _registered(kind, None, None)
        raise UnsupportedField(f"unknown field kind {kind!r}")

    def __str__(self):
        if self.kind == PRIME:
            return f"F{self.p}(w={self.omega_residue})"
        return "Q(w)" if self.kind == CYCLOTOMIC else "Q"

    __repr__ = __str__


_FIELDS: dict = {}


def _registered(kind: str, p: int | None, omega_residue: int | None) -> FieldSpec:
    """The shared FieldSpec of a valid, normalized (kind, p, omega residue):
    every constructor, ``from_json``, unpickling and copying return it."""
    key = (kind, p, omega_residue)
    if key not in _FIELDS:
        field = object.__new__(FieldSpec)
        for name, value in zip(FieldSpec.__slots__, key):
            object.__setattr__(field, name, value)
        _FIELDS.setdefault(key, field)  # of two racing threads, the first one wins
    return _FIELDS[key]


def _frac_json(q: Fraction):
    """A rational in JSON: its integer when whole, else the text "num/den"."""
    return q.numerator if q.denominator == 1 else str(q)


def pair_scalar(field: FieldSpec, a: int, b: int, den: int) -> "Scalar":
    """The Scalar (a + b*w)/den of Q or Q(w) (b = 0 over Q), den != 0: the
    one normalizer of the pair layout, dividing out gcd(a, b, den) with den
    made positive."""
    g = gcd(a, b, den) if den > 0 else -gcd(a, b, den)
    return Scalar(field, ((a // g, b // g), den // g))


class Scalar:
    """An immutable element of one of the three supported fields."""

    __slots__ = ("field", "val")

    def __init__(self, field: FieldSpec, val):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "val", val)

    def __setattr__(self, *_):
        raise AttributeError("Scalar is immutable")

    def __reduce__(self):
        return Scalar, (self.field, self.val)

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise FieldMismatch(f"{self.field} vs {other.field}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.scalar(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if self.field.p:
            return Scalar(self.field, (self.val + o.val) % self.field.p)
        (a, b), d1 = self.val
        (c, e), d2 = o.val
        return pair_scalar(self.field, a * d2 + c * d1, b * d2 + e * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        if self.field.p:
            return Scalar(self.field, -self.val % self.field.p)
        (a, b), den = self.val
        return Scalar(self.field, ((-a, -b), den))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if self.field.p:
            return Scalar(self.field, self.val * o.val % self.field.p)
        (x, d1), (y, d2) = self.val, o.val
        return pair_scalar(self.field, *_zw_mul(x, y), d1 * d2)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        if self.field.p:
            return Scalar(self.field, pow(self.val, -1, self.field.p))
        # den/(a + bw) = den*conj/norm, conj = (a - b) - b*w, norm = a^2 - a*b + b^2 > 0
        (a, b), den = self.val
        return pair_scalar(self.field, den * (a - b), -den * b, a * a - a * b + b * b)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        """self^n. Over Q and Q(w) the power is first charged n*b bits, b
        the largest bit length of the numerators and denominators of the
        coordinates a/den and b/den of self in lowest terms (0 and the roots
        of unity +-1, +-w, +-w^2 are charged nothing), and a charge over
        POWER_BIT_CAP = 2^18 ends in NumberTooLarge before anything is
        computed. F_p is not charged.

        Every power whose value prints within the interpreter's default
        limit of 4300 digits (M = 10^4300, log2 M < 14285) is under the
        cap. Over Q: the numerator or the denominator of x has b bits, so
        that of x^n has at least n*(b - 1) + 1; hence n*(b - 1) < log2 M,
        and n*b <= 2*n*(b - 1) < 2^15, as b >= 2 for every charged x (b = 1
        only for +-1). Over Q(w): write
        x = (A + B*w)/D with D the common denominator, so that
        b <= 1 + log2 max(|A|, |B|, D), and no prime q divides A, B and D.
        For q^e exactly dividing D, a prime of Z[w] over q that does not
        divide A + B*w (or the prime over 3, which divides it at most once)
        leaves at least q^(ne/2) in a denominator of x^n, so n*log2 D <=
        4*log2 M (two denominators, each below M). The norm
        N(x)^n = N(x^n) <= 3*M^2 with N(x) = K/D^2, K = A^2 - A*B + B^2 >=
        3/4*max(|A|, |B|)^2, gives n*log2 max(|A|, |B|) <= 5*log2 M + 1 +
        n*log2(4/3)/2. So n*log2 max(|A|, |B|, D) < 90500 when that max is
        at least 2, and n*b < 2^18. When it is 1, x is a unit (not
        charged) or +-(1 - w) (b = 1, |N| = 3), and 3^n <= 3*M^2 gives
        n*b < 2^15.
        """
        if n < 0:
            return self.inverse() ** (-n)
        if not self.field.p:
            (a, b), den = self.val
            if den != 1 or a * a - a * b + b * b > 1:
                # per reduced coordinate, not the raw (a, b, den): (3 + 2w)/6 is 2 bits
                ga, gb = gcd(a, den), gcd(b, den)
                bits = max(q.bit_length() for q in (a // ga, den // ga, b // gb, den // gb))
                if n * bits > POWER_BIT_CAP:
                    raise NumberTooLarge(
                        f"a power charged {n} * {bits} bits, over the cap of {POWER_BIT_CAP}"
                    )
            if b == 0:  # a rational: a^n and den^n stay coprime
                return Scalar(self.field, ((a**n, 0), den**n))
        return power(self, n, self.field.one())

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.field is other.field and self.val == other.val
        if isinstance(other, (int, Fraction)):
            return self.val == self.field.scalar(other).val
        return False

    def __hash__(self):
        return hash((self.field, self.val))

    def __bool__(self):
        return not self.is_zero()

    def is_zero(self) -> bool:
        return self.val == 0 if self.field.p else self.val[0] == (0, 0)

    def __str__(self):
        if self.field.p:
            return str(self.val)
        a, b = self.fractions()
        if b == 0:
            return str(a)
        wpart = "w" if b == 1 else "-w" if b == -1 else f"{b}*w"
        if a == 0:
            return wpart
        return f"{a}{'+' if not wpart.startswith('-') else ''}{wpart}"

    def __repr__(self):
        return f"Scalar({self.field}, {self})"

    def fractions(self) -> tuple[Fraction, Fraction]:
        """(a/den, b/den) over Q and Q(w), for text, JSON and ordering."""
        (a, b), den = self.val
        return Fraction(a, den), Fraction(b, den)

    def is_composite_text(self) -> bool:
        """True if str() needs parentheses inside a product."""
        return not self.field.p and all(self.val[0])

    # -- JSON ----------------------------------------------------------

    def to_json(self):
        if self.field.p:
            return self.val
        a, b = self.fractions()
        if self.field.kind == RATIONALS:
            return _frac_json(a)
        if b == 0 and a.denominator == 1:
            return a.numerator
        return {"a": _frac_json(a), "b": _frac_json(b)}

    @staticmethod
    def from_json(field: FieldSpec, obj) -> "Scalar":
        if isinstance(obj, dict):
            if field.kind != CYCLOTOMIC:
                raise FieldMismatch("a+b*w literal outside Q(w)")
            return field.scalar((Fraction(str(obj["a"])), Fraction(str(obj["b"]))))
        if isinstance(obj, str):
            return field.scalar(Fraction(obj))
        return field.scalar(obj)


def _rational_nth_power_root(q: Scalar, n: int) -> Scalar | None:
    """The exact n-th root of q over Q, positive when q is, or None. Needs
    no factorization: gcd(a, den) = 1, so both must be integer n-th powers."""
    (a, _), den = q.val
    if a < 0 and n % 2 == 0:
        return None
    num, root_den = iroot(abs(a), n), iroot(den, n)
    if num is None or root_den is None:
        return None
    return Scalar(q.field, ((-num if a < 0 else num, 0), root_den))


def sqrt_in_field(a: Scalar) -> Scalar | None:
    """A deterministic square root of ``a`` in its own field, or None.

    Choice of branch: least nonnegative residue over Fp; nonnegative root
    over Q; over Q(w) the root whose pair (a-part, b-part) is
    lexicographically largest of the two.
    """
    field = a.field
    if field.kind == PRIME:
        r = prime_power_root_mod(a.val, 2, field.p)
        return None if r is None else Scalar(field, min(r, (-r) % field.p))
    if field.kind == RATIONALS:
        return _rational_nth_power_root(a, 2)
    roots = _qw_roots(a, 2)
    # the roots share den > 0, so their values compare as their pairs do
    return pair_scalar(field, *max(roots), a.val[1]) if roots else None


def cube_root_in_field(a: Scalar) -> Scalar | None:
    """A cube root of ``a`` in its own field, or None.

    Choice of branch: the root ``prime_power_root_mod`` returns over Fp;
    the real root over Q; over Q(w) the root of least a-part and, of two
    such (u(1 - w) and w*u(1 - w)), the one of larger b-part.
    """
    field = a.field
    if field.kind == PRIME:
        r = prime_power_root_mod(a.val, 3, field.p)
        return None if r is None else Scalar(field, r)
    if field.kind == RATIONALS:
        return _rational_nth_power_root(a, 3)
    roots = _qw_roots(a, 3)
    return pair_scalar(field, *min(roots, key=lambda r: (r[0], -r[1])), a.val[1]) if roots else None


def _zw_mul(x, y):
    """The product of two integer pairs of Z[w]: (a + bw)(c + dw) with w^2 = -1 - w."""
    a, b = x
    c, d = y
    bd = b * d
    return (a * c - bd, a * d + b * c - bd)


def _qw_roots(a: Scalar, n: int) -> list[tuple[int, int]]:
    """Every n-th root (n in {2, 3}) of ``a`` in Q(w), as integer pairs
    (U, V) meaning (U + V*w)/den over the denominator den of ``a``.

    Scale to T^n = C with C in Z[w]; a root T is integral over Z, hence in
    Z[w], and N(T) is the exact n-th root of N(C). The trace t = 2U - V of
    T is an integer root of t^2 - 2N(T) = tr(C) or t^3 - 3N(T)t = tr(C),
    found by bisection on the monotone pieces. Then 4N(T) = t^2 + 3V^2, so
    V = +-v and U = (t + V)/2; a candidate is kept if its n-th power is C.
    """
    (x, y), den = a.val
    scale = den ** (n - 1)  # C = a * den^n = (x, y) * den^(n - 1) lies in Z[w]
    c = (x * scale, y * scale)
    norm = iroot(c[0] * c[0] - c[0] * c[1] + c[1] * c[1], n)
    if norm is None:
        return []
    trace_c = 2 * c[0] - c[1]

    def trace_poly(t):
        return t * t - 2 * norm - trace_c if n == 2 else t * (t * t - 3 * norm) - trace_c

    # |t| <= 2*sqrt(norm); the pieces split at the turning points 0 or +-sqrt(norm)
    r, t_max = isqrt(norm), isqrt(4 * norm)
    if n == 2:
        pieces = ((-t_max, -1, -1), (0, t_max, 1))
    else:
        pieces = ((-t_max, -r - 1, 1), (-r, r, -1), (r + 1, t_max, 1))
    roots = []
    for lo, hi, sign in pieces:
        while lo < hi:  # the least t in [lo, hi] with sign * trace_poly(t) >= 0
            mid = (lo + hi) // 2
            if sign * trace_poly(mid) < 0:
                lo = mid + 1
            else:
                hi = mid
        t = lo
        if trace_poly(t) == 0:
            v = isqrt((4 * norm - t * t) // 3)
            candidates = (((t + sv) // 2, sv) for sv in (v, -v) if (t + sv) % 2 == 0)
            roots += [z for z in candidates if power(z, n, (1, 0), _zw_mul) == c]
    return roots


def nth_power_class(a: Scalar, n: int) -> bool:
    """True iff ``a`` is an n-th power in the multiplicative group.

    Fp: a^((p-1)/gcd(n, p-1)) = 1. Q: exact integer root extraction.
    Q(w): only n in {2, 3, 6}, for every element, by the Z[w] root
    extraction; a sixth power is exactly a square that is also a cube, since
    a = (s/c)^6 when a = s^2 = c^3.
    """
    if n < 1:
        raise UnsupportedFieldForTest("n must be positive")
    if a.is_zero():
        raise ZeroInput("0 is outside the multiplicative group")
    field = a.field
    if field.kind == PRIME:
        e = (field.p - 1) // gcd(n, field.p - 1)
        return pow(a.val, e, field.p) == 1
    if field.kind == RATIONALS:
        return _rational_nth_power_root(a, n) is not None
    if n not in (2, 3, 6):
        raise UnsupportedFieldForTest(f"Q(w) power-class test limited to n in {{2,3,6}}, got {n}")
    return all(_qw_roots(a, k) for k in (2, 3) if n % k == 0)


def sixth_power_class_token(a: Scalar):
    """Canonical token labelling the class of ``a`` mod sixth powers (Fp only).

    Two nonzero residues have equal tokens iff their ratio is a sixth power.
    Returns None over Q / Q(w), where no factorization-free token exists.
    """
    if a.field.kind != PRIME:
        return None
    if a.is_zero():
        raise ZeroInput("0 has no power class")
    p = a.field.p
    return pow(a.val, (p - 1) // gcd(6, p - 1), p)
