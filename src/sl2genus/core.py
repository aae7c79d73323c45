"""Exact 2x2 matrix arithmetic over Z/p^nZ.

A matrix is a plain 4-tuple ``(a, b, c, d)`` of fully reduced residues, read
row-major as (a b; c d).  Every operation takes the :class:`GroupCtx` that
fixes the ambient modulus; there is no floating point anywhere.

Matrices are immutable values and all functions here are pure; the map
right_mul returns on packed codes builds its row table when that pays, and
its values never depend on when.  A context compares and hashes by (p, n)
alone; its memo only ever gains entries, and an entry never changes once stored.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, FrozenSet, List, Sequence, Tuple

Mat = Tuple[int, int, int, int]

# Default materialization cap (elements), sized for a 16 GB machine.
DEFAULT_MAX_ELEMENTS = 50_000_000


class ContextMismatchError(ValueError):
    """Operands do not belong to the given group context."""


class NotInvertibleError(ValueError):
    """Determinant is not a unit modulo the context modulus."""


class ReductionError(ValueError):
    """Reduction map requested between incompatible contexts."""


class FeasibilityError(RuntimeError):
    """An enumeration would exceed the configured element cap."""


class PreconditionError(ValueError):
    """A stated hypothesis of the requested operation is violated."""


class ConsistencyError(RuntimeError):
    """Two independent computation routes disagreed (internal bug trap)."""


# -------------------- number theory helpers --------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin (the fixed base set is exact below 3.3e24)."""
    if m < 2:
        return False
    for q in _MR_BASES:
        if m % q == 0:
            return m == q
    d = m - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def factorize(m: int) -> Dict[int, int]:
    """Prime factorization by trial division up to sqrt(m); what the library
    factors (p - 1, p + 1, phi(p^n), orbit lengths) is no larger than a group it builds."""
    out: Dict[int, int] = {}
    q = 2
    while q * q <= m:
        while m % q == 0:
            out[q] = out.get(q, 0) + 1
            m //= q
        q += 1
    if m > 1:
        out[m] = 1
    return out


def primitive_root(p: int, n: int = 1) -> int:
    """Least g >= 2 generating (Z/p^nZ)^*; exists for odd p (and p^n = 4)."""
    m = p**n
    phi = (p - 1) * p ** (n - 1)
    qs = list(factorize(phi))
    for g in range(2, m):
        if g % p and all(pow(g, phi // q, m) != 1 for q in qs):
            return g
    raise RuntimeError("no primitive root mod %d^%d" % (p, n))


# -------------------- group context --------------------


class GroupCtx:
    """Ambient ring/group descriptor for SL2(Z/p^nZ): p, n, the modulus p^n
    and the order #SL2(Z/p^nZ) = (p+1)(p-1)p^(3n-2).

    memo holds what derives from the context alone (G, the class orbits,
    the kernels K_s of reduction, the fiber groups V, the reduction maps, the
    bound plans of bounds and the genus report of G); groups.cached alone reads and writes it.
    """

    def __init__(self, p: int, n: int) -> None:
        if n < 1:
            raise ValueError("level exponent must be >= 1, got %d" % n)
        if not is_prime(p):
            raise ValueError("p must be prime, got %d" % p)
        self.p, self.n, self.modulus, self.order = p, n, p**n, (p + 1) * (p - 1) * p ** (3 * n - 2)
        self.memo: Dict = {}

    def __eq__(self, other) -> bool:
        return other.__class__ is GroupCtx and (self.p, self.n) == (other.p, other.n)

    def __hash__(self) -> int:
        return hash((self.p, self.n, self.modulus, self.order))

    def __repr__(self) -> str:
        return "GroupCtx(p=%r, n=%r, modulus=%r, order=%r)" % (self.p, self.n, self.modulus, self.order)


@lru_cache(maxsize=None)
def make_ctx(p: int, n: int) -> GroupCtx:
    return GroupCtx(p, n)


# -------------------- packed codes --------------------

# A matrix (a b; c d) modulo M packs into the int a | b << k | c << 2k | d << 3k,
# k = bits(M - 1) per entry; closures are hash-set work, and an int hashes
# fastest.  The layout is known here alone: encoder/decoder, reducer (the
# code of x mod p^s from the code of x), right_mul (the code of x s from
# the code of x, through row_table once that pays), product_codes (the codes
# of the products of two lists of matrices) and conjugator (the code of
# g^-1 x g from the code of x).


def _width(modulus: int) -> int:
    """The bits of one packed entry modulo modulus."""
    return (modulus - 1).bit_length()


@lru_cache(maxsize=None)
def _packers(modulus: int) -> Tuple[Callable[[Mat], int], Callable[[int], Mat]]:
    k = _width(modulus)
    k2, k3 = 2 * k, 3 * k
    mask = (1 << k) - 1

    def enc(x: Mat) -> int:
        return x[0] | (x[1] << k) | (x[2] << k2) | (x[3] << k3)

    def dec(code: int) -> Mat:
        return (code & mask, (code >> k) & mask, (code >> k2) & mask, (code >> k3) & mask)

    return enc, dec


def encoder(ctx: GroupCtx) -> Callable[[Mat], int]:
    return _packers(ctx.modulus)[0]


def decoder(ctx: GroupCtx) -> Callable[[int], Mat]:
    return _packers(ctx.modulus)[1]


def reducer(ctx: GroupCtx, level: int) -> Callable[[int], int]:
    """The map from the code of x modulo p^n to the code of x mod p^level
    (the reduction f_{n,level}), for 1 <= level <= n."""
    if not 1 <= level <= ctx.n:
        raise ReductionError("cannot reduce level %d codes to level %d" % (ctx.n, level))
    q = ctx.p**level
    k, j = _width(ctx.modulus), _width(q)
    k2, k3, j2, j3 = 2 * k, 3 * k, 2 * j, 3 * j
    mask = (1 << k) - 1

    def red(code: int) -> int:
        return (
            (code & mask) % q
            | ((code >> k) & mask) % q << j
            | ((code >> k2) & mask) % q << j2
            | (code >> k3) % q << j3
        )

    return red


def row_table(ctx: GroupCtx, s: Mat) -> Tuple[int, ...]:
    """T[a | b << k] = the packed row (a b) s, for every pair of k-bit entries
    (the slots with a or b >= modulus go unread)."""
    m, k = ctx.modulus, _width(ctx.modulus)
    s0, s1, s2, s3 = s
    size = range(1 << k)
    return tuple((a * s0 + b * s2) % m | (a * s1 + b * s3) % m << k for b in size for a in size)


def right_mul(ctx: GroupCtx, s: Mat) -> Callable[[int], int]:
    """The map x -> x s on packed codes.  It multiplies entry by entry until it
    has mapped as many codes as row_table(ctx, s) has slots, then builds and
    reads that table; a table out of reach (2^34 slots at modulus 66,049) is
    never built."""
    m, k = ctx.modulus, _width(ctx.modulus)
    k2, k3, mask, low = 2 * k, 3 * k, (1 << k) - 1, (1 << 2 * k) - 1  # low: the bits of a row
    s0, s1, s2, s3 = s
    todo, table = low + 1, None  # the codes left to multiply entry by entry, and the table after them

    def mul(x: int) -> int:
        nonlocal table, todo
        if table is None:
            if todo:
                todo -= 1
                a, b, c, d = x & mask, x >> k & mask, x >> k2 & mask, x >> k3
                return (
                    (a * s0 + b * s2) % m
                    | (a * s1 + b * s3) % m << k
                    | (c * s0 + d * s2) % m << k2
                    | (c * s1 + d * s3) % m << k3
                )
            table = row_table(ctx, s)
        return table[x & low] | table[x >> k2] << k2

    return mul


def product_codes(ctx: GroupCtx, xs: Sequence[Mat], ys: Sequence[Mat]) -> FrozenSet[int]:
    """The codes of the products x y, x in xs and y in ys, packed as they are made."""
    m, k = ctx.modulus, _width(ctx.modulus)
    k2, k3 = 2 * k, 3 * k
    return frozenset(
        (a * e + b * g) % m | (a * f + b * h) % m << k | (c * e + d * g) % m << k2 | (c * f + d * h) % m << k3
        for a, b, c, d in xs for e, f, g, h in ys
    )


def conjugator(ctx: GroupCtx, g: Mat) -> Callable[[int], int]:
    """The map x -> g^-1 x g on packed codes, for any g of unit determinant."""
    m, k = ctx.modulus, _width(ctx.modulus)
    k2, k3, mask = 2 * k, 3 * k, (1 << k) - 1
    (g0, g1, g2, g3), (h0, h1, h2, h3) = g, _inv(g, m)

    def conj(x: int) -> int:
        a, b, c, d = x & mask, x >> k & mask, x >> k2 & mask, x >> k3
        r0, r1, r2, r3 = a * g0 + b * g2, a * g1 + b * g3, c * g0 + d * g2, c * g1 + d * g3  # x g
        return (
            (h0 * r0 + h1 * r2) % m
            | (h0 * r1 + h1 * r3) % m << k
            | (h2 * r0 + h3 * r2) % m << k2
            | (h2 * r1 + h3 * r3) % m << k3
        )

    return conj


# -------------------- matrices --------------------


def identity(ctx: GroupCtx) -> Mat:
    return (1 % ctx.modulus, 0, 0, 1 % ctx.modulus)


def sigma(ctx: GroupCtx) -> Mat:
    return (0, 1 % ctx.modulus, (-1) % ctx.modulus, 0)


def tau(ctx: GroupCtx) -> Mat:
    m = ctx.modulus
    return (1 % m, 1 % m, (-1) % m, 0)


def upper_u(ctx: GroupCtx) -> Mat:
    m = ctx.modulus
    return (1 % m, 1 % m, 0, 1 % m)


def lower_u(ctx: GroupCtx) -> Mat:
    """Transpose of u."""
    m = ctx.modulus
    return (1 % m, 0, 1 % m, 1 % m)


def minus_one(ctx: GroupCtx) -> Mat:
    m = ctx.modulus
    return ((-1) % m, 0, 0, (-1) % m)


def mat(a: int, b: int, c: int, d: int, ctx: GroupCtx) -> Mat:
    """Build a matrix from (possibly signed) integer literals, fully reduced."""
    m = ctx.modulus
    return (a % m, b % m, c % m, d % m)


def neg(x: Mat, ctx: GroupCtx) -> Mat:
    m = ctx.modulus
    return ((-x[0]) % m, (-x[1]) % m, (-x[2]) % m, (-x[3]) % m)


def _check_reduced(x: Mat, ctx: GroupCtx) -> None:
    m = ctx.modulus
    if not (0 <= x[0] < m and 0 <= x[1] < m and 0 <= x[2] < m and 0 <= x[3] < m):
        raise ContextMismatchError("matrix %r is not reduced modulo %d" % (x, m))


def _mul(x: Mat, y: Mat, m: int) -> Mat:
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % m, (a * f + b * h) % m, (c * e + d * g) % m, (c * f + d * h) % m)


def _inv(x: Mat, m: int) -> Mat:
    a, b, c, d = x
    dt = (a * d - b * c) % m
    try:
        di = pow(dt, -1, m)
    except ValueError:
        raise NotInvertibleError("determinant %d is not a unit mod %d" % (dt, m)) from None
    return (d * di % m, -b * di % m, -c * di % m, a * di % m)


def mat_pow(x: Mat, k: int, ctx: GroupCtx) -> Mat:
    m = ctx.modulus
    if k < 0:
        x = _inv(x, m)
        k = -k
    out = identity(ctx)
    while k:
        if k & 1:
            out = _mul(out, x, m)
        x = _mul(x, x, m)
        k >>= 1
    return out


def reduce_mat(x: Mat, modulus: int) -> Mat:
    return (x[0] % modulus, x[1] % modulus, x[2] % modulus, x[3] % modulus)


# -------------------- text format --------------------


def parse_mat(text: str, ctx: GroupCtx) -> Mat:
    """Parse the literal format "a,b;c,d" (signed integers allowed)."""
    rows = text.strip().split(";")
    if len(rows) != 2:
        raise ValueError("expected two ';'-separated rows in %r" % text)
    entries: List[int] = []
    for row in rows:
        cols = row.split(",")
        if len(cols) != 2:
            raise ValueError("expected two ','-separated entries in row %r" % row)
        entries.extend(int(c.strip()) for c in cols)
    return mat(entries[0], entries[1], entries[2], entries[3], ctx)


def format_mat(x: Mat) -> str:
    return "%d,%d;%d,%d" % x


# -------------------- JSON plumbing --------------------


def num_to_json(v) -> object:
    """Integers as decimal strings (values exceed 2^53), Fractions as num/den."""
    if isinstance(v, Fraction):
        return {"num": str(v.numerator), "den": str(v.denominator)}
    return str(v)
