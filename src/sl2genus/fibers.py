"""Fiber groups of reduction restricted to a conjugacy class.

For alpha among sigma, tau, u^(p^r) and m < n <= 2m, the translated fiber
V_alpha = alpha^-1 (f^-1(alpha) n Conj(alpha)) is a rank-2 module over
Z/p^(n-m)Z.  V is always computed from that definition and then compared to
the commutator form {1 + p^m (X a^-1 - a^-1 X)} and to the explicit
parametrizations; the closed forms are never trusted as the source of truth.
A class is named here as groups.ConjClassRef names it, by its kind ("sigma",
"tau" or "u_power") and its exponent r, and every element set of a class is
its class_codes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, FrozenSet, List

from .core import (
    ConsistencyError,
    GroupCtx,
    Mat,
    PreconditionError,
    _inv,
    _mul,
    decoder,
    encoder,
    identity,
    make_ctx,
    reduce_mat,
    reducer,
    right_mul,
)
from .groups import _KINDS, ConjClassRef, capped_orbit, class_codes
from .subgroups import _sl2_lift_one


@dataclass(frozen=True)
class FiberDescriptor:
    """Which fiber V_alpha^(r+n, r+m) to compute, over the representative of
    the class ConjClassRef names: kind is one of its kinds, and r is its
    exponent (0 for sigma and tau).
    """

    p: int
    r: int
    n: int
    m: int
    kind: str

    def __post_init__(self) -> None:
        self.class_ref(self.r + self.n)  # ConjClassRef checks kind and r
        if not (1 <= self.m < self.n and self.n <= 2 * self.m):
            raise PreconditionError("need 1 <= m < n <= 2m, got n=%d m=%d" % (self.n, self.m))
        if self.p == 2:
            if self.kind == "sigma" and self.m < 2:
                raise PreconditionError("p=2 sigma fibers need m >= 2")
            if self.kind == "u_power" and self.m < 3:
                raise PreconditionError("p=2 unipotent fibers need m >= 3")

    def full_ctx(self) -> GroupCtx:
        return make_ctx(self.p, self.r + self.n)

    def standard_rep(self) -> Mat:
        return self.class_ref(self.r + self.n).representative()

    def class_ref(self, level: int) -> ConjClassRef:
        return ConjClassRef(make_ctx(self.p, level), self.kind, self.r)


def _resolve_alpha_prime(desc: FiberDescriptor) -> Mat:
    """The first class element at level r+m matching the standard
    representative mod p^(r+n-m)."""
    ref_level = desc.r + desc.n - desc.m
    full, ctx_m = desc.full_ctx(), make_ctx(desc.p, desc.r + desc.m)
    want = reducer(full, ref_level)(encoder(full)(desc.standard_rep()))
    red = reducer(ctx_m, ref_level)
    for c in sorted(class_codes(desc.class_ref(desc.r + desc.m))):
        if red(c) == want:
            return decoder(ctx_m)(c)
    raise ConsistencyError("no class element lifts the standard representative")  # pragma: no cover


def _additive_span(gens: List[Mat], modulus: int) -> FrozenSet:
    """The Z-span of gens in M2(Z/modulus), capped by the whole module."""

    def adder(g: Mat) -> Callable[[Mat], Mat]:
        g0, g1, g2, g3 = g
        return lambda x: ((x[0] + g0) % modulus, (x[1] + g1) % modulus, (x[2] + g2) % modulus, (x[3] + g3) % modulus)

    return capped_orbit((0, 0, 0, 0), [adder(g) for g in gens], modulus**4)


def commutator_fiber_codes(desc: FiberDescriptor, alpha_like: Mat) -> FrozenSet:
    """{1 + p^m (X a^-1 - a^-1 X)} at level r+n; depends only on
    alpha mod p^(r+n-m), so any lift serves."""
    ctx = desc.full_ctx()
    m_mod = ctx.modulus
    q = desc.p**desc.m
    a = _sl2_lift_one(reduce_mat(alpha_like, m_mod), m_mod)
    ai = _inv(a, m_mod)
    gens = []
    for e in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)):
        w = tuple(
            (u - v) * q % m_mod
            for u, v in zip(_mul(e, ai, m_mod), _mul(ai, e, m_mod))
        )
        gens.append(w)
    enc = encoder(ctx)
    one = identity(ctx)
    return frozenset(
        enc(((one[0] + w[0]) % m_mod, w[1], w[2], (one[3] + w[3]) % m_mod))
        for w in _additive_span(gens, m_mod)
    )


def fiber_group(desc: FiberDescriptor) -> FrozenSet:
    """V_alpha from the definition, with all structural assertions.

    Returns packed codes at level r+n.  Raises ConsistencyError if the fiber
    fails to be a subgroup of order p^(2(n-m)) matching the commutator form
    and the explicit parametrization.
    """
    p, r, n, m = desc.p, desc.r, desc.n, desc.m
    ctx = desc.full_ctx()
    alpha_prime = _resolve_alpha_prime(desc)
    dec = decoder(ctx)
    enc = encoder(ctx)
    red, want = reducer(ctx, r + m), encoder(make_ctx(p, r + m))(alpha_prime)
    fiber = [dec(c) for c in class_codes(desc.class_ref(r + n)) if red(c) == want]
    expect = p ** (2 * (n - m))
    if len(fiber) != expect:
        raise ConsistencyError(
            "fiber over alpha' has %d elements, expected %d" % (len(fiber), expect)
        )
    fiber.sort()
    mm = ctx.modulus
    v_sets = []
    picks = fiber if len(fiber) <= 81 else fiber[:4] + fiber[-4:]
    for a1 in picks:
        a1i = _inv(a1, mm)
        v_sets.append(frozenset(enc(_mul(a1i, x, mm)) for x in fiber))
    if any(v != v_sets[0] for v in v_sets[1:]):
        raise ConsistencyError("fiber translate depends on the chosen lift")
    v = v_sets[0]
    _assert_subgroup(v, ctx)
    q = p ** (r + m)
    one = identity(ctx)
    for c in v:
        x = dec(c)
        if any((x[i] - one[i]) % q for i in range(4)):
            raise ConsistencyError("fiber member %r is not 1 mod p^(r+m)" % (x,))
    if v != commutator_fiber_codes(desc, alpha_prime):
        raise ConsistencyError("fiber differs from its commutator form")
    if v != _parametrized_codes(desc):
        raise ConsistencyError("fiber differs from the explicit parametrization")
    return v


def _assert_subgroup(codes: FrozenSet, ctx: GroupCtx) -> None:
    if encoder(ctx)(identity(ctx)) not in codes:
        raise ConsistencyError("fiber misses the identity")
    dec = decoder(ctx)
    if not all(codes.issuperset(map(right_mul(ctx, dec(y)), codes)) for y in codes):
        raise ConsistencyError("fiber set is not closed under products")


def _parametrized_codes(desc: FiberDescriptor) -> FrozenSet:
    p, r, n, m = desc.p, desc.r, desc.n, desc.m
    ctx = desc.full_ctx()
    mm = ctx.modulus
    enc = encoder(ctx)
    span = p ** (n - m)
    q = p ** (r + m)
    out = set()
    for a in range(span):
        for b in range(span):
            if desc.kind == "sigma":
                w = (a, b, b, -a)
            elif desc.kind == "tau":
                w = (a, b, b - a, -a)
            else:
                w = (a, b, 0, -a)
            out.add(
                enc(((1 + q * w[0]) % mm, q * w[1] % mm, q * w[2] % mm, (1 + q * w[3]) % mm))
            )
    return frozenset(out)


# -------------------- trace-pairing orthogonality --------------------


def verify_orthogonality(desc: FiberDescriptor) -> bool:
    """V equals the orthogonal complement of Z/p^(n-m)Z[alpha] (resp. of the
    nilpotent part for the u family) under (A, B) -> Tr(AB)."""
    p, r, n, m = desc.p, desc.r, desc.n, desc.m
    q = p ** (n - m)
    v = fiber_group(desc)
    ctx = desc.full_ctx()
    dec = decoder(ctx)
    shift = p ** (r + m)
    w_set = set()
    one = identity(ctx)
    for c in v:
        x = dec(c)
        w_set.add(tuple(((x[i] - one[i]) // shift) % q for i in range(4)))
    alpha_prime = _resolve_alpha_prime(desc)
    if desc.kind == "u_power":
        pr = p**r
        base = tuple(((alpha_prime[i] - one[i]) // pr) % q for i in range(4))
    else:
        base = reduce_mat(alpha_prime, q)
    algebra = _additive_span([(1 % q, 0, 0, 1 % q), base], q)
    if len(algebra) != q * q or len(w_set) != q * q:
        return False
    complement = set()
    for a in range(q):
        for b in range(q):
            for cc in range(q):
                for d in range(q):
                    if (a + d) % q:
                        continue
                    if (a * base[0] + b * base[2] + cc * base[1] + d * base[3]) % q:
                        continue
                    complement.add((a, b, cc, d))
    return complement == w_set


# -------------------- recovery counts --------------------


def recovery_count(kind: str, p: int, n: int, m: int) -> int:
    """Number of class elements alpha'' mod p^(r+n-m) sharing a given fiber
    group V (closed forms; the same for every r)."""
    if kind not in _KINDS:
        raise ValueError("kind must be one of %r" % (_KINDS,))
    if not (1 <= m < n <= 2 * m):
        raise PreconditionError("need 1 <= m < n <= 2m")
    gap = n - m
    if kind == "sigma":
        if p >= 3:
            return 2
        if m < 2:
            raise PreconditionError("p=2 sigma recovery needs m >= 2")
        return {1: 1, 2: 2}.get(gap, 4)
    if kind == "tau":
        if p == 3:
            return 1 if gap == 1 else 3
        if p == 2 and m < 2:
            raise PreconditionError("p=2 tau recovery needs m >= 2")
        return 2
    if p >= 3:
        return (p - 1) // 2 * p ** (gap - 1)
    if m < 3:
        raise PreconditionError("p=2 unipotent recovery needs m >= 3")
    return {1: 1, 2: 2}.get(gap, 2 ** (gap - 2))


def recovery_count_brute(kind: str, p: int, n: int, m: int, r: int = 0) -> int:
    """The same count from the definition: compare V-sets over the whole class
    at level r+n-m."""
    desc = FiberDescriptor(p, r, n, m, kind)
    v0 = fiber_group(desc)
    ctx_ref = make_ctx(p, r + n - m)
    dec = decoder(ctx_ref)
    hits = 0
    for c in class_codes(desc.class_ref(r + n - m)):
        if commutator_fiber_codes(desc, dec(c)) == v0:
            hits += 1
    return hits


def recovery_set_brute(kind: str, ctx: GroupCtx, r: int = 0) -> FrozenSet:
    """The commutant-shaped class elements:
    {(x y; -y x)} n Conj(sigma), {(x y; -y x-y)} n Conj(tau),
    {1 + p^r (x y; 0 x)} n Conj(u^(p^r)); computed by enumeration."""
    p = ctx.p
    m = ctx.modulus
    enc = encoder(ctx)
    cls = class_codes(ConjClassRef(ctx, kind, r))
    if kind == "sigma":
        cands = ((x, y, (-y) % m, x) for x in range(m) for y in range(m))
    elif kind == "tau":
        cands = ((x, y, (-y) % m, (x - y) % m) for x in range(m) for y in range(m))
    else:
        q = p**r
        span = m // q
        cands = (((1 + q * x) % m, q * y % m, 0, (1 + q * x) % m) for x in range(span) for y in range(span))
    return frozenset(enc(c) for c in cands if enc(c) in cls)


def reduction_fiber_sizes(kind: str, p: int, hi: int, lo: int, r: int = 0) -> FrozenSet:
    """Sizes of the fibers of Conj(alpha) at level hi -> level lo."""
    if not 1 <= lo < hi:
        raise ValueError("need 1 <= lo < hi")
    ctx_hi = make_ctx(p, hi)
    counts = Counter(map(reducer(ctx_hi, lo), class_codes(ConjClassRef(ctx_hi, kind, r))))
    if set(counts) != set(class_codes(ConjClassRef(make_ctx(p, lo), kind, r))):
        raise ConsistencyError("class reduction is not onto the lower class")
    return frozenset(counts.values())
