"""Fiber groups of reduction restricted to a conjugacy class.

For alpha among sigma, tau, u^(p^r) and m < n <= 2m, the translated fiber
V_alpha = alpha^-1 (f^-1(alpha) n Conj(alpha)) is a rank-2 module over
Z/p^(n-m)Z.  V is always computed from that definition, at the standard
representative, then compared to the commutator form {1 + p^m (X a^-1 - a^-1 X)}
and to the explicit parametrizations, which settle its order and group law.
A class is named here as groups.ConjClassRef names it, by its kind ("sigma",
"tau" or "u_power") and its exponent r.  The class over alpha is read from
class_labels on alpha's lifts; the recovery counts and the reduction fiber
sizes read whole classes, as class_codes.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from typing import Callable, FrozenSet, List

from .core import (
    DEFAULT_MAX_ELEMENTS,
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
from .groups import _KINDS, ConjClassRef, class_codes, class_labels, extend_closure
from .subgroups import _kernel_codes, _sl2_lift_one


class FiberDescriptor(namedtuple("FiberDescriptor", "p r n m kind")):
    """Which fiber V_alpha^(r+n, r+m) to compute, over the representative of
    the class ConjClassRef names: kind is one of its kinds, and r is its
    exponent (0 for sigma and tau).
    """

    def __new__(cls, p: int, r: int, n: int, m: int, kind: str) -> "FiberDescriptor":
        self = tuple.__new__(cls, (p, r, n, m, kind))
        self.class_ref(r + n)  # ConjClassRef checks kind and r
        if not (1 <= m < n and n <= 2 * m):
            raise PreconditionError("need 1 <= m < n <= 2m, got n=%d m=%d" % (n, m))
        if p == 2:
            if kind == "sigma" and m < 2:
                raise PreconditionError("p=2 sigma fibers need m >= 2")
            if kind == "u_power" and m < 3:
                raise PreconditionError("p=2 unipotent fibers need m >= 3")
        return self

    def full_ctx(self) -> GroupCtx:
        return make_ctx(self.p, self.r + self.n)

    def standard_rep(self) -> Mat:
        return self.class_ref(self.r + self.n).representative()

    def class_ref(self, level: int) -> ConjClassRef:
        return ConjClassRef(make_ctx(self.p, level), self.kind, self.r)


def _additive_span(gens: List[Mat], modulus: int) -> FrozenSet:
    """The Z-span of gens in M2(Z/modulus), closed by extend_closure, capped by the whole module."""

    def adder(g: Mat) -> Callable[[Mat], Mat]:
        g0, g1, g2, g3 = g
        return lambda x: ((x[0] + g0) % modulus, (x[1] + g1) % modulus, (x[2] + g2) % modulus, (x[3] + g3) % modulus)

    return extend_closure(((0, 0, 0, 0),), (), gens, adder, modulus**4)


def commutator_fiber_codes(desc: FiberDescriptor, alpha_like: Mat) -> FrozenSet:
    """{1 + p^m (X a^-1 - a^-1 X)} at level r+n; depends only on
    alpha mod p^(r+n-m), so any lift serves."""
    ctx = desc.full_ctx()
    m_mod = ctx.modulus
    q = desc.p**desc.m
    a = _sl2_lift_one(reduce_mat(alpha_like, m_mod), m_mod)
    ai = _inv(a, m_mod)
    units = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    gens = [tuple((u - v) * q % m_mod for u, v in zip(_mul(e, ai, m_mod), _mul(ai, e, m_mod))) for e in units]
    enc = encoder(ctx)
    return frozenset(enc(((1 + w[0]) % m_mod, w[1], w[2], (1 + w[3]) % m_mod)) for w in _additive_span(gens, m_mod))


def fiber_group(desc: FiberDescriptor) -> FrozenSet:
    """V_alpha from the definition at alpha = desc.standard_rep(): the lifts
    k alpha, k in K_(r+m), that class_labels files under (kind, r), translated
    by alpha^-1.  Returns packed codes at level r+n.  Raises ConsistencyError
    unless V equals the commutator form and the explicit parametrization P, a
    group of p^(2(n-m)) elements (README, "Each fact is checked once"), so a V
    that is no group, or of another order, fails there too.
    """
    ctx = desc.full_ctx()
    mm, dec, enc, key = ctx.modulus, decoder(ctx), encoder(ctx), (desc.kind, desc.r)
    alpha = desc.standard_rep()
    lifts = map(right_mul(ctx, alpha), _kernel_codes(ctx, desc.r + desc.m, DEFAULT_MAX_ELEMENTS))  # K alpha = alpha K
    fiber = [c for c in lifts if key in class_labels(dec(c), ctx)]
    ai = _inv(alpha, mm)
    v = frozenset(enc(_mul(ai, dec(c), mm)) for c in fiber)
    if v != commutator_fiber_codes(desc, alpha):
        raise ConsistencyError("fiber differs from its commutator form")
    if v != _parametrized_codes(desc):
        raise ConsistencyError("fiber differs from the explicit parametrization")
    return v


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
    alpha = desc.standard_rep()  # fiber_group reads V at this alpha too
    if desc.kind == "u_power":
        pr = p**r
        base = tuple(((alpha[i] - one[i]) // pr) % q for i in range(4))
    else:
        base = reduce_mat(alpha, q)
    # the trace pairing is perfect, so #complement * #<1, base> = q^4 and a degenerate base
    # leaves more than the q*q = #V = #w_set (fiber_group) trace-0 matrices (a, b, c, -a)
    qs, (e, f, g) = range(q), (base[0] - base[3], base[2], base[1])  # tr((a b; c -a) base) = a e + b f + c g
    complement = {(a, b, c, -a % q) for a in qs for b in qs for c in qs if (a * e + b * f + c * g) % q == 0}
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
