"""Subgroups of SL2(Z/p^nZ) by generators, with materialized closure.

Covers the standard level-one subgroups (Borel, split/nonsplit Cartan
normalizers, exceptional, the order-3 subgroup at p=2 and the maximal
mod-2-surjective subgroup of SL2(Z/4Z)), reduction preimages, the kernel
filtration H_s, slimness, exhaustive lattice enumeration at desk scale and
seeded random sampling.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import product
from math import gcd
from dataclasses import dataclass, field
from functools import wraps
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from .core import (
    DEFAULT_MAX_ELEMENTS,
    ConsistencyError,
    FeasibilityError,
    GroupCtx,
    Mat,
    PreconditionError,
    ReductionError,
    _check_reduced,
    _mul,
    conjugator,
    decoder,
    element_order,
    encoder,
    factorize,
    identity,
    lower_u,
    make_ctx,
    mat,
    minus_one,
    parse_mat,
    primitive_root,
    reduce_mat,
    reducer,
    right_mul,
    sigma,
    upper_u,
)
from .groups import ElementSet, _above_cap, _closure_codes, _over_cap, capped_orbit, enumerate_group, extend_closure

# -------------------- the subgroup value --------------------


@dataclass(eq=False)
class Subgroup:
    """A subgroup of SL2(Z/p^nZ) given by generators; the element set is built
    on demand (codes), never mutated afterwards, and until then order reads #H
    from the Schreier walk.  Non-empty gens generate H (from_codes may leave
    them empty); one with an entry outside [0, p^n) raises
    ContextMismatchError, and one of det != 1 raises PreconditionError.
    _reduced is the memo of what derives from H alone: H mod p^s under the
    key s, #H under "order", and each value that kept(key) keeps (the
    filtration, the level, genus.genus_report)."""

    ctx: GroupCtx
    gens: Tuple[Mat, ...]
    cap: int = DEFAULT_MAX_ELEMENTS
    _codes: Optional[FrozenSet] = field(default=None, repr=False)
    _reduced: Dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        m = self.ctx.modulus
        for g in self.gens:
            _check_reduced(g, self.ctx)
            dt = (g[0] * g[3] - g[1] * g[2]) % m
            if dt != 1 % m:
                raise PreconditionError("generator %r has det %d != 1" % (g, dt))

    @classmethod
    def from_codes(
        cls,
        ctx: GroupCtx,
        codes: FrozenSet,
        gens: Tuple[Mat, ...] = (),
        cap: int = DEFAULT_MAX_ELEMENTS,
    ) -> "Subgroup":
        return cls(ctx, gens, cap, _codes=frozenset(codes))

    def codes(self) -> FrozenSet:
        if self._codes is None:
            codes = _closure_codes(self.gens, self.ctx, self.cap)
            if len(codes) != self._reduced.get("order", len(codes)):
                raise ConsistencyError("closure of %d elements, Schreier walk %d" % (len(codes), self.order))
            self._codes = codes
        return self._codes

    @property
    def order(self) -> int:
        """#H, FeasibilityError above cap.  Before codes, for gens at n >= 2: #lifts *
        p^rank from _schreier_walk, or #(H mod p^(n-1)) * p^3 once it finds K_(n-1) <= H."""
        if self._codes is not None or not self.gens or self.ctx.n == 1:
            return len(self.codes())
        if "order" not in self._reduced:
            walk = _schreier_walk(self.gens, self.ctx, self.cap)
            if walk is None:
                raise _over_cap(self.cap)
            (lifts, span), n, p = walk, self.ctx.n, self.ctx.p
            got = len(lifts) * len(span) if span is not None else len(self.reduced_codes(n - 1)) * p**3
            if got > self.cap:
                raise _over_cap(self.cap)
            self._reduced["order"] = got
        return self._reduced["order"]

    def __contains__(self, x: Mat) -> bool:
        _check_reduced(x, self.ctx)
        return encoder(self.ctx)(x) in self.codes()

    def mats(self) -> Iterator[Mat]:
        dec = decoder(self.ctx)
        for c in self.codes():
            yield dec(c)

    def elements(self) -> ElementSet:
        return ElementSet(self.ctx, self.codes())

    def reduced_codes(self, level: int) -> FrozenSet:
        """Codes of the image H mod p^level (level <= n), closing the reduced generators if H has any."""
        if level == self.ctx.n:
            return self.codes()
        if level > self.ctx.n or level < 1:
            raise ReductionError("cannot reduce level %d subgroup to level %d" % (self.ctx.n, level))
        got = self._reduced.get(level)
        if got is None:
            if self.gens:
                sub = make_ctx(self.ctx.p, level)
                got = _closure_codes([reduce_mat(g, sub.modulus) for g in self.gens], sub, self.cap)
            else:
                got = frozenset(map(reducer(self.ctx, level), self.codes()))
            self._reduced[level] = got
        return got

    def conjugate(self, g: Mat) -> "Subgroup":
        """g^-1 H g, for any g of unit determinant."""
        codes = frozenset(map(conjugator(self.ctx, g), self.codes()))
        return Subgroup.from_codes(self.ctx, codes, cap=self.cap)


def kept(key: str) -> Callable:
    """Decorator for a function f(h) of H alone: its value is built on the
    first call and kept in h's memo under key; a call that raises keeps nothing."""

    def decorate(f: Callable) -> Callable:
        @wraps(f)
        def read(h: Subgroup):
            got = h._reduced.get(key)
            if got is None:
                got = h._reduced[key] = f(h)
            return got

        return read

    return decorate


def closure(gens: Sequence[Mat], ctx: GroupCtx, cap: int = DEFAULT_MAX_ELEMENTS) -> Subgroup:
    """The smallest subgroup of SL2(Z/p^nZ) containing the generators, closed by
    groups.extend_closure; a generator of det != 1 raises PreconditionError."""
    s = Subgroup(ctx, tuple(gens), cap)
    s.codes()
    return s


def full_group(ctx: GroupCtx, cap: int = DEFAULT_MAX_ELEMENTS) -> Subgroup:
    es = enumerate_group(ctx, cap)
    return Subgroup.from_codes(ctx, es.codes, gens=(upper_u(ctx), lower_u(ctx)), cap=cap)


def adjoin_minus_one(h: Subgroup) -> Subgroup:
    """<H, -1>, which is h itself when -1 is in H; -1 is a central involution,
    so otherwise it is H u (-1)H.  An unmaterialized H of kept level m < n is
    decided by H_m; any other is compared by order with <gens, -1>, both from
    the Schreier walk (Subgroup.order), so H is not closed at level n; the
    result is that <gens, -1>, unmaterialized, also when an order passes the cap."""
    ctx, neg = h.ctx, minus_one(h.ctx)
    if h._codes is None:
        got = Subgroup(ctx, h.gens + (neg,), h.cap)
        m = h._reduced.get("level", ctx.n)
        if m < ctx.n:  # K_m <= H, so -1 is in H exactly when -1 mod p^m is in H_m
            sub = make_ctx(ctx.p, m)
            return h if encoder(sub)(minus_one(sub)) in h.reduced_codes(m) else got
        try:
            return h if h.order == got.order else got
        except FeasibilityError:
            return got
    if encoder(ctx)(neg) in h.codes():
        return h
    codes = set(h.codes())  # frozen once, the table fits H u -H; a union H | -H sizes it for both
    codes.update(map(right_mul(ctx, neg), h.codes()))
    return Subgroup.from_codes(ctx, codes, h.gens + (neg,) if h.gens else (), h.cap)


# -------------------- reduction preimage and filtration --------------------


def _sl2_lift_one(x: Mat, dst_modulus: int) -> Mat:
    """Lift x to an SL2 element mod dst_modulus congruent to x (column rescale)."""
    a, b, c, d = x
    dt = (a * d - b * c) % dst_modulus
    di = pow(dt, -1, dst_modulus)
    return (a * di % dst_modulus, b, c * di % dst_modulus, d)


def _last_kernel(ctx: GroupCtx, ws: Iterable[Tuple[int, int, int]]) -> List[Mat]:
    """The elements 1 + p^(n-1) W of K_(n-1) = ker(SL2(Z/p^nZ) -> SL2(Z/p^(n-1)Z)),
    n >= 2, one per (W00, W01, W10) in ws over F_p, with W11 = -W00 (tr W = 0 mod p)."""
    m = ctx.modulus
    q = m // ctx.p
    return [((1 + q * a) % m, q * b, q * c, (1 - q * a) % m) for a, b, c in ws]


def preimage(h: Subgroup, dst: GroupCtx, cap: int = DEFAULT_MAX_ELEMENTS) -> Subgroup:
    """Full inverse image of H under the mod p^m reduction; order #H * p^(3(n-m))."""
    if dst.p != h.ctx.p:
        raise ReductionError("preimage between different primes")
    if dst.n < h.ctx.n:
        raise ReductionError("destination level %d below source level %d" % (dst.n, h.ctx.n))
    start_order = h.order
    codes = h.codes()
    ctx = h.ctx
    while ctx.n < dst.n:
        nxt = make_ctx(ctx.p, ctx.n + 1)
        if len(codes) * ctx.p**3 > cap:
            raise _above_cap("preimage would hold %d" % (len(codes) * ctx.p**3), cap)
        kern = [right_mul(nxt, k) for k in _last_kernel(nxt, product(range(ctx.p), repeat=3))]
        dec, enc = decoder(ctx), encoder(nxt)
        lifts = [enc(_sl2_lift_one(dec(c), nxt.modulus)) for c in codes]
        codes = frozenset({k(t) for t in lifts for k in kern})
        ctx = nxt
    got = Subgroup.from_codes(dst, codes, cap=cap)
    # H mod p^s is the source's H mod p^s for s <= m, so no code of the preimage is reduced for it
    got._reduced.update((s, h.reduced_codes(s)) for s in range(1, min(h.ctx.n, dst.n - 1) + 1))
    if got.order != start_order * dst.p ** (3 * (dst.n - h.ctx.n)):
        raise ConsistencyError("preimage order mismatch")  # pragma: no cover
    return got


@kept("filtration")
def filtration(h: Subgroup) -> Tuple[Subgroup, ...]:
    """(H_1, ..., H_n), H_s = H n (1 + p^s M2) the kernel of reduction mod p^s
    restricted to H.  One pass over H files each code under its depth (the
    largest s with x = 1 mod p^s), and H_s holds the codes of depth s or more."""
    ctx, dec = h.ctx, decoder(h.ctx)
    depth_of = {ctx.p**t: t for t in range(ctx.n + 1)}  # gcd(a - 1, b, c, d - 1, p^n) = p^depth
    by_depth: List[List[int]] = [[] for _ in range(ctx.n + 1)]
    for code in h.codes():
        a, b, c, d = dec(code)
        by_depth[depth_of[gcd(a - 1, b, c, d - 1, ctx.modulus)]].append(code)
    return tuple(
        Subgroup.from_codes(ctx, [c for layer in by_depth[s:] for c in layer], cap=h.cap) for s in range(1, ctx.n + 1)
    )


def filtration_level(h: Subgroup, s: int) -> Subgroup:
    """H_s, read from filtration(h)."""
    if not 1 <= s <= h.ctx.n:
        raise ValueError("filtration level s=%d outside 1..%d" % (s, h.ctx.n))
    return filtration(h)[s - 1]


def _holds_kernel(h: Subgroup, s: int) -> bool:
    """K_s = ker(G -> G_s) <= H, by orders: #H = #(H mod p^s) #(H n K_s) and
    #K_s = p^(3(n-s)), so K_s <= H exactly when #H = #(H mod p^s) p^(3(n-s)).
    A #H that p^(3(n-s)) does not divide decides it without reducing H."""
    k = h.ctx.p ** (3 * (h.ctx.n - s))
    return h.order % k == 0 and len(h.reduced_codes(s)) * k == h.order


@kept("level")
def level(h: Subgroup) -> int:
    """The level of H, the least s >= 1 with K_s <= H."""
    return next(s for s in range(1, h.ctx.n + 1) if _holds_kernel(h, s))


def is_slim(h: Subgroup) -> bool:
    """H does not contain K_(n-1) = (1 + p^(n-1) M2)^{det=1}; at n=1, H is proper."""
    if h.ctx.n == 1:
        return h.order != h.ctx.order
    return not _holds_kernel(h, h.ctx.n - 1)


# -------------------- standard subgroups --------------------


def smallest_nonresidue(p: int) -> int:
    if p == 2:
        raise PreconditionError("no quadratic non-residue mod 2")
    for k in range(2, p):
        if pow(k, (p - 1) // 2, p) == p - 1:
            return k
    raise RuntimeError("no non-residue mod %d" % p)  # pragma: no cover


def _torus_extension(first: Callable[[GroupCtx], Mat], p: int, name: str, want: int, cap: int) -> Subgroup:
    """<first, diag(g, g^-1)> in SL2(Z/pZ), g a primitive root (first alone at
    p = 2); ConsistencyError unless its order is want."""
    ctx = make_ctx(p, 1)
    gens = [first(ctx)]
    if p > 2:
        g = primitive_root(p)
        gens.append(mat(g, 0, 0, pow(g, -1, p), ctx))
    got = closure(gens, ctx, cap=cap)
    if got.order != want:
        raise ConsistencyError("%s order %d != %d" % (name, got.order, want))  # pragma: no cover
    return got


def borel(p: int, cap: int = DEFAULT_MAX_ELEMENTS) -> Subgroup:
    """Upper triangular matrices of SL2(Z/pZ), <u, diag(g, g^-1)>; order p(p-1)."""
    return _torus_extension(upper_u, p, "Borel", p * (p - 1), cap)


def split_cartan_normalizer(p: int, cap: int = DEFAULT_MAX_ELEMENTS) -> Subgroup:
    """Monomial matrices of SL2(Z/pZ), <sigma, diag(g, g^-1)>; order 2(p-1)."""
    return _torus_extension(sigma, p, "C", 2 * (p - 1), cap)


def nonsplit_cartan_normalizer(p: int, cap: int = DEFAULT_MAX_ELEMENTS) -> Subgroup:
    """Norm-one torus {(x y; ly x)} and its flip; order 2(p+1), with l the
    smallest positive quadratic non-residue mod p.
    """
    if p < 3:
        raise PreconditionError("nonsplit Cartan normalizer needs p >= 3")
    ctx = make_ctx(p, 1)
    lam = smallest_nonresidue(p)
    pairs = [(x, y) for x in range(p) for y in range(p)]
    torus = (mat(x, y, lam * y, x, ctx) for x, y in pairs if (x * x - lam * y * y) % p == 1)
    torus_gen = next((t for t in torus if element_order(t, ctx) == p + 1), None)  # orders divide p + 1
    if torus_gen is None:
        raise ConsistencyError("norm-one torus generator not found")  # pragma: no cover
    flip = next(mat(x, y, -lam * y, -x, ctx) for x, y in pairs if (lam * y * y - x * x) % p == 1)
    got = closure([torus_gen, flip], ctx, cap=cap)
    if got.order != 2 * (p + 1):
        raise ConsistencyError("D order %d != 2(p+1)" % got.order)  # pragma: no cover
    return got


def order_three_subgroup(cap: int = DEFAULT_MAX_ELEMENTS) -> Subgroup:
    """F = the subgroup of order 3 of SL2(Z/2Z)."""
    ctx = make_ctx(2, 1)
    return closure([mat(1, 1, 1, 0, ctx)], ctx, cap=cap)


def a1_subgroup(cap: int = DEFAULT_MAX_ELEMENTS) -> Subgroup:
    """The maximal mod-2-surjective proper subgroup <sigma, (1 1; 2 -1)> of SL2(Z/4Z)."""
    ctx = make_ctx(2, 2)
    got = closure([sigma(ctx), mat(1, 1, 2, -1, ctx)], ctx, cap=cap)
    if got.order != 12:
        raise ConsistencyError("A1 order %d != 12" % got.order)  # pragma: no cover
    return got


# --- exceptional subgroups ---

# (group order, multiset of element orders) certifies A4 / S4 / A5 uniquely
# among groups of that order.
_EXC_PROFILE = {
    "A4": (12, {1: 1, 2: 3, 3: 8}),
    "S4": (24, {1: 1, 2: 9, 3: 8, 4: 6}),
    "A5": (60, {1: 1, 2: 15, 3: 20, 5: 24}),
}


def _pgl_canon(x: Mat, p: int) -> Mat:
    for e in x:
        v = e % p
        if v:
            inv = pow(v, -1, p)
            return (x[0] * inv % p, x[1] * inv % p, x[2] * inv % p, x[3] * inv % p)
    raise ValueError("zero matrix")  # pragma: no cover


def _pgl_order(x: Mat, p: int) -> int:
    one = _pgl_canon((1, 0, 0, 1), p)
    y = _pgl_canon(x, p)
    o = 1
    z = y
    while z != one:
        z = _pgl_canon(_mul(z, y, p), p)
        o += 1
    return o


def _pgl_closure(gens: List[Mat], p: int, cap: int = 200) -> Optional[FrozenSet]:
    """The subgroup of PGL2(F_p) the gens generate, or None above cap elements."""
    try:
        return extend_closure(((1, 0, 0, 1),), (), gens, lambda g: lambda x: _pgl_canon(_mul(x, g, p), p), cap)
    except FeasibilityError:
        return None


def exceptional_availability(p: int, iso: str) -> bool:
    if p < 5:
        return False
    if iso in ("A4", "S4"):
        return True
    if iso == "A5":
        # PGL2 has an A5 iff p = 0, +-1 mod 5, but at p = 5 its preimage has
        # order divisible by p, so no exceptional subgroup arises from it.
        return p % 5 in (1, 4) and p != 5
    raise ValueError("unknown exceptional type %r" % iso)


def exceptional_subgroup(p: int, iso: str = "S4", seed: int = 0, cap: int = DEFAULT_MAX_ELEMENTS) -> Subgroup:
    """E = (preimage of an A4/S4/A5 in PGL2(F_p)) n SL2(F_p).

    The PGL2 subgroup is found by seeded random generator search and
    certified by its order statistics.
    """
    if not exceptional_availability(p, iso):
        if iso == "A5" and p == 5:
            raise PreconditionError("A5 preimage at p=5 has order divisible by 5")
        raise PreconditionError(
            "exceptional type %s unavailable at p=%d (A5 needs p = +-1 mod 5)" % (iso, p)
        )
    want_order, want_stats = _EXC_PROFILE[iso]
    seek = {"A4": 3, "S4": 4, "A5": 5}[iso]
    rng = random.Random((seed, p, iso).__repr__())
    invol: List[Mat] = []
    other: List[Mat] = []
    for _ in range(40_000):
        if invol and other:
            a = rng.choice(invol)
            b = rng.choice(other)
            pg = _pgl_closure([a, b], p, cap=2 * want_order)
            if pg is not None and len(pg) == want_order:
                stats = Counter(_pgl_order(x, p) for x in pg)
                if dict(stats) == want_stats:
                    return _pullback_to_sl2(pg, p, cap)
        x = (rng.randrange(p), rng.randrange(p), rng.randrange(p), rng.randrange(p))
        if (x[0] * x[3] - x[1] * x[2]) % p == 0:
            continue
        o = _pgl_order(x, p)
        if o == 2:
            invol.append(_pgl_canon(x, p))
        elif o == seek:
            other.append(_pgl_canon(x, p))
    raise RuntimeError("exceptional %s search failed at p=%d (seed %d)" % (iso, p, seed))


def _pullback_to_sl2(pgl: FrozenSet, p: int, cap: int) -> Subgroup:
    """The elements of SL2(F_p) whose class lies in pgl, a subgroup of PGL2(F_p).
    The lifts of a class x are the x c with c^2 det x = 1, so SL2(F_p) is never enumerated."""
    ctx = make_ctx(p, 1)
    enc = encoder(ctx)
    keep = frozenset(
        enc(_mul(x, (c, 0, 0, c), p)) for x in pgl for c in range(1, p) if (x[0] * x[3] - x[1] * x[2]) * c * c % p == 1
    )
    got = Subgroup.from_codes(ctx, keep, cap=cap)
    if got.order not in (24, 48, 120):
        raise ConsistencyError("exceptional pullback has order %d" % got.order)  # pragma: no cover
    return got


def standard_subgroup(kind: str, p: int, seed: int = 0, cap: int = DEFAULT_MAX_ELEMENTS) -> Subgroup:
    """The named subgroups at their natural level (B/C/D/E/F at p, A1 at p^2), closed under cap."""
    if kind.startswith("E:"):
        if p < 5:
            raise PreconditionError("exceptional subgroups need p >= 5")
        return exceptional_subgroup(p, kind[2:], seed=seed, cap=cap)
    if kind == "B":
        return borel(p, cap)
    if kind == "C":
        return split_cartan_normalizer(p, cap)
    if kind == "D":
        return nonsplit_cartan_normalizer(p, cap)
    if kind == "F":
        if p != 2:
            raise PreconditionError("F is a subgroup of SL2(Z/2Z)")
        return order_three_subgroup(cap)
    if kind == "A1":
        if p != 2:
            raise PreconditionError("A1 is a subgroup of SL2(Z/4Z)")
        return a1_subgroup(cap)
    if kind == "full":
        return full_group(make_ctx(p, 1), cap)
    raise ValueError("unknown subgroup kind %r" % kind)


# -------------------- subgroup spec strings --------------------


def parse_subgroup_spec(
    spec: str, p: int, n: int, seed: int = 0, cap: int = DEFAULT_MAX_ELEMENTS
) -> Subgroup:
    """CLI subgroup mini-language.

    "B", "C", "D", "E:A4|S4|A5", "F", "A1", "full",
    "gens:a,b;c,d|a,b;c,d|...", "preimage:<spec>@<m>".  The subgroup carries
    cap, which the genus and count routes apply to G and the class orbits.
    """
    spec = spec.strip()
    ctx = make_ctx(p, n)
    if spec.startswith("preimage:"):
        inner, at = spec[len("preimage:") :].rsplit("@", 1)
        src_level = int(at)
        if src_level > n:
            raise ValueError("preimage source level %d exceeds n=%d" % (src_level, n))
        return preimage(parse_subgroup_spec(inner, p, src_level, seed=seed, cap=cap), ctx, cap=cap)
    if spec.startswith("gens:"):
        return closure([parse_mat(g, ctx) for g in spec[len("gens:") :].split("|")], ctx, cap=cap)
    if spec == "full":
        return full_group(ctx, cap=cap)
    natural = 2 if spec == "A1" else 1
    if n != natural:
        raise ValueError(
            "subgroup %r lives at level %d; use preimage:%s@%d for level %d" % (spec, natural, spec, natural, n)
        )
    return standard_subgroup(spec, p, seed=seed, cap=cap)


# -------------------- exhaustive lattice enumeration --------------------

EXHAUSTIVE_CAP = 3_000  # the k x k product table holds at most 9e6 entries


def all_subgroups(
    universe: ElementSet,
    conjugacy_gens: Optional[Sequence[Mat]] = None,
) -> List[FrozenSet]:
    """Every subgroup of the (closed) universe, as code frozensets.

    Cyclic-extension search: each subgroup is grown from a class
    representative by one prime-power cyclic subgroup at a time, extending the
    closed representative (groups.extend_closure).  Since <H, Z^x> = <H, Z> for
    x in H, a representative H is extended by the first Z of each H-conjugation
    orbit of the pool only, which skips exactly the candidates that would close
    to a subgroup seen already.  When conjugacy_gens, elements of the universe,
    generate it, only class representatives are extended and orbits are
    expanded afterwards.  The product table is kept by columns, col[y][x] = x y,
    composed along a walk from the identity: col(x s) = col(s) o col(x).
    """
    ctx = universe.ctx
    if len(universe) > EXHAUSTIVE_CAP:
        raise FeasibilityError(
            "exhaustive subgroup enumeration capped at %d elements" % EXHAUSTIVE_CAP
        )
    dec, enc, m = decoder(ctx), encoder(ctx), ctx.modulus
    codes = sorted(universe.codes)
    index = {c: i for i, c in enumerate(codes)}
    k = len(codes)
    mats = [dec(c) for c in codes]
    e = index[enc(identity(ctx))]
    col: List[Optional[List[int]]] = [None] * k
    col[e], walk, steps = list(range(k)), [e], []
    while len(walk) < k:
        s = col.index(None)  # the next step of the walk, whose column takes direct products
        col[s] = [index[enc(_mul(x, mats[s], m))] for x in mats]
        walk.append(s)
        steps.append(s)
        for i in walk:  # walk grows while it is walked
            for t in steps:
                j = col[t][i]
                if col[j] is None:
                    col[j] = [col[t][c] for c in col[i]]
                    walk.append(j)

    # prime-power cyclic subgroups, as (frozenset, generator index), with every
    # element's inverse (its last power before the identity) and its generators
    inv = [e] * k
    cyc: Dict[FrozenSet, List[int]] = {}
    for i in range(k):
        orbit = [e]
        j = i
        while j != e:
            orbit.append(j)
            j = col[i][j]
        inv[i] = orbit[-1]
        if len(factorize(len(orbit))) == 1:  # prime power order
            cyc.setdefault(frozenset(orbit), []).append(i)
    pool = sorted(((z, gs[0]) for z, gs in cyc.items()), key=lambda kv: (len(kv[0]), kv[1]))
    slot = {g: pos for pos, (z, _) in enumerate(pool) for g in cyc[z]}  # generator -> pool position

    def conj(g: int) -> Callable[[int], int]:  # x -> g^-1 x g; an orbit needs no inverse steps (see capped_orbit)
        cg, gi = col[g], inv[g]
        return lambda x: cg[col[x][gi]]

    perms = [list(map(conj(index[enc(g)]), range(k))) for g in conjugacy_gens or ()]
    conj_steps = [lambda s, perm=perm: frozenset(perm[x] for x in s) for perm in perms]

    trivial = frozenset([e])
    seen_all: Dict[FrozenSet, None] = {trivial: None}
    reps: List[Tuple[FrozenSet, Tuple[int, ...]]] = [(trivial, ())]
    for h, hgens in reps:  # reps grows while it is walked
        done = set()  # pool positions of the Z^x, x in H, of each Z extended: <H, Z^x> = <H, Z>
        h_steps = [conj(g) for g in hgens]
        for pos, (_, cgen) in enumerate(pool):
            if cgen in h or pos in done:
                continue
            done.update(slot[y] for y in capped_orbit(cgen, h_steps, k))
            knew = extend_closure(h, hgens, (cgen,), lambda y: col[y].__getitem__, k)
            if knew in seen_all:
                continue
            # record the full conjugacy orbit (at most [G : N(H)] <= k subgroups),
            # queue one representative
            for t in capped_orbit(knew, conj_steps, k):
                seen_all[t] = None
            reps.append((knew, hgens + (cgen,)))
    return [frozenset(codes[i] for i in s) for s in seen_all]


# -------------------- random sampling --------------------


def sample_subgroups(ctx: GroupCtx, count: int, rng: random.Random) -> List[Subgroup]:
    """Random generator pairs/triples, deduplicated by the element-set hash."""
    pool = sorted(enumerate_group(ctx).codes)
    dec = decoder(ctx)
    out: List[Subgroup] = []
    seen: set = set()
    for _ in range(40 * count):
        if len(out) >= count:
            break
        k = rng.choice((1, 2, 2, 3))
        gens = tuple(dec(pool[rng.randrange(len(pool))]) for _ in range(k))
        h = Subgroup(ctx, gens)
        key = h.codes()
        if key not in seen:
            seen.add(key)
            out.append(h)
    return out


def _random_kernel_element(ctx: GroupCtx, s: int, rng: random.Random) -> Mat:
    """A random element of (1 + p^s M2)^{det=1}."""
    m = ctx.modulus
    q = ctx.p**s
    span = m // q
    x = (
        (1 + q * rng.randrange(span)) % m,
        q * rng.randrange(span) % m,
        q * rng.randrange(span) % m,
        (1 + q * rng.randrange(span)) % m,
    )
    return _sl2_lift_one(x, m)


def _lift_to(x: Mat, ctx: GroupCtx) -> Mat:
    return _sl2_lift_one(reduce_mat(x, ctx.modulus), ctx.modulus)


def _slim_cap(ctx: GroupCtx, top: int) -> int:
    """One more than the largest slim subgroup with mod-p image in a top-element target."""
    return min(top * ctx.p ** (2 * ctx.n - 2) * (2 if ctx.p == 2 else 1) + 1, DEFAULT_MAX_ELEMENTS)


def _slim_candidate(ctx: GroupCtx, level1_pool: List[Mat], rng: random.Random) -> List[Mat]:
    """1-3 lifts of pool elements, each times a kernel element or not, maybe one more kernel element."""
    n = ctx.n
    gens: List[Mat] = []
    for _ in range(rng.choice((1, 1, 2, 2, 2, 3))):
        x = _lift_to(level1_pool[rng.randrange(len(level1_pool))], ctx)
        if rng.random() < 0.5:
            x = _mul(x, _random_kernel_element(ctx, rng.randrange(1, n), rng), ctx.modulus)
        gens.append(x)
    if rng.random() < 0.5:
        # kernel elements from upper layers keep the closure slim more often
        gens.append(_random_kernel_element(ctx, rng.randrange((n + 1) // 2, n), rng))
    return gens


def _schreier_walk(gens: Sequence[Mat], ctx: GroupCtx, cap: int) -> Optional[Tuple[List[Mat], Optional[set]]]:
    """Schreier's lemma along the last reduction (n >= 2): walk H = <gens> mod
    p^(n-1) breadth-first with level-n products and keep the first lift t of
    each reduced element.  A product z reaching that element again gives
    z t^-1 = 1 + p^(n-1) W in H n K_(n-1), and these generate H n K_(n-1).
    K_(n-1) is F_p^3 through (W00, W01, W10), with W11 = -W00 mod p, for p = 2
    as well.  Below rank 3, H is the products t k of the lifts and the span,
    #H = #lifts * p^rank.  Returns (lifts, span); the span is None once it
    reaches rank 3 (K_(n-1) <= H; the walk stops there, its lifts partial),
    and the whole is None once #lifts * p^rank passes cap (then #H > cap).
    The walk keeps a basis of the span, and w lies in it when its cross
    product with the one basis vector, or its determinant with the two,
    vanishes mod p (_in_span); the span itself is built on return.
    """
    p, m = ctx.p, ctx.modulus
    q = m // p
    lifts = [identity(ctx)]
    inverse_lift = {(1 % q, 0, 0, 1 % q): lifts[0]}  # inverse of each lift, keyed by its reduction
    basis: List[Tuple[int, int, int]] = []  # independent W in F_p^3, at most two here
    size = 1  # p^rank
    for t0, t1, t2, t3 in lifts:  # lifts grows while it is walked
        for g0, g1, g2, g3 in gens:
            z0, z1 = (t0 * g0 + t1 * g2) % m, (t0 * g1 + t1 * g3) % m
            z2, z3 = (t2 * g0 + t3 * g2) % m, (t2 * g1 + t3 * g3) % m
            key = (z0 % q, z1 % q, z2 % q, z3 % q)
            ti = inverse_lift.get(key)
            if ti is None:
                inverse_lift[key] = (z3, -z1 % m, -z2 % m, z0)
                lifts.append((z0, z1, z2, z3))
            else:
                i0, i1, i2, i3 = ti  # z t^-1 = 1 + q W; W11 = -W00 needs no product
                w = ((z0 * i0 + z1 * i2) % m // q, (z0 * i1 + z1 * i3) % m // q, (z2 * i0 + z3 * i2) % m // q)
                if _in_span(basis, w, p):
                    continue
                if len(basis) == 2:
                    return lifts, None  # a third independent W
                basis.append(w)
                size *= p
            if len(lifts) * size > cap:
                return None
    span = {(0, 0, 0)}
    for w in basis:
        span = {tuple((a + j * b) % p for a, b in zip(v, w)) for v in span for j in range(p)}
    return lifts, span


def _in_span(basis: Sequence[Tuple[int, int, int]], w: Tuple[int, int, int], p: int) -> bool:
    """w lies in the F_p-span of basis, independent vectors of F_p^3 (at most
    two): w = 0, w x v = 0 for the one v, or det(v1, v2, w) = 0 mod p."""
    x, y, z = w
    if not basis:
        return not (x or y or z)
    a, b, c = basis[0]
    if len(basis) == 1:
        return (b * z - c * y) % p == 0 and (c * x - a * z) % p == 0 and (a * y - b * x) % p == 0
    d, e, f = basis[1]
    return (x * (b * f - c * e) + y * (c * d - a * f) + z * (a * e - b * d)) % p == 0


def _slim_closure_codes(gens: Sequence[Mat], ctx: GroupCtx, cap: int) -> Optional[FrozenSet]:
    """The codes of H = <gens> (n >= 2) as the products t k of the lifts and the
    kernel span of _schreier_walk, or None if H contains the last kernel
    K_(n-1) (rank 3) or holds more than cap elements."""
    walk = _schreier_walk(gens, ctx, cap)
    if walk is None or walk[1] is None:
        return None
    enc, m, kernel = encoder(ctx), ctx.modulus, _last_kernel(ctx, walk[1])
    return frozenset(enc(_mul(t, k, m)) for t in walk[0] for k in kernel)


def sample_slim_subgroups(
    ctx: GroupCtx,
    count: int,
    rng: random.Random,
    mod_p_target: Optional[Subgroup] = None,
) -> List[Subgroup]:
    """Seeded rejection sampling of slim subgroups (n >= 2), optionally with
    the mod-p image inside a given level-one subgroup.

    A slim subgroup has #H_1 <= p^(2(n-1)) (one extra factor p at p=2), so a
    candidate above #target * that bound (the slim cap) is certainly not slim.
    Each candidate is closed once, by _slim_closure_codes, which rejects it
    if it contains the last kernel or goes over the slim cap.
    """
    if ctx.n < 2:
        raise PreconditionError("slim sampling needs level n >= 2")
    level1_pool = sorted((mod_p_target if mod_p_target is not None else full_group(make_ctx(ctx.p, 1))).mats())
    slim_cap = _slim_cap(ctx, len(level1_pool))
    out: List[Subgroup] = []
    seen: set = set()
    for _ in range(120 * count):
        if len(out) >= count:
            break
        gens = _slim_candidate(ctx, level1_pool, rng)
        codes = _slim_closure_codes(gens, ctx, slim_cap)
        if codes is None:
            continue
        h = Subgroup.from_codes(ctx, codes, gens=tuple(gens))
        if mod_p_target is not None and not h.reduced_codes(1) <= mod_p_target.codes():
            continue
        if codes not in seen:
            seen.add(codes)
            out.append(h)
    return out


# -------------------- finite shadows of the surjectivity criteria --------------------


def section2_property_check(lemma_id: str, trials: int = 40, seed: int = 0) -> bool:
    """Finite checks of the surjectivity criteria.

    L2_1: subgroups of SL2(Z/p^nZ) (n >= 3) surjecting mod p^2 are everything;
    for p >= 5 already surjecting mod p suffices.  A1 in SL2(Z/4Z) is the
    recorded p=2 counterexample the criterion excludes.

    L2_5: subgroups of GL2(Z/p^2Z) with full determinant image have
    det(H n (1 + p M2)) = 1 + pZ/p^2Z (p >= 3).
    """
    rng = random.Random(seed)
    if lemma_id == "L2_1":
        for p, n in ((3, 3), (5, 2)):
            ctx = make_ctx(p, n)
            crit = 2 if p < 5 else 1
            crit_codes = enumerate_group(make_ctx(p, crit)).codes
            full_order = ctx.order
            hit = 0
            for h in _l21_samples(ctx, crit, trials, rng):
                if h.reduced_codes(crit) == crit_codes:
                    hit += 1
                    if h.order != full_order:
                        return False
            if hit == 0:  # the biased sampler must exercise the hypothesis
                raise ConsistencyError("L2_1 sampler produced no surjective subgroup")
        # p=2 exception: A1 surjects mod 2 yet is proper
        a1 = a1_subgroup()
        sl2_mod2 = enumerate_group(make_ctx(2, 1)).codes
        if a1.reduced_codes(1) != sl2_mod2 or a1.order == 48:
            return False
        return True
    if lemma_id == "L2_5":
        for p in (3, 5):
            if not _l25_check(p, max(6, trials // 4), rng):
                return False
        return True
    raise ValueError("unknown check id %r (expected L2_1 or L2_5)" % lemma_id)


def _l21_samples(ctx: GroupCtx, crit: int, trials: int, rng: random.Random) -> Iterator[Subgroup]:
    # Half biased (gens lift a generating set of the mod-p^crit image, so the
    # hypothesis holds), half unbiased.
    crit_ctx = make_ctx(ctx.p, crit)
    for i in range(trials):
        if i % 2 == 0:
            gens = [
                _mul(_lift_to(upper_u(crit_ctx), ctx), _random_kernel_element(ctx, crit, rng), ctx.modulus),
                _mul(_lift_to(lower_u(crit_ctx), ctx), _random_kernel_element(ctx, crit, rng), ctx.modulus),
            ]
            yield closure(gens, ctx)
        else:
            got = sample_subgroups(ctx, 1, rng)
            if got:
                yield got[0]


def _l25_check(p: int, trials: int, rng: random.Random) -> bool:
    ctx = make_ctx(p, 2)
    m = ctx.modulus
    g = primitive_root(p, 2)
    units = {(1 + p * t) % m for t in range(p)}
    one = identity(ctx)
    sl2_pool = sorted(enumerate_group(make_ctx(p, 1)).codes)
    dec1 = decoder(make_ctx(p, 1))
    dec = decoder(ctx)
    for _ in range(trials):
        gens: List[Mat] = [mat(g, 0, 0, 1, ctx)]
        for _ in range(rng.choice((0, 1, 1))):
            gens.append(_lift_to(dec1(sl2_pool[rng.randrange(len(sl2_pool))]), ctx))
        # H lies in GL2, not SL2: close its codes directly, no Subgroup
        h = [dec(c) for c in _closure_codes(gens, ctx, DEFAULT_MAX_ELEMENTS)]
        dets = {(x[0] * x[3] - x[1] * x[2]) % m for x in h}
        if len(dets) != (p - 1) * p:  # determinant image not full: hypothesis fails
            continue
        small = {
            (x[0] * x[3] - x[1] * x[2]) % m
            for x in h
            if reduce_mat(x, p) == reduce_mat(one, p)
        }
        if not units <= small:
            return False
    return True
