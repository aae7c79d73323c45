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
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from .core import (
    DEFAULT_MAX_ELEMENTS,
    ConsistencyError,
    FeasibilityError,
    GroupCtx,
    Mat,
    NotInvertibleError,
    PreconditionError,
    ReductionError,
    _inv,
    _mul,
    decoder,
    element_order,
    encoder,
    factorize,
    identity,
    lower_u,
    make_ctx,
    mat,
    minus_one,
    neg,
    parse_mat,
    primitive_root,
    reduce_mat,
    sigma,
    upper_u,
)
from .groups import ElementSet, _closure_codes, cached, capped_orbit, enumerate_group, extend_closure

# -------------------- the subgroup value --------------------


@dataclass(eq=False)
class Subgroup:
    """A subgroup given by generators; the element set is materialized lazily
    and never mutated afterwards.  Non-empty gens generate H (from_codes may
    leave them empty).  _reduced is the memo of what derives from H alone:
    H mod p^s under the key s, H_s under ("H_s", s), the level under "level"."""

    ctx: GroupCtx
    gens: Tuple[Mat, ...]
    ambient: str = "SL2"
    cap: int = DEFAULT_MAX_ELEMENTS
    _codes: Optional[FrozenSet] = field(default=None, repr=False)
    _reduced: Dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_codes(
        cls,
        ctx: GroupCtx,
        codes: FrozenSet,
        ambient: str = "SL2",
        gens: Tuple[Mat, ...] = (),
        cap: int = DEFAULT_MAX_ELEMENTS,
    ) -> "Subgroup":
        return cls(ctx, gens, ambient, cap, _codes=frozenset(codes))

    def codes(self) -> FrozenSet:
        if self._codes is None:
            self._codes = _closure_codes(self.gens, self.ctx, self.cap)
        return self._codes

    @property
    def order(self) -> int:
        return len(self.codes())

    def __contains__(self, x: Mat) -> bool:
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
            sub = make_ctx(self.ctx.p, level)
            dec, enc, m = decoder(self.ctx), encoder(sub), sub.modulus
            if self.gens:
                got = _closure_codes([reduce_mat(g, m) for g in self.gens], sub, self.cap)
            else:
                got = frozenset(enc(reduce_mat(dec(c), m)) for c in self.codes())
            self._reduced[level] = got
        return got

    def conjugate(self, g: Mat) -> "Subgroup":
        m = self.ctx.modulus
        gi = _inv(g, m)
        enc = encoder(self.ctx)
        dec = decoder(self.ctx)
        codes = frozenset(enc(_mul(gi, _mul(dec(c), g, m), m)) for c in self.codes())
        return Subgroup.from_codes(self.ctx, codes, self.ambient, cap=self.cap)


def closure(
    gens: Sequence[Mat],
    ctx: GroupCtx,
    ambient: str = "SL2",
    cap: int = DEFAULT_MAX_ELEMENTS,
) -> Subgroup:
    """Smallest subgroup containing the generators (breadth-first closure)."""
    m = ctx.modulus
    for g in gens:
        dt = (g[0] * g[3] - g[1] * g[2]) % m
        if ambient == "SL2":
            if dt != 1 % m:
                raise PreconditionError("generator %r has det %d != 1" % (g, dt))
        else:
            from math import gcd

            if gcd(dt, m) != 1:
                raise NotInvertibleError("generator %r has non-unit det %d" % (g, dt))
    s = Subgroup(ctx, tuple(gens), ambient, cap)
    s.codes()
    return s


def full_group(ctx: GroupCtx, cap: int = DEFAULT_MAX_ELEMENTS) -> Subgroup:
    es = enumerate_group(ctx, cap)
    return Subgroup.from_codes(ctx, es.codes, "SL2", gens=(upper_u(ctx), lower_u(ctx)), cap=cap)


def adjoin_minus_one(h: Subgroup) -> Subgroup:
    """<H, -1>; -1 is a central involution, so this is H u (-1)H, or H's own code set if -1 is in H."""
    ctx = h.ctx
    enc = encoder(ctx)
    dec = decoder(ctx)
    codes = h.codes()
    if enc(minus_one(ctx)) not in codes:
        codes = set(codes)  # frozen once, the table fits H u -H; a union H | -H sizes it for both
        codes.update(enc(neg(dec(c), ctx)) for c in h.codes())
    return Subgroup.from_codes(ctx, codes, h.ambient, h.gens + (minus_one(ctx),) if h.gens else (), h.cap)


# -------------------- reduction preimage and filtration --------------------


def _sl2_lift_one(x: Mat, dst_modulus: int) -> Mat:
    """Lift x to an SL2 element mod dst_modulus congruent to x (column rescale)."""
    a, b, c, d = x
    dt = (a * d - b * c) % dst_modulus
    di = pow(dt, -1, dst_modulus)
    return (a * di % dst_modulus, b, c * di % dst_modulus, d)


def _kernel_step(ctx_next: GroupCtx) -> List[Mat]:
    """Kernel of SL2(Z/p^(m+1)Z) -> SL2(Z/p^mZ): {1 + p^m W | tr W = 0 mod p}."""
    p = ctx_next.p
    q = ctx_next.modulus // p  # p^m
    m = ctx_next.modulus
    out = []
    for a in range(p):
        for b in range(p):
            for c in range(p):
                d = (-a) % p
                out.append(((1 + q * a) % m, q * b % m, q * c % m, (1 + q * d) % m))
    return out


def preimage(h: Subgroup, dst: GroupCtx, cap: int = DEFAULT_MAX_ELEMENTS) -> Subgroup:
    """Full inverse image of H under the mod p^m reduction; order #H * p^(3(n-m))."""
    if h.ambient != "SL2":
        raise PreconditionError("preimage is implemented for SL2 subgroups only")
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
            raise FeasibilityError(
                "preimage would hold %d elements, above the cap of %d"
                % (len(codes) * ctx.p**3, cap)
            )
        kern = _kernel_step(nxt)
        dec = decoder(ctx)
        enc = encoder(nxt)
        m = nxt.modulus
        out = set()
        for c in codes:
            lift = _sl2_lift_one(dec(c), m)
            for k in kern:
                out.add(enc(_mul(lift, k, m)))
        codes = frozenset(out)
        ctx = nxt
    got = Subgroup.from_codes(dst, codes, "SL2", cap=cap)
    if got.order != start_order * dst.p ** (3 * (dst.n - h.ctx.n)):
        raise ConsistencyError("preimage order mismatch")  # pragma: no cover
    return got


def filtration_level(h: Subgroup, s: int) -> Subgroup:
    """H_s = H n (1 + p^s M2), the kernel of reduction mod p^s restricted to H;
    built once per (H, s) and kept in h's memo."""
    n = h.ctx.n
    if not 1 <= s <= n:
        raise ValueError("filtration level s=%d outside 1..%d" % (s, n))
    got = h._reduced.get(("H_s", s))
    if got is None:
        q = h.ctx.p**s
        dec = decoder(h.ctx)
        one = reduce_mat(identity(h.ctx), q)
        keep = frozenset(c for c in h.codes() if reduce_mat(dec(c), q) == one)
        got = h._reduced[("H_s", s)] = Subgroup.from_codes(h.ctx, keep, h.ambient, cap=h.cap)
    return got


def last_kernel_codes(ctx: GroupCtx) -> FrozenSet:
    """(1 + p^(n-1) M2)^{det=1}, the p^3-element kernel of the last reduction, in the context memo."""
    if ctx.n < 2:
        raise PreconditionError("last kernel needs level n >= 2")
    enc = encoder(ctx)
    return cached(ctx, "K_last", lambda: frozenset(enc(k) for k in _kernel_step(ctx)), ctx.order)


def is_slim(h: Subgroup) -> bool:
    """H does not contain (1 + p^(n-1) M2)^{det=1}; at n=1, H is proper."""
    if h.ambient != "SL2":
        raise PreconditionError("slimness is defined for SL2 subgroups")
    if h.ctx.n == 1:
        return h.order != h.ctx.order
    return not last_kernel_codes(h.ctx) <= h.codes()


# -------------------- standard subgroups --------------------


def smallest_nonresidue(p: int) -> int:
    if p == 2:
        raise PreconditionError("no quadratic non-residue mod 2")
    for k in range(2, p):
        if pow(k, (p - 1) // 2, p) == p - 1:
            return k
    raise RuntimeError("no non-residue mod %d" % p)  # pragma: no cover


def borel(p: int) -> Subgroup:
    """Upper triangular matrices of SL2(Z/pZ); order p(p-1)."""
    ctx = make_ctx(p, 1)
    gens = [upper_u(ctx)]
    if p > 2:
        g = primitive_root(p)
        gens.append(mat(g, 0, 0, pow(g, -1, p), ctx))
    got = closure(gens, ctx)
    if got.order != p * (p - 1):
        raise ConsistencyError("Borel order %d != p(p-1)" % got.order)  # pragma: no cover
    return got


def split_cartan_normalizer(p: int) -> Subgroup:
    """Monomial matrices of SL2(Z/pZ); order 2(p-1)."""
    ctx = make_ctx(p, 1)
    gens = [sigma(ctx)]
    if p > 2:
        g = primitive_root(p)
        gens.append(mat(g, 0, 0, pow(g, -1, p), ctx))
    got = closure(gens, ctx)
    if got.order != 2 * (p - 1):
        raise ConsistencyError("C order %d != 2(p-1)" % got.order)  # pragma: no cover
    return got


def nonsplit_cartan_normalizer(p: int) -> Subgroup:
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
    got = closure([torus_gen, flip], ctx)
    if got.order != 2 * (p + 1):
        raise ConsistencyError("D order %d != 2(p+1)" % got.order)  # pragma: no cover
    return got


def order_three_subgroup() -> Subgroup:
    """F = the subgroup of order 3 of SL2(Z/2Z)."""
    ctx = make_ctx(2, 1)
    return closure([mat(1, 1, 1, 0, ctx)], ctx)


def a1_subgroup() -> Subgroup:
    """The maximal mod-2-surjective proper subgroup <sigma, (1 1; 2 -1)> of SL2(Z/4Z)."""
    ctx = make_ctx(2, 2)
    got = closure([sigma(ctx), mat(1, 1, 2, -1, ctx)], ctx)
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
        return extend_closure(((1, 0, 0, 1),), (), gens, lambda x, g: _pgl_canon(_mul(x, g, p), p), None, None, cap)
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


def exceptional_subgroup(p: int, iso: str = "S4", seed: int = 0) -> Subgroup:
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
                    return _pullback_to_sl2(pg, p)
        x = (rng.randrange(p), rng.randrange(p), rng.randrange(p), rng.randrange(p))
        if (x[0] * x[3] - x[1] * x[2]) % p == 0:
            continue
        o = _pgl_order(x, p)
        if o == 2:
            invol.append(_pgl_canon(x, p))
        elif o == seek:
            other.append(_pgl_canon(x, p))
    raise RuntimeError("exceptional %s search failed at p=%d (seed %d)" % (iso, p, seed))


def _pullback_to_sl2(pgl_codes: FrozenSet, p: int) -> Subgroup:
    ctx = make_ctx(p, 1)
    dec = decoder(ctx)
    keep = frozenset(
        c for c in enumerate_group(ctx).codes if _pgl_canon(dec(c), p) in pgl_codes
    )
    got = Subgroup.from_codes(ctx, keep)
    if got.order not in (24, 48, 120):
        raise ConsistencyError("exceptional pullback has order %d" % got.order)  # pragma: no cover
    return got


def standard_subgroup(kind: str, p: int, seed: int = 0) -> Subgroup:
    """The named subgroups at their natural level (B/C/D/E/F at p, A1 at p^2)."""
    if kind.startswith("E:"):
        if p < 5:
            raise PreconditionError("exceptional subgroups need p >= 5")
        return exceptional_subgroup(p, kind[2:], seed=seed)
    if kind == "B":
        return borel(p)
    if kind == "C":
        return split_cartan_normalizer(p)
    if kind == "D":
        return nonsplit_cartan_normalizer(p)
    if kind == "F":
        if p != 2:
            raise PreconditionError("F is a subgroup of SL2(Z/2Z)")
        return order_three_subgroup()
    if kind == "A1":
        if p != 2:
            raise PreconditionError("A1 is a subgroup of SL2(Z/4Z)")
        return a1_subgroup()
    if kind == "full":
        return full_group(make_ctx(p, 1))
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
        h = preimage(parse_subgroup_spec(inner, p, src_level, seed=seed, cap=cap), ctx, cap=cap)
    elif spec.startswith("gens:"):
        h = closure([parse_mat(g, ctx) for g in spec[len("gens:") :].split("|")], ctx, cap=cap)
    elif spec == "full":
        h = full_group(ctx, cap=cap)
    else:
        natural = 2 if spec == "A1" else 1
        if n != natural:
            raise ValueError(
                "subgroup %r lives at level %d; use preimage:%s@%d for level %d"
                % (spec, natural, spec, natural, n)
            )
        h = standard_subgroup(spec, p, seed=seed)
    h.cap = cap
    return h


# -------------------- exhaustive lattice enumeration --------------------

EXHAUSTIVE_CAP = 10_000


def all_subgroups(
    universe: ElementSet,
    conjugacy_gens: Optional[Sequence[Mat]] = None,
) -> List[FrozenSet]:
    """Every subgroup of the (closed) universe, as code frozensets.

    Cyclic-extension search: each subgroup is grown from a class
    representative by one prime-power cyclic subgroup at a time, extending the
    closed representative (groups.extend_closure); when conjugacy_gens generate
    the universe, only class representatives are extended and orbits are
    expanded afterwards.  The product table composes rows along a walk from the
    identity, row(s x) = row(s) o row(x).
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
    if k * k <= 9_000_000:
        table: List[Optional[List[int]]] = [None] * k
        table[e], walk, steps = list(range(k)), [e], []
        while len(walk) < k:
            s = table.index(None)  # the next step of the walk, whose row takes direct products
            table[s] = [index[enc(_mul(mats[s], y, m))] for y in mats]
            walk.append(s)
            steps.append(s)
            for i in walk:  # walk grows while it is walked
                for t in steps:
                    j = table[t][i]
                    if table[j] is None:
                        table[j] = [table[t][c] for c in table[i]]
                        walk.append(j)

        def mul(i: int, j: int) -> int:
            return table[i][j]

    else:  # pragma: no cover - only for unusually large universes
        def mul(i: int, j: int) -> int:
            return index[enc(_mul(mats[i], mats[j], m))]

    # prime-power cyclic subgroups, as (frozenset, generator index)
    cyc: Dict[FrozenSet, int] = {}
    for i in range(k):
        orbit = [e]
        j = i
        while j != e:
            orbit.append(j)
            j = mul(j, i)
        if len(factorize(len(orbit))) == 1:  # prime power order
            cyc.setdefault(frozenset(orbit), i)
    pool = sorted(cyc.items(), key=lambda kv: (len(kv[0]), kv[1]))

    # x -> g^-1 x g on indices; an orbit needs no inverse steps (see capped_orbit)
    conj_perm = [[index[enc(_mul(_inv(g, m), _mul(x, g, m), m))] for x in mats] for g in conjugacy_gens or ()]

    def conjugate(s: FrozenSet, perm: List[int]) -> FrozenSet:
        return frozenset(perm[x] for x in s)

    trivial = frozenset([e])
    seen_all: Dict[FrozenSet, None] = {trivial: None}
    reps: List[Tuple[FrozenSet, Tuple[int, ...]]] = [(trivial, ())]
    for h, hgens in reps:  # reps grows while it is walked
        for _, cgen in pool:
            if cgen in h:
                continue
            knew = extend_closure(h, hgens, (cgen,), mul, None, None, k)
            if knew in seen_all:
                continue
            # record the full conjugacy orbit (at most [G : N(H)] <= k subgroups),
            # queue one representative
            for t in capped_orbit(knew, conj_perm, conjugate, None, k):
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
        if n > 1 and rng.random() < 0.5:
            x = _mul(x, _random_kernel_element(ctx, rng.randrange(1, n), rng), ctx.modulus)
        gens.append(x)
    if n > 1 and rng.random() < 0.5:
        # kernel elements from upper layers keep the closure slim more often
        gens.append(_random_kernel_element(ctx, rng.randrange((n + 1) // 2, n), rng))
    return gens


def _certified_not_slim(gens: Sequence[Mat], ctx: GroupCtx, cap: int) -> bool:
    """True only if H = <gens> (n >= 2) contains the last kernel K_(n-1) or
    holds more than cap elements; H itself is never closed.

    Schreier's lemma along the last reduction: walk H mod p^(n-1)
    breadth-first with level-n products and keep the first lift t of each
    reduced element.  A product z reaching that element again gives
    z t^-1 = 1 + p^(n-1) W in H n K_(n-1), and K_(n-1) is F_p^3 through
    (W00, W01, W10), for p = 2 as well.  Rank 3 means K_(n-1) <= H; more than
    cap reduced elements means #H > cap, since #H >= #(H mod p^(n-1)).
    """
    p, m = ctx.p, ctx.modulus
    q = m // p
    one = identity(ctx)
    inverse_lift = {reduce_mat(one, q): one}  # inverse of the first lift, by reduction
    span = {(0, 0, 0)}  # the span in F_p^3 of the W seen so far, of rank at most 2 here
    frontier = [one]
    while frontier:
        nxt = []
        for t in frontier:
            for g in gens:
                z = _mul(t, g, m)
                key = reduce_mat(z, q)
                ti = inverse_lift.get(key)
                if ti is None:
                    inverse_lift[key] = (z[3], -z[1] % m, -z[2] % m, z[0])
                    if len(inverse_lift) > cap:
                        return True
                    nxt.append(z)
                    continue
                k = _mul(z, ti, m)
                w = ((k[0] - 1) // q, k[1] // q, k[2] // q)
                if w not in span:
                    if len(span) == p * p:
                        return True  # a third independent W
                    span = {tuple((a + j * b) % p for a, b in zip(v, w)) for v in span for j in range(p)}
        frontier = nxt
    return False


def sample_slim_subgroups(
    ctx: GroupCtx,
    count: int,
    rng: random.Random,
    mod_p_target: Optional[Subgroup] = None,
) -> List[Subgroup]:
    """Seeded rejection sampling of slim subgroups, optionally with the mod-p
    image inside a given level-one subgroup.

    A slim subgroup has #H_1 <= p^(2(n-1)) (one extra factor p at p=2), so a
    candidate above #target * that bound (the slim cap) is certainly not slim.
    At n >= 2, _certified_not_slim first rejects, unclosed, each candidate that
    contains the last kernel or has more than slim-cap elements mod p^(n-1).
    It draws nothing from rng and rejects only what the closure under the slim
    cap or is_slim would reject, so it leaves the sample unchanged; the other
    candidates are closed and checked.
    """
    level1_pool = sorted((mod_p_target if mod_p_target is not None else full_group(make_ctx(ctx.p, 1))).mats())
    slim_cap = _slim_cap(ctx, len(level1_pool))
    out: List[Subgroup] = []
    seen: set = set()
    for _ in range(120 * count):
        if len(out) >= count:
            break
        gens = _slim_candidate(ctx, level1_pool, rng)
        if ctx.n > 1 and _certified_not_slim(gens, ctx, slim_cap):
            continue
        try:
            h = closure(gens, ctx, cap=slim_cap)
        except FeasibilityError:
            continue
        if not is_slim(h):
            continue
        if mod_p_target is not None and not h.reduced_codes(1) <= mod_p_target.codes():
            continue
        key = h.codes()
        if key not in seen:
            seen.add(key)
            h.cap = DEFAULT_MAX_ELEMENTS  # slim_cap bounds the closure, not what H is used for
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
    for _ in range(trials):
        gens: List[Mat] = [mat(g, 0, 0, 1, ctx)]
        for _ in range(rng.choice((0, 1, 1))):
            gens.append(_lift_to(dec1(sl2_pool[rng.randrange(len(sl2_pool))]), ctx))
        h = closure(gens, ctx, ambient="GL2")
        dets = {(x[0] * x[3] - x[1] * x[2]) % m for x in h.mats()}
        if len(dets) != (p - 1) * p:  # determinant image not full: hypothesis fails
            continue
        small = {
            (x[0] * x[3] - x[1] * x[2]) % m
            for x in h.mats()
            if reduce_mat(x, p) == reduce_mat(one, p)
        }
        if not units <= small:
            return False
    return True
