"""Subgroups of SL2(Z/p^nZ) by generators, with materialized closure.

Covers the standard level-one subgroups (Borel, split/nonsplit Cartan
normalizers, exceptional, the order-3 subgroup at p=2 and the maximal
mod-2-surjective subgroup of SL2(Z/4Z)), reduction preimages, the kernel
filtration H_s = H n K_s, slimness, exhaustive lattice enumeration at desk
scale and seeded random sampling.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import wraps
from operator import itemgetter
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

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
    decoder,
    encoder,
    factorize,
    identity,
    lower_u,
    make_ctx,
    mat,
    mat_pow,
    minus_one,
    parse_mat,
    primitive_root,
    product_codes,
    reduce_mat,
    reducer,
    right_mul,
    sigma,
    upper_u,
)
from .groups import ElementSet, _above_cap, _closure_codes, cached, capped_orbit, enumerate_group
from .groups import extend_closure

# -------------------- the subgroup value --------------------


class Subgroup:
    """A subgroup of SL2(Z/p^nZ) given by generators; the element set is built
    on demand (codes), never mutated afterwards, and until then order reads #H
    from the Schreier walk.  Non-empty gens generate H (from_codes may leave
    them empty); one with an entry outside [0, p^n) raises
    ContextMismatchError, and one of det != 1 raises PreconditionError.
    _reduced is the memo of what derives from H alone: the Subgroup H mod p^s under
    the key s (reduced; H_m at m the level; at n - 1 the lifts when _from_walk built H),
    #H under "order" and whether its walk found K_(n-1) <= H under "rank 3", and each value
    that kept(key) keeps (H_s per s, the level, class counts, genus_report and bounds' "filtration check")."""

    def __init__(
        self, ctx: GroupCtx, gens: Tuple[Mat, ...], cap: int = DEFAULT_MAX_ELEMENTS, _codes: Optional[FrozenSet] = None
    ) -> None:
        m = ctx.modulus
        for g in gens:
            _check_reduced(g, ctx)
            dt = (g[0] * g[3] - g[1] * g[2]) % m
            if dt != 1 % m:
                raise PreconditionError("generator %r has det %d != 1" % (g, dt))
        self.ctx, self.gens, self.cap, self._codes = ctx, gens, cap, _codes
        self._reduced: Dict = {}

    @classmethod
    def from_codes(
        cls,
        ctx: GroupCtx,
        codes: FrozenSet,
        gens: Tuple[Mat, ...] = (),
        cap: int = DEFAULT_MAX_ELEMENTS,
    ) -> "Subgroup":
        return cls(ctx, gens, cap, _codes=frozenset(codes))

    @classmethod
    def _from_walk(cls, ctx: GroupCtx, gens: Tuple[Mat, ...], lifts: List[Mat], basis: List[tuple]) -> "Subgroup":
        """H = <gens> from its Schreier walk of rank < 3 (n >= 2): the products t k of
        the lifts t and the k = 1 + p^(n-1) W, W in the span of basis, and H mod
        p^(n-1) as the lifts' residues, distinct by the walk's construction."""
        p, m, low = ctx.p, ctx.modulus, make_ctx(ctx.p, ctx.n - 1)
        q, span = low.modulus, [(0, 0, 0)]
        for d, e, f in basis:  # independent, so no vector is listed twice
            span = [((a + j * d) % p, (b + j * e) % p, (c + j * f) % p) for a, b, c in span for j in range(p)]
        kernel = [((1 + q * a) % m, q * b, q * c, (1 - q * a) % m) for a, b, c in span]
        h = cls.from_codes(ctx, product_codes(ctx, lifts, kernel), gens)
        residues = (reduce_mat(t, q) for t in lifts)
        h._reduced[ctx.n - 1] = cls.from_codes(low, map(encoder(low), residues), tuple(reduce_mat(g, q) for g in gens))
        return h

    def codes(self) -> FrozenSet:
        if self._codes is None:
            codes = _closure_codes(self.gens, self.ctx, self.cap)
            if len(codes) != self._reduced.get("order", len(codes)):
                raise ConsistencyError("closure of %d elements, Schreier walk %d" % (len(codes), self.order))
            if self.ctx.order % len(codes):  # Lagrange: #H divides #SL2, also when no walk read #H first
                raise ConsistencyError("closure of %d elements, not dividing #SL2 = %d" % (len(codes), self.ctx.order))
            self._codes = codes
        return self._codes

    @property
    def order(self) -> int:
        """#H.  Before codes, for gens at n >= 2: #lifts * p^rank from _schreier_walk,
        refused once #lifts passes cap, as the walk holds the lifts; or, once the
        walk finds three W (K_(n-1) <= H), reduced(n - 1).order * p^3, a number
        that no cap refuses until H is closed.  ConsistencyError unless the
        three W are independent mod p."""
        if self._codes is not None or not self.gens or self.ctx.n == 1:
            return len(self.codes())
        if "order" not in self._reduced:
            (lifts, basis), n, p = _schreier_walk(self.gens, self.ctx, self.cap), self.ctx.n, self.ctx.p
            if len(basis) < 3:
                got = len(lifts) * p ** len(basis)
            elif _in_span(basis[:2], basis[2], p):
                raise ConsistencyError("the Schreier walk claims K_%d <= H on W of rank < 3: %r" % (n - 1, basis))
            else:
                got = self.reduced(n - 1).order * p**3
            self._reduced["rank 3"] = len(basis) == 3  # K_(n-1) <= H, which _holds_kernel checks by orders
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

    def reduced(self, level: int) -> "Subgroup":
        """H mod p^level (level <= n), kept in the memo: reduced from H mod p^(n-1)
        once its codes are built (_from_walk builds them with H), else by H's reduced
        generators if it has any, else from H's reduced codes; H itself at level n."""
        got = self._reduced.get(level)
        if got is None:
            if level == self.ctx.n:
                return self
            if not 1 <= level < self.ctx.n:
                raise ReductionError("cannot reduce level %d subgroup to level %d" % (self.ctx.n, level))
            sub, top = make_ctx(self.ctx.p, level), self._reduced.get(self.ctx.n - 1)
            gens = tuple(reduce_mat(g, sub.modulus) for g in self.gens)
            if top is not None and top._codes is not None:
                codes = frozenset(map(reducer(top.ctx, level), top._codes))
            else:
                codes = None if gens else frozenset(map(reducer(self.ctx, level), self.codes()))
            got = self._reduced[level] = Subgroup(sub, gens, self.cap, codes)
        return got


def kept(key: str) -> Callable:
    """Decorator for a function f(h, *args) of H alone: its value is built on the
    first call and kept in h's memo under key, or (key, *args) when it takes
    args; a call that raises keeps nothing."""

    def decorate(f: Callable) -> Callable:
        @wraps(f)
        def read(h: Subgroup, *args):
            k = (key, *args) if args else key
            got = h._reduced.get(k)
            if got is None:
                got = h._reduced[k] = f(h, *args)
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
    so otherwise it is H u (-1)H.  An unmaterialized H of level m < n is decided
    by H_m = h.reduced(m); one of level n is compared by order with <gens, -1>,
    both from the Schreier walk (Subgroup.order), so H is not closed at level n;
    the result is that <gens, -1>, unmaterialized.  A walk or closure above the
    cap raises FeasibilityError, as H's own report would."""
    ctx, neg = h.ctx, minus_one(h.ctx)
    if h._codes is None:
        got = Subgroup(ctx, h.gens + (neg,), h.cap)
        low = h.reduced(level(h))
        if low is not h:  # K_m <= H, so -1 is in H exactly when -1 mod p^m is in H_m
            return h if minus_one(low.ctx) in low else got
        return h if h.order == got.order else got
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


def _generators(h: Subgroup) -> Tuple[Mat, ...]:
    """Generators picked from H's elements in code order: an element joins only
    when it lies outside the closure of those before it."""
    ctx, dec = h.ctx, decoder(h.ctx)
    gens: List[int] = []
    seen = frozenset([encoder(ctx)(identity(ctx))])
    for c in sorted(h.codes()):
        if c not in seen:
            seen = extend_closure(seen, gens, (c,), lambda g: right_mul(ctx, dec(g)), h.cap)
            gens.append(c)
    return tuple(map(dec, gens))


def preimage(h: Subgroup, dst: GroupCtx, cap: int = DEFAULT_MAX_ELEMENTS) -> Subgroup:
    """Full inverse image of H under the mod p^m reduction, order #H * p^(3(n-m)), by
    generators: the lifts of H's generators (of _generators(h) if it has none) and,
    for n > m, of 1 + p^m W for the basis W of K_m/K_(m+1), which generate K_m since
    its Frattini subgroup is K_(m+1) for every p and m >= 1 (Burnside's basis theorem)."""
    if dst.p != h.ctx.p:
        raise ReductionError("preimage between different primes")
    if dst.n < h.ctx.n:
        raise ReductionError("destination level %d below source level %d" % (dst.n, h.ctx.n))
    m, q = dst.modulus, h.ctx.modulus
    gens = list(h.gens or _generators(h))
    if dst.n > h.ctx.n:
        gens += [((1 + q) % m, 0, 0, (1 - q) % m), (1, q, 0, 1), (1, 0, q, 1)]
    got = Subgroup(dst, tuple(_sl2_lift_one(g, m) for g in gens), cap)
    want = h.order * dst.p ** (3 * (dst.n - h.ctx.n))
    if got.order != want:
        raise ConsistencyError("preimage of order %d, not #H p^(3(n-m)) = %d" % (got.order, want))
    return got


def _kernel_codes(ctx: GroupCtx, s: int, cap: int) -> FrozenSet:
    """K_s = ker(G -> G_s) as codes, the preimage of {1} mod p^s (so its order
    is checked), kept in the context's memo; refused above cap in closed form,
    p^(3(n-s)) codes, before it is built."""

    def build() -> FrozenSet:
        size, low = ctx.p ** (3 * (ctx.n - s)), make_ctx(ctx.p, s)
        if size > cap:
            raise _above_cap("K_%d modulo %d holds %d" % (s, ctx.modulus, size), cap)
        return preimage(Subgroup.from_codes(low, [encoder(low)(identity(low))]), ctx, cap).codes()

    return cached(ctx, ("kernel", s), build, cap)


@kept("H_s")
def filtration_level(h: Subgroup, s: int) -> Subgroup:
    """H_s = H n K_s, the kernel of reduction mod p^s restricted to H, one
    intersection with _kernel_codes kept in h's memo per s; ConsistencyError
    unless #H_s = #H / #(H mod p^s) (Lagrange)."""
    if not 1 <= s <= h.ctx.n:
        raise ValueError("filtration level s=%d outside 1..%d" % (s, h.ctx.n))
    codes = h.codes() & _kernel_codes(h.ctx, s, h.cap)
    if len(codes) * len(h.reduced(s).codes()) != h.order:
        raise ConsistencyError("H_%d of %d elements, not #H / #(H mod p^%d)" % (s, len(codes), s))
    return Subgroup.from_codes(h.ctx, codes, cap=h.cap)


def _holds_kernel(h: Subgroup, s: int) -> bool:
    """K_s = ker(G -> G_s) <= H, by orders: #H = #(H mod p^s) #(H n K_s) and
    #K_s = p^(3(n-s)), so K_s <= H exactly when #H = #(H mod p^s) p^(3(n-s)).
    A #H that p^(3(n-s)) does not divide decides it without reducing H.  At
    s = n - 1, ConsistencyError when the Schreier walk of #H found otherwise."""
    k = h.ctx.p ** (3 * (h.ctx.n - s))
    held = h.order % k == 0 and len(h.reduced(s).codes()) * k == h.order
    if s == h.ctx.n - 1 and h._reduced.get("rank 3", held) != held:
        raise ConsistencyError("K_%d <= H is %s by orders, not as the Schreier walk found" % (s, held))
    return held


@kept("level")
def level(h: Subgroup) -> int:
    """The level of H, the least s >= 1 with K_s <= H; n when no s < n has it, as K_n = {1}."""
    return next((s for s in range(1, h.ctx.n) if _holds_kernel(h, s)), h.ctx.n)


@kept("slim")
def is_slim(h: Subgroup) -> bool:
    """H does not contain K_(n-1) = (1 + p^(n-1) M2)^{det=1}; at n=1, H is proper; kept in h's memo."""
    if h.ctx.n == 1:
        return h.order != h.ctx.order
    return not _holds_kernel(h, h.ctx.n - 1)


# -------------------- standard subgroups --------------------


def _torus_extension(first: Callable[[GroupCtx], Mat], p: int, name: str, want: int, cap: int) -> Subgroup:
    """<first, diag(g, g^-1)> in SL2(Z/pZ), g a primitive root (first alone at
    p = 2); refused when want, its order, is above cap, and ConsistencyError
    unless its closure has want elements."""
    if want > cap:
        raise _above_cap("%s modulo %d holds %d" % (name, p, want), cap)
    ctx = make_ctx(p, 1)
    gens = [first(ctx)]
    if p > 2:
        g = primitive_root(p)
        gens.append(mat(g, 0, 0, pow(g, -1, p), ctx))
    got = closure(gens, ctx, cap=cap)
    if got.order != want:
        raise ConsistencyError("%s order %d != %d" % (name, got.order, want))
    return got


def borel(p: int, cap: int = DEFAULT_MAX_ELEMENTS) -> Subgroup:
    """Upper triangular matrices of SL2(Z/pZ), <u, diag(g, g^-1)>; order p(p-1)."""
    return _torus_extension(upper_u, p, "B", p * (p - 1), cap)


def split_cartan_normalizer(p: int, cap: int = DEFAULT_MAX_ELEMENTS) -> Subgroup:
    """Monomial matrices of SL2(Z/pZ), <sigma, diag(g, g^-1)>; order 2(p-1)."""
    return _torus_extension(sigma, p, "C", 2 * (p - 1), cap)


def nonsplit_cartan_normalizer(p: int, cap: int = DEFAULT_MAX_ELEMENTS) -> Subgroup:
    """Norm-one torus {(x y; ly x)} and its flip; order 2(p+1), with l the
    smallest positive quadratic non-residue mod p, refused above cap.  The
    torus is cyclic of order p + 1, so its generator is the first t, in (x, y)
    order, with no t^((p+1)/q) = 1 for a prime q | p + 1.
    """
    if p < 3:
        raise PreconditionError("nonsplit Cartan normalizer needs p >= 3")
    if 2 * (p + 1) > cap:
        raise _above_cap("D modulo %d holds %d" % (p, 2 * (p + 1)), cap)
    ctx = make_ctx(p, 1)
    lam = next(k for k in range(2, p) if pow(k, (p - 1) // 2, p) == p - 1)  # Euler's criterion
    one, qs = identity(ctx), factorize(p + 1)
    torus = (mat(x, y, lam * y, x, ctx) for x in range(p) for y in range(p) if (x * x - lam * y * y) % p == 1)
    torus_gen = next(t for t in torus if all(mat_pow(t, (p + 1) // q, ctx) != one for q in qs))  # it is cyclic
    flip = next(mat(x, y, -lam * y, -x, ctx) for x in range(p) for y in range(p) if (lam * y * y - x * x) % p == 1)
    got = closure([torus_gen, flip], ctx, cap=cap)
    if got.order != 2 * (p + 1):
        raise ConsistencyError("D order %d != 2(p+1)" % got.order)
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
        raise ConsistencyError("A1 order %d != 12" % got.order)
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


def _pgl_order(x: Mat, p: int) -> int:
    y = _pgl_canon(x, p)
    o = 1
    z = y
    while z != (1, 0, 0, 1):  # the identity's class, canonical as it stands
        z = _pgl_canon(_mul(z, y, p), p)
        o += 1
    return o


def exceptional_availability(p: int, iso: str) -> bool:
    if iso not in _EXC_PROFILE:  # the type is read before p, so an unknown one is named at every p
        raise ValueError("unknown exceptional type %r" % iso)
    # PGL2 has an A5 iff p = 0, +-1 mod 5, but at p = 5 its preimage has
    # order divisible by p, so no exceptional subgroup arises from it.
    return p >= 5 and (iso != "A5" or p % 5 in (1, 4))


def exceptional_subgroup(p: int, iso: str = "S4", seed: int = 0, cap: int = DEFAULT_MAX_ELEMENTS) -> Subgroup:
    """E = (preimage of an A4/S4/A5 in PGL2(F_p)) n SL2(F_p).

    The PGL2 subgroup is found by seeded random generator search: a pair whose
    closure passes #E is not it, and one that closes at #E is certified by its
    order statistics.
    """
    if not exceptional_availability(p, iso):
        if iso == "A5" and p == 5:
            raise PreconditionError("A5 preimage at p=5 has order divisible by 5")
        raise PreconditionError(
            "exceptional type %s unavailable at p=%d (E needs p >= 5, A5 p = +-1 mod 5)" % (iso, p)
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
            try:
                pg = extend_closure(
                    ((1, 0, 0, 1),), (), (a, b), lambda g: lambda x: _pgl_canon(_mul(x, g, p), p), want_order
                )
            except FeasibilityError:  # the pair closes past #E: not the group sought
                pass
            else:
                if len(pg) == want_order and dict(Counter(_pgl_order(x, p) for x in pg)) == want_stats:
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
    if len(keep) > cap:
        raise _above_cap("E modulo %d holds %d" % (p, len(keep)), cap)
    got = Subgroup.from_codes(ctx, keep, cap=cap)
    if got.order not in (24, 48, 120):
        raise ConsistencyError("exceptional pullback has order %d" % got.order)
    return got


def standard_subgroup(kind: str, p: int, seed: int = 0, cap: int = DEFAULT_MAX_ELEMENTS) -> Subgroup:
    """The named subgroups at their natural level (B/C/D/E/F at p, A1 at p^2), closed under cap."""
    if kind.startswith("E:"):
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
    cap, which refuses what the genus and count routes build: H at its level,
    its Schreier walks and the coset walk's table.
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
        return Subgroup(ctx, tuple(parse_mat(g, ctx) for g in spec[len("gens:") :].split("|")), cap)
    if spec == "full":
        return preimage(full_group(make_ctx(p, 1), cap), ctx, cap)
    natural = 2 if spec == "A1" else 1
    if n != natural:
        raise ValueError(
            "subgroup %r lives at level %d; use preimage:%s@%d for level %d" % (spec, natural, spec, natural, n)
        )
    return standard_subgroup(spec, p, seed=seed, cap=cap)


# -------------------- exhaustive lattice enumeration --------------------

EXHAUSTIVE_CAP = 3_000  # the k x k product table holds at most 9e6 entries


def all_subgroups(universe: ElementSet, conjugacy_gens: Sequence[Mat]) -> List[FrozenSet]:
    """Every subgroup of the (closed) universe, as code frozensets.

    Cyclic-extension search up to conjugacy: conjugacy_gens, elements of the
    universe, generate it.  Each subgroup is grown from a class representative
    by one prime-power cyclic subgroup at a time, extending the closed
    representative (groups.extend_closure), and recorded with its whole
    conjugacy orbit and with N(H), read from that orbit.  Since
    <H, Z^x> = <H, Z>^x for x in N(H), and orbits are recorded whole, H is
    extended by the first Z of each N(H)-conjugation orbit of the pool only,
    which skips exactly the candidates that would close to a subgroup seen
    already.  The product table is kept by columns, col[y][x] = x y, composed
    along a walk from the identity: col(x s) = col(s) o col(x).
    """
    ctx = universe.ctx
    if len(universe) > EXHAUSTIVE_CAP:
        raise FeasibilityError("exhaustive subgroup enumeration capped at %d elements" % EXHAUSTIVE_CAP)
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
                    col[j] = list(itemgetter(*col[i])(col[t]))
                    walk.append(j)

    # prime-power cyclic subgroups, as (frozenset, generator index), with every
    # element's inverse (its last power before the identity) and its generators
    prime_powers = {q**i for q, a in factorize(k).items() for i in range(1, a + 1)}  # every order divides k
    inv = [e] * k
    cyc: Dict[FrozenSet, List[int]] = {}
    for i in range(k):
        orbit = [e]
        j = i
        while j != e:
            orbit.append(j)
            j = col[i][j]
        inv[i] = orbit[-1]
        if len(orbit) in prime_powers:
            cyc.setdefault(frozenset(orbit), []).append(i)
    pool = sorted(((z, gs[0]) for z, gs in cyc.items()), key=lambda kv: (len(kv[0]), kv[1]))
    slot = {g: pos for pos, (z, _) in enumerate(pool) for g in cyc[z]}  # generator -> pool position

    def conj(g: int) -> Callable[[int], int]:  # x -> g^-1 x g; an orbit needs no inverse steps (see capped_orbit)
        cg, gi = col[g], inv[g]
        return lambda x: cg[col[x][gi]]

    xs = [index[enc(g)] for g in conjugacy_gens]
    perms = [(x, list(map(conj(x), range(k)))) for x in xs]
    right = lambda y: col[y].__getitem__  # the map x -> x y

    trivial, everything = frozenset([e]), frozenset(range(k))
    seen_all: Dict[FrozenSet, None] = {trivial: None}
    reps: List[Tuple[FrozenSet, Tuple[int, ...], Tuple[int, ...]]] = [(trivial, (), tuple(xs))]  # (H, its gens, N(H)'s)
    for h, hgens, ngens in reps:  # reps grows while it is walked
        done = set()  # pool positions of the Z^x, x in N(H), of each Z extended: <H, Z^x> = <H, Z>^x
        n_steps = [conj(g) for g in ngens]
        for pos, (_, cgen) in enumerate(pool):
            if cgen in h or pos in done:
                continue
            done.update(slot[y] for y in capped_orbit(cgen, n_steps, k))
            try:  # a subgroup of more than k/2 elements is the universe (Lagrange)
                knew = extend_closure(h, hgens, (cgen,), right, k // 2)
            except FeasibilityError:
                knew = everything
            if knew in seen_all:
                continue
            # record the full conjugacy orbit (at most [G : N(K)] <= k subgroups), walked with
            # x_t, K^(x_t) = t: each repeated edge t -> t^g = u gives x_t g x_u^-1 in N(K)
            # (Schreier's lemma); queue one representative with the generators of N(K)
            kgens, x_of, orbit, stab = hgens + (cgen,), {knew: e}, [knew], set()
            for t in orbit:  # orbit grows while it is walked
                for g, perm in perms:
                    u, xg = frozenset(map(perm.__getitem__, t)), col[g][x_of[t]]
                    if u in x_of:
                        stab.add(col[inv[x_of[u]]][xg])
                    else:
                        x_of[u] = xg
                        orbit.append(u)
            seen_all.update(dict.fromkeys(frozenset(set(orbit))))  # the order the lattice digests pin
            normalizer, ngens = knew, kgens
            for x in stab:  # keep only generators that enlarge it: each pool orbit steps by all kept
                if x not in normalizer:
                    normalizer, ngens = extend_closure(normalizer, ngens, (x,), right, k), ngens + (x,)
            if len(normalizer) * len(orbit) != k:
                raise ConsistencyError("N(K) of index other than its %d conjugates" % len(orbit))
            reps.append((knew, kgens, ngens))
    return [frozenset(map(codes.__getitem__, s)) for s in seen_all]


# -------------------- random sampling --------------------


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


def _lift_walk(gens: Sequence[Mat], m: int, q: int, lifts: List[Mat], cap: int) -> Iterator[Tuple[Mat, Mat]]:
    """Walk <gens> mod q breadth-first with products mod m, append the first lift t
    of each residue to lifts (empty at the start), and yield (z, adj t) for each
    product z that meets a known residue: z adj t = det t * z t^-1, and the z t^-1
    generate <gens> n (1 + q M2).  FeasibilityError once #lifts passes cap."""
    lifts.append((1, 0, 0, 1))
    adjugate = {(1 % q, 0, 0, 1 % q): lifts[0]}  # adj t of each lift, keyed by its residue
    for t0, t1, t2, t3 in lifts:  # lifts grows while it is walked
        for g0, g1, g2, g3 in gens:
            z0, z1 = (t0 * g0 + t1 * g2) % m, (t0 * g1 + t1 * g3) % m
            z2, z3 = (t2 * g0 + t3 * g2) % m, (t2 * g1 + t3 * g3) % m
            key = (z0 % q, z1 % q, z2 % q, z3 % q)
            a = adjugate.get(key)
            if a is None:
                adjugate[key] = (z3, -z1 % m, -z2 % m, z0)
                lifts.append((z0, z1, z2, z3))
                if len(lifts) > cap:
                    raise _above_cap("the lift walk modulo %d passed %d" % (m, cap), cap)
            else:
                yield (z0, z1, z2, z3), a


def _schreier_walk(gens: Sequence[Mat], ctx: GroupCtx, cap: int) -> Tuple[List[Mat], List[tuple]]:
    """Schreier's lemma along the last reduction (n >= 2): each pair (z, adj t) of the
    lift walk of H = <gens> mod p^(n-1) gives z t^-1 = 1 + p^(n-1) W in H n K_(n-1),
    F_p^3 through (W00, W01, W10), with W11 = -W00 mod p, for p = 2 as well.  Below
    rank 3, H is the products t k of the lifts and the span of the W, #H = #lifts *
    p^rank.  Returns (lifts, basis), the independent W found (_in_span); the walk
    stops at a third (K_(n-1) <= H; its lifts partial).  Once #lifts, what it
    holds, passes cap (then #H > cap), the lift walk's FeasibilityError passes through."""
    p, m = ctx.p, ctx.modulus
    q = m // p
    lifts: List[Mat] = []
    basis: List[Tuple[int, int, int]] = []  # independent W in F_p^3, at most two here
    for (z0, z1, z2, z3), (i0, i1, i2, i3) in _lift_walk(gens, m, q, lifts, cap):
        w = ((z0 * i0 + z1 * i2) % m // q, (z0 * i1 + z1 * i3) % m // q, (z2 * i0 + z3 * i2) % m // q)
        if not _in_span(basis, w, p):
            basis.append(w)
            if len(basis) == 3:
                return lifts, basis  # K_(n-1) <= H
    return lifts, basis


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


def sample_slim_subgroups(
    ctx: GroupCtx,
    count: int,
    rng: random.Random,
    mod_p_target: Optional[Subgroup] = None,
) -> List[Subgroup]:
    """Seeded rejection sampling of slim subgroups (n >= 2), optionally with
    the mod-p image inside a given level-one subgroup.

    Each candidate is walked by _schreier_walk at layer 1 (H mod p, products mod
    p^2), then, for n > 2 and rank < 3 there, mod p^(n-1) (a full first layer forces a
    full top layer), and rejected at rank 3 (K_(n-1) <= H) or once its lifts pass the
    slim cap, #target p^(2(n-1)) (twice that at p = 2), above every slim H (README,
    "Each fact is checked once").  One that a kept H of its order #lifts * p^rank
    holds is that H (Lagrange), dropped unbuilt; a new one is built from its walk.
    """
    if ctx.n < 2:
        raise PreconditionError("slim sampling needs level n >= 2")
    level1_pool = sorted((mod_p_target if mod_p_target is not None else full_group(make_ctx(ctx.p, 1))).mats())
    slim_cap, p = _slim_cap(ctx, len(level1_pool)), ctx.p
    out: List[Subgroup] = []
    for _ in range(120 * count):
        if len(out) >= count:
            break
        gens = _slim_candidate(ctx, level1_pool, rng)
        try:  # #lifts above the slim cap: not slim; rank 3 at layer 1 is rank 3 at n - 1 (README)
            lifts, basis = _schreier_walk([reduce_mat(g, p * p) for g in gens], make_ctx(p, 2), slim_cap)
            if ctx.n > 2 and len(basis) < 3:
                lifts, basis = _schreier_walk(gens, ctx, slim_cap)
        except FeasibilityError:
            continue
        order = len(lifts) * p ** len(basis)
        if len(basis) == 3 or any(h.order == order and all(g in h for g in gens) for h in out):
            continue
        h = Subgroup._from_walk(ctx, tuple(gens), lifts, basis)
        if mod_p_target is not None and not h.reduced(1).codes() <= mod_p_target.codes():
            raise ConsistencyError("a candidate lifted from the target leaves it mod %d" % ctx.p)
        out.append(h)
    return out
