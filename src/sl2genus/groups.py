"""Enumeration of SL2(Z/p^nZ), conjugacy classes and centralizers.

Element sets store packed codes (see core.encoder), and every kernel here
walks codes through the maps of core (x -> x s, x -> g^-1 x g).  Subgroups
close through extend_closure, the one right-coset walk (the genus check
walks double cosets, in genus).  Orbits go through capped_orbit
(the Schreier walk of subgroups keeps a lift per key, so it stays its own
loop); conjugacy classes are expanded by conjugating with u, t(u) only,
which keeps memory at O(#class) instead of O(#group).  Every set derived
from a context alone is stored once, in its memo, through cached."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Collection, FrozenSet, Hashable, Iterable, List, Sequence

from .core import (
    DEFAULT_MAX_ELEMENTS,
    ConsistencyError,
    FeasibilityError,
    GroupCtx,
    Mat,
    PreconditionError,
    _check_reduced,
    conjugator,
    decoder,
    encoder,
    identity,
    lower_u,
    mat_pow,
    right_mul,
    sigma,
    tau,
    upper_u,
)


@dataclass(frozen=True)
class ElementSet:
    """A set of group elements bound to a context, stored as packed codes."""

    ctx: GroupCtx
    codes: FrozenSet

    def __len__(self) -> int:
        return len(self.codes)

    def __contains__(self, x: Mat) -> bool:
        _check_reduced(x, self.ctx)
        return encoder(self.ctx)(x) in self.codes


def capped_orbit(start, steps: Sequence[Callable], cap: int) -> FrozenSet:
    """Everything reached from start by repeated steps, each a map x -> y (the
    form extend_closure takes).

    Breadth-first; raises FeasibilityError as soon as more than cap values are
    seen.  For a closure or a conjugation orbit in a finite group the steps
    need no inverses: the monoid a set generates is the group it generates.
    """
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for step in steps:
                z = step(x)
                if z not in seen:
                    seen.add(z)
                    if len(seen) > cap:
                        raise _over_cap(cap)
                    nxt.append(z)
        frontier = nxt
    return frozenset(seen)


def _over_cap(cap: int) -> FeasibilityError:
    return FeasibilityError("orbit exceeded the cap of %d elements; raise --max-elements or SL2_MAX_ELEMENTS" % cap)


def extend_closure(known: Iterable, gens: Sequence, new: Iterable, right: Callable, cap: int) -> FrozenSet:
    """<H, new>, where known holds a closed group H that gens generate.  Each new
    generator g outside the group so far extends it coset by coset (Dimino's
    order; Butler, LNCS 559, 1991), stepping by every generator so far, g
    included: right(s) is the map x -> x s, which maps H r onto H r s, so a step
    is tested on a coset's first member and maps the coset whole when that
    image is new.  A coset is dropped once every step has mapped it.  Raises
    FeasibilityError once more than cap elements are seen."""
    seen = set(known)
    steps = [right(s) for s in gens]
    for g in new:
        if g not in seen:
            steps.append(right(g))
            pending = deque([list(seen)])
            while pending:
                members = pending.popleft()
                for step in steps:
                    if step(members[0]) not in seen:
                        coset = list(map(step, members))
                        seen.update(coset)
                        if len(seen) > cap:
                            raise _over_cap(cap)
                        pending.append(coset)
    return frozenset(seen)


def cached(ctx: GroupCtx, key: Hashable, build: Callable[[], Collection], cap: int) -> Collection:
    """ctx.memo[key], built by build() on the first call.

    Every call checks the stored collection against cap, so an entry built
    under a higher cap still raises FeasibilityError under a lower one."""
    got = ctx.memo.get(key)
    if got is None:
        got = ctx.memo[key] = build()
    if len(got) > cap:
        raise _above_cap("%r modulo %d holds %d" % (key, ctx.modulus, len(got)), cap)
    return got


def _above_cap(held: str, cap: int) -> FeasibilityError:
    return FeasibilityError("%s elements, above the cap of %d; raise --max-elements or SL2_MAX_ELEMENTS" % (held, cap))


def _closure_codes(gens: Iterable[Mat], ctx: GroupCtx, cap: int) -> FrozenSet:
    enc = encoder(ctx)
    by_code = {enc(g): g for g in gens}
    return extend_closure((enc(identity(ctx)),), (), by_code, lambda c: right_mul(ctx, by_code[c]), cap)


def enumerate_group(ctx: GroupCtx, cap: int = DEFAULT_MAX_ELEMENTS) -> ElementSet:
    """Materialize SL2(Z/p^nZ) as the closure of <u, t(u)>, once per context.

    The order is checked against cap before the closure runs, which would
    otherwise hold cap elements before it failed."""
    check_order(ctx, cap)
    return ElementSet(ctx, cached(ctx, "G", lambda: _group_closure(ctx), cap))


def check_order(ctx: GroupCtx, cap: int) -> None:
    """Raise FeasibilityError when SL2(Z/p^nZ) holds more than cap elements."""
    if ctx.order > cap:
        raise _above_cap("SL2(Z/%d^%dZ) has %d" % (ctx.p, ctx.n, ctx.order), cap)


def _group_closure(ctx: GroupCtx) -> FrozenSet:
    codes = _closure_codes((upper_u(ctx), lower_u(ctx)), ctx, ctx.order)
    if len(codes) != ctx.order:
        raise ConsistencyError("closure of <u, t(u)> missed elements")  # pragma: no cover
    return codes


# -------------------- conjugacy class references --------------------

_KINDS = ("sigma", "tau", "u_power")


@dataclass(frozen=True)
class ConjClassRef:
    """A named conjugacy class bound to a context.

    ``u_power`` with exponent r refers to Conj(u^(p^r)); the class is
    nontrivial only while r + 1 <= n.  ``sigma`` and ``tau`` take r = 0.
    """

    ctx: GroupCtx
    kind: str
    r: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError("unknown class kind %r" % (self.kind,))
        if self.kind in ("sigma", "tau") and self.r != 0:
            raise PreconditionError("%s takes no exponent r, got r=%d" % (self.kind, self.r))
        if self.kind == "u_power" and not 0 <= self.r < self.ctx.n:
            raise PreconditionError("u_power(%d) is trivial modulo %d^%d" % (self.r, self.ctx.p, self.ctx.n))

    def representative(self) -> Mat:
        ctx = self.ctx
        if self.kind == "sigma":
            return sigma(ctx)
        if self.kind == "tau":
            return tau(ctx)
        return mat_pow(upper_u(ctx), ctx.p**self.r, ctx)


def u_power_ref(ctx: GroupCtx, r: int = 0) -> ConjClassRef:
    return ConjClassRef(ctx, "u_power", r=r)


# -------------------- closed-form class and centralizer sizes --------------------


def conj_class_size_formula(ref: ConjClassRef) -> int:
    """Closed-form #Conj for the sigma/tau/u^(p^r) families."""
    p, n = ref.ctx.p, ref.ctx.n
    if ref.kind == "sigma":
        if p == 2:
            return 3 if n == 1 else 3 * 2 ** (2 * n - 3)
        if p % 4 == 3:
            return (p - 1) * p ** (2 * n - 1)
        return (p + 1) * p ** (2 * n - 1)
    if ref.kind == "tau":
        if p == 3:
            return 4 * 3 ** (2 * n - 2)
        if p % 3 == 2:
            return (p - 1) * p ** (2 * n - 1)
        return (p + 1) * p ** (2 * n - 1)
    k = n - ref.r  # u^(p^r) sits in SL2(Z/p^(r+k)Z) with k >= 1
    if p >= 3:
        return (p * p - 1) // 2 * p ** (2 * k - 2)
    if k == 1:
        return 3
    if k == 2:
        return 6
    return 3 * 2 ** (2 * k - 4)


def centralizer_order_formula(ref: ConjClassRef) -> int:
    """Closed-form #Z(alpha) for sigma, tau and u (r = 0)."""
    p, n = ref.ctx.p, ref.ctx.n
    if ref.kind == "sigma":
        if p == 2:
            return 2 if n == 1 else 2 ** (n + 1)
        if p % 4 == 3:
            return (p + 1) * p ** (n - 1)
        return (p - 1) * p ** (n - 1)
    if ref.kind == "tau":
        if p == 3:
            return 2 * 3**n
        if p % 3 == 2:
            return (p + 1) * p ** (n - 1)
        return (p - 1) * p ** (n - 1)
    if ref.kind == "u_power" and ref.r == 0:
        if p >= 3:
            return 2 * p**n
        if n == 1:
            return 2
        if n == 2:
            return 8
        return 2 ** (n + 2)
    raise PreconditionError("no closed-form centralizer for kind %r; use brute force" % ref.kind)


# -------------------- brute-force orbits --------------------


def conj_class_brute(rep: Mat, ctx: GroupCtx, cap: int = DEFAULT_MAX_ELEMENTS) -> ElementSet:
    """The SL2 class of rep, {g^-1 rep g : g in SL2(Z/p^nZ)}, by breadth-first
    conjugation of codes with u and t(u), which generate SL2.  A GL2 class is
    the union over units e of the SL2 classes of d^-1 rep d with d = diag(e, 1).
    An entry of rep outside [0, p^n) raises ContextMismatchError."""
    _check_reduced(rep, ctx)
    m = ctx.modulus
    dt = (rep[0] * rep[3] - rep[1] * rep[2]) % m
    if dt != 1 % m:
        raise PreconditionError("representative %r is not in SL2 (det=%d)" % (rep, dt))
    steps = [conjugator(ctx, g) for g in (upper_u(ctx), lower_u(ctx))]
    return ElementSet(ctx, capped_orbit(encoder(ctx)(rep), steps, cap))


def class_codes(ref: ConjClassRef, cap: int = DEFAULT_MAX_ELEMENTS) -> FrozenSet:
    """Orbit codes of the class ref names (brute force), stored in the context's
    memo under (kind, r) once their count matches conj_class_size_formula.  A
    class above cap in closed form is refused before the walk, as check_order does."""
    key = (ref.kind, ref.r)

    def build() -> FrozenSet:
        size = conj_class_size_formula(ref)
        if size > cap:
            raise _above_cap("%r modulo %d holds %d" % (key, ref.ctx.modulus, size), cap)
        codes = conj_class_brute(ref.representative(), ref.ctx, cap).codes
        if len(codes) != size:
            raise ConsistencyError("%s orbit of %d elements, off its closed form" % (ref, len(codes)))
        return codes

    return cached(ref.ctx, key, build, cap)


def centralizer_brute(rep: Mat, group: ElementSet) -> ElementSet:
    """The elements of group commuting with rep (unit det): the fixed points of x -> rep^-1 x rep."""
    conj = conjugator(group.ctx, rep)
    return ElementSet(group.ctx, frozenset(c for c in group.codes if conj(c) == c))


def partition_into_classes(group: ElementSet) -> List[ElementSet]:
    """All conjugacy classes of a materialized group (small contexts only)."""
    ctx = group.ctx
    dec = decoder(ctx)
    remaining = set(group.codes)
    out: List[ElementSet] = []
    while remaining:
        rep = dec(min(remaining))
        cls = conj_class_brute(rep, ctx, cap=len(group.codes))
        remaining -= cls.codes
        out.append(cls)
    return out
