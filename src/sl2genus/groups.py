"""Enumeration of SL2(Z/p^nZ), conjugacy classes and centralizers.

Element sets are frozensets of packed codes (see core.encoder): a class, a
centralizer and each class of a partition is one, and ElementSet is the
closed group that enumerate_group returns, its codes bound to their context.
Every kernel here walks codes through the maps of core (x -> x s,
x -> g^-1 x g).  Subgroups close through extend_closure, the one right-coset
walk (the genus check walks double cosets, in genus).  Orbits go through
capped_orbit (subgroups._lift_walk keeps a lift per residue, so it stays its
own loop); conjugacy classes are expanded by conjugating with u, t(u) only,
which keeps memory at O(#class) instead of O(#group), and each member is
checked against class_labels, which names an element's classes without an
orbit.  Every set derived from a context alone is stored once, in its memo,
through cached."""

from __future__ import annotations

from collections import deque, namedtuple
from math import gcd
from typing import Callable, Collection, FrozenSet, Hashable, Iterable, List, Sequence, Tuple

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


class ElementSet:
    """A closed group bound to its context, as packed codes: what enumerate_group
    and Subgroup.elements hand to all_subgroups, centralizer_brute and
    partition_into_classes."""

    def __init__(self, ctx: GroupCtx, codes: FrozenSet) -> None:
        self.ctx, self.codes = ctx, codes

    def __len__(self) -> int:
        return len(self.codes)


def capped_orbit(start, steps: Sequence[Callable], cap: int) -> FrozenSet:
    """Everything reached from start by repeated steps, each a map x -> y (the
    form extend_closure takes).

    Breadth-first; raises FeasibilityError ("the orbit passed cap elements")
    as soon as more than cap values are seen.  For a closure or a conjugation
    orbit in a finite group the steps need no inverses: the monoid a set
    generates is the group it generates.
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
                        raise _above_cap("the orbit passed %d" % cap, cap)
                    nxt.append(z)
        frontier = nxt
    return frozenset(seen)


def extend_closure(known: Iterable, gens: Sequence, new: Iterable, right: Callable, cap: int) -> FrozenSet:
    """<H, new>, where known holds a closed group H that gens generate.  Each new
    generator g outside the group so far extends it coset by coset (Dimino's
    order; Butler, LNCS 559, 1991), stepping by every generator so far, g
    included: right(s) is the map x -> x s, which maps H r onto H r s, so a step
    is tested on a coset's first member and maps the coset whole when that
    image is new.  A coset is dropped once every step has mapped it.  Raises
    FeasibilityError ("the closure passed cap elements") once more than cap
    elements are seen."""
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
                            raise _above_cap("the closure passed %d" % cap, cap)
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
    """<gens> as codes; ConsistencyError unless the closed set holds every generator."""
    enc = encoder(ctx)
    by_code = {enc(g): g for g in gens}
    codes = extend_closure((enc(identity(ctx)),), (), by_code, lambda c: right_mul(ctx, by_code[c]), cap)
    if not by_code.keys() <= codes:
        raise ConsistencyError("the closure of %d generators modulo %d misses one" % (len(by_code), ctx.modulus))
    return codes


def enumerate_group(ctx: GroupCtx, cap: int = DEFAULT_MAX_ELEMENTS) -> ElementSet:
    """Materialize SL2(Z/p^nZ) as the closure of <u, t(u)>, once per context.

    Its order is checked against cap before the closure runs, which would
    otherwise hold cap elements before it failed."""
    if ctx.order > cap:
        raise _above_cap("SL2(Z/%d^%dZ) has %d" % (ctx.p, ctx.n, ctx.order), cap)
    return ElementSet(ctx, cached(ctx, "G", lambda: _group_closure(ctx), cap))


def _group_closure(ctx: GroupCtx) -> FrozenSet:
    try:
        codes = _closure_codes((upper_u(ctx), lower_u(ctx)), ctx, ctx.order)
    except FeasibilityError:  # enumerate_group has applied the caller's cap, so passing #SL2 is a bug
        raise ConsistencyError("closure of <u, t(u)> passed #SL2 = %d" % ctx.order) from None
    if len(codes) != ctx.order:
        raise ConsistencyError("closure of <u, t(u)> missed elements")
    return codes


# -------------------- conjugacy class references --------------------

_KINDS = ("sigma", "tau", "u_power")


class ConjClassRef(namedtuple("ConjClassRef", "ctx kind r")):
    """A named conjugacy class bound to a context: ConjClassRef(ctx, kind, r=0).

    ``u_power`` with exponent r refers to Conj(u^(p^r)); the class is
    nontrivial only while r + 1 <= n.  ``sigma`` and ``tau`` take r = 0.
    """

    def __new__(cls, ctx: GroupCtx, kind: str, r: int = 0) -> "ConjClassRef":
        if kind not in _KINDS:
            raise ValueError("unknown class kind %r" % (kind,))
        if kind in ("sigma", "tau") and r != 0:
            raise PreconditionError("%s takes no exponent r, got r=%d" % (kind, r))
        if kind == "u_power" and not 0 <= r < ctx.n:
            raise PreconditionError("u_power takes 0 <= r < n = %d, got r=%d" % (ctx.n, r))
        return tuple.__new__(cls, (ctx, kind, r))

    def representative(self) -> Mat:
        ctx = self.ctx
        if self.kind == "sigma":
            return sigma(ctx)
        if self.kind == "tau":
            return tau(ctx)
        return mat_pow(upper_u(ctx), ctx.p**self.r, ctx)


def u_power_ref(ctx: GroupCtx, r: int = 0) -> ConjClassRef:
    return ConjClassRef(ctx, "u_power", r=r)


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) by Euler's criterion."""
    if p == 2 or not p % 2:
        raise ValueError("Legendre symbol needs an odd prime, got %d" % p)
    t = pow(a % p, (p - 1) // 2, p)
    return -1 if t == p - 1 else t


def class_labels(x: Mat, ctx: GroupCtx) -> List[Tuple[str, int]]:
    """The named classes (kind, r) that hold x = (a b; c d), by its similarity
    invariants (Nobs 1976) t = tr x, q = p^r = gcd(a - d, b, c, p^n) < p^n and
    k = b/q, or -c/q when p | b/q.  sigma: t = 0 (k = 1 mod min(4, p^n) at p = 2);
    tau: t = 1 (k = 1 mod 3 at p = 3); u^(p^r): t = 2, x = 1 mod q, det((x - 1)/q)
    = 0 mod p^n/q and k a square (k = 1 mod min(8, p^n/q) at p = 2).  At (2, 1)
    Conj(sigma) = Conj(u), so x may carry two labels."""
    (a, b, c, d), p, m = x, ctx.p, ctx.modulus
    t, q = (a + d) % m, gcd(a - d, b, c, m)
    if t > 2 or q == m:
        return []
    k = b // q if b // q % p else -c // q
    out = [("sigma", 0)] if t == 0 and (p > 2 or k % min(4, m) == 1) else []
    if t == 1 and (p != 3 or k % 3 == 1):
        out.append(("tau", 0))
    if t == 2 % m and (a - 1) % q == 0 and (legendre(k, p) == 1 if p > 2 else k % min(8, m // q) == 1):
        if ((a - 1) % m // q * ((d - 1) % m // q) - b // q * (c // q)) % (m // q) == 0:
            out.append(("u_power", next(r for r in range(ctx.n) if p**r == q)))
    return out


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


def conj_class_brute(rep: Mat, ctx: GroupCtx, cap: int = DEFAULT_MAX_ELEMENTS) -> FrozenSet:
    """The codes of the SL2 class of rep, {g^-1 rep g : g in SL2(Z/p^nZ)}, by breadth-first
    conjugation of codes with u and t(u), which generate SL2.  A GL2 class is
    the union over units e of the SL2 classes of d^-1 rep d with d = diag(e, 1).
    An entry of rep outside [0, p^n) raises ContextMismatchError."""
    _check_reduced(rep, ctx)
    m = ctx.modulus
    dt = (rep[0] * rep[3] - rep[1] * rep[2]) % m
    if dt != 1 % m:
        raise PreconditionError("representative %r is not in SL2 (det=%d)" % (rep, dt))
    steps = [conjugator(ctx, g) for g in (upper_u(ctx), lower_u(ctx))]
    return capped_orbit(encoder(ctx)(rep), steps, cap)


def class_codes(ref: ConjClassRef, cap: int = DEFAULT_MAX_ELEMENTS) -> FrozenSet:
    """Orbit codes of the class ref names (brute force), stored in the context's
    memo under (kind, r) once their count matches conj_class_size_formula and
    every member carries the label (kind, r) by class_labels.  A class above
    cap in closed form is refused before the walk."""

    def build() -> FrozenSet:
        size = conj_class_size_formula(ref)
        if size > cap:
            raise _above_cap("%r modulo %d holds %d" % ((ref.kind, ref.r), ref.ctx.modulus, size), cap)
        codes = conj_class_brute(ref.representative(), ref.ctx, cap)
        if len(codes) != size:
            raise ConsistencyError("%s orbit of %d elements, off its closed form" % (ref, len(codes)))
        if not all((ref.kind, ref.r) in class_labels(x, ref.ctx) for x in map(decoder(ref.ctx), codes)):
            raise ConsistencyError("%s orbit holds an element without the label %r" % (ref, (ref.kind, ref.r)))
        return codes

    return cached(ref.ctx, (ref.kind, ref.r), build, cap)


def centralizer_brute(rep: Mat, group: ElementSet) -> FrozenSet:
    """The codes of the elements of group commuting with rep (unit det): the fixed points of x -> rep^-1 x rep."""
    conj = conjugator(group.ctx, rep)
    return frozenset(c for c in group.codes if conj(c) == c)


def partition_into_classes(group: ElementSet) -> List[FrozenSet]:
    """All conjugacy classes of a materialized group, as code sets (small contexts only)."""
    ctx = group.ctx
    dec = decoder(ctx)
    remaining = set(group.codes)
    out: List[FrozenSet] = []
    while remaining:
        rep = dec(min(remaining))
        cls = conj_class_brute(rep, ctx, cap=len(group.codes))
        remaining -= cls
        out.append(cls)
    return out
