"""Enumeration of SL2(Z/p^nZ), conjugacy classes and centralizers.

Element sets store packed codes (see core.encoder).  Closures extend a closed
group coset by coset through extend_closure; orbits go through one
breadth-first kernel, capped_orbit (the sampler's certificate walk keeps a lift
per key and stays its own loop); conjugacy classes are expanded by conjugating
with u, t(u) only, which keeps memory at O(#class) instead of O(#group).  Every
set derived from a context alone is stored once, in its memo, through cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Callable, FrozenSet, Hashable, Iterable, Iterator, List, Optional, Sequence

from .core import (
    DEFAULT_MAX_ELEMENTS,
    ConsistencyError,
    FeasibilityError,
    GroupCtx,
    Mat,
    PreconditionError,
    _inv,
    _mul,
    decoder,
    encoder,
    identity,
    is_prime,
    lower_u,
    mat_pow,
    primitive_root,
    sigma,
    sl2_order,
    tau,
    upper_u,
)


def group_order(p: int, n: int) -> int:
    """(p+1)(p-1)p^(3n-2); rejects composite p."""
    if not is_prime(p):
        raise ValueError("p must be prime, got %d" % p)
    if n < 1:
        raise ValueError("n must be >= 1, got %d" % n)
    return sl2_order(p, n)


@dataclass(frozen=True)
class ElementSet:
    """A set of group elements bound to a context, stored as packed codes."""

    ctx: GroupCtx
    codes: FrozenSet

    def __len__(self) -> int:
        return len(self.codes)

    def __contains__(self, x: Mat) -> bool:
        return encoder(self.ctx)(x) in self.codes

    def mats(self) -> Iterator[Mat]:
        dec = decoder(self.ctx)
        for c in self.codes:
            yield dec(c)


def capped_orbit(start, steps: Sequence, act: Callable, key: Optional[Callable], cap: int) -> FrozenSet:
    """Keys of everything reached from start by repeated act(x, g), g in steps
    (key None: the values are their own keys).

    Breadth-first; raises FeasibilityError as soon as more than cap keys are
    seen.  For a closure or a conjugation orbit in a finite group the steps
    need no inverses: the monoid a set generates is the group it generates.
    """
    seen = {key(start) if key else start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for g in steps:
                z = act(x, g)
                c = key(z) if key else z
                if c not in seen:
                    seen.add(c)
                    if len(seen) > cap:
                        raise _over_cap(cap)
                    nxt.append(z)
        frontier = nxt
    return frozenset(seen)


def _over_cap(cap: int) -> FeasibilityError:
    return FeasibilityError("orbit exceeded the cap of %d elements; raise --max-elements or SL2_MAX_ELEMENTS" % cap)


def extend_closure(known: Iterable, gens: Sequence, new: Iterable, mul: Callable, key, value, cap: int) -> FrozenSet:
    """Keys of <H, new>, where known holds the keys of a closed group H that gens generate.  Dimino's
    algorithm (Butler, LNCS 559, 1991): a new generator in H is skipped; otherwise the group so far,
    H_prev, is decoded once, and each right coset H_prev r it meets is added whole and walked on by
    every generator so far.  key and value map values to keys and back (None: values are their own
    keys).  Raises FeasibilityError once more than cap keys are seen."""
    seen = set(known)
    steps = list(gens)
    for g in new:
        if (key(g) if key else g) in seen:
            continue
        prev = [value(c) for c in seen] if value else list(seen)
        steps.append(g)
        reps = [prev[0]]  # any element of H_prev stands for H_prev; reps grows while it is walked
        for r in reps:
            for s in steps:
                y = mul(r, s)
                if (key(y) if key else y) not in seen:
                    coset = map(mul, prev, repeat(y))
                    seen.update(map(key, coset) if key else coset)
                    if len(seen) > cap:
                        raise _over_cap(cap)
                    reps.append(y)
    return frozenset(seen)


def cached(ctx: GroupCtx, key: Hashable, build: Callable[[], FrozenSet], cap: int) -> FrozenSet:
    """ctx.memo[key], built by build() on the first call.

    Every call checks the stored set against cap, so an entry built under a
    higher cap still raises FeasibilityError under a lower one."""
    got = ctx.memo.get(key)
    if got is None:
        got = ctx.memo[key] = build()
    if len(got) > cap:
        raise FeasibilityError(
            "%r modulo %d holds %d elements, above the cap of %d; raise --max-elements "
            "or SL2_MAX_ELEMENTS" % (key, ctx.modulus, len(got), cap)
        )
    return got


def _closure_codes(gens: Iterable[Mat], ctx: GroupCtx, cap: int) -> FrozenSet:
    m, enc = ctx.modulus, encoder(ctx)
    return extend_closure((enc(identity(ctx)),), (), gens, lambda x, g: _mul(x, g, m), enc, decoder(ctx), cap)


def enumerate_group(ctx: GroupCtx, cap: int = DEFAULT_MAX_ELEMENTS) -> ElementSet:
    """Materialize SL2(Z/p^nZ) as the closure of <u, t(u)>, once per context.

    The order is checked against cap before the closure runs, which would
    otherwise hold cap elements before it failed."""
    if ctx.order > cap:
        raise FeasibilityError(
            "SL2(Z/%d^%dZ) has %d elements, above the cap of %d; raise --max-elements "
            "or SL2_MAX_ELEMENTS" % (ctx.p, ctx.n, ctx.order, cap)
        )
    return ElementSet(ctx, cached(ctx, "G", lambda: _group_closure(ctx), cap))


def _group_closure(ctx: GroupCtx) -> FrozenSet:
    codes = _closure_codes((upper_u(ctx), lower_u(ctx)), ctx, ctx.order)
    if len(codes) != ctx.order:
        raise ConsistencyError("closure of <u, t(u)> missed elements")  # pragma: no cover
    return codes


def gl2_generators(ctx: GroupCtx) -> List[Mat]:
    """u, t(u) plus diagonal matrices generating the determinant image."""
    m = ctx.modulus
    gens = [upper_u(ctx), lower_u(ctx)]
    if ctx.p == 2:
        if ctx.n >= 2:
            gens.append(((-1) % m, 0, 0, 1))
        if ctx.n >= 3:
            gens.append((5 % m, 0, 0, 1))
    else:
        g = primitive_root(ctx.p, ctx.n)
        gens.append((g, 0, 0, 1))
    return gens


# -------------------- conjugacy class references --------------------

_KINDS = ("sigma", "tau", "u_power", "custom")


@dataclass(frozen=True)
class ConjClassRef:
    """A named conjugacy class bound to a context.

    ``u_power`` with exponent r refers to Conj(u^(p^r)); the class is
    nontrivial only while r + 1 <= n.  ``sigma`` and ``tau`` take r = 0.
    """

    ctx: GroupCtx
    kind: str
    r: int = 0
    rep: Optional[Mat] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError("unknown class kind %r" % (self.kind,))
        if self.kind in ("sigma", "tau") and self.r != 0:
            raise PreconditionError("%s takes no exponent r, got r=%d" % (self.kind, self.r))
        if self.kind == "u_power":
            if self.r < 0 or self.r + 1 > self.ctx.n:
                raise PreconditionError(
                    "u_power(%d) is trivial modulo %d^%d" % (self.r, self.ctx.p, self.ctx.n)
                )
        if self.kind == "custom":
            if self.rep is None:
                raise ValueError("custom class needs a representative")
            from .core import is_sl2

            if not is_sl2(self.rep, self.ctx):
                raise PreconditionError("custom representative %r is not in SL2" % (self.rep,))

    def representative(self) -> Mat:
        ctx = self.ctx
        if self.kind == "sigma":
            return sigma(ctx)
        if self.kind == "tau":
            return tau(ctx)
        if self.kind == "u_power":
            return mat_pow(upper_u(ctx), ctx.p**self.r, ctx)
        assert self.rep is not None
        return self.rep


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
    if ref.kind == "u_power":
        k = n - ref.r  # u^(p^r) sits in SL2(Z/p^(r+k)Z) with k >= 1
        if p >= 3:
            return (p * p - 1) // 2 * p ** (2 * k - 2)
        if k == 1:
            return 3
        if k == 2:
            return 6
        return 3 * 2 ** (2 * k - 4)
    raise PreconditionError("no closed-form class size for kind %r; use conj_class_brute" % ref.kind)


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


def conj_class_brute(
    rep: Mat,
    ctx: GroupCtx,
    cap: int = DEFAULT_MAX_ELEMENTS,
    ambient: str = "SL2",
) -> ElementSet:
    """Full conjugation orbit {g^-1 rep g} by breadth-first expansion over generators."""
    m = ctx.modulus
    dt = (rep[0] * rep[3] - rep[1] * rep[2]) % m
    if ambient == "SL2" and dt != 1 % m:
        raise PreconditionError("representative %r is not in SL2 (det=%d)" % (rep, dt))
    gens = gl2_generators(ctx) if ambient == "GL2" else [upper_u(ctx), lower_u(ctx)]
    pairs = [(g, _inv(g, m)) for g in gens]
    codes = capped_orbit(rep, pairs, lambda x, g: _mul(g[1], _mul(x, g[0], m), m), encoder(ctx), cap)
    return ElementSet(ctx, codes)


def class_codes(ref: ConjClassRef, cap: int = DEFAULT_MAX_ELEMENTS) -> FrozenSet:
    """Orbit codes for a class reference (brute force, any kind); the named
    kinds are stored in the context's memo under (kind, r)."""
    if ref.kind == "custom":
        return conj_class_brute(ref.representative(), ref.ctx, cap).codes
    return cached(
        ref.ctx, (ref.kind, ref.r), lambda: conj_class_brute(ref.representative(), ref.ctx, cap).codes, cap
    )


def centralizer_brute(rep: Mat, group: ElementSet) -> ElementSet:
    m = group.ctx.modulus
    dec = decoder(group.ctx)
    out = set()
    for c in group.codes:
        g = dec(c)
        if _mul(g, rep, m) == _mul(rep, g, m):
            out.add(c)
    return ElementSet(group.ctx, frozenset(out))


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
