"""Genus of the modular curve attached to a subgroup of SL2(Z/p^nZ).

Everything is exact rational arithmetic.  The counts of X_H depend on H_m = H
mod p^m alone, m the level of H (K_m = ker(G -> G_m) lies in H, so H\\G and
H_m\\G_m are isomorphic G-sets): below level n, genus_report reports H_m and
lifts its class counts by #Conj_n / #Conj_m, so neither H (whose order comes
from the Schreier walk, Subgroup.order) nor a level-n class orbit is built.
fix_points and cusp_orbit_ratio count the elliptic points and cusps by the
class-counting identity, #(H n Conj(alpha)) over the closed form #Conj(alpha).
genus_report is the one cross-check: it counts them again on the right cosets
H_m g of G_m, walked by coset_space on the double cosets H_m g<u>, the
H_m-orbits on primitive vectors (the cusps; Shimura 1971, 1.5-1.6), and any
difference raises ConsistencyError.  The report is kept in the subgroup's
memo; delta and genus read it.  Every walk runs under Subgroup.cap.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from itertools import islice
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .core import (
    ConsistencyError,
    GroupCtx,
    Mat,
    PreconditionError,
    conjugator,
    decoder,
    encoder,
    make_ctx,
    mat,
    mat_inv,
    minus_one,
    num_to_json,
)
from .groups import ConjClassRef, cached, check_order, class_codes, conj_class_size_formula, u_power_ref
from .subgroups import Subgroup, kept, level

# Above this order of G_m, m the level of H, genus_report skips its coset
# cross-check and reports the class-counting route alone (an exact identity,
# not an estimate).
DIRECT_CHECK_CAP = 130_000


def count_in_subgroup(h: Subgroup, ref: ConjClassRef) -> int:
    """#(H n Conj(alpha)), intersecting the materialized sets."""
    if ref.ctx != h.ctx:
        raise PreconditionError("class reference bound to a different context")
    return len(h.codes() & class_codes(ref, h.cap))  # set & iterates over the smaller set


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) by Euler's criterion."""
    if p == 2 or not p % 2:
        raise ValueError("Legendre symbol needs an odd prime, got %d" % p)
    t = pow(a % p, (p - 1) // 2, p)
    if t == 0:
        return 0
    return 1 if t == 1 else -1


# -------------------- the double cosets H g<u> --------------------


def _carrier(x: int, y: int, ctx: GroupCtx) -> Mat:
    """A g in G with g e1 = (x, y): (x, 0; y, x^-1) if x is a unit, else (x, -y^-1; y, 0)."""
    m = ctx.modulus
    return (x, 0, y, pow(x, -1, m)) if x % ctx.p else (x, -pow(y, -1, m) % m, y, 0)


def _orbits(hmats: List[Mat], ctx: GroupCtx) -> Iterator[Tuple[Tuple[int, int], int]]:
    """(a vector v of O, #O) for each orbit O = {x v : x in H} on the primitive vectors of (Z/p^n)^2."""
    p, m = ctx.p, ctx.modulus
    seen = bytearray(m * m)  # (x, y) at x + m y
    for y in range(m):
        for x in range(m):
            if not seen[x + m * y] and (x % p or y % p):
                orbit = {(a * x + b * y) % m + m * ((c * x + d * y) % m) for a, b, c, d in hmats}
                for i in orbit:
                    seen[i] = 1
                yield (x, y), len(orbit)


def _u_conjugates(ref: ConjClassRef) -> Dict[int, int]:
    """The code of u^j a u^-j -> j for j < p^n, in the order of j, a = ref.representative();
    the (1,1) entry d - jc tells the j apart for sigma and tau (c = -1)."""
    ctx, enc, (a, b, c, d) = ref.ctx, encoder(ref.ctx), ref.representative()
    return {enc(mat(a + j * c, b + j * (d - a) - j * j * c, c, d - j * c, ctx)): j for j in range(ctx.modulus)}


def coset_space(h: Subgroup) -> Tuple[List[int], List[int]]:
    """The right cosets of H in G on the double cosets H g<u>, the H-orbits O on
    the primitive vectors g e1 (<u> fixes e1): H g<u> holds the l = p^n #O / #H
    cosets H g u^j, j < l, and a fixes H g u^j when u^j a u^-j is in g^-1 H g,
    tested on the l conjugates or on all of g^-1 H g, whichever is fewer.
    Returns (l per double coset, [Fix_sigma, Fix_tau]); ConsistencyError unless
    each g has g e1 = v, the orbits cover the primitive vectors, each l divides
    p^n and is the index in <u> of the stabilizer of H g, and the l sum to [G:H]."""
    ctx = h.ctx
    check_order(ctx, h.cap)
    p, m, enc = ctx.p, ctx.modulus, encoder(ctx)
    hm = h.reduced_codes(ctx.n)
    refs = [ConjClassRef(ctx, kind) for kind in ("sigma", "tau")]
    tables = [cached(ctx, ("u-conjugates", ref.kind), partial(_u_conjugates, ref), h.cap) for ref in refs]
    lengths, fixed, covered = [], [0, 0], 0
    for v, size in _orbits(list(map(decoder(ctx), hm)), ctx):
        covered += size
        ell, rest = divmod(m * size, len(hm))
        if rest or not ell or m % ell:
            raise ConsistencyError("an orbit of %d vectors gives %d/%d right cosets" % (size, m * size, len(hm)))
        g = _carrier(*v, ctx)
        if (g[0], g[2]) != v:
            raise ConsistencyError("the carrier of %r has g e1 = %r" % (v, (g[0], g[2])))
        back = conjugator(ctx, mat_inv(g, ctx))  # x -> g x g^-1
        if back(enc(mat(1, ell, 0, 1, ctx))) not in hm or ell > 1 and back(enc(mat(1, ell // p, 0, 1, ctx))) in hm:
            raise ConsistencyError("the stabilizer of H g in <u> is not %dZ, g e1 = %r" % (ell, v))
        if ell <= len(hm):
            fixed = [f + sum(back(c) in hm for c in islice(t, ell)) for f, t in zip(fixed, tables)]
        else:
            inside = list(map(conjugator(ctx, g), hm))  # g^-1 H g
            fixed = [f + sum(t.get(c, ell) < ell for c in inside) for f, t in zip(fixed, tables)]
        lengths.append(ell)
    if covered != m * m - (m // p) ** 2:
        raise ConsistencyError("the orbits covered %d of %d primitive vectors" % (covered, m * m - (m // p) ** 2))
    if sum(lengths) != ctx.order // len(hm):
        raise ConsistencyError("the double cosets hold %d of %d right cosets" % (sum(lengths), ctx.order // len(hm)))
    return lengths, fixed


def _class_ratio(h: Subgroup, ref: ConjClassRef) -> Fraction:
    """#(H n Conj(alpha)) / #Conj(alpha), #Conj(alpha) in closed form."""
    return Fraction(count_in_subgroup(h, ref), conj_class_size_formula(ref))


def fix_points(h: Subgroup, ref: ConjClassRef) -> int:
    """#{gH : a gH = gH} for a in the class ref names, through
    #Fix_a / [G:H] = #(H n Conj(a)) / #Conj(a); the count depends on the class
    alone.  genus_report checks it on the right cosets."""
    via_identity = h.ctx.order // h.order * _class_ratio(h, ref)
    if via_identity.denominator != 1:
        raise ConsistencyError("fixed-point identity gave a non-integer")
    return int(via_identity)


def cusp_series(p: int, ratios: Sequence[Fraction]) -> Fraction:
    """1/p^t + sum_s (p-1)/p^(s+1) r_s over r_0..r_(t-1), with t = len(ratios).

    With r_s = #(H n Conj(u^(p^s))) / #Conj(u^(p^s)) and t = n this is the cusp
    ratio; with upper bounds for the r_s it bounds the cusp ratio from above."""
    out = Fraction(1, p ** len(ratios))
    for s, r in enumerate(ratios):
        out += Fraction(p - 1, p ** (s + 1)) * r
    return out


def delta_from_ratios(r_sigma: Fraction, r_tau: Fraction, cusp: Fraction) -> Fraction:
    """delta_H = 1 - 3 r_sigma - 4 r_tau - 6 cusp, from the class ratios
    #(H n Conj) / #Conj of sigma and tau and the cusp ratio; upper bounds for
    them give a lower bound for delta_H."""
    return 1 - 3 * r_sigma - 4 * r_tau - 6 * cusp


def cusp_orbit_ratio(h: Subgroup) -> Fraction:
    """#(<u>\\G/H) / [G:H], via the u^(p^s) class counts; genus_report checks it
    against the <u>-orbits on the right cosets."""
    return cusp_series(h.ctx.p, [_class_ratio(h, u_power_ref(h.ctx, s)) for s in range(h.ctx.n)])


def delta(h: Subgroup) -> Fraction:
    """delta_H (delta_from_ratios of the exact class and cusp ratios of H), from genus_report."""
    return genus_report(h).delta


def genus(h: Subgroup) -> int:
    """g = 1 + [G:H] delta / 12, from genus_report; valid only when -1 in H."""
    report = genus_report(h)
    if report.genus is None:
        raise PreconditionError("genus formula needs -1 in H; take the genus of adjoin_minus_one(H) = <H, -1>")
    return report.genus


@dataclass(frozen=True)
class GenusReport:
    index: int
    count_sigma: int
    count_tau: int
    cusp_ratio: Fraction
    delta: Fraction
    genus: Optional[int]
    fix_sigma: int
    fix_tau: int

    def to_json_dict(self) -> dict:
        return {k: num_to_json(v) for k, v in vars(self).items() if v is not None}  # genus is None without -1


@kept("genus_report")
def genus_report(h: Subgroup) -> GenusReport:
    """Every count of H by class counting; below level n, H_m's report with
    count_sigma and count_tau times #Conj_n / #Conj_m (reduction is onto and
    G-equivariant, so Conj_n fibres evenly over Conj_m, and the rest is equal).
    When G_m holds at most DIRECT_CHECK_CAP elements, Fix_sigma, Fix_tau and
    the <u>-orbits are counted again on the right cosets H_m g (coset_space,
    walked once), and any difference raises ConsistencyError.  The report is
    kept in h's memo, so each subgroup is reported once."""
    ctx, m = h.ctx, level(h)
    refs = ConjClassRef(ctx, "sigma"), ConjClassRef(ctx, "tau")
    if m < ctx.n:
        sub = make_ctx(ctx.p, m)
        low = genus_report(Subgroup.from_codes(sub, h.reduced_codes(m), cap=h.cap))
        lift = [conj_class_size_formula(ref) // conj_class_size_formula(ConjClassRef(sub, ref.kind)) for ref in refs]
        return replace(low, count_sigma=low.count_sigma * lift[0], count_tau=low.count_tau * lift[1])
    fixed = [fix_points(h, ref) for ref in refs]
    cusp = cusp_orbit_ratio(h)
    index = ctx.order // h.order
    if ctx.order <= DIRECT_CHECK_CAP:
        lengths, direct_fixed = coset_space(h)
        for direct, via_identity in zip(direct_fixed, fixed):
            if direct != via_identity:
                raise ConsistencyError("fixed-point count mismatch: direct %d vs identity %d" % (direct, via_identity))
        direct = Fraction(len(lengths), index)  # the <u>-orbits on H\G are the double cosets H g<u>
        if direct != cusp:
            raise ConsistencyError("cusp ratio mismatch: direct %s vs formula %s" % (direct, cusp))
    # #(H n Conj) = Fix #Conj / [G:H], exact: fix_points intersected H with each class once
    counts = [f * conj_class_size_formula(ref) // index for f, ref in zip(fixed, refs)]
    d = delta_from_ratios(*(Fraction(f, index) for f in fixed), cusp)
    g = 1 + Fraction(index, 12) * d if minus_one(ctx) in h else None
    if g is not None and (g.denominator != 1 or g < 0):
        raise ConsistencyError("genus %s is not a non-negative integer" % g)
    return GenusReport(index, *counts, cusp, d, None if g is None else int(g), *fixed)


# -------------------- closed-form genera at level p --------------------


def closed_form_genus(kind: str, p: int) -> Fraction:
    """The displayed closed forms for g_B, g_C, g_D (prime level p >= 5)."""
    if p < 5:
        raise PreconditionError("closed-form genera stated for p >= 5, got %d" % p)
    l1 = legendre(-1, p)
    l3 = legendre(-3, p)
    if kind == "B":
        return Fraction(p - 6 - 3 * l1 - 4 * l3, 12)
    if kind == "C":
        return Fraction(p * p - 8 * p + 11 - 4 * l3, 24)
    if kind == "D":
        return Fraction(p * p - 10 * p + 23 + 6 * l1 + 4 * l3, 24)
    raise ValueError("closed forms exist for kinds B, C, D; got %r" % kind)
