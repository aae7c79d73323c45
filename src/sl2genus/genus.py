"""Genus of the modular curve attached to a subgroup of SL2(Z/p^nZ).

Everything is exact rational arithmetic.  The counts of X_H depend on H_m = H
mod p^m alone, m the level of H (K_m = ker(G -> G_m) lies in H, so H\\G and
H_m\\G_m are isomorphic G-sets): below level n, genus_report reports H_m and
lifts its class counts by #Conj_n / #Conj_m, so neither H (whose order comes
from the Schreier walk, Subgroup.order) nor a level-n class orbit is built.
The three ingredient counts (elliptic points of order 2 and 3, cusps) come
from one route, the class-counting identity: fix_points and cusp_orbit_ratio
count #(H n Conj(alpha)) over the closed form #Conj(alpha); the fixed points
of an element depend on its class alone, so fix_points takes a ConjClassRef.
genus_report is the one cross-check: it counts them again on the right cosets
H_m g of G_m (gH -> Hg^-1 gives the counts on left cosets), walked once per
report by groups.right_cosets from H_m on the row tables of u and t(u), and
any disagreement raises ConsistencyError.  The report is kept in the
subgroup's memo, and delta and genus read it.  The walk and the class orbits
run under the cap the subgroup carries (Subgroup.cap).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .core import (
    ConsistencyError,
    GroupCtx,
    Mat,
    PreconditionError,
    lower_u,
    make_ctx,
    minus_one,
    num_to_json,
    right_mul,
    row_table,
    upper_u,
)
from .groups import ConjClassRef, cached, check_order, class_codes, conj_class_size_formula, right_cosets, u_power_ref
from .subgroups import Subgroup, kept, level

# coset_space(h): (the first code of each right coset H g, code -> coset index,
# the coset index of H g u for each coset); genus_report builds it for H at its level.
Cosets = Tuple[List[int], Dict[int, int], List[int]]

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


# -------------------- coset machinery --------------------


def _right_mul(ctx: GroupCtx, s: Mat, cap: int) -> Callable[[int], int]:
    """core.right_mul(ctx, s) on row_table(ctx, s), which ctx's memo keeps."""
    return right_mul(ctx, s, cached(ctx, ("rows", s), lambda: row_table(ctx, s), cap))


def coset_space(h: Subgroup) -> Cosets:
    """The right cosets H g of G, walked from H on the row tables of u and t(u)
    (groups.right_cosets); genus_report passes H at its level.  Returns (the
    first code of each coset, code -> coset index, the coset index of H g u for
    each coset); which code represents a coset is unspecified, and no count
    depends on it."""
    ctx = h.ctx
    check_order(ctx, h.cap)
    u = _right_mul(ctx, upper_u(ctx), h.cap)
    first = list(h.reduced_codes(ctx.n))
    reps, coset_of = [first[0]], dict.fromkeys(first, 0)
    for coset in right_cosets(first, (u, _right_mul(ctx, lower_u(ctx), h.cap)), coset_of, h.cap):
        i = len(reps)
        for y in coset:  # one store per member: no dict per coset, which small cosets would pay for
            coset_of[y] = i
        reps.append(coset[0])
    if len(coset_of) != ctx.order:
        raise ConsistencyError("the coset walk covered %d of %d elements" % (len(coset_of), ctx.order))
    return reps, coset_of, [coset_of[y] for y in map(u, reps)]


def _coset_perm(h: Subgroup, a: Mat, cosets: Cosets) -> List[int]:
    """The coset index of H g a for each right coset H g of cosets = coset_space(h)."""
    reps, coset_of, _ = cosets
    return [coset_of[y] for y in map(_right_mul(h.ctx, a, h.cap), reps)]


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
        d = {
            "index": num_to_json(self.index),
            "count_sigma": num_to_json(self.count_sigma),
            "count_tau": num_to_json(self.count_tau),
            "cusp_ratio": num_to_json(self.cusp_ratio),
            "delta": num_to_json(self.delta),
            "fix_sigma": num_to_json(self.fix_sigma),
            "fix_tau": num_to_json(self.fix_tau),
        }
        if self.genus is not None:
            d["genus"] = num_to_json(self.genus)
        return d


@kept("genus_report")
def genus_report(h: Subgroup) -> GenusReport:
    """Every count of H by class counting; below level n, H_m's report with
    count_sigma and count_tau times #Conj_n / #Conj_m (reduction is onto and
    G-equivariant, so Conj_n fibres evenly over Conj_m, and the rest is equal).
    When G_m holds at most DIRECT_CHECK_CAP elements, Fix_sigma, Fix_tau and
    the <u>-orbits are counted again on the right cosets H_m g (coset_space,
    built once), and any difference raises ConsistencyError.  The report is
    kept in h's memo, so each subgroup is reported once."""
    ctx, m = h.ctx, level(h)
    refs = ConjClassRef(ctx, "sigma"), ConjClassRef(ctx, "tau")
    if m < ctx.n:
        sub = make_ctx(ctx.p, m)
        low = genus_report(Subgroup.from_codes(sub, h.reduced_codes(m), cap=h.cap))
        lift = [conj_class_size_formula(ref) // conj_class_size_formula(ConjClassRef(sub, ref.kind)) for ref in refs]
        return replace(low, count_sigma=low.count_sigma * lift[0], count_tau=low.count_tau * lift[1])
    counts = [count_in_subgroup(h, ref) for ref in refs]
    fixed = [fix_points(h, ref) for ref in refs]
    cusp = cusp_orbit_ratio(h)
    if ctx.order <= DIRECT_CHECK_CAP:
        cosets = coset_space(h)
        for ref, via_identity in zip(refs, fixed):
            direct = sum(1 for i, j in enumerate(_coset_perm(h, ref.representative(), cosets)) if i == j)
            if direct != via_identity:
                raise ConsistencyError(
                    "fixed-point count mismatch: direct %d vs identity %d" % (direct, via_identity)
                )
        step = cosets[2]  # its cycles are the double cosets H\\G/<u>, as many as <u>\\G/H
        seen, orbits = set(), 0
        for i in range(len(step)):
            orbits += i not in seen  # each unseen coset starts a new <u>-orbit
            while i not in seen:
                seen.add(i)
                i = step[i]
        direct = Fraction(orbits, len(step))
        if direct != cusp:
            raise ConsistencyError("cusp ratio mismatch: direct %s vs formula %s" % (direct, cusp))
    d = delta_from_ratios(*(Fraction(c, conj_class_size_formula(ref)) for c, ref in zip(counts, refs)), cusp)
    index = ctx.order // h.order
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
