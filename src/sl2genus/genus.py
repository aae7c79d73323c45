"""Genus of the modular curve attached to a subgroup of SL2(Z/p^nZ).

Exact rational arithmetic.  fix_points and cusp_orbit_ratio read #(H n Conj(alpha))
from labels of the elements of H_m = H mod p^m (class_labels), m the level of H,
lifted to level n, over #Conj(alpha) in closed form; genus_report counts again on
the double cosets H_m g<u> (coset_space), as K_m <= H makes H\\G and H_m\\G_m
isomorphic G-sets, and raises ConsistencyError on any difference.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .core import (
    ConsistencyError,
    GroupCtx,
    Mat,
    PreconditionError,
    decoder,
    encoder,
    mat,
    minus_one,
    num_to_json,
)
from .groups import ConjClassRef, _above_cap, class_labels, conj_class_size_formula, legendre, u_power_ref
from .subgroups import Subgroup, kept, level

# Above this order of G_m, m the level of H, genus_report skips its coset
# cross-check and reports the class-counting route alone (an exact identity).
DIRECT_CHECK_CAP = 130_000


@kept("class counts")
def _class_counts(h: Subgroup) -> Counter:
    """#(H n Conj(alpha)) keyed (kind, r).  Each element of H_m = h.reduced(m), m
    the level of H (H_m is H at level n), of trace 0, 1 or 2 is labelled once.  H
    is the preimage of H_m and Conj_n fibres evenly over Conj_m, so each count of
    H_m is lifted by #Conj_n / #Conj_m, and Conj(u^(p^r)) with r >= m lies whole
    in K_r <= K_m <= H."""
    ctx, low = h.ctx, h.reduced(level(h))
    sub, out = low.ctx, Counter()
    mats = map(decoder(sub), low.codes())
    counts = Counter(label for x in mats if (x[0] + x[3]) % sub.modulus <= 2 for label in class_labels(x, sub))
    for key in [("sigma", 0), ("tau", 0)] + [("u_power", r) for r in range(ctx.n)]:
        size = conj_class_size_formula(ConjClassRef(ctx, *key))
        out[key] = counts[key] * size // conj_class_size_formula(ConjClassRef(sub, *key)) if key[1] < sub.n else size
    return out


def count_in_subgroup(h: Subgroup, ref: ConjClassRef) -> int:
    """#(H n Conj(alpha)) from _class_counts, which builds no orbit of the class."""
    if ref.ctx != h.ctx:
        raise PreconditionError("class reference bound to a different context")
    return _class_counts(h)[ref.kind, ref.r]


# -------------------- the double cosets H g<u> --------------------


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


def coset_space(h: Subgroup) -> Tuple[List[int], List[int]]:
    """(l per double coset H g<u>, [Fix_sigma, Fix_tau]) on the H-orbits O of the
    primitive vectors v = g e1 = (x, y): H g<u> holds l = p^n #O / #H right cosets,
    and a fixes l N(v) / p^n of them, N(v) = #{h in H : tr h = tr a, det(v, hv) = -1}
    (the u^j a u^-j are the x with x21 = -1 and trace tr a, and (g^-1 h g)21 =
    det(v, hv)).  ConsistencyError unless the orbits cover the primitive vectors,
    each l divides p^n and is the index in <u> of the stabilizer of H g, and p^n
    divides each l N(v); the l then sum to p^n (p^(2n) - p^(2n-2)) / #H = [G:H].
    The walk's table holds a slot per vector, p^(2n), refused above h.cap before it is built."""
    ctx = h.ctx
    p, m, enc = ctx.p, ctx.modulus, encoder(ctx)
    if m * m > h.cap:
        raise _above_cap("the vector table modulo %d holds %d" % (m, m * m), h.cap)
    hm = h.codes()
    hmats = list(map(decoder(ctx), hm))
    # det(v, hv) = c x^2 + (d - a) x y - b y^2, for the h of trace tr sigma = 0 and tr tau = 1
    forms = [[(c, d - a, -b) for a, b, c, d in hmats if (a + d - t) % m == 0] for t in (0, 1)]
    lengths, fixed, covered = [], [0, 0], 0
    for (x, y), size in _orbits(hmats, ctx):
        covered += size
        ell, rest = divmod(m * size, len(hm))
        if rest or not ell or m % ell:
            raise ConsistencyError("an orbit of %d vectors gives %d/%d right cosets" % (size, m * size, len(hm)))
        # g u^j g^-1 = (1 - jxy, jx^2; -jy^2, 1 + jxy) is in H for j = l, not for j = l/p
        stab = [enc(mat(1 - j * x * y, j * x * x, -j * y * y, 1 + j * x * y, ctx)) in hm for j in (ell, ell // p)]
        if not stab[0] or ell > 1 and stab[1]:
            raise ConsistencyError("the stabilizer of H g in <u> is not %dZ, g e1 = %r" % (ell, (x, y)))
        for i, rows in enumerate(forms):
            got = ell * sum((c * x * x + e * x * y + f * y * y) % m == m - 1 for c, e, f in rows)
            if got % m:
                kind = ("sigma", "tau")[i]
                raise ConsistencyError("%s fixes %d/%d cosets of H g<u>, g e1 = %r" % (kind, got, m, (x, y)))
            fixed[i] += got // m
        lengths.append(ell)
    if covered != m * m - (m // p) ** 2:
        raise ConsistencyError("the orbits covered %d of %d primitive vectors" % (covered, m * m - (m // p) ** 2))
    return lengths, fixed


def _class_ratio(h: Subgroup, ref: ConjClassRef) -> Fraction:
    """#(H n Conj(alpha)) / #Conj(alpha), #Conj(alpha) in closed form."""
    return Fraction(count_in_subgroup(h, ref), conj_class_size_formula(ref))


def fix_points(h: Subgroup, ref: ConjClassRef) -> int:
    """#{gH : a gH = gH} for a in the class ref names, through #Fix_a / [G:H] =
    #(H n Conj(a)) / #Conj(a); genus_report checks it on the right cosets."""
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
    """delta_H = 1 - 3 r_sigma - 4 r_tau - 6 cusp, from the class ratios #(H n Conj) / #Conj
    of sigma and tau and the cusp ratio; upper bounds for them give a lower bound for delta_H."""
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


class GenusReport(NamedTuple):
    index: int
    count_sigma: int
    count_tau: int
    cusp_ratio: Fraction
    delta: Fraction
    genus: Optional[int]
    fix_sigma: int
    fix_tau: int

    def to_json_dict(self) -> dict:
        return {k: num_to_json(v) for k, v in self._asdict().items() if v is not None}  # genus is None without -1


@kept("genus_report")
def genus_report(h: Subgroup) -> GenusReport:
    """Every count of H by class counting.  When #G_m <= DIRECT_CHECK_CAP, m the
    level of H, Fix_sigma, Fix_tau and the <u>-orbits are counted again by
    coset_space on H_m = h.reduced(m); a difference raises ConsistencyError.
    Kept in h's memo, so each subgroup is reported once."""
    ctx, low = h.ctx, h.reduced(level(h))
    refs = ConjClassRef(ctx, "sigma"), ConjClassRef(ctx, "tau")
    fixed = [fix_points(h, ref) for ref in refs]
    cusp, index = cusp_orbit_ratio(h), ctx.order // h.order
    if low.ctx.order <= DIRECT_CHECK_CAP:
        lengths, direct_fixed = coset_space(low)
        for direct, via_identity in zip(direct_fixed, fixed):
            if direct != via_identity:
                raise ConsistencyError("fixed-point count mismatch: direct %d vs identity %d" % (direct, via_identity))
        direct = Fraction(len(lengths), index)  # the <u>-orbits on H\G are the double cosets H_m g<u>
        if direct != cusp:
            raise ConsistencyError("cusp ratio mismatch: direct %s vs formula %s" % (direct, cusp))
    counts = [count_in_subgroup(h, ref) for ref in refs]
    d = delta_from_ratios(*(_class_ratio(h, ref) for ref in refs), cusp)
    g = 1 + Fraction(index, 12) * d if minus_one(low.ctx) in low else None  # K_m <= H
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
