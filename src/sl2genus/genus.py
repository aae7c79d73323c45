"""Genus of the modular curve attached to a subgroup of SL2(Z/p^nZ).

Exact rational arithmetic.  fix_points and cusp_orbit_ratio read #(H n Conj(alpha))
from labels of the elements of H_m = H mod p^m (class_labels), m the level of H,
lifted to level n, over #Conj(alpha) in closed form; genus_report counts again on
the double cosets H_m g<u> (coset_space), as K_m <= H makes H\\G and H_m\\G_m
isomorphic G-sets, and raises ConsistencyError on any difference.  A report is kept
in H's memo; the report of G, a constant of the context, in the context's memo.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import repeat
from math import lcm
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .core import (
    DEFAULT_MAX_ELEMENTS,
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
from .groups import ConjClassRef, _above_cap, cached, class_labels, conj_class_size_formula, legendre, u_power_ref
from .subgroups import Subgroup, kept, level

# Above this order of G_m, m the level of H, genus_report skips its coset
# cross-check and reports the class-counting route alone (an exact identity).
DIRECT_CHECK_CAP = 130_000


@kept("class counts")
def _class_counts(h: Subgroup, mats: Optional[List[Mat]] = None) -> Counter:
    """#(H n Conj(alpha)) keyed (kind, r).  Each element of H_m = h.reduced(m), m
    the level of H (H_m is H at level n), of trace 0, 1 or 2 is labelled once, read
    from mats, H_m's matrices, when the caller has decoded them.  H is the preimage
    of H_m and Conj_n fibres evenly over Conj_m, so each count of H_m is lifted by
    #Conj_n / #Conj_m, and Conj(u^(p^r)) with r >= m lies whole in K_r <= K_m <= H."""
    ctx, low = h.ctx, h.reduced(level(h))
    sub, out = low.ctx, Counter()
    mats = map(decoder(sub), low.codes()) if mats is None else mats
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


def _line_orbits(hmats: List[Mat], ctx: GroupCtx) -> Iterator[Tuple[Tuple[int, int], int, int]]:
    """(v, #(H L), #Lambda_L) for each H-orbit H L of the lines L = [v] of P^1(Z/p^n),
    v = (1, y), or (x, 1) with p | x, and Lambda_L = {lam : h v = lam v for some h in H}:
    the vectors h v lie #Lambda_L on each line of H L."""
    p, m = ctx.p, ctx.modulus
    inv = [pow(a, -1, m) if a % p else 0 for a in range(m)]
    seen = bytearray(m + m // p)  # [1 : y] at y, [x : 1] at m + x/p
    for i in range(m + m // p):
        if not seen[i]:
            x, y = (1, i) if i < m else (p * (i - m), 1)
            orbit = {(a * x + b * y) % m + m * ((c * x + d * y) % m) for a, b, c, d in hmats}
            lines = range(m + m // p)  # every line, when H v holds every primitive vector
            if len(orbit) < m * m - (m // p) ** 2:
                lines = {t * inv[s] % m if s % p else m + s * inv[t] % m // p for t, s in map(divmod, orbit, repeat(m))}
            for j in lines:
                seen[j] = 1
            yield (x, y), len(lines), len(orbit) // len(lines)


def _refuse_line_table(h: Subgroup) -> None:
    """coset_space's refusal: the line table and the #H matrices it reads, above h.cap, before they are built."""
    held = h.ctx.modulus + h.ctx.modulus // h.ctx.p + h.order
    if held > h.cap:
        raise _above_cap("the line table modulo %d and the matrices of H hold %d" % (h.ctx.modulus, held), h.cap)


def coset_space(h: Subgroup, hmats: Optional[List[Mat]] = None) -> Tuple[List[int], List[int]]:
    """(l per double coset H g<u>, [Fix_sigma, Fix_tau]) on the H-orbits H L of the lines
    L = [v] of P^1(Z/p^n), v = g e1: above H L lie the phi(p^n) / #Lambda_L double cosets
    of the mu v, mu over the units mod Lambda_L (_line_orbits), each of l = p^n #(H L)
    #Lambda_L / #H right cosets, and a fixes l N(mu v) / p^n of them, N(mu v) = #{h in H :
    tr h = tr a, det(v, hv) = -mu^-2} (the u^j a u^-j are the x with x21 = -1 and trace
    tr a, and (g^-1 h g)21 = det(v, hv)).  ConsistencyError unless the orbits cover the
    lines, each l divides p^n and is the index in <u> of the stabilizer of H g (and of
    H mu g: mu^2 is a unit), and p^n divides each l N(mu v); the l then sum to [G:H].
    hmats, H's matrices, are decoded from its codes unless the caller has them."""
    ctx = h.ctx
    p, m, enc = ctx.p, ctx.modulus, encoder(ctx)
    _refuse_line_table(h)
    hm = h.codes()
    hmats = list(map(decoder(ctx), hm)) if hmats is None else hmats
    # det(v, hv) = c x^2 + (d - a) x y - b y^2, for the h of trace tr sigma = 0 and tr tau = 1
    forms = [[(c, d - a, -b) for a, b, c, d in hmats if (a + d - t) % m == 0] for t in (0, 1)]
    # per d, the double cosets H mu g<u> with N(mu v) = #{h : det(v, hv) = d}: #{mu : -mu^-2 = d} = #{mu : -mu^2 = d}
    roots = Counter(-mu * mu % m for mu in range(m) if mu % p)
    lengths, fixed, covered = [], [0, 0], 0
    for (x, y), lines, lam in _line_orbits(hmats, ctx):
        covered += lines
        size = lines * lam  # the vectors of H v
        ell, rest = divmod(m * size, len(hm))
        if rest or not ell or m % ell:
            raise ConsistencyError("an orbit of %d vectors gives %d/%d right cosets" % (size, m * size, len(hm)))
        # g u^j g^-1 = (1 - jxy, jx^2; -jy^2, 1 + jxy) is in H for j = l, not for j = l/p
        stab = [enc(mat(1 - j * x * y, j * x * x, -j * y * y, 1 + j * x * y, ctx)) in hm for j in (ell, ell // p)]
        if not stab[0] or ell > 1 and stab[1]:
            raise ConsistencyError("the stabilizer of H g in <u> is not %dZ, g e1 = %r" % (ell, (x, y)))
        for i, rows in enumerate(forms):
            total = 0
            dets = [(c * x * x + e * x * y + f * y * y) % m for c, e, f in rows]
            for d, k in roots.items():
                got = ell * dets.count(d)
                if got % m:
                    mu = next(mu for mu in range(m) if (d * mu * mu + 1) % m == 0)  # g e1 = mu v
                    kind, v = ("sigma", "tau")[i], (mu * x % m, mu * y % m)
                    raise ConsistencyError("%s fixes %d/%d cosets of H g<u>, g e1 = %r" % (kind, got, m, v))
                total += got // m * k
            fixed[i] += total // lam  # each double coset once per mu of its class mu Lambda_L
        lengths += [ell] * ((m - m // p) // lam)
    if covered != m + m // p:
        raise ConsistencyError("the line orbits covered %d of %d lines" % (covered, m + m // p))
    return lengths, fixed


def _class_ratio(h: Subgroup, ref: ConjClassRef) -> Fraction:
    """#(H n Conj(alpha)) / #Conj(alpha), #Conj(alpha) in closed form."""
    return Fraction(count_in_subgroup(h, ref), conj_class_size_formula(ref))


def fix_points(h: Subgroup, ref: ConjClassRef) -> int:
    """#{gH : a gH = gH} for a in the class ref names, through #Fix_a / [G:H] =
    #(H n Conj(a)) / #Conj(a); genus_report checks it on the right cosets."""
    fixed, rest = divmod(h.ctx.order // h.order * count_in_subgroup(h, ref), conj_class_size_formula(ref))
    if rest:
        raise ConsistencyError("fixed-point identity gave a non-integer")
    return fixed


def cusp_series(p: int, ratios: Sequence[Fraction]) -> Fraction:
    """1/p^t + sum_s (p-1)/p^(s+1) r_s over r_0..r_(t-1), with t = len(ratios).
    With r_s = #(H n Conj(u^(p^s))) / #Conj(u^(p^s)) and t = n this is the cusp
    ratio; with upper bounds for the r_s it bounds the cusp ratio from above.
    Summed as integers over the one denominator p^t lcm(den r_s)."""
    t, den = len(ratios), lcm(*(r.denominator for r in ratios))
    num = den + sum((p - 1) * p ** (t - s - 1) * r.numerator * (den // r.denominator) for s, r in enumerate(ratios))
    return Fraction(num, p**t * den)


def delta_from_ratios(r_sigma: Fraction, r_tau: Fraction, cusp: Fraction) -> Fraction:
    """delta_H = 1 - 3 r_sigma - 4 r_tau - 6 cusp, from the class ratios #(H n Conj) / #Conj
    of sigma and tau and the cusp ratio; upper bounds for them give a lower bound for delta_H.
    Summed as integers over the one denominator lcm(den r_sigma, den r_tau, den cusp)."""
    den = lcm(r_sigma.denominator, r_tau.denominator, cusp.denominator)
    weighted = 3 * r_sigma.numerator * (den // r_sigma.denominator) + 4 * r_tau.numerator * (den // r_tau.denominator)
    return Fraction(den - weighted - 6 * cusp.numerator * (den // cusp.denominator), den)


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
    """_build_report of H, kept in h's memo.  H_m = h.reduced(m), m the level of H, of #G_m
    elements proves H = G (K_m <= H): the report of G is built once per context, kept in its
    memo and read under h's cap, refused where coset_space would refuse it."""
    low = h.reduced(level(h))
    if len(low.codes()) < low.ctx.order:
        return _build_report(h, low)
    if low.ctx.order <= DIRECT_CHECK_CAP:
        _refuse_line_table(low)
    return cached(h.ctx, "report of G", lambda: _build_report(h, low), DEFAULT_MAX_ELEMENTS)


def _build_report(h: Subgroup, low: Subgroup) -> GenusReport:
    """Every count of H by class counting on H_m = low; when #G_m <= DIRECT_CHECK_CAP, Fix_sigma,
    Fix_tau and the <u>-orbits again by coset_space, ConsistencyError on a difference."""
    ctx, walk = h.ctx, low.ctx.order <= DIRECT_CHECK_CAP
    mats = list(map(decoder(low.ctx), low.codes())) if walk else None  # the walk's list, decoded once for both routes
    _class_counts(h, mats=mats)  # kept in h's memo, where each count below reads it
    refs = ConjClassRef(ctx, "sigma"), ConjClassRef(ctx, "tau")
    fixed = [fix_points(h, ref) for ref in refs]
    cusp, index = cusp_orbit_ratio(h), ctx.order // h.order
    if walk:
        lengths, direct_fixed = coset_space(low, mats)
        for direct, via_identity in zip(direct_fixed, fixed):
            if direct != via_identity:
                raise ConsistencyError("fixed-point count mismatch: direct %d vs identity %d" % (direct, via_identity))
        orbits = len(lengths)  # the <u>-orbits on H\G are the double cosets H_m g<u>
        if orbits * cusp.denominator != index * cusp.numerator:
            raise ConsistencyError("cusp ratio mismatch: direct %s vs formula %s" % (Fraction(orbits, index), cusp))
    counts = [count_in_subgroup(h, ref) for ref in refs]
    d = delta_from_ratios(*(_class_ratio(h, ref) for ref in refs), cusp)
    g = None
    if minus_one(low.ctx) in low:  # K_m <= H; g = 1 + [G:H] delta / 12
        g, rest = divmod(12 * d.denominator + index * d.numerator, 12 * d.denominator)
        if rest or g < 0:
            raise ConsistencyError("genus %s is not a non-negative integer" % (1 + Fraction(index, 12) * d))
    return GenusReport(index, *counts, cusp, d, g, *fixed)


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
