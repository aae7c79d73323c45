"""Named verification suites behind `sl2genus verify --suite <name>`.

Each suite replays one family of counting facts by brute force at desk scale
and returns (ok, detail).  The golden tables (the ten conjugacy classes of
SL2(Z/4Z), the twelve elements of A1, the recovery sets) are spelled out
literally and compared against computed sets element for element.  The
bodies of two suites live here too: the finite shadows of the section-2
surjectivity criteria and the desk-scale runner of the delta_H > 0 case list.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .core import (
    ConsistencyError,
    GroupCtx,
    Mat,
    PreconditionError,
    _mul,
    decoder,
    encoder,
    lower_u,
    make_ctx,
    mat,
    minus_one,
    num_to_json,
    parse_mat,
    right_mul,
    sigma,
    tau,
    upper_u,
)
from .groups import (
    ConjClassRef,
    capped_orbit,
    centralizer_brute,
    centralizer_order_formula,
    class_codes,
    conj_class_brute,
    enumerate_group,
    partition_into_classes,
    u_power_ref,
)
from .subgroups import (
    Subgroup,
    _generators,
    _lift_walk,
    _random_kernel_element,
    _sl2_lift_one,
    a1_subgroup,
    all_subgroups,
    borel,
    exceptional_availability,
    exceptional_subgroup,
    is_slim,
    nonsplit_cartan_normalizer,
    sample_slim_subgroups,
    split_cartan_normalizer,
    standard_subgroup,
)
from .fibers import (
    FiberDescriptor,
    fiber_group,
    recovery_count,
    recovery_count_brute,
    recovery_set_brute,
    reduction_fiber_sizes,
    verify_orthogonality,
)
from .genus import count_in_subgroup, delta
from .bounds import (
    CaseReport,
    _bcde,
    _e_bounds,
    _timed,
    bound_reports,
    fiber_count_bound_check,
    section7_all,
)

# ---- golden tables ----

CONJ4_TABLE: Dict[str, List[str]] = {
    "1": ["1,0;0,1"],
    "-1": ["-1,0;0,-1"],
    "sigma": ["0,1;-1,0", "1,2;-1,-1", "2,1;-1,2", "-1,2;-1,1", "1,1;2,-1", "-1,1;2,1"],
    "tau": [
        "1,1;-1,0",
        "1,-1;1,0",
        "0,1;-1,1",
        "0,-1;1,1",
        "-1,1;1,2",
        "-1,-1;-1,2",
        "2,1;1,-1",
        "2,-1;-1,-1",
    ],
    "u": ["1,1;0,1", "1,0;-1,1", "2,1;-1,0", "-1,0;-1,-1", "0,1;-1,2", "-1,1;0,-1"],
    "u^2": ["1,2;0,1", "1,0;2,1", "-1,2;2,-1"],
}

A1_TABLE = [
    "1,0;0,1",
    "-1,0;0,-1",
    "0,1;-1,0",
    "0,-1;1,0",
    "2,1;1,1",
    "1,-1;-1,2",
    "2,-1;-1,-1",
    "-1,1;1,2",
    "-1,2;-1,1",
    "1,2;1,-1",
    "1,1;2,-1",
    "-1,-1;2,1",
]


def _codes_of(texts: List[str], ctx: GroupCtx) -> frozenset:
    enc = encoder(ctx)
    return frozenset(enc(parse_mat(t, ctx)) for t in texts)


def golden_conj4_classes() -> Dict[str, frozenset]:
    ctx = make_ctx(2, 2)
    out = {}
    for name, texts in CONJ4_TABLE.items():
        out[name] = _codes_of(texts, ctx)
        if name not in ("1", "-1"):
            out["-" + name] = frozenset(map(right_mul(ctx, minus_one(ctx)), out[name]))
    return out


def suite_lemma4_5(seed: int = 0) -> Tuple[bool, str]:
    ctx = make_ctx(2, 2)
    golden = golden_conj4_classes()
    union: set = set()
    dec = decoder(ctx)
    for name, codes in golden.items():
        got = conj_class_brute(dec(next(iter(codes))), ctx)
        if got != codes:
            return False, "class %s differs from the table" % name
        union |= codes
    # orbits are equal or disjoint: the union is G exactly when every class of G is listed
    if union != set(enumerate_group(ctx).codes):
        return False, "classes do not partition the 48 elements"
    if len(partition_into_classes(enumerate_group(ctx))) != 10:
        return False, "expected exactly ten classes"
    return True, "10 classes, sizes 1,1,6,6,8,8,6,6,3,3"


_BCDE_PRIMES = (5, 7, 11, 13, 17, 19, 23)
_E_PRIMES = (5, 7, 11, 13, 17)


def suite_lemma4_6(seed: int = 0) -> Tuple[bool, str]:
    for p in _BCDE_PRIMES:
        ctx = make_ctx(p, 1)
        refs = {"sigma": ConjClassRef(ctx, "sigma"), "tau": ConjClassRef(ctx, "tau"), "u": u_power_ref(ctx, 0)}
        groups = {"B": borel(p), "C": split_cartan_normalizer(p), "D": nonsplit_cartan_normalizer(p)}
        for gname, sub in groups.items():
            for alpha, ref in refs.items():
                got = count_in_subgroup(sub, ref)
                want = _bcde(gname, alpha, p)
                if got != want:
                    return False, "#%s n Conj(%s) = %d != %d at p=%d" % (gname, alpha, got, want, p)
    for p in _E_PRIMES:
        ctx = make_ctx(p, 1)
        ref_s, ref_t, ref_u = ConjClassRef(ctx, "sigma"), ConjClassRef(ctx, "tau"), u_power_ref(ctx, 0)
        bs, bt = _e_bounds(p)
        for iso in ("A4", "S4", "A5"):
            if not exceptional_availability(p, iso):
                continue
            e = exceptional_subgroup(p, iso, seed=seed)
            if count_in_subgroup(e, ref_s) > bs:
                return False, "E:%s sigma count above %d at p=%d" % (iso, bs, p)
            if count_in_subgroup(e, ref_t) > bt:
                return False, "E:%s tau count above %d at p=%d" % (iso, bt, p)
            if count_in_subgroup(e, ref_u) != 0:
                return False, "E:%s meets Conj(u) at p=%d" % (iso, p)
    return True, "B/C/D exact at p in %s; E bounds at p in %s" % (_BCDE_PRIMES, _E_PRIMES)


def suite_lemma4_10(seed: int = 0) -> Tuple[bool, str]:
    ctx = make_ctx(2, 2)
    a1 = a1_subgroup()
    if a1.codes() != _codes_of(A1_TABLE, ctx):
        return False, "A1 differs from the twelve-element table"
    want = {"sigma": 3, "tau": 2}
    for kind, expect in want.items():
        got = count_in_subgroup(a1, ConjClassRef(ctx, kind))
        if got != expect:
            return False, "#A1 n Conj(%s) = %d != %d" % (kind, got, expect)
    for r, expect in ((0, 0), (1, 0)):
        got = count_in_subgroup(a1, u_power_ref(ctx, r))
        if got != expect:
            return False, "#A1 n Conj(u^%d) = %d != 0" % (2**r, got)
    return True, "A1 counts (3, 2, 0, 0)"


_SIZE_GRID = ((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (7, 1))


def suite_lemma5_1(seed: int = 0) -> Tuple[bool, str]:
    for p, n in _SIZE_GRID:
        ctx = make_ctx(p, n)
        for ref in (ConjClassRef(ctx, "sigma"), ConjClassRef(ctx, "tau"), u_power_ref(ctx, 0)):
            orbit = class_codes(ref)  # raises ConsistencyError on an orbit off its closed form
            if len(orbit) * centralizer_order_formula(ref) != ctx.order:
                return False, "orbit-stabilizer fails for %s at (%d,%d)" % (ref.kind, p, n)
        if ctx.order <= 2000:
            g = enumerate_group(ctx)
            for kind in ("sigma", "tau"):
                rep_ref = ConjClassRef(ctx, kind)
                zb = len(centralizer_brute(rep_ref.representative(), g))
                if zb != centralizer_order_formula(rep_ref):
                    return False, "centralizer mismatch for %s at (%d,%d)" % (kind, p, n)
    return True, "class sizes and centralizers on %s" % (_SIZE_GRID,)


def suite_lemma5_2(seed: int = 0) -> Tuple[bool, str]:
    for p, n in _SIZE_GRID:
        ctx = make_ctx(p, n)
        for r in range(0, n):
            class_codes(u_power_ref(ctx, r))  # raises ConsistencyError on an orbit off its closed form
    return True, "u^(p^r) class sizes, all legal r on %s" % (_SIZE_GRID,)


_FIBER_GRID = (
    ("sigma", 3, 0, 2, 1),
    ("sigma", 3, 0, 3, 2),
    ("sigma", 3, 0, 4, 2),
    ("sigma", 5, 0, 2, 1),
    ("sigma", 2, 0, 3, 2),
    ("sigma", 2, 0, 4, 2),
    ("sigma", 2, 0, 5, 3),
    ("tau", 3, 0, 2, 1),
    ("tau", 5, 0, 2, 1),
    ("tau", 2, 0, 2, 1),
    ("tau", 2, 0, 4, 2),
    ("u_power", 3, 0, 2, 1),
    ("u_power", 3, 1, 2, 1),
    ("u_power", 5, 0, 2, 1),
    ("u_power", 2, 0, 4, 3),
    ("u_power", 2, 1, 4, 3),
    ("u_power", 2, 0, 6, 3),
)


def suite_lemma5_3(seed: int = 0) -> Tuple[bool, str]:
    for kind, p, r, n, m in _FIBER_GRID:
        desc = FiberDescriptor(p, r, n, m, kind)
        fiber_group(desc)  # raises ConsistencyError on any structural failure, its order included
    # size-2 fibers outside the hypothesis at p=2
    if reduction_fiber_sizes("sigma", 2, 2, 1) != frozenset({2}):
        return False, "sigma mod-2 fibers are not of size 2"
    for r in (0, 1):
        if reduction_fiber_sizes("u_power", 2, r + 3, r + 2, r=r) != frozenset({2}):
            return False, "u fibers 2^(r+3) -> 2^(r+2) are not of size 2"
        if reduction_fiber_sizes("u_power", 2, r + 2, r + 1, r=r) != frozenset({2}):
            return False, "u fibers 2^(r+2) -> 2^(r+1) are not of size 2"
    return True, "%d fiber descriptors plus the p=2 size-2 fibers" % len(_FIBER_GRID)


def suite_lemma5_6(seed: int = 0) -> Tuple[bool, str]:
    for kind, p, r, n, m in _FIBER_GRID:
        desc = FiberDescriptor(p, r, n, m, kind)
        if not verify_orthogonality(desc):
            return False, "orthogonality fails for %r" % (desc,)
    return True, "trace-pairing complements on %d descriptors" % len(_FIBER_GRID)


def _golden_recovery(kind: str, p: int, n: int, r: int) -> frozenset:
    ctx = make_ctx(p, r + n if kind == "u_power" else n)
    enc = encoder(ctx)
    if kind == "sigma":
        if p >= 3:
            return frozenset(
                (enc(sigma(ctx)), enc(mat(0, -1, 1, 0, ctx)))
            )
        if n == 2:
            return frozenset((enc(sigma(ctx)), enc(mat(2, 1, -1, 2, ctx))))
        h = 2 ** (n - 1)
        return frozenset(
            (
                enc(sigma(ctx)),
                enc(mat(0, 1 + h, -1 + h, 0, ctx)),
                enc(mat(h, 1, -1, h, ctx)),
                enc(mat(h, 1 + h, -1 + h, h, ctx)),
            )
        )
    if kind == "tau":
        if p != 3:
            return frozenset((enc(tau(ctx)), enc(mat(0, -1, 1, 1, ctx))))
        h = 3 ** (n - 1)
        return frozenset(
            (
                enc(tau(ctx)),
                enc(mat(1 + h, 1 - h, -1 + h, -h, ctx)),
                enc(mat(1 - h, 1 + h, -1 - h, h, ctx)),
            )
        )
    q = p**r
    span = p**n
    if p >= 3:
        return frozenset(
            enc(mat(1, q * (s * s % span), 0, 1, ctx)) for s in range(1, span) if s % p
        )
    if n == 2:
        return frozenset((enc(mat(1, q, 0, 1, ctx)), enc(mat(-1, q, 0, -1, ctx))))
    h = 2 ** (r + n - 1)
    out = set()
    for s in range(1, span, 2):
        out.add(enc(mat(1, q * (s * s % span), 0, 1, ctx)))
        out.add(enc(mat(1 + h, q * (s * s % span), 0, 1 + h, ctx)))
    return frozenset(out)


_RECOVERY_GRID = (
    ("sigma", 3, 2, 0),
    ("sigma", 5, 2, 0),
    ("sigma", 2, 2, 0),
    ("sigma", 2, 3, 0),
    ("sigma", 2, 4, 0),
    ("tau", 3, 2, 0),
    ("tau", 3, 3, 0),
    ("tau", 5, 2, 0),
    ("tau", 2, 3, 0),
    ("u_power", 3, 2, 0),
    ("u_power", 5, 2, 0),
    ("u_power", 3, 2, 1),
    ("u_power", 2, 2, 0),
    ("u_power", 2, 3, 0),
    ("u_power", 2, 4, 0),
    ("u_power", 2, 3, 1),
)

_RECOVERY_COUNT_GRID = (
    ("sigma", 3, 2, 1, 0),
    ("sigma", 5, 2, 1, 0),
    ("sigma", 7, 2, 1, 0),
    ("sigma", 2, 3, 2, 0),
    ("sigma", 2, 4, 2, 0),
    ("sigma", 2, 5, 3, 0),
    ("sigma", 2, 6, 3, 0),
    ("tau", 3, 2, 1, 0),
    ("tau", 3, 3, 2, 0),
    ("tau", 3, 4, 2, 0),
    ("tau", 5, 2, 1, 0),
    ("tau", 2, 3, 2, 0),
    ("u_power", 3, 2, 1, 0),
    ("u_power", 3, 2, 1, 1),
    ("u_power", 5, 2, 1, 0),
    ("u_power", 3, 4, 2, 0),
    ("u_power", 2, 4, 3, 0),
    ("u_power", 2, 5, 3, 0),
    ("u_power", 2, 6, 3, 0),
    ("u_power", 2, 4, 3, 1),
)


def suite_lemma5_8_16(seed: int = 0) -> Tuple[bool, str]:
    for kind, p, n, r in _RECOVERY_GRID:
        ctx = make_ctx(p, r + n if kind == "u_power" else n)
        got = recovery_set_brute(kind, ctx, r=r)
        want = _golden_recovery(kind, p, n, r)
        if got != want:
            return False, "recovery set mismatch for %s at p=%d n=%d r=%d" % (kind, p, n, r)
    for kind, p, n, m, r in _RECOVERY_COUNT_GRID:
        want = recovery_count(kind, p, n, m)
        got = recovery_count_brute(kind, p, n, m, r=r)
        if got != want:
            return False, "recovery count %d != %d for %s p=%d n=%d m=%d r=%d" % (got, want, kind, p, n, m, r)
    return True, "recovery sets (%d) and counts (%d)" % (len(_RECOVERY_GRID), len(_RECOVERY_COUNT_GRID))


def _slim_sample(key: tuple, ctx: GroupCtx, count: int, mod_p_target: Optional[Subgroup] = None) -> List[Subgroup]:
    """sample_slim_subgroups seeded by repr(key): each sampled set, and every
    digest of it, is fixed by its key."""
    return sample_slim_subgroups(ctx, count, random.Random(key.__repr__()), mod_p_target)


def _first_violation(subs: Iterable[Subgroup]) -> Tuple[int, Optional[Tuple[Subgroup, tuple]]]:
    """(bound reports read, None), or at the first failing report (reports
    read, (H, its first failing check))."""
    checked = 0
    for h in subs:
        for rep in bound_reports(h):
            checked += 1
            if not rep.ok:
                return checked, (h, next(c for c in rep.checks if not c[1]))
    return checked, None


def suite_lemma6_1(seed: int = 0) -> Tuple[bool, str]:
    grid = ((3, 2), (5, 2), (3, 3), (2, 4))
    total, bad = _first_violation([h for p, n in grid for h in _slim_sample((seed, p, n), make_ctx(p, n), 25)])
    if bad is not None:
        h, check = bad
        return False, "violation %r at (%d,%d), #H=%d" % (check, h.ctx.p, h.ctx.n, h.order)
    return True, "filtration and closed-form bounds on %d sampled (H, class) pairs" % total


def suite_cor6_5(seed: int = 0) -> Tuple[bool, str]:
    # exhaustive at SL2(Z/9Z), sampled at SL2(Z/27Z)
    ctx9 = make_ctx(3, 2)
    g9 = enumerate_group(ctx9)
    checked = 0
    for codes in all_subgroups(g9, conjugacy_gens=[upper_u(ctx9), lower_u(ctx9)]):
        h = Subgroup.from_codes(ctx9, codes)
        if not is_slim(h):
            continue
        for ref in (ConjClassRef(ctx9, "sigma"), ConjClassRef(ctx9, "tau"), u_power_ref(ctx9, 0)):
            if not fiber_count_bound_check(h, ref, 1, 0):
                return False, "fiber-count bound fails at modulus 9, #H=%d" % h.order
            checked += 1
    ctx27 = make_ctx(3, 3)
    for h in _slim_sample((seed, "cor65"), ctx27, 40):
        for ref in (ConjClassRef(ctx27, "sigma"), ConjClassRef(ctx27, "tau"), u_power_ref(ctx27, 0)):
            for d in (0, 1):
                if not fiber_count_bound_check(h, ref, 1, d):
                    return False, "fiber-count bound fails at modulus 27, #H=%d" % h.order
                checked += 1
    return True, "%d fiber-count checks" % checked


# ---- finite shadows of the section-2 surjectivity criteria ----


def section2_l2_1(seed: int) -> bool:
    """L2_1: subgroups of SL2(Z/p^nZ) (n >= 3) surjecting mod p^2 are everything;
    for p >= 5 already surjecting mod p suffices.  #H and #(H mod p^crit) come from
    the Schreier walk, which closes H mod p alone.  Even draws are u and t(u) times
    K_crit elements (the hypothesis holds), odd ones 1-3 uniform SL2 elements (GL2
    draws column-rescaled; a det divisible by p skipped).  A1 in SL2(Z/4Z) is the
    recorded p=2 counterexample the criterion excludes."""
    rng = random.Random(seed)
    for p, n in ((3, 3), (5, 2)):
        ctx, crit, hit = make_ctx(p, n), 2 if p < 5 else 1, 0
        m = ctx.modulus
        for i in range(20):
            if i == 0 and p == 3:  # sharpness: all of SL2(F_3) mod 3, 24 elements mod 9
                gens = [sigma(ctx), (7, 3, 2, 1)]
            elif i % 2 == 0:
                gens = [_mul(f(ctx), _random_kernel_element(ctx, crit, rng), m) for f in (upper_u, lower_u)]
            else:
                draws = [tuple(rng.randrange(m) for _ in range(4)) for _ in range(rng.randint(1, 3))]
                gens = [_sl2_lift_one(g, m) for g in draws if (g[0] * g[3] - g[1] * g[2]) % p]
            h = Subgroup(ctx, tuple(gens))
            if gens and h.reduced(crit).order == make_ctx(p, crit).order:
                hit += 1
                if h.order != ctx.order:
                    return False
        if hit == 0:  # the biased draws must exercise the hypothesis
            raise ConsistencyError("L2_1 sampler produced no surjective subgroup")
    # p=2 exception: A1 surjects mod 2 yet is proper
    a1 = a1_subgroup()
    return a1.reduced(1).order == 6 and a1.order != a1.ctx.order


def _l2_5_sides(gens: Sequence[Mat], p: int) -> Tuple[bool, int, set]:
    """H = <gens> in GL2(Z/p^2Z): whether det H is all of (Z/p^2Z)^* (cyclic), #(H mod p), and the dets
    det z (det adj t)^-1 of the Schreier generators z t^-1 of H n (1 + p M2), read from the lift walk of H mod p."""
    m = p * p
    dets = [(a * d - b * c) % m for a, b, c, d in gens]
    full = len(capped_orbit(1, [lambda x, d=d: x * d % m for d in dets], m)) == p * (p - 1)
    lifts: List[Mat] = []
    pairs = _lift_walk(gens, m, p, lifts, m * m)  # #lifts <= #GL2(F_p) < p^4
    kernel = {(z0 * z3 - z1 * z2) * pow(a0 * a3 - a1 * a2, -1, m) % m for (z0, z1, z2, z3), (a0, a1, a2, a3) in pairs}
    return full, len(lifts), kernel


def section2_l2_5(seed: int) -> bool:
    """L2_5: H in GL2(Z/p^2Z) (p = 3, 5, 7) with full det image has det(H n (1 + p M2))
    = 1 + pZ/p^2Z.  H = <1 or 2 uniform matrices>, a det divisible by p skipped."""
    rng = random.Random(seed)
    for p in (3, 5, 7):
        m, proper = p * p, False
        for i in range(400):  # 40 draws, then on until some H meeting the hypothesis is proper mod p
            if i >= 40 and proper:
                break
            gens = [tuple(rng.randrange(m) for _ in range(4)) for _ in range(rng.randint(1, 2))]
            if any((a * d - b * c) % p == 0 for a, b, c, d in gens):
                continue
            full, image, kernel = _l2_5_sides(gens, p)
            if full and kernel <= {1}:  # 1 + pZ/p^2Z has prime order: one det != 1 generates it
                return False
            proper = proper or (full and image < (m - 1) * (m - p))
        if not proper:
            raise ConsistencyError("L2_5 drew no proper H mod %d with full determinant image" % p)
    return True


def suite_section2(seed: int = 0) -> Tuple[bool, str]:
    if not section2_l2_1(seed):
        return False, "mod p^2 surjectivity criterion failed"
    if not section2_l2_5(seed):
        return False, "determinant surjectivity criterion failed"
    return True, "L2_1 and L2_5 finite shadows"


def section7_ok(reports: List[CaseReport]) -> bool:
    return all(r.verdict in ("match", "positive_but_differs") for r in reports)


def suite_section7(seed: int = 0) -> Tuple[bool, str]:
    reports = section7_all()
    verdicts = Counter(r.verdict for r in reports)
    detail = ", ".join("%d %s" % (verdicts[v], v) for v in sorted(verdicts))
    return section7_ok(reports), "%d cases: %s" % (len(reports), detail)


# ---- main theorem, desk scale ----


class DeskResult(NamedTuple):
    part: int
    label: str
    status: str
    checked: int
    min_delta: Optional[Fraction]
    seed: Optional[int]
    notes: str
    elapsed_ms: int = 0

    def to_json_dict(self) -> dict:
        return {
            "part": self.part,
            "label": self.label,
            "status": self.status,
            "checked": num_to_json(self.checked),
            "min_delta": num_to_json(self.min_delta) if self.min_delta is not None else None,
            "seed": num_to_json(self.seed) if self.seed is not None else None,
            "notes": self.notes,
            "elapsed_ms": self.elapsed_ms,
        }


def _delta_min(subs: Iterable[Subgroup]) -> Tuple[int, Optional[Fraction], str]:
    """(subgroups checked, least delta, status), stopping at the first delta <= 0."""
    checked, worst = 0, None
    for h in subs:
        d = delta(h)
        checked += 1
        if worst is None or d < worst:
            worst = d
        if d <= 0:
            return checked, worst, "fail"
    return checked, worst, "pass"


def _desk_sample(
    part: int, label: str, ctx: GroupCtx, target: Subgroup, samples: int, seed: int
) -> Tuple[List[Subgroup], str]:
    """The seeded slim sample of one desk case, and the note on a shortfall."""
    subs = _slim_sample((seed, part, label), ctx, samples, target)
    if len(subs) < samples:
        return subs, "; requested %d, sampler yielded %d" % (samples, len(subs))
    return subs, ""


def _delta_positive_exhaustive(label: str, container: Subgroup) -> DeskResult:
    ctx = container.ctx
    neg = encoder(ctx)(minus_one(ctx))
    lattice = all_subgroups(container.elements(), container.gens or _generators(container))  # E: has no gens
    checked, worst, status = _delta_min(Subgroup.from_codes(ctx, codes) for codes in lattice if neg in codes)
    notes = "exhaustive over subgroups containing -1" if status == "pass" else "found delta <= 0"
    return DeskResult(1, label, status, checked, worst, None, notes)


def _delta_positive_sampled(
    part: int, label: str, ctx: GroupCtx, target: Subgroup, samples: int, seed: int
) -> DeskResult:
    subs, short = _desk_sample(part, label, ctx, target, samples, seed)
    _, worst, status = _delta_min(subs)
    notes = "sampled slim subgroups" + short if status == "pass" else "found slim subgroup with delta <= 0"
    return DeskResult(part, label, status, len(subs), worst, seed, notes)


def _bounds_sampled(
    part: int, label: str, ctx: GroupCtx, target: Subgroup, samples: int, seed: int
) -> DeskResult:
    subs, short = _desk_sample(part, label, ctx, target, samples, seed)
    checked, bad = _first_violation(subs)
    if bad is not None:
        h, check = bad
        notes = "bound violation %r on subgroup of order %d" % (check, h.order)
        return DeskResult(part, label, "fail", checked, None, seed, notes)
    notes = "bound-chain validity at reduced exponent (%d inequality sets)" % checked + short
    return DeskResult(part, label, "pass", len(subs), None, seed, notes)


def _exceptional_kinds(p: int) -> List[str]:
    return ["E:" + iso for iso in ("A4", "S4", "A5") if exceptional_availability(p, iso)]


def _desk_cases(part: int) -> List[Tuple[int, int, List[str], str]]:
    """(p, level, level-one subgroup kinds, label note) of the cases of a desk part."""
    return {
        1: [(23, 1, ["B"], ""), (11, 1, ["C"], ""), (13, 1, ["C", "D"], "")]
        + [(p, 1, _exceptional_kinds(p), "") for p in (17, 19)],
        2: [(p, 2, ["B", "D"] + _exceptional_kinds(p), "") for p in (11, 13)],
        3: [(5, 3, ["C"], ""), (7, 3, ["B", "C", "D", "E:S4"], "")],
        4: [(5, 4, ["B", "D", "E:S4"], "")],
        5: [(3, 5, ["B", "C", "D", "SL"], " (reduced from 3^6)")],
        6: [(2, 7, ["F", "SL"], " (reduced from 2^10)")],
        7: [(2, 7, ["B"], " (reduced from 2^11)")],
    }[part]


_DESK_SAMPLES = {2: 40, 3: 20, 4: 4, 5: 25, 6: 25, 7: 25}


def verify_main_theorem_desk(
    part: int, seed: int = 0, samples: Optional[int] = None
) -> List[DeskResult]:
    """Desk-scale verification of the delta_H > 0 case list.

    Part 1 is exhaustive; parts 2-4 sample slim subgroups inside the relevant
    preimages and test delta_H > 0 directly; parts 5-7 run at reduced
    exponents (n <= 5 for p = 3, n <= 7 for p = 2) and report bound-chain
    validity rather than the full positivity statement.
    """
    if not 1 <= part <= 7:
        raise PreconditionError("parts run 1..7, got %d" % part)
    out = []
    for p, n, kinds, note in _desk_cases(part):
        for kind in kinds:
            target = standard_subgroup("full" if kind == "SL" else kind, p, seed=seed)
            if part == 1:
                out.append(_timed(_delta_positive_exhaustive, "%s@%d" % (kind, p), target))
                continue
            run = _delta_positive_sampled if part <= 4 else _bounds_sampled
            label = "%s@%d^%d%s" % (kind, p, n, note)
            ns = samples or _DESK_SAMPLES[part]
            out.append(_timed(run, part, label, make_ctx(p, n), target, ns, seed))
    return out


DESK_DEFAULT_PARTS = (1, 2, 3, 4, 5, 6, 7)


def desk_results(parts: Sequence[int], seed: int) -> List[DeskResult]:
    return [r for part in parts for r in verify_main_theorem_desk(part, seed=seed)]


def desk_ok(results: List[DeskResult]) -> bool:
    return all(r.status != "fail" for r in results)


def suite_main_theorem_desk(seed: int = 0) -> Tuple[bool, str]:
    results = desk_results(DESK_DEFAULT_PARTS, seed)
    failed = sum(r.status == "fail" for r in results)
    return desk_ok(results), "parts %s: %d cases, %d failed" % (
        ",".join(map(str, DESK_DEFAULT_PARTS)),
        len(results),
        failed,
    )


SUITES: Dict[str, Callable[..., Tuple[bool, str]]] = {
    "lemma4.5": suite_lemma4_5,
    "lemma4.6": suite_lemma4_6,
    "lemma4.10": suite_lemma4_10,
    "lemma5.1": suite_lemma5_1,
    "lemma5.2": suite_lemma5_2,
    "lemma5.3": suite_lemma5_3,
    "lemma5.6": suite_lemma5_6,
    "lemma5.8-5.16": suite_lemma5_8_16,
    "lemma6.1": suite_lemma6_1,
    "cor6.5": suite_cor6_5,
    "section2": suite_section2,
    "section7": suite_section7,
    "main-theorem-desk": suite_main_theorem_desk,
}


def suite_names() -> List[str]:
    return list(SUITES)
