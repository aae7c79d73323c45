"""Named verification suites behind `sl2genus verify --suite <name>`.

Each suite replays one family of counting facts by brute force at desk scale
and returns (ok, detail).  The golden tables (the ten conjugacy classes of
SL2(Z/4Z), the twelve elements of A1, the recovery sets) are spelled out
literally and compared against computed sets element for element.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Callable, Dict, List, Sequence, Tuple

from .core import (
    GroupCtx,
    decoder,
    encoder,
    lower_u,
    make_ctx,
    mat,
    minus_one,
    parse_mat,
    right_mul,
    sigma,
    tau,
    upper_u,
)
from .groups import (
    ConjClassRef,
    centralizer_brute,
    centralizer_order_formula,
    class_codes,
    conj_class_brute,
    conj_class_size_formula,
    enumerate_group,
    partition_into_classes,
    u_power_ref,
)
from .subgroups import (
    Subgroup,
    a1_subgroup,
    all_subgroups,
    borel,
    exceptional_availability,
    exceptional_subgroup,
    is_slim,
    nonsplit_cartan_normalizer,
    sample_slim_subgroups,
    section2_property_check,
    split_cartan_normalizer,
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
from .genus import count_in_subgroup
from .bounds import (
    CaseReport,
    DeskResult,
    _bcde,
    _e_bounds,
    bound_reports,
    fiber_count_bound_check,
    section7_all,
    verify_main_theorem_desk,
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
    sizes = sorted(len(v) for v in golden.values())
    if sizes != [1, 1, 3, 3, 6, 6, 6, 6, 8, 8]:
        return False, "golden table sizes are off"
    union: set = set()
    dec = decoder(ctx)
    for name, codes in golden.items():
        got = conj_class_brute(dec(next(iter(codes))), ctx).codes
        if got != codes:
            return False, "class %s differs from the table" % name
        if union & codes:
            return False, "classes are not disjoint"
        union |= codes
    if len(union) != 48 or union != set(enumerate_group(ctx).codes):
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
        for kind in ("sigma", "tau"):
            ref = ConjClassRef(ctx, kind)
            brute = len(class_codes(ref))
            if brute != conj_class_size_formula(ref):
                return False, "Conj(%s) size mismatch at (%d,%d)" % (kind, p, n)
            zf = centralizer_order_formula(ref)
            if brute * zf != ctx.order:
                return False, "orbit-stabilizer fails for %s at (%d,%d)" % (kind, p, n)
        ref = u_power_ref(ctx, 0)
        if len(class_codes(ref)) != conj_class_size_formula(ref):
            return False, "Conj(u) size mismatch at (%d,%d)" % (p, n)
        if len(class_codes(ref)) * centralizer_order_formula(ref) != ctx.order:
            return False, "orbit-stabilizer fails for u at (%d,%d)" % (p, n)
        if ctx.order <= 2000:
            g = enumerate_group(ctx)
            for kind in ("sigma", "tau"):
                rep_ref = ConjClassRef(ctx, kind)
                zb = len(centralizer_brute(rep_ref.representative(), g).codes)
                if zb != centralizer_order_formula(rep_ref):
                    return False, "centralizer mismatch for %s at (%d,%d)" % (kind, p, n)
    return True, "class sizes and centralizers on %s" % (_SIZE_GRID,)


def suite_lemma5_2(seed: int = 0) -> Tuple[bool, str]:
    for p, n in _SIZE_GRID:
        ctx = make_ctx(p, n)
        for r in range(0, n):
            ref = u_power_ref(ctx, r)
            if len(class_codes(ref)) != conj_class_size_formula(ref):
                return False, "Conj(u^%d^%d) size mismatch at (%d,%d)" % (p, r, p, n)
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
        v = fiber_group(desc)  # raises ConsistencyError on any structural failure
        if len(v) != p ** (2 * (n - m)):
            return False, "wrong fiber order for %r" % (desc,)
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
        if n == 1:
            return frozenset((enc(sigma(ctx)),))
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
        if n == 1:
            return frozenset((enc(tau(ctx)),))
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
    if n == 1:
        return frozenset((enc(mat(1, q, 0, 1, ctx)),))
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
            return False, "recovery count %d != %d for %s p=%d n=%d m=%d r=%d" % (
                got,
                want,
                kind,
                p,
                n,
                m,
                r,
            )
    return True, "recovery sets (%d) and counts (%d)" % (len(_RECOVERY_GRID), len(_RECOVERY_COUNT_GRID))


def _sample_grid(seed: int, per_ctx: int) -> List[Tuple[GroupCtx, List[Subgroup]]]:
    out = []
    for p, n in ((3, 2), (5, 2), (3, 3), (2, 4)):
        ctx = make_ctx(p, n)
        rng = random.Random((seed, p, n).__repr__())
        out.append((ctx, sample_slim_subgroups(ctx, per_ctx, rng)))
    return out


def suite_lemma6_1(seed: int = 0) -> Tuple[bool, str]:
    total = 0
    for ctx, subs in _sample_grid(seed, 25):
        for h in subs:
            for rep in bound_reports(h):
                total += 1
                if not rep.ok:
                    bad = [c for c in rep.checks if not c[1]]
                    return False, "violation %r at (%d,%d), #H=%d" % (bad[0], ctx.p, ctx.n, h.order)
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
    rng = random.Random((seed, "cor65").__repr__())
    for h in sample_slim_subgroups(ctx27, 40, rng):
        for ref in (ConjClassRef(ctx27, "sigma"), ConjClassRef(ctx27, "tau"), u_power_ref(ctx27, 0)):
            for d in (0, 1):
                if not fiber_count_bound_check(h, ref, 1, d):
                    return False, "fiber-count bound fails at modulus 27, #H=%d" % h.order
                checked += 1
    return True, "%d fiber-count checks" % checked


def suite_section2(seed: int = 0) -> Tuple[bool, str]:
    if not section2_property_check("L2_1", trials=20, seed=seed):
        return False, "mod p^2 surjectivity criterion failed"
    if not section2_property_check("L2_5", trials=12, seed=seed):
        return False, "determinant surjectivity criterion failed"
    return True, "L2_1 and L2_5 finite shadows"


def section7_ok(reports: List[CaseReport]) -> bool:
    return all(r.verdict in ("match", "positive_but_differs") for r in reports)


def suite_section7(seed: int = 0) -> Tuple[bool, str]:
    reports = section7_all()
    verdicts = Counter(r.verdict for r in reports)
    detail = ", ".join("%d %s" % (verdicts[v], v) for v in sorted(verdicts))
    return section7_ok(reports), "%d cases: %s" % (len(reports), detail)


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
