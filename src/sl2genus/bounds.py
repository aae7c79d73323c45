"""Slim-subgroup bounds and exact re-verification of the delta_H case chains.

corrected_bound adds to each closed-form sequence of sequences.bound_sequence
its correction term from #(H mod p^(r+k) n Conj(alpha)).  slim_bound_report
tests every applicable inequality on a concrete slim subgroup, including the
underlying step-by-step decomposition over the fiber groups V.
verify_section7 re-derives each printed inequality chain in exact rationals
and compares the final fraction with the printed one.
"""

from __future__ import annotations

import time
from collections import Counter
from fractions import Fraction
from typing import Callable, Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .core import (
    DEFAULT_MAX_ELEMENTS,
    GroupCtx,
    Mat,
    PreconditionError,
    decoder,
    is_prime,
    make_ctx,
    num_to_json,
    reduce_mat,
    reducer,
)
from .groups import ConjClassRef, cached, class_codes, conj_class_size_formula, u_power_ref
from .subgroups import Subgroup, a1_subgroup, borel, filtration_level, kept, order_three_subgroup, preimage, is_slim
from .fibers import FiberDescriptor, commutator_fiber_codes, recovery_count
from .genus import count_in_subgroup, cusp_series, delta_from_ratios
from .sequences import bound_sequence

# -------------------- corrected bounds --------------------


def _correction(kind: str, p: int) -> Tuple[int, int, int]:
    """(e, c, k) of the bound a(kind, p)_n + p^(n-e) (#(H mod p^(r+k) n Conj) - c)."""
    # Every p >= 3 kind has k = 1, and the chain's total reads that count, so
    # another k there raises.  No library check sees a wrong k at p = 2: every
    # report and section-7 verdict still holds.  The ladder oracle in
    # tests/test_bounds.py and the benchmark's golden digests see it
    # (tests/test_faults.py, test_a_wrong_count_level_*).
    return {
        "a_sigma_p": (1, 2, 1),
        "a_tau_p": (1, 2, 1),
        "a_tau_3": (1, 1, 1),
        "a_u_p": (1, (p - 1) // 2, 1),
        "a_sigma_2": (2, 2, 2),
        "a_tau_2": (2, 8, 3),
        "a_u_2": (1, 2, 3),
        "b_u_2": (3, 4, 3),
    }[kind]


def _corrected(kind: str, p: int, n: int) -> Tuple[int, Callable[[int], int]]:
    """k of kind, and the map count -> a(kind, p)_n + p^(n-e) (count - c), for the (e, c, k) of _correction."""
    e, c, k = _correction(kind, p)
    a, scale = bound_sequence(kind, p, n), p ** (n - e)
    return k, lambda count: a + scale * (count - c)


def corrected_bound(kind: str, p: int, n: int, count: int) -> int:
    """The bound on #(H n Conj(alpha)) for slim H at depth n, given count =
    #(H mod p^(r+k) n Conj(alpha)) (or an upper bound for it)."""
    return _corrected(kind, p, n)[1](count)


# -------------------- slim-subgroup checks --------------------


# The bound kinds of each class, in the order their checks are reported.
_CLASS_BOUNDS = {
    "sigma": ("a_sigma_p", "a_sigma_2"),
    "tau": ("a_tau_p", "a_tau_3", "a_tau_2"),
    "u_power": ("a_u_p", "a_u_2", "b_u_2"),
}


class _Plan(NamedTuple):
    """What slim_bound_report reads of a class alone: (kind, level r+k of its
    count, its bound as a map of the count) for each kind that applies at the
    class's depth, the class at each level r+1..n, and the fiber of each
    i = 1..depth/2 that has one.  It holds no element set: the orbits are read
    through class_codes under the subgroup's cap."""

    bounds: Tuple[Tuple[str, int, Callable[[int], int]], ...]
    refs: Dict[int, ConjClassRef]
    fibers: Dict[int, FiberDescriptor]


def _bound_plan(ref: ConjClassRef) -> _Plan:
    """ref's _Plan, built once per (context, kind, r) and kept in the context's memo."""
    ctx, r = ref.ctx, ref.r

    def build() -> _Plan:
        bounds, fibers = [], {}
        for kind in _CLASS_BOUNDS[ref.kind]:
            try:
                k, bound = _corrected(kind, ctx.p, ctx.n - r)
            except PreconditionError:  # its preconditions say where a bound applies
                continue
            bounds.append((kind, r + k, bound))
        for i in range(1, (ctx.n - r) // 2 + 1):
            try:
                fibers[i] = FiberDescriptor(ctx.p, r, ctx.n - r, ctx.n - r - i, ref.kind)
            except PreconditionError:  # no fiber V at this i (p = 2)
                continue
        refs = {s: ConjClassRef(make_ctx(ctx.p, s), ref.kind, r=r) for s in range(r + 1, ctx.n + 1)}
        return _Plan(tuple(bounds), refs, fibers)

    return cached(ctx, ("plan", ref.kind, r), build, DEFAULT_MAX_ELEMENTS)  # no elements, so no cap


def _count_reduced(h: Subgroup, plan: _Plan, level: int) -> int:
    """#(H mod p^level n Conj(alpha) mod p^level), the class read under h's cap."""
    return len(h.reduced(level).codes() & class_codes(plan.refs[level], h.cap))


def _v_codes(desc: FiberDescriptor, x: Mat) -> FrozenSet:
    """V_x for the fiber desc, in its commutator form.

    It depends on x only through x mod p^(r+n-m), never on H, so it is kept
    in the memo of desc.full_ctx() and shared across subgroups.
    """
    key = (desc, reduce_mat(x, desc.p ** (desc.r + desc.n - desc.m)))
    return cached(desc.full_ctx(), key, lambda: commutator_fiber_codes(desc, x), DEFAULT_MAX_ELEMENTS)


def _class_in(h: Subgroup, ref: ConjClassRef) -> FrozenSet:
    """Y_0 = H n Conj(alpha), the class read under h's cap."""
    return h.codes() & class_codes(ref, h.cap)


def _y_sets(h: Subgroup, plan: _Plan, y0: FrozenSet, idxs: Sequence[int]) -> Dict[int, FrozenSet]:
    """Y_0 = y0 = _class_in(h, ref) and Y_i = {x in Y_0 : H_(N-i) = V_x} for
    the requested i, on the plan's fibers.  Y_i lies in Y_0, so an empty Y_0
    builds no H_(N-i); and every V_x has p^(2i) elements (README), so an
    H_(N-i) of another size is compared with none."""
    ctx, dec = h.ctx, decoder(h.ctx)
    out: Dict[int, FrozenSet] = {0: y0}
    for i in idxs:
        filt = filtration_level(h, ctx.n - i).codes() if y0 else ()
        met = y0 if len(filt) == ctx.p ** (2 * i) else ()
        out[i] = frozenset(c for c in met if filt == _v_codes(plan.fibers[i], dec(c)))
    return out


def _reducers(ctx: GroupCtx) -> Tuple[Callable[[int], int], ...]:
    """core.reducer(ctx, s) for s = 1..n, built once per context and kept in its memo."""
    return cached(ctx, "reducers", lambda: tuple(reducer(ctx, s) for s in range(1, ctx.n + 1)), DEFAULT_MAX_ELEMENTS)


class SlimBoundReport:
    """The checks of one slim_bound_report, (label, ok, detail) in the order made."""

    def __init__(self) -> None:
        self.checks: List[Tuple[str, bool, str]] = []

    @property
    def ok(self) -> bool:
        return all(c[1] for c in self.checks)

    def add(self, label: str, ok: bool, detail: str = "") -> None:
        self.checks.append((label, ok, detail))


def slim_bound_report(h: Subgroup, ref: ConjClassRef) -> SlimBoundReport:
    """Every applicable closed-form inequality plus the filtration bound and
    the step-by-step decomposition chain, on a concrete slim subgroup."""
    return _report(h, ref, _bound_plan(ref))


def _report(h: Subgroup, ref: ConjClassRef, plan: _Plan) -> SlimBoundReport:
    """slim_bound_report on ref's plan, which bound_reports looks up once per class."""
    ctx = h.ctx
    if ref.ctx != ctx:
        raise PreconditionError("class reference bound to a different context")
    if not is_slim(h):
        raise PreconditionError("subgroup is not slim")
    if not plan.bounds:  # before any count: nothing would read it
        raise PreconditionError(
            "no closed-form bound applies to %s at p=%d, depth %d" % (ref.kind, ctx.p, ctx.n - ref.r)
        )
    rep = SlimBoundReport()
    y0 = _class_in(h, ref)  # the one intersection with the level-n class; the chains read it as Y_0
    cnt, counts = len(y0), {}  # #(H mod p^level n Conj) per level, counted once
    for kind, level, bound in plan.bounds:
        if level not in counts:
            counts[level] = _count_reduced(h, plan, level)
        rhs = bound(counts[level])
        rep.add(kind, cnt <= rhs, "%d <= %d" % (cnt, rhs))

    rep.add("filtration", *_filtration_checks(h))
    _chain_checks(h, ref, plan, rep, y0, counts)
    return rep


@kept("filtration check")
def _filtration_checks(h: Subgroup) -> Tuple[bool, str]:
    """(ok, the last violation) of #H_t <= #H_s p^(2(s-t)) for t0 <= t < s <= n,
    with #H_s = #H / #(H mod p^s) (Lagrange); kept in h's memo, so every class
    report of H shares it.  Only adjacent layers s = t + 1 are compared: the
    other pairs follow from them by induction."""
    p, n = h.ctx.p, h.ctx.n
    t0 = 2 if p == 2 else 1
    sizes = {s: h.order // len(h.reduced(s).codes()) for s in range(t0, n + 1)}
    ok, detail = True, ""
    for t in range(t0, n):
        if sizes[t] > sizes[t + 1] * p * p:
            ok, detail = False, "H_%d/H_%d = %d > p^2" % (t, t + 1, sizes[t] // sizes[t + 1])
    return ok, detail


def _chain_checks(
    h: Subgroup, ref: ConjClassRef, plan: _Plan, rep: SlimBoundReport, y0: FrozenSet, counts: Dict[int, int]
) -> None:
    ctx, cnt = h.ctx, len(y0)
    p, r = ctx.p, ref.r
    depth = ctx.n - r
    l = depth // 2
    red = _reducers(ctx)

    def mod_count(codes: FrozenSet, level: int) -> int:
        return len(set(map(red[level - 1], codes)))

    if p >= 3:  # l >= 1: slim_bound_report needs a bound, and every p >= 3 bound needs depth >= 2
        idxs = list(range(1, l + 1))
        y = _y_sets(h, plan, y0, idxs)
        m = {i: mod_count(y[i], r + i) for i in idxs}  # M(i) = #(Y_i mod p^(r+i)), counted once
        rep.add("chain:last", len(y[l]) <= p ** (2 * (depth - l)) * m[l])
        for i in idxs[1:] + [1]:  # steps 2..l, then step 1 as "chain:first"
            rhs = p ** (depth - 1) * (mod_count(y[i - 1], r + i) - m[i])
            rep.add("chain:step%d" % i if i > 1 else "chain:first", len(y[i - 1] - y[i]) <= rhs)
        total = (p ** (2 * (depth - l)) - p ** (depth - 1)) * m[l]
        total += (p * p - 1) * p ** (depth - 1) * sum(m[i] for i in range(1, l))
        total += p ** (depth - 1) * counts[r + 1]  # the bound's count: every p >= 3 kind has k = 1
        rep.add("chain:total", cnt <= total, "%d <= %d" % (cnt, total))
        for i in idxs:
            cap = recovery_count(ref.kind, p, depth, depth - i)
            rep.add("chain:recovery%d" % i, m[i] <= cap)
        return
    # p = 2 short chains at desk exponents k < depth <= k + 3, for sigma and
    # u_power: (k, level of the mod counts, recovery cap)
    short = {"sigma": (2, 2, 2), "u_power": (3, r + 3, 4)}.get(ref.kind)
    if short is None or not short[0] < depth <= short[0] + 3:
        return
    k, level, cap = short
    y = _y_sets(h, plan, y0, [1])
    m1, m0 = mod_count(y[1], level), mod_count(y[0], level)
    rep.add("chain:last", len(y[1]) <= 2 ** (2 * (depth - k)) * m1)
    rep.add("chain:first", len(y[0] - y[1]) <= 2 ** (depth - k) * (m0 - m1))
    total = (2 ** (2 * (depth - k)) - 2 ** (depth - k)) * m1 + 2 ** (depth - k) * m0
    rep.add("chain:total", cnt <= total, "%d <= %d" % (cnt, total))
    rep.add("chain:recovery1", m1 <= cap)


def bound_reports(h: Subgroup) -> Iterator[SlimBoundReport]:
    """slim_bound_report(h, ref) for each sigma, tau and u^(p^r) class that
    has a closed-form bound at the level of h; slim_bound_report refuses an h that is not slim."""
    ctx = h.ctx
    for ref in [ConjClassRef(ctx, "sigma"), ConjClassRef(ctx, "tau")] + [u_power_ref(ctx, r) for r in range(ctx.n - 1)]:
        plan = _bound_plan(ref)
        if plan.bounds:
            yield _report(h, ref, plan)


# --- fiber-count side conditions ---


def fiber_count_bound_check(h: Subgroup, ref: ConjClassRef, i: int, d: int) -> bool:
    """Fibers of the class map H -> H mod p^(r+i+d) have at most p^(n-1-d)
    elements when the top filtration layer is not the fiber group V."""
    ctx = h.ctx
    if ref.ctx != ctx:
        raise PreconditionError("class reference bound to a different context")
    p = ctx.p
    r = ref.r
    depth = ctx.n - r
    if not (i >= 1 and d >= 0 and i + d <= depth and 2 * i + d <= depth):
        raise PreconditionError("hypotheses of the fiber-count bound violated")
    if p == 2 and ref.kind == "tau" and d < 1:
        raise PreconditionError("p=2 tau needs d >= 1")
    # V_x depends on x mod p^(r+i) alone, so each fiber lies in Y_0 - Y_i whole or not at all
    plan, y0 = _bound_plan(ref), _class_in(h, ref)
    if i not in plan.fibers:
        FiberDescriptor(p, r, depth, depth - i, ref.kind)  # PreconditionError: no fiber V here (p = 2)
    y = _y_sets(h, plan, y0, [i])
    limit = p ** (depth - 1 - d)
    return all(cnt <= limit for cnt in Counter(map(_reducers(ctx)[r + i + d - 1], y[0] - y[i])).values())


# -------------------- section-7 audit --------------------


class CaseReport(NamedTuple):
    case_id: str
    inequality_chain: List[Tuple[str, Fraction]]
    printed_value: Fraction
    recomputed_value: Fraction
    verdict: str
    notes: str
    elapsed_ms: int = 0

    def to_json_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "chain": [[label, num_to_json(v)] for label, v in self.inequality_chain],
            "printed": num_to_json(self.printed_value),
            "recomputed": num_to_json(self.recomputed_value),
            "verdict": self.verdict,
            "notes": self.notes,
            "seed": None,  # section-7 chains draw nothing
            "elapsed_ms": self.elapsed_ms,
        }


class _Chain:
    """Accumulates labelled exact steps; equality failures become flags.

    step and expect record Fraction(value) and hand back the value they were
    given, so an integer count stays an integer for the next step."""

    def __init__(self) -> None:
        self.steps: List[Tuple[str, Fraction]] = []
        self.flags: List[str] = []

    def step(self, label: str, value):
        self.steps.append((label, Fraction(value)))
        return value

    def expect(self, label: str, got, want):
        g, w = Fraction(got), Fraction(want)
        self.steps.append((label, g))
        if g != w:
            self.flags.append("%s: recomputed %s != expected %s" % (label, g, w))
        return got

    def require(self, label: str, cond: bool) -> None:
        if not cond:
            self.flags.append(label)
        self.steps.append((label, Fraction(1 if cond else 0)))


def _cls(kind: str, p: int, level: int, r: int = 0) -> int:
    return conj_class_size_formula(ConjClassRef(make_ctx(p, level), kind, r))


def _bcde(group: str, alpha: str, p: int) -> int:
    """Closed-form #(K n Conj(alpha)) in SL2(Z/pZ) for K = B, C, D, at p >= 3."""
    if group == "B":
        if alpha == "sigma":
            return 0 if p % 4 == 3 else 2 * p
        if alpha == "tau":
            if p == 3:
                return 1
            return 0 if p % 3 == 2 else 2 * p
        return (p - 1) // 2
    if group == "C":
        if alpha == "sigma":
            return p - 1 if p % 4 == 3 else p + 1
        if alpha == "tau":
            return 2 if p % 3 == 1 else 0
        return 0
    if alpha == "sigma":  # D
        return p + 3 if p % 4 == 3 else p + 1
    if alpha == "tau":
        return 2 if p % 3 == 2 else 0
    return 0


def _level_one_counts(ch: _Chain, group: str, p: int, printed: Tuple[int, int, int]) -> Tuple[int, ...]:
    """#K n Conj(alpha) for alpha = sigma, tau, u, each checked against its printed value."""
    return tuple(
        ch.expect("#%s n Conj(%s)" % (group, alpha), _bcde(group, alpha, p), want)
        for alpha, want in zip(("sigma", "tau", "u"), printed)
    )


def _dominated(ch: _Chain, group: str, p: int, bs: int, bt: int, strict: bool) -> None:
    """Require K's level-one sigma and tau counts below (strict) or at most
    bs and bt, and no u in K: then the chain run on (bs, bt) bounds K's."""
    op = "<" if strict else "<="
    for alpha, bound in (("sigma", bs), ("tau", bt)):
        got = _bcde(group, alpha, p)
        ch.require("%s count %d %s %d" % (alpha, got, op, bound), got < bound if strict else got <= bound)
    ch.require("u count is 0", _bcde(group, "u", p) == 0)


def _e_bounds(p: int) -> Tuple[int, int]:
    if p % 5 in (1, 4):
        return 30, 20
    return 18, 8


def _finish(case_id: str, ch: _Chain, printed: Fraction, recomputed: Fraction, notes: str) -> CaseReport:
    if ch.flags:
        verdict = "positive_but_differs" if recomputed > 0 else "fail"
        notes = "; ".join(ch.flags) + ("; " + notes if notes else "")
    else:
        verdict = "match" if (recomputed == printed and recomputed > 0) else "fail"
    return CaseReport(case_id, ch.steps, printed, recomputed, verdict, notes)


def _branch_printed(ch: _Chain, branch: str, rec: Fraction, printed: Fraction) -> Fraction:
    """Close a V_u branch: its printed value, and whether rec reproduces it."""
    ch.step("%s branch: printed" % branch, printed)
    ch.require("%s branch matches" % branch, rec == printed)
    return printed


def _l71_value(p: int) -> Fraction:
    return Fraction(p * p - 7 * p - 164, (p - 1) * p)


def _case_l71(p: Optional[int]) -> CaseReport:
    ch = _Chain()
    primes = [q for q in range(5, 51) if is_prime(q)]
    for q in primes:
        v = _l71_value(q)
        ch.step("value at p=%d" % q, v)
        ch.require("positive iff p>=17 at p=%d" % q, (v > 0) == (q >= 17))
    target = p if p is not None else 17
    ebs, ebt = _e_bounds(target)
    ch.require("E sigma bound <= 30", ebs <= 30)
    ch.require("E tau bound <= 20", ebt <= 20)
    cls_min = (target - 1) * target
    ch.require("class sizes >= (p-1)p", _cls("sigma", target, 1) >= cls_min and _cls("tau", target, 1) >= cls_min)
    rec = ch.step(
        "1 - 3*30/((p-1)p) - 4*20/((p-1)p) - 6/p at p=%d" % target,
        delta_from_ratios(Fraction(30, cls_min), Fraction(20, cls_min), Fraction(1, target)),
    )
    printed = _l71_value(target)
    return _finish(
        "L7.1" if p is None else "L7.1:%d" % p,
        ch,
        printed,
        rec,
        "exceptional case at prime level; positivity threshold p >= 17",
    )


def _case_p72() -> CaseReport:
    p = 19
    ch = _Chain()
    cls_t = ch.expect("#Conj(tau) mod 19^2", _cls("tau", p, 2), 20 * 19**3)
    cls_u = ch.step("#Conj(u) mod 19^2", _cls("u_power", p, 2))
    _, bt, bu = _level_one_counts(ch, "B", p, (0, 38, 9))
    bt_bound = ch.expect("a(tau,p)_2 + p(38-2)", corrected_bound("a_tau_p", p, 2, bt), 74 * 19)
    r_tau = ch.expect("tau ratio", Fraction(bt_bound, cls_t), Fraction(37, 10 * 19**2))
    r_u = ch.expect("u ratio via p^2 fibers", Fraction(p * p * bu, cls_u), Fraction(1, p + 1))
    cusp = ch.expect("cusp bound (t=1)", cusp_series(p, [r_u]), Fraction(1, 10))
    rec = ch.step("delta lower bound", delta_from_ratios(0, r_tau, cusp))
    return _finish("P7.2", ch, Fraction(1805 - 74 - 1083, 5 * 19**2), rec, "Borel at p=19, level p^2")


def _case_p73() -> CaseReport:
    p = 17
    ch = _Chain()
    cls_s = ch.expect("#Conj(sigma) mod 17^2", _cls("sigma", p, 2), 18 * 17**3)
    cls_u = ch.step("#Conj(u) mod 17^2", _cls("u_power", p, 2))
    bs, _, bu = _level_one_counts(ch, "B", p, (34, 0, 8))
    bs_bound = ch.expect("a(sigma,p)_2 + p(34-2)", corrected_bound("a_sigma_p", p, 2, bs), 66 * 17)
    r_sig = ch.expect("sigma ratio", Fraction(bs_bound, cls_s), Fraction(11, 3 * 17**2))
    r_u = ch.expect("u ratio via p^2 fibers", Fraction(p * p * bu, cls_u), Fraction(1, p + 1))
    cusp = ch.expect("cusp bound (t=1)", cusp_series(p, [r_u]), Fraction(1, 9))
    rec = ch.step("delta lower bound", delta_from_ratios(r_sig, 0, cusp))
    return _finish("P7.3", ch, Fraction(867 - 33 - 578, 3 * 17**2), rec, "Borel at p=17, level p^2")


def _case_p74_b() -> CaseReport:
    p = 13
    ch = _Chain()
    cls_s = ch.expect("#Conj(sigma)", _cls("sigma", p, 2), 14 * 13**3)
    cls_t = ch.expect("#Conj(tau)", _cls("tau", p, 2), 14 * 13**3)
    cls_u = ch.step("#Conj(u)", _cls("u_power", p, 2))
    cls_up = ch.expect("#Conj(u^p)", _cls("u_power", p, 2, r=1), 84)
    bs, bt, bu = _level_one_counts(ch, "B", p, (26, 26, 6))
    st_bound = ch.expect("a(sigma,p)_2 + p(26-2)", corrected_bound("a_sigma_p", p, 2, bs), 50 * 13)
    r_sig = ch.expect("sigma ratio", Fraction(st_bound, cls_s), Fraction(25, 7 * 13**2))
    r_tau = ch.expect("tau ratio", Fraction(corrected_bound("a_tau_p", p, 2, bt), cls_t), Fraction(25, 7 * 13**2))
    # branch: H contains V_u
    r_up1 = ch.expect("Vu branch: u^p ratio", Fraction(bu, cls_up), Fraction(1, p + 1))
    r_u1 = ch.expect("Vu branch: u ratio", Fraction(p * p * bu, cls_u), Fraction(1, p + 1))
    cusp1 = ch.expect("Vu branch: cusp (t=2)", cusp_series(p, [r_u1, r_up1]), Fraction(1, 13))
    rec1 = ch.step("Vu branch: delta lower bound", delta_from_ratios(r_sig, r_tau, cusp1))
    printed1 = _branch_printed(ch, "Vu", rec1, Fraction(1183 - 75 - 100 - 546, 7 * 13**2))
    # branch: H does not contain V_u
    r_u2 = ch.expect("no-Vu branch: u ratio via <=p fibers", Fraction(p * bu, cls_u), Fraction(1, p * (p + 1)))
    cusp2 = ch.expect("no-Vu branch: cusp (t=1)", cusp_series(p, [r_u2]), Fraction(97, 7 * 13**2))
    rec2 = ch.step("no-Vu branch: delta lower bound", delta_from_ratios(r_sig, r_tau, cusp2))
    printed2 = _branch_printed(ch, "no-Vu", rec2, Fraction(1183 - 75 - 100 - 582, 7 * 13**2))
    return _finish("P7.4:B", ch, min(printed1, printed2), min(rec1, rec2), "Borel at p=13; both V_u branches")


def _case_p74_e() -> CaseReport:
    p = 13
    ch = _Chain()
    cls_s = ch.expect("#Conj(sigma)", _cls("sigma", p, 2), 14 * 13**3)
    cls_t = ch.expect("#Conj(tau)", _cls("tau", p, 2), 14 * 13**3)
    es, et = _e_bounds(p)
    ch.expect("E sigma bound (p != +-1 mod 5)", es, 18)
    ch.expect("E tau bound", et, 8)
    r_sig = ch.expect("sigma ratio", Fraction(corrected_bound("a_sigma_p", p, 2, es), cls_s), Fraction(3, 13**2))
    r_tau = ch.expect("tau ratio", Fraction(corrected_bound("a_tau_p", p, 2, et), cls_t), Fraction(16, 7 * 13**2))
    cusp = ch.expect("cusp (t=1, E n Conj(u) empty)", cusp_series(p, [Fraction(0)]), Fraction(1, 13))
    rec = ch.step("delta lower bound", delta_from_ratios(r_sig, r_tau, cusp))
    return _finish("P7.4:E", ch, Fraction(1183 - 63 - 64 - 546, 7 * 13**2), rec, "exceptional at p=13")


def _p75_master(ch: _Chain, bs: int, bt: int, bu: int, branch: str) -> Fraction:
    """The level-7^3 chain shared by the P7.5 cases; bs/bt/bu are the level-one
    counts fed into the closed-form bounds."""
    p = 7
    cls_s = ch.expect("#Conj(sigma)", _cls("sigma", p, 3), 6 * 7**5)
    cls_t = ch.expect("#Conj(tau)", _cls("tau", p, 3), 8 * 7**5)
    cls_u = ch.step("#Conj(u)", _cls("u_power", p, 3))
    cls_up = ch.step("#Conj(u^p)", _cls("u_power", p, 3, r=1))
    cls_upp = ch.expect("#Conj(u^p^2)", _cls("u_power", p, 3, r=2), 24)
    if bs:
        r_sig = ch.step("sigma ratio", Fraction(corrected_bound("a_sigma_p", p, 3, bs), cls_s))
    else:
        r_sig = ch.step("sigma ratio (empty at level one)", Fraction(0))
    r_tau = ch.step("tau ratio", Fraction(corrected_bound("a_tau_p", p, 3, bt), cls_t))
    if branch == "Vu":
        r_u = ch.expect("u ratio", Fraction(p**4 * bu, cls_u), Fraction(1, p + 1))
        r_up = ch.expect("u^p ratio", Fraction(p * p * (p - 1) // 2, cls_up), Fraction(1, p + 1))
        r_upp = ch.expect("u^p^2 ratio", Fraction((p - 1) // 2, cls_upp), Fraction(1, p + 1))
        cusp = ch.expect("cusp (t=3)", cusp_series(p, [r_u, r_up, r_upp]), Fraction(p * p + 1, (p + 1) * p * p))
    else:
        if bu:
            r_u = ch.expect("u ratio via <=p^3 fibers", Fraction(p**3 * bu, cls_u), Fraction(1, (p + 1) * p))
        else:
            r_u = ch.step("u ratio (empty at level one)", Fraction(0))
        up_cnt = ch.expect(
            "a(u,p)_2 + p(#Conj(u^p) mod p^2 - (p-1)/2)",
            corrected_bound("a_u_p", p, 2, _cls("u_power", p, 2, r=1)),
            (p - 1) * p * p,
        )
        r_up = ch.expect("u^p ratio", Fraction(up_cnt, cls_up), Fraction(2, p + 1))
        cusp = ch.step("cusp (t=2)", cusp_series(p, [r_u, r_up]))
    return ch.step("delta lower bound", delta_from_ratios(r_sig, r_tau, cusp))


def _case_p75(sub: str) -> CaseReport:
    p = 7
    ch = _Chain()
    if sub == "B":
        counts = _level_one_counts(ch, "B", p, (0, 14, 3))
        rec1 = _p75_master(ch, *counts, "Vu")
        printed1 = _branch_printed(ch, "Vu", rec1, Fraction(686 - 110 - 525, 2 * 7**3))
        rec2 = _p75_master(ch, *counts, "noVu")
        printed2 = _branch_printed(ch, "no-Vu", rec2, Fraction(686 - 110 - 273, 2 * 7**3))
        return _finish("P7.5:B", ch, min(printed1, printed2), min(rec1, rec2), "Borel at p=7, level p^3")
    es, et = _e_bounds(p)
    if sub == "E":
        ch.expect("E sigma bound", es, 18)
        ch.expect("E tau bound", et, 8)
    else:  # C and D are dominated by the exceptional chain
        _dominated(ch, sub, p, es, et, strict=False)
    rec = _p75_master(ch, es, et, 0, "noVu")
    printed = Fraction(343 - 57 - 52 - 105, 7**3)
    notes = "exceptional at p=7, level p^3" if sub == "E" else "dominated by the exceptional chain at p=7"
    return _finish("P7.5:%s" % sub, ch, printed, rec, notes)


def _case_p76(sub: str) -> CaseReport:
    p = 11
    ch = _Chain()
    cls_s = ch.expect("#Conj(sigma)", _cls("sigma", p, 2), 10 * 11**3)
    cls_t = ch.expect("#Conj(tau)", _cls("tau", p, 2), 10 * 11**3)
    cls_u = ch.step("#Conj(u)", _cls("u_power", p, 2))
    cls_up = ch.step("#Conj(u^p)", _cls("u_power", p, 2, r=1))
    if sub == "B":
        _, _, bu = _level_one_counts(ch, "B", p, (0, 0, 5))
        r_up1 = ch.expect("Vu branch: u^p ratio", Fraction(bu, cls_up), Fraction(1, p + 1))
        r_u1 = ch.expect("Vu branch: u ratio", Fraction(p * p * bu, cls_u), Fraction(1, p + 1))
        cusp1 = ch.expect("Vu branch: cusp (t=2)", cusp_series(p, [r_u1, r_up1]), Fraction(1, 11))
        rec1 = ch.step("Vu branch: delta lower bound", delta_from_ratios(0, 0, cusp1))
        printed1 = _branch_printed(ch, "Vu", rec1, Fraction(11 - 6, 11))
        r_u2 = ch.expect("no-Vu branch: u ratio", Fraction(p * bu, cls_u), Fraction(1, p * (p + 1)))
        cusp2 = ch.expect("no-Vu branch: cusp (t=1)", cusp_series(p, [r_u2]), Fraction(71, 2 * 3 * 11**2))
        rec2 = ch.step("no-Vu branch: delta lower bound", delta_from_ratios(0, 0, cusp2))
        printed2 = _branch_printed(ch, "no-Vu", rec2, Fraction(121 - 71, 11**2))
        return _finish("P7.6:B", ch, min(printed1, printed2), min(rec1, rec2), "Borel at p=11; both V_u branches")
    es, et = _e_bounds(p)
    if sub == "D":
        _dominated(ch, "D", p, es, et, strict=True)
    else:
        ch.expect("E sigma bound (p = +-1 mod 5)", es, 30)
        ch.expect("E tau bound", et, 20)
    r_sig = ch.expect("sigma ratio", Fraction(corrected_bound("a_sigma_p", p, 2, es), cls_s), Fraction(5, 11**2))
    r_tau = ch.expect("tau ratio", Fraction(corrected_bound("a_tau_p", p, 2, et), cls_t), Fraction(4, 11**2))
    cusp = ch.expect("cusp (t=1)", cusp_series(p, [Fraction(0)]), Fraction(1, 11))
    rec = ch.step("delta lower bound", delta_from_ratios(r_sig, r_tau, cusp))
    printed = Fraction(121 - 15 - 16 - 66, 11**2)
    notes = "exceptional at p=11" if sub == "E" else "dominated by the exceptional chain at p=11"
    return _finish("P7.6:%s" % sub, ch, printed, rec, notes)


def _case_p78() -> CaseReport:
    p = 5
    ch = _Chain()
    cls_s = ch.expect("#Conj(sigma)", _cls("sigma", p, 3), 6 * 5**5)
    cls_up = ch.expect("#Conj(u^p)", _cls("u_power", p, 3, r=1), 12 * 5**2)
    cs, _, _ = _level_one_counts(ch, "C", p, (6, 0, 0))
    corrected = ch.expect(
        "a(sigma,p)_3 + p^2(6-2) [coefficient p^(n-1) of the sigma bound]",
        corrected_bound("a_sigma_p", p, 3, cs),
        54 * 5**2,
    )
    printed_step = ch.step("printed step a(sigma,p)_3 + p^3(6-2)", bound_sequence("a_sigma_p", p, 3) + p**3 * (cs - 2))
    ch.require("printed coefficient p^3 differs from the p^(n-1) coefficient", printed_step != corrected)
    ch.flags.append(
        "printed factor p^3(6-2) is inconsistent with the p^(n-1) coefficient "
        "of the sigma bound; the printed total 54*5^2 matches p^2"
    )
    r_sig = ch.expect("sigma ratio", Fraction(corrected, cls_s), Fraction(9, 5**3))
    up_cnt = ch.expect("a(u,p)_2 + p(12-2)", corrected_bound("a_u_p", p, 2, _cls("u_power", p, 2, r=1)), 4 * 5**2)
    r_up = ch.expect("u^p ratio", Fraction(up_cnt, cls_up), Fraction(1, 3))
    cusp = ch.expect("cusp (t=2)", cusp_series(p, [Fraction(0), r_up]), Fraction(7, 3 * 5**2))
    rec = ch.step("delta lower bound", delta_from_ratios(r_sig, 0, cusp))
    return _finish("P7.8", ch, Fraction(125 - 27 - 70, 5**3), rec, "split Cartan normalizer at p=5, level p^3")


def _p79_master(ch: _Chain, bs: int, bt: int, bu: int) -> Fraction:
    p = 5
    cls_s = ch.expect("#Conj(sigma)", _cls("sigma", p, 4), 6 * 5**7)
    cls_t = ch.expect("#Conj(tau)", _cls("tau", p, 4), 4 * 5**7)
    cls_u = ch.expect("#Conj(u)", _cls("u_power", p, 4), 12 * 5**6)
    cls_up = ch.expect("#Conj(u^p)", _cls("u_power", p, 4, r=1), 12 * 5**4)
    cls_upp = ch.expect("#Conj(u^p^2)", _cls("u_power", p, 4, r=2), 12 * 5**2)
    r_sig = ch.step("sigma ratio", Fraction(corrected_bound("a_sigma_p", p, 4, bs), cls_s))
    if bt:
        r_tau = ch.step("tau ratio", Fraction(corrected_bound("a_tau_p", p, 4, bt), cls_t))
    else:
        r_tau = ch.step("tau ratio (empty at level one)", Fraction(0))
    if bu:
        u_cnt = ch.expect("a(u,p)_4", bound_sequence("a_u_p", p, 4), 18 * 5**4)
        r_u = ch.expect("u ratio", Fraction(u_cnt, cls_u), Fraction(3, 2 * 5**2))
    else:
        r_u = ch.step("u ratio (empty at level one)", Fraction(0))
    up_cnt = ch.expect("a(u,p)_3 + p^2(12-2)", corrected_bound("a_u_p", p, 3, _cls("u_power", p, 2, r=1)), 12 * 5**3)
    r_up = ch.expect("u^p ratio", Fraction(up_cnt, cls_up), Fraction(1, 5))
    upp_cnt = ch.expect("a(u,p)_2 + p(12-2)", corrected_bound("a_u_p", p, 2, _cls("u_power", p, 2, r=1)), 4 * 5**2)
    r_upp = ch.expect("u^p^2 ratio", Fraction(upp_cnt, cls_upp), Fraction(1, 3))
    cusp = ch.step("cusp (t=3)", cusp_series(p, [r_u, r_up, r_upp]))
    return ch.step("delta lower bound", delta_from_ratios(r_sig, r_tau, cusp))


def _case_p79(sub: str) -> CaseReport:
    p = 5
    ch = _Chain()
    if sub == "B":
        bs, _, bu = _level_one_counts(ch, "B", p, (10, 0, 2))
        rec = _p79_master(ch, bs, 0, bu)
        ch.expect(
            "cusp equals 37/(3*5^3)", [v for label, v in ch.steps if label == "cusp (t=3)"][-1],
            Fraction(37, 3 * 5**3),
        )
        printed = Fraction(625 - 33 - 370, 5**4)
        return _finish("P7.9:B", ch, printed, rec, "Borel at p=5, level 5^4")
    es, et = _e_bounds(p)
    if sub == "D":
        _dominated(ch, "D", p, es, et, strict=True)
    else:
        ch.expect("E sigma bound", es, 18)
        ch.expect("E tau bound", et, 8)
    rec = _p79_master(ch, es, et, 0)
    printed = Fraction(625 - 37 - 64 - 190, 5**4)
    notes = "exceptional at p=5, level 5^4" if sub == "E" else "dominated by the exceptional chain"
    return _finish("P7.9:%s" % sub, ch, printed, rec, notes)


def _p710_cusp_terms(ch: _Chain) -> List[Fraction]:
    """The five u^(3^i) ratio bounds shared by the P7.10 chains (i = 1..4 plus
    the leading u term handled by the caller)."""
    p = 3
    terms = []
    for i in range(1, 5):
        nn = 6 - i
        cnt = corrected_bound("a_u_p", p, nn, _cls("u_power", p, i + 1, r=i))
        ch.expect("a(u,3)_%d + 3^%d(4-1) = %d" % (nn, nn - 1, cnt), cnt, bound_sequence("a_u_p", p, nn) + 3**nn)
        terms.append(Fraction(cnt, _cls("u_power", p, 6, r=i)))
    return terms


def _case_p710(sub: str) -> CaseReport:
    p = 3
    ch = _Chain()
    cls_s = ch.expect("#Conj(sigma)", _cls("sigma", p, 6), 2 * 3**11)
    cls_t = ch.expect("#Conj(tau)", _cls("tau", p, 6), 4 * 3**10)
    cls_u = ch.expect("#Conj(u)", _cls("u_power", p, 6), 4 * 3**10)
    if sub == "B":
        _, bt, bu = _level_one_counts(ch, "B", p, (0, 1, 1))
        t_cnt = ch.expect("a(tau,3)_6", corrected_bound("a_tau_3", p, 6, bt), 13 * 3**6)
        r_tau = ch.expect("tau ratio", Fraction(t_cnt, cls_t), Fraction(13, 4 * 3**4))
        u_cnt = ch.expect("a(u,3)_6", corrected_bound("a_u_p", p, 6, bu), 17 * 3**6)
        r_u = ch.expect("u ratio", Fraction(u_cnt, cls_u), Fraction(17, 4 * 3**4))
        cusp = ch.expect("cusp (t=5)", cusp_series(p, [r_u] + _p710_cusp_terms(ch)), Fraction(43, 2 * 3**5))
        rec = ch.step("delta lower bound", delta_from_ratios(0, r_tau, cusp))
        return _finish("P7.10:B", ch, Fraction(81 - 13 - 43, 3**4), rec, "Borel at p=3, level 3^6")
    # SL, C, D all run on the full level-one class counts with u excluded
    if sub in ("C", "D"):
        _dominated(ch, sub, p, 6, 4, strict=False)
        note = "dominated by the mod-3-surjective chain"
    else:
        ch.require("H n Conj(u) empty: proper mod-9 image has no GL2-conjugate of u", True)
        note = "full mod-3 image at p=3, level 3^6"
    fs = ch.expect("#Conj(sigma) mod 3", _cls("sigma", p, 1), 6)
    ft = ch.expect("#Conj(tau) mod 3", _cls("tau", p, 1), 4)
    s_cnt = ch.expect("a(sigma,3)_6 + 3^5(6-2)", corrected_bound("a_sigma_p", p, 6, fs), 14 * 3**6)
    r_sig = ch.expect("sigma ratio", Fraction(s_cnt, cls_s), Fraction(7, 3**5))
    t_cnt = ch.expect("a(tau,3)_6 + 3^5(4-1)", corrected_bound("a_tau_3", p, 6, ft), 14 * 3**6)
    r_tau = ch.expect("tau ratio", Fraction(t_cnt, cls_t), Fraction(7, 2 * 3**4))
    cusp = ch.expect("cusp (t=5, u term 0)", cusp_series(p, [Fraction(0)] + _p710_cusp_terms(ch)), Fraction(13, 3**5))
    rec = ch.step("delta lower bound", delta_from_ratios(r_sig, r_tau, cusp))
    return _finish("P7.10:%s" % sub, ch, Fraction(81 - 7 - 14 - 26, 3**4), rec, note)


def _brute_count_mod(h: Subgroup, kind: str, level: int, r: int = 0) -> int:
    """#(f^-1(K) n Conj(alpha)) at 2-adic desk levels, K's labels lifted by count_in_subgroup."""
    target = preimage(h, make_ctx(2, level))
    return count_in_subgroup(target, ConjClassRef(target.ctx, kind, r))


def _b_u2_tail(ch: _Chain, top: int, start: int) -> List[Fraction]:
    """The u^(2^i) ratio bounds of the level-2^top chains, i = start..top-4,
    each from b(u,2)_(top-i) corrected by #Conj(u^(2^i)) mod 2^(i+3)."""
    p = 2
    terms = []
    for i in range(start, top - 3):
        nn = top - i
        cnt = corrected_bound("b_u_2", p, nn, _cls("u_power", p, i + 3, r=i))
        ch.expect("b(u,2)_%d + 2^%d(12-4)" % (nn, nn - 3), cnt, bound_sequence("b_u_2", p, nn) + 2**nn)
        terms.append(ch.step("u^2^%d ratio" % i, Fraction(cnt, _cls("u_power", p, top, r=i))))
    return terms


def _case_p711() -> CaseReport:
    p = 2
    ch = _Chain()
    cls_s = ch.expect("#Conj(sigma) mod 2^11", _cls("sigma", p, 11), 3 * 2**19)
    b = borel(2)
    fs = ch.expect("#f2,1^-1(B) n Conj(sigma)", _brute_count_mod(b, "sigma", 2), 2)
    ch.expect("#f2,1^-1(B) n Conj(tau)", _brute_count_mod(b, "tau", 2), 0)
    ch.expect("#f2,1^-1(B) n Conj(u)", _brute_count_mod(b, "u_power", 2), 2)
    ch.expect("#f2,1^-1(B) n Conj(u^2)", _brute_count_mod(b, "u_power", 2, r=1), 3)
    fu3 = ch.expect("#f3,1^-1(B) n Conj(u)", _brute_count_mod(b, "u_power", 3), 4)
    s_cnt = ch.expect("a(sigma,2)_11 + 2^9(2-2)", corrected_bound("a_sigma_2", p, 11, fs), 11 * 2**12)
    r_sig = ch.expect("sigma ratio", Fraction(s_cnt, cls_s), Fraction(11, 3 * 2**7))
    u_cnt = ch.expect("a(u,2)_11 + 2^10(4-2)", corrected_bound("a_u_2", p, 11, fu3), 23 * 2**11)
    terms = [ch.expect("u ratio", Fraction(u_cnt, _cls("u_power", p, 11)), Fraction(23, 3 * 2**7))]
    u2_cnt = ch.expect("a(u,2)_10 + 2^9(12-2)", corrected_bound("a_u_2", p, 10, _cls("u_power", p, 4, r=1)), 19 * 2**10)
    terms.append(ch.expect("u^2 ratio", Fraction(u2_cnt, _cls("u_power", p, 11, r=1)), Fraction(19, 3 * 2**6)))
    terms += _b_u2_tail(ch, 11, 2)
    cusp = ch.expect("cusp (t=8)", cusp_series(p, terms), Fraction(11, 3 * 2**5))
    rec = ch.step("delta lower bound", delta_from_ratios(r_sig, 0, cusp))
    return _finish("P7.11", ch, Fraction(128 - 11 - 88, 2**7), rec, "Borel at p=2, level 2^11")


def _case_p712(sub: str) -> CaseReport:
    p = 2
    ch = _Chain()
    cls_s = ch.expect("#Conj(sigma) mod 2^10", _cls("sigma", p, 10), 3 * 2**17)
    cls_t = ch.expect("#Conj(tau) mod 2^10", _cls("tau", p, 10), 2**19)
    if sub == "F":
        f = order_three_subgroup()
        ch.expect("#f2,1^-1(F) n Conj(sigma)", _brute_count_mod(f, "sigma", 2), 0)
        ch.expect("#f2,1^-1(F) n Conj(u)", _brute_count_mod(f, "u_power", 2), 0)
        ch.expect("#f2,1^-1(F) n Conj(u^2)", _brute_count_mod(f, "u_power", 2, r=1), 3)
        ft3 = ch.expect("#f3,1^-1(F) n Conj(tau)", _brute_count_mod(f, "tau", 3), 32)
        t_cnt = ch.expect("a(tau,2)_10 + 2^8(32-8)", corrected_bound("a_tau_2", p, 10, ft3), 13 * 2**11)
        r_tau = ch.expect("tau ratio", Fraction(t_cnt, cls_t), Fraction(13, 2**8))
        terms = [ch.step("u ratio (empty)", Fraction(0))] + _b_u2_tail(ch, 10, 1)
        cusp = ch.expect("cusp (t=7)", cusp_series(p, terms), Fraction(23, 3 * 2**6))
        rec = ch.step("delta lower bound", delta_from_ratios(0, r_tau, cusp))
        return _finish("P7.12:F", ch, Fraction(64 - 13 - 46, 2**6), rec, "order-3 image at p=2, level 2^10")
    # full mod-2 image: mod 4 the image is conjugate to A1
    a1 = a1_subgroup()
    ctx4 = a1.ctx
    a1s = ch.expect("#A1 n Conj(sigma)", count_in_subgroup(a1, ConjClassRef(ctx4, "sigma")), 3)
    ch.expect("#A1 n Conj(tau)", count_in_subgroup(a1, ConjClassRef(ctx4, "tau")), 2)
    ch.expect("#A1 n Conj(u)", count_in_subgroup(a1, u_power_ref(ctx4, 0)), 0)
    ch.expect("#A1 n Conj(u^2)", count_in_subgroup(a1, u_power_ref(ctx4, 1)), 0)
    ft3 = ch.expect("#f3,2^-1(A1) n Conj(tau)", _brute_count_mod(a1, "tau", 3), 8)
    s_cnt = ch.expect("a(sigma,2)_10 + 2^8(3-2)", corrected_bound("a_sigma_2", p, 10, a1s), 73 * 2**8)
    r_sig = ch.expect("sigma ratio", Fraction(s_cnt, cls_s), Fraction(73, 3 * 2**9))
    t_cnt = ch.expect("a(tau,2)_10 + 2^8(8-8)", corrected_bound("a_tau_2", p, 10, ft3), 5 * 2**12)
    r_tau = ch.expect("tau ratio", Fraction(t_cnt, cls_t), Fraction(5, 2**7))
    terms = [ch.step("u ratio (empty)", Fraction(0)), ch.step("u^2 ratio (empty)", Fraction(0))] + _b_u2_tail(ch, 10, 2)
    cusp = ch.expect("cusp (t=7)", cusp_series(p, terms), Fraction(31, 3 * 2**7))
    rec = ch.step("delta lower bound", delta_from_ratios(r_sig, r_tau, cusp))
    return _finish("P7.12:SL", ch, Fraction(512 - 73 - 80 - 248, 2**9), rec, "full mod-2 image, level 2^10")


_SECTION7: Dict[str, Callable[[], CaseReport]] = {
    "P7.2": _case_p72,
    "P7.3": _case_p73,
    "P7.4:B": _case_p74_b,
    "P7.4:E": _case_p74_e,
    "P7.5:B": lambda: _case_p75("B"),
    "P7.5:C": lambda: _case_p75("C"),
    "P7.5:D": lambda: _case_p75("D"),
    "P7.5:E": lambda: _case_p75("E"),
    "P7.6:B": lambda: _case_p76("B"),
    "P7.6:D": lambda: _case_p76("D"),
    "P7.6:E": lambda: _case_p76("E"),
    "P7.8": _case_p78,
    "P7.9:B": lambda: _case_p79("B"),
    "P7.9:D": lambda: _case_p79("D"),
    "P7.9:E": lambda: _case_p79("E"),
    "P7.10:B": lambda: _case_p710("B"),
    "P7.10:C": lambda: _case_p710("C"),
    "P7.10:D": lambda: _case_p710("D"),
    "P7.10:SL": lambda: _case_p710("SL"),
    "P7.11": _case_p711,
    "P7.12:F": lambda: _case_p712("F"),
    "P7.12:SL": lambda: _case_p712("SL"),
}


def section7_case_ids() -> List[str]:
    return ["L7.1"] + sorted(_SECTION7)


def section7_case(case_id: str) -> Callable[[], CaseReport]:
    """The builder of one section-7 case; KeyError for an id naming no case."""
    if case_id == "L7.1":
        return lambda: _case_l71(None)
    if case_id.startswith("L7.1:"):
        q = int(case_id.split(":", 1)[1])
        if q < 17 or not is_prime(q):
            raise KeyError("L7.1 cases exist for primes p >= 17")
        return lambda: _case_l71(q)
    builder = _SECTION7.get(case_id)
    if builder is None:
        raise KeyError("unknown section-7 case %r" % case_id)
    return builder


def _timed(build: Callable, *args):
    """build(*args), a CaseReport or DeskResult, with the call's wall time in its elapsed_ms."""
    t0 = time.monotonic()
    return build(*args)._replace(elapsed_ms=int((time.monotonic() - t0) * 1000))


def verify_section7(case_id: str) -> CaseReport:
    return _timed(section7_case(case_id))


def section7_all() -> List[CaseReport]:
    return [verify_section7(cid) for cid in section7_case_ids()]
