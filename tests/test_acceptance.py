"""Acceptance criteria, one test per criterion.

Each test prints a single `ACCEPTANCE <k>: PASS ...` line (visible with
pytest -s or in the captured output section on failure) and enforces the
stated tolerance exactly; everything here is integer or Fraction arithmetic.
"""

import random
import time
from fractions import Fraction

import pytest

from sl2genus.bounds import (
    section7_case_ids,
    slim_bound_report,
    verify_main_theorem_desk,
    verify_section7,
)
from sl2genus.core import PreconditionError, make_ctx, minus_one, sigma, tau, upper_u
from sl2genus.fibers import (
    FiberDescriptor,
    fiber_group,
    recovery_count,
    recovery_count_brute,
    reduction_fiber_sizes,
    verify_orthogonality,
)
from sl2genus.genus import closed_form_genus, genus, genus_report
from sl2genus.groups import (
    ConjClassRef,
    class_codes,
    conj_class_brute,
    conj_class_size_formula,
    enumerate_group,
    u_power_ref,
)
from sl2genus.subgroups import (
    Subgroup,
    borel,
    exceptional_availability,
    exceptional_subgroup,
    is_slim,
    nonsplit_cartan_normalizer,
    sample_slim_subgroups,
    sample_subgroups,
    split_cartan_normalizer,
)
from sl2genus.suites import (
    suite_lemma4_5,
    suite_lemma4_6,
    suite_lemma4_10,
)

GRID = [(2, n) for n in range(1, 5)] + [(3, n) for n in range(1, 4)] + [(5, 1), (5, 2), (7, 1), (11, 1), (13, 1)]


def _report(k: int, detail: str, t0: float, budget: float) -> None:
    elapsed = time.monotonic() - t0
    assert elapsed < budget, "criterion %d exceeded %.0fs budget (%.1fs)" % (k, budget, elapsed)
    print("ACCEPTANCE %d: PASS (%.1fs) %s" % (k, elapsed, detail))


def test_criterion_01_group_orders():
    t0 = time.monotonic()
    for p, n in GRID:
        assert len(enumerate_group(make_ctx(p, n))) == make_ctx(p, n).order == (p + 1) * (p - 1) * p ** (3 * n - 2)
    _report(1, "closure cardinality = (p+1)(p-1)p^(3n-2) on %d contexts" % len(GRID), t0, 60)


def test_criterion_02_class_sizes():
    t0 = time.monotonic()
    checked = 0
    for p, n in GRID:
        ctx = make_ctx(p, n)
        refs = [ConjClassRef(ctx, "sigma"), ConjClassRef(ctx, "tau")]
        refs += [u_power_ref(ctx, r) for r in range(n)]
        for ref in refs:
            brute = conj_class_brute(ref.representative(), ctx)
            assert len(brute.codes) == conj_class_size_formula(ref), (p, n, ref.kind, ref.r)
            checked += 1
    _report(2, "%d classes, brute orbit = closed form (all p=2 branches included)" % checked, t0, 120)


def test_criterion_03_lemma45_table():
    t0 = time.monotonic()
    ok, detail = suite_lemma4_5()
    assert ok, detail
    _report(3, detail, t0, 60)


def test_criterion_04_lemma46_counts():
    t0 = time.monotonic()
    ok, detail = suite_lemma4_6()
    assert ok, detail
    _report(4, detail, t0, 120)


def test_criterion_05_a1_counts():
    t0 = time.monotonic()
    ok, detail = suite_lemma4_10()
    assert ok, detail
    _report(5, detail, t0, 60)


def test_criterion_06_genus_consistency():
    t0 = time.monotonic()
    primes = [p for p in range(5, 24) if all(p % d for d in range(2, p))]
    for p in primes:
        assert genus(borel(p)) == closed_form_genus("B", p)
        assert genus(split_cartan_normalizer(p)) == closed_form_genus("C", p)
        assert genus(nonsplit_cartan_normalizer(p)) == closed_form_genus("D", p)
    for p in [p for p in range(5, 41) if all(p % d for d in range(2, p))]:
        assert (closed_form_genus("B", p) >= 2) == (p >= 23)
        assert (closed_form_genus("C", p) >= 2) == (p >= 11)
        assert (closed_form_genus("D", p) >= 2) == (p >= 13)
    for p, want in ((11, 1), (13, 0), (17, 1), (19, 1)):
        assert genus(borel(p)) == want
    _report(6, "genus = closed form for B/C/D at 5<=p<=23; thresholds to 40; X0 values", t0, 120)


def test_criterion_07_fix_and_cusp_identities():
    from sl2genus.subgroups import adjoin_minus_one

    t0 = time.monotonic()
    total = with_minus_one = 0
    for p, n, count in ((2, 3, 70), (3, 2, 70), (5, 2, 70)):
        ctx = make_ctx(p, n)
        rng = random.Random((p, n, "criterion7").__repr__())
        for h0 in sample_subgroups(ctx, count, rng):
            # genus_report computes Fix_sigma, Fix_tau and the cusp ratio on
            # cosets AND through the class identity; mismatches raise
            genus_report(h0)
            total += 1
            # the two genus expressions agree on <H, -1>
            h = adjoin_minus_one(h0)
            rep = genus_report(h)
            cusps = rep.cusp_ratio * rep.index
            assert cusps.denominator == 1
            direct = (
                1
                + Fraction(rep.index, 12)
                - Fraction(rep.fix_sigma, 4)
                - Fraction(rep.fix_tau, 3)
                - Fraction(int(cusps), 2)
            )
            assert direct == rep.genus
            with_minus_one += 1
    assert total >= 200
    _report(
        7,
        "%d random subgroups (dual-route counts) and %d genus-expression identities"
        % (total, with_minus_one),
        t0,
        300,
    )


def _fiber_grid():
    out = []
    for kind in ("sigma", "tau", "u_power"):
        for p in (2, 3, 5, 7, 11):
            max_r = 3 if kind == "u_power" else 0
            for r in range(max_r + 1):
                for n in range(2, 8):
                    for m in range(1, n):
                        if not (n <= 2 * m) or p ** (r + n) > 128:
                            continue
                        if p == 2 and kind == "sigma" and m < 2:
                            continue
                        if p == 2 and kind == "u_power" and m < 3:
                            continue
                        if kind != "u_power" and r:
                            continue
                        out.append((kind, p, r, n, m))
    return out


def test_criterion_08_fiber_structure():
    t0 = time.monotonic()
    grid = _fiber_grid()
    assert len(grid) >= 25
    for kind, p, r, n, m in grid:
        desc = FiberDescriptor(p, r, n, m, kind)
        v = fiber_group(desc)  # subgroup + parametrization + commutator form
        assert len(v) == p ** (2 * (n - m))
        assert verify_orthogonality(desc), (kind, p, r, n, m)
        if not (p == 2 and kind == "tau" and m < 2):
            assert recovery_count_brute(kind, p, n, m, r=r) == recovery_count(kind, p, n, m)
    # size-2 fibers outside the hypotheses (p = 2)
    assert reduction_fiber_sizes("sigma", 2, 2, 1) == frozenset({2})
    for r in (0, 1):
        assert reduction_fiber_sizes("u_power", 2, r + 3, r + 2, r=r) == frozenset({2})
        assert reduction_fiber_sizes("u_power", 2, r + 2, r + 1, r=r) == frozenset({2})
    _report(8, "%d fiber descriptors: order, parametrization, orthogonality, recovery" % len(grid), t0, 300)


def _refs_for(ctx):
    refs = [ConjClassRef(ctx, "sigma"), ConjClassRef(ctx, "tau")]
    refs += [u_power_ref(ctx, r) for r in range(max(ctx.n - 1, 1)) if r + 2 <= ctx.n]
    return refs


def test_criterion_09_section6_bounds(sl2_mod9_subgroups):
    t0 = time.monotonic()
    ctx9, subs9 = sl2_mod9_subgroups
    slim_count = 0
    pair_count = 0
    for codes in subs9:
        h = Subgroup.from_codes(ctx9, codes)
        if not is_slim(h):
            continue
        slim_count += 1
        for ref in _refs_for(ctx9):
            try:
                rep = slim_bound_report(h, ref)
            except PreconditionError:
                continue
            assert rep.ok, (h.order, ref.kind, [c for c in rep.checks if not c[1]])
            pair_count += 1
    assert slim_count >= 400  # all proper-at-the-top subgroups of SL2(Z/9Z)
    sampled_totals = []
    for p, n in ((5, 2), (3, 3), (2, 4)):
        ctx = make_ctx(p, n)
        rng = random.Random((p, n, "criterion9").__repr__())
        subs = sample_slim_subgroups(ctx, 500, rng)
        assert len(subs) >= 500, "sampler yielded %d at (%d,%d)" % (len(subs), p, n)
        for h in subs:
            for ref in _refs_for(ctx):
                try:
                    rep = slim_bound_report(h, ref)
                except PreconditionError:
                    continue
                assert rep.ok, (p, n, h.order, ref.kind, [c for c in rep.checks if not c[1]])
                pair_count += 1
        sampled_totals.append(len(subs))
    _report(
        9,
        "exhaustive %d slim subgroups of SL2(Z/9Z) plus %s sampled; %d inequality sets"
        % (slim_count, sampled_totals, pair_count),
        t0,
        600,
    )


def test_criterion_10_section7_audit():
    t0 = time.monotonic()
    reports = {cid: verify_section7(cid) for cid in section7_case_ids()}
    for cid, rep in reports.items():
        if cid == "P7.8":
            assert rep.verdict == "positive_but_differs"
            assert rep.recomputed_value > 0
        else:
            assert rep.verdict == "match", (cid, rep.notes)
    assert reports["P7.2"].printed_value == Fraction(1805 - 74 - 1083, 5 * 19**2)
    assert reports["P7.3"].printed_value == Fraction(867 - 33 - 578, 3 * 17**2)
    chain = dict(reports["P7.4:B"].inequality_chain)
    assert chain["Vu branch: printed"] == Fraction(1183 - 75 - 100 - 546, 7 * 13**2)
    assert reports["P7.12:SL"].printed_value == Fraction(512 - 73 - 80 - 248, 2**9)
    _report(10, "%d cases, every printed fraction reproduced (P7.8 flagged)" % len(reports), t0, 10)


def test_criterion_11_main_theorem_part1(report_digest):
    t0 = time.monotonic()
    results = verify_main_theorem_desk(1)
    assert report_digest(results) == "f5c3be681a5d12ac3cf3b331cc934b3a73585df1c8a2cbb1ce789e2ccaace8ad"
    labels = {r.label for r in results}
    for want in ("B@23", "C@11", "C@13", "D@13"):
        assert want in labels
    assert any(l.startswith("E:") and l.endswith("@17") for l in labels)
    assert any(l.startswith("E:") and l.endswith("@19") for l in labels)
    for r in results:
        assert r.status == "pass", (r.label, r.notes)
        assert r.min_delta is not None and r.min_delta > 0
    checked = sum(r.checked for r in results)
    _report(11, "delta > 0 for all %d subgroups with -1 across %s" % (checked, sorted(labels)), t0, 300)
