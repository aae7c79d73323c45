"""Fault injection: each test plants one named fault with monkeypatch and
asserts that a fast library check raises on it, so a fault that no check
kills shows up as a failing test.  Standard library and pytest only."""

import random
import re
import sys
from fractions import Fraction
from itertools import islice

import pytest

from sl2genus.bounds import slim_bound_report, verify_section7
from sl2genus.core import (
    ConsistencyError,
    GroupCtx,
    PreconditionError,
    encoder,
    lower_u,
    make_ctx,
    mat,
    minus_one,
    sigma,
    tau,
    upper_u,
)
from sl2genus.genus import delta, genus, genus_report
from sl2genus.groups import ConjClassRef, class_codes, enumerate_group
from sl2genus.subgroups import Subgroup, adjoin_minus_one, borel, closure, level, sample_slim_subgroups


def test_an_extra_sigma_fixed_point_fails_the_coset_check(monkeypatch):
    # the class-counting route overcounts Fix_sigma by one; genus_report, which
    # delta reads, counts it again on the cosets of G_1 (2,184 elements at 13)
    genus_mod = sys.modules["sl2genus.genus"]
    true_fix = genus_mod.fix_points

    def one_more_for_sigma(h, ref):
        return true_fix(h, ref) + (ref.kind == "sigma")

    h = adjoin_minus_one(borel(13))
    assert true_fix(h, ConjClassRef(h.ctx, "sigma")) == 2
    monkeypatch.setattr(genus_mod, "fix_points", one_more_for_sigma)
    with pytest.raises(ConsistencyError, match="fixed-point count mismatch: direct 2 vs identity 3"):
        delta(h)


def test_a_walk_that_overstates_the_kernel_fails_the_closure_check(monkeypatch):
    # the Schreier walk reports K_1 <= H for H = <u> in SL2(Z/25Z), of order 25:
    # #H reads 5 * 5^3 and the level 1, so genus_report alone would return the
    # report of <u mod 5>.  Materializing H compares the closure with the walk's
    # order; test_the_walk_order_and_reports_match_the_closure compares the two
    # twins the same way.
    subgroups_mod = sys.modules["sl2genus.subgroups"]
    true_walk = subgroups_mod._schreier_walk
    monkeypatch.setattr(subgroups_mod, "_schreier_walk", lambda gens, ctx, cap: (true_walk(gens, ctx, cap)[0], None))
    ctx = make_ctx(5, 2)
    h = Subgroup(ctx, (upper_u(ctx),))
    assert (h.order, level(h)) == (625, 1) != (closure(h.gens, ctx).order, 2)
    with pytest.raises(ConsistencyError, match="closure of 25 elements, Schreier walk 625"):
        h.codes()


def test_a_swapped_member_of_the_stored_tau_class_fails_the_fixed_point_checks(monkeypatch):
    # one member of the stored Conj(tau) at 13 (182 elements) is swapped for
    # t(u), which is no conjugate of tau (trace 2) and lies outside the Borel
    # subgroup B; the orbit keeps its size, so class_codes' size check passes.
    # A swap changes a report only through #(H n Conj(tau)), and a changed count
    # moves Fix_tau = [G:H] #(H n Conj(tau)) / #Conj(tau): fix_points' integer
    # check or the coset check of genus_report raises.  A subgroup keeps its
    # report, so each report is made on a fresh H.
    h = adjoin_minus_one(borel(13))
    ctx, ref = h.ctx, ConjClassRef(h.ctx, "tau")
    true_report = genus_report(h)
    stored = class_codes(ref)
    stranger = encoder(ctx)(lower_u(ctx))
    outside = next(c for c in stored if c not in h.codes())
    inside = next(c for c in stored if c in h.codes())
    monkeypatch.setitem(ctx.memo, ("tau", 0), stored - {outside} | {stranger})
    assert genus_report(adjoin_minus_one(borel(13))) == true_report  # no count of H moved
    monkeypatch.setitem(ctx.memo, ("tau", 0), stored - {inside} | {stranger})
    assert len(class_codes(ref)) == len(stored)
    with pytest.raises(ConsistencyError, match="fixed-point"):
        genus_report(adjoin_minus_one(borel(13)))
    assert genus_report(h) is true_report  # the kept report is the one made before the swap


def test_a_walk_that_understates_h_with_minus_one_fails_the_genus_precondition(monkeypatch):
    # the Schreier walk of <gens, -1> drops -1, so #<H, -1> reads #H for
    # H = <u> and adjoin_minus_one returns H although -1 is not in H.  (Below
    # level n the walk reaches rank 3 and the order reads the closure of
    # <gens, -1> mod p^(n-1), which holds -1, so only a level-n H is fooled.)
    # genus() reads the report, whose own -1 test on H at its level is exact.
    subgroups_mod = sys.modules["sl2genus.subgroups"]
    true_walk = subgroups_mod._schreier_walk

    def without_minus_one(gens, ctx, cap):
        return true_walk([g for g in gens if g != minus_one(ctx)], ctx, cap)

    monkeypatch.setattr(subgroups_mod, "_schreier_walk", without_minus_one)
    for ctx in (make_ctx(5, 2), make_ctx(3, 3)):
        h = Subgroup(ctx, (upper_u(ctx),))
        got = adjoin_minus_one(h)
        assert got is h and level(h) == ctx.n
        with pytest.raises(PreconditionError, match="needs -1 in H"):
            genus(got)


def test_a_dropped_coset_fails_the_coverage_check(monkeypatch):
    # the orbit walk stops one H-orbit short: on B at 13 (index 14) the 168
    # primitive vectors split into the orbit of e1 (12 vectors, the one coset
    # H) and one orbit of 156 (the other 13 cosets), so without the second the
    # walk covers 12 of them, and coset_space raises before a count reads it.
    # A report that raised is not kept: without the fault it is made again.
    genus_mod = sys.modules["sl2genus.genus"]
    true_orbits = genus_mod._orbits
    h = borel(13)
    index = h.ctx.order // h.order
    monkeypatch.setattr(genus_mod, "_orbits", lambda *args: islice(true_orbits(*args), 1))
    with pytest.raises(ConsistencyError, match="the orbits covered 12 of 168 primitive vectors"):
        genus_report(h)
    monkeypatch.undo()
    assert genus_report(h).index == index


@pytest.mark.parametrize(
    "scale, lower, message",
    [
        (13, False, r"the stabilizer of H g in <u> is not 13Z, g e1 = \(1, 0\)"),
        (Fraction(1, 13), True, r"the stabilizer of H g in <u> is not 1Z, g e1 = \(1, 0\)"),
        (Fraction(1, 13), False, "an orbit of 0 vectors gives 0/156 right cosets"),
    ],
    ids=["up-B", "down-lower-B", "down-B"],
)
def test_a_double_coset_off_by_p_fails_the_stabilizer_or_the_integer_check(monkeypatch, scale, lower, message):
    # the walk reads each #O, and so l = p^n #O / #H, p times too large or too
    # small.  On B at 13 the orbit of e1 holds 12 vectors and H is its one
    # coset (l = 1).  Read as 156, l = 13, yet u lies in B, so the stabilizer
    # of H in <u> is not 13Z; read as 0, l = 0 divides no p^n.  On the lower
    # Borel subgroup sigma^-1 B sigma the orbit of e1 holds 156 vectors (l =
    # 13); read as 12, l = 1, yet u is not in it, so the stabilizer is not 1Z.
    genus_mod = sys.modules["sl2genus.genus"]
    true_orbits = genus_mod._orbits

    def scaled(hmats, ctx):
        return ((v, int(size * scale)) for v, size in true_orbits(hmats, ctx))

    h = borel(13).conjugate(sigma(make_ctx(13, 1))) if lower else borel(13)
    monkeypatch.setattr(genus_mod, "_orbits", scaled)
    with pytest.raises(ConsistencyError, match=message):
        genus_report(h)


def test_a_carrier_off_its_vector_fails_the_carrier_check(monkeypatch):
    # the walk's g has g e1 = (x, -y), not v = (x, y).  coset_space compares
    # g e1 with v on every orbit, so the first orbit with y != 0 raises: on
    # <tau> at 7, where the fixed cosets would also differ, and on <u> at 7,
    # where the double coset picked has the same l and no fixed coset either,
    # so no other check of coset_space or genus_report sees the fault.
    genus_mod = sys.modules["sl2genus.genus"]
    true_carrier = genus_mod._carrier
    ctx = make_ctx(7, 1)
    monkeypatch.setattr(genus_mod, "_carrier", lambda x, y, ctx: true_carrier(x, -y % ctx.modulus, ctx))
    with pytest.raises(ConsistencyError, match=re.escape("the carrier of (1, 1) has g e1 = (1, 6)")):
        genus_report(closure([tau(ctx)], ctx))
    with pytest.raises(ConsistencyError, match=re.escape("the carrier of (0, 1) has g e1 = (0, 6)")):
        genus_report(closure([upper_u(ctx)], ctx))


def test_a_closure_that_skips_its_last_generator_fails_the_order_checks(monkeypatch):
    # extend_closure drops the last of its new generators, in groups and in
    # subgroups, which imports it.  The closure of <u, t(u)> on a fresh context
    # misses elements of G; the Borel subgroup misses its order p(p-1); and a
    # level-2 H at 25 closes to <u> while the Schreier walk, which shares no
    # code with the closure, reads #H = 500.  A closure by gens at n = 1 has no
    # second route: the report of the smaller group passes every check.
    groups_mod = sys.modules["sl2genus.groups"]
    true_extend = groups_mod.extend_closure
    ctx = make_ctx(7, 1)
    borel_gens = [upper_u(ctx), mat(3, 0, 0, 5, ctx)]
    true_report = genus_report(closure(borel_gens, ctx))

    def skip_last(known, gens, new, right, cap):
        return true_extend(known, gens, list(new)[:-1], right, cap)

    for mod in (groups_mod, sys.modules["sl2genus.subgroups"]):
        monkeypatch.setattr(mod, "extend_closure", skip_last)
    with pytest.raises(ConsistencyError, match=re.escape("closure of <u, t(u)> missed elements")):
        enumerate_group(GroupCtx(5, 1))
    with pytest.raises(ConsistencyError, match="Borel order 7 != 42"):
        borel(7)
    c25 = make_ctx(5, 2)
    h = Subgroup(c25, (upper_u(c25), mat(2, 0, 0, 13, c25)))
    assert h.order == 500
    with pytest.raises(ConsistencyError, match="closure of 25 elements, Schreier walk 500"):
        h.codes()
    h = closure(borel_gens, ctx)
    assert h.order == 7 and genus_report(h) != true_report


def test_a_cusp_series_off_by_one_fails_the_coset_check_and_the_section7_audit(monkeypatch):
    # each term (p-1)/p^(s+1) r_s of genus.cusp_series reads (p-1)/p^(s+2) r_s,
    # in genus and in bounds, which imports it.  genus_report counts the
    # <u>-orbits again on the cosets of <B, -1> at 13, and the chains of P7.2
    # miss their printed value.  A report on G_m above DIRECT_CHECK_CAP has no
    # coset check, so there no check sees the fault.
    def off_by_one(p, ratios):
        out = Fraction(1, p ** len(ratios))
        for s, r in enumerate(ratios):
            out += Fraction(p - 1, p ** (s + 2)) * r
        return out

    assert verify_section7("P7.2").verdict == "match"
    for name in ("sl2genus.genus", "sl2genus.bounds"):
        monkeypatch.setattr(sys.modules[name], "cusp_series", off_by_one)
    with pytest.raises(ConsistencyError, match="cusp ratio mismatch: direct 1/7 vs formula 97/1183"):
        genus_report(adjoin_minus_one(borel(13)))
    assert verify_section7("P7.2").verdict == "positive_but_differs"


def _sigma_reports_under(monkeypatch, wrong):
    # a_sigma_p's (e, c, k) = (1, 2, 1) of bounds._correction replaced by wrong,
    # with the stored bound plan of the sigma class at 25 taken out of the memo
    # so that the next report builds it from the fault; returns the true and the
    # faulty reports of seeded slim subgroups over the Borel subgroup
    bounds_mod = sys.modules["sl2genus.bounds"]
    true_correction = bounds_mod._correction
    ctx = make_ctx(5, 2)
    ref = ConjClassRef(ctx, "sigma")
    hs = sample_slim_subgroups(ctx, 10, random.Random("fault-plan"), mod_p_target=borel(5))
    true = [slim_bound_report(h, ref).checks for h in hs]
    monkeypatch.setattr(bounds_mod, "_correction", lambda kind, p: wrong if kind == "a_sigma_p" else true_correction(kind, p))
    monkeypatch.delitem(ctx.memo, ("plan", "sigma", 0))
    return true, [slim_bound_report(h, ref).checks for h in hs]


@pytest.mark.parametrize("wrong", [(2, 2, 1), (1, 3, 1)], ids=["e", "c"])
def test_a_wrong_correction_term_fails_the_section7_audit(monkeypatch, wrong):
    # a wrong e or c moves the sigma bound a(sigma,p)_n + p^(n-e)(count - c):
    # the section-7 chains recompute it against the printed 66 * 17 of P7.3 and
    # flag the difference.  The slim reports move too, yet every check of
    # theirs still holds: the bound stays above the counts of these H.
    assert verify_section7("P7.3").verdict == "match"
    true, faulty = _sigma_reports_under(monkeypatch, wrong)
    assert faulty != true and all(ok for checks in faulty for _, ok, _ in checks)
    assert verify_section7("P7.3").verdict == "positive_but_differs"


def test_a_wrong_count_level_moves_the_slim_reports_unchecked(monkeypatch):
    # k = 2 counts H n Conj(sigma) at level 2, not H mod p n Conj(sigma mod p):
    # the bound grows, so every verdict still holds, and no section-7 chain
    # reads k.  Only the report details move (50 <= 90 reads 50 <= 290); the
    # ladder oracle of test_bounds.py, which spells out each count level, is
    # the one check that sees it.
    true, faulty = _sigma_reports_under(monkeypatch, (1, 2, 2))
    assert true[0][0] == ("a_sigma_p", True, "50 <= 90") and faulty[0][0] == ("a_sigma_p", True, "50 <= 290")
    assert all(ok for checks in faulty for _, ok, _ in checks)
    assert verify_section7("P7.3").verdict == "match"
