"""Fault injection: each test plants one named fault with monkeypatch and
asserts that a fast library check raises on it, so a fault that no check
kills shows up as a failing test.  Standard library and pytest only."""

import sys

import pytest

from sl2genus.core import ConsistencyError, encoder, lower_u, make_ctx, upper_u
from sl2genus.genus import delta, genus_report
from sl2genus.groups import ConjClassRef, class_codes
from sl2genus.subgroups import Subgroup, adjoin_minus_one, borel, closure, level


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
    # check or the coset check of genus_report raises.
    h = adjoin_minus_one(borel(13))
    ctx, ref = h.ctx, ConjClassRef(h.ctx, "tau")
    true_report = genus_report(h)
    stored = class_codes(ref)
    stranger = encoder(ctx)(lower_u(ctx))
    outside = next(c for c in stored if c not in h.codes())
    inside = next(c for c in stored if c in h.codes())
    monkeypatch.setitem(ctx.memo, ("tau", 0), stored - {outside} | {stranger})
    assert genus_report(h) == true_report  # no count of H moved
    monkeypatch.setitem(ctx.memo, ("tau", 0), stored - {inside} | {stranger})
    assert len(class_codes(ref)) == len(stored)
    with pytest.raises(ConsistencyError, match="fixed-point"):
        genus_report(h)
