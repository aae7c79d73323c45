"""Fault injection: each test plants one named fault with monkeypatch and
asserts that a fast library check raises on it, so a fault that no check
kills shows up as a failing test.  Standard library and pytest only."""

import hashlib
import inspect
import random
import re
import sys
import textwrap
from collections import Counter
from fractions import Fraction
from itertools import islice, product

import pytest

from sl2genus.bounds import slim_bound_report, verify_section7
from sl2genus.core import (
    ConsistencyError,
    GroupCtx,
    PreconditionError,
    conjugator,
    decoder,
    encoder,
    identity,
    is_prime,
    lower_u,
    make_ctx,
    mat,
    minus_one,
    primitive_root,
    sigma,
    upper_u,
)
from sl2genus.fibers import FiberDescriptor, fiber_group, verify_orthogonality
from sl2genus.genus import coset_space, delta, genus, genus_report
from sl2genus.groups import ConjClassRef, class_codes, enumerate_group, extend_closure
from sl2genus.subgroups import (
    Subgroup,
    a1_subgroup,
    adjoin_minus_one,
    borel,
    closure,
    filtration_level,
    is_slim,
    level,
    parse_subgroup_spec,
    preimage,
    sample_slim_subgroups,
)
from sl2genus.cli import EXIT_INTERNAL, run
from sl2genus.suites import (
    _FIBER_GRID,
    _SIZE_GRID,
    suite_lemma4_5,
    suite_lemma5_2,
    suite_lemma5_3,
    suite_lemma5_6,
    suite_cor6_5,
    suite_lemma6_1,
    verify_main_theorem_desk,
)
from sampling import sample_subgroups
from test_bounds import _SAMPLE_DIGESTS, _caught_bound_reports, _old_slim_bound_report
from test_kernel import _lattice_digest, _old_all_subgroups
from test_section2 import _brute_sides, _decided, _disagreements
from test_subgroups import _REPLAY_CASES, _reduction_mismatches, _replay, _spy_on_the_sampler, _stream, _walks_at


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
    # #H would read 5 * 5^3 and the level 1, so genus_report alone would return
    # the report of <u mod 5>.  A walk that pads its one W with zeros to three
    # fails Subgroup.order's determinant check before any report reads #H.  One
    # that adds two true but foreign W (independent, so the determinant check
    # passes) is caught when H is materialized, by the closure's comparison with
    # the walk's order; test_the_walk_order_and_reports_match_the_closure
    # compares the two twins the same way.
    subgroups_mod = sys.modules["sl2genus.subgroups"]
    true_walk = subgroups_mod._schreier_walk
    ctx = make_ctx(5, 2)
    assert true_walk((upper_u(ctx),), ctx, 625)[1] == [(0, 1, 0)]

    def padded(pad):
        def walk(gens, ctx, cap):
            lifts, basis = true_walk(gens, ctx, cap)
            return lifts, basis + pad

        return walk

    monkeypatch.setattr(subgroups_mod, "_schreier_walk", padded([(0, 0, 0), (0, 0, 0)]))
    for read in (lambda h: h.order, level, genus_report):
        with pytest.raises(ConsistencyError, match=r"claims K_1 <= H on W of rank < 3"):
            read(Subgroup(ctx, (upper_u(ctx),)))
    monkeypatch.setattr(subgroups_mod, "_schreier_walk", padded([(1, 0, 0), (0, 0, 1)]))
    h = Subgroup(ctx, (upper_u(ctx),))
    assert (h.order, level(h)) == (625, 1) != (closure(h.gens, ctx).order, 2)
    with pytest.raises(ConsistencyError, match="closure of 25 elements, Schreier walk 625"):
        h.codes()


def test_a_lift_off_its_residue_fails_the_sampler_invariant(monkeypatch):
    # _lift_to lifts the transpose-reversal (d c; b a) of x, not x, so a
    # candidate of the slim sampler may leave the target mod p: at 2 the
    # reversal of u is t(u), outside B.  The sampler holds H mod p inside the
    # target as an invariant and raises on desk part 7 (B at 2^7).  C is
    # closed under the reversal, so on C alone the fault is equivalent.
    _mutate(monkeypatch, sys.modules["sl2genus.subgroups"], "_lift_to", "reduce_mat(x, ", "reduce_mat(x[::-1], ")
    with pytest.raises(ConsistencyError, match="a candidate lifted from the target leaves it mod 2$"):
        verify_main_theorem_desk(7, samples=2)


def test_a_swapped_member_of_the_stored_tau_class_moves_no_genus_report(monkeypatch):
    # one member of the stored Conj(tau) at 13 (182 elements) is swapped for
    # t(u), which is no conjugate of tau (trace 2) and lies outside the Borel
    # subgroup B; the orbit keeps its size, so class_codes' size check passes.
    # A report counts H's labels and reads no orbit, so whether the member
    # swapped out lies in <B, -1> or not, every report equals the true one.
    h = adjoin_minus_one(borel(13))
    ctx, ref = h.ctx, ConjClassRef(h.ctx, "tau")
    true_report = genus_report(h)
    stored = class_codes(ref)
    stranger = encoder(ctx)(lower_u(ctx))
    for swapped in (next(c for c in stored if c not in h.codes()), next(c for c in stored if c in h.codes())):
        monkeypatch.setitem(ctx.memo, ("tau", 0), stored - {swapped} | {stranger})
        assert len(class_codes(ref)) == len(stored)
        assert genus_report(adjoin_minus_one(borel(13))) == true_report


def test_a_walk_that_understates_h_with_minus_one_does_not_fool_adjoin_minus_one(monkeypatch):
    # the Schreier walk of <gens, -1> drops -1, so #<H, -1> reads #H for
    # H = <u>.  adjoin_minus_one reads no walk of <gens, -1>: it decides -1 in
    # H on H_m at the level m of H (here n, so on H itself), and returns
    # <H, -1> with its true genus.  genus() of H itself reads the report, whose
    # own -1 test on H at its level is exact.
    subgroups_mod = sys.modules["sl2genus.subgroups"]
    true_walk = subgroups_mod._schreier_walk

    def without_minus_one(gens, ctx, cap):
        return true_walk([g for g in gens if g != minus_one(ctx)], ctx, cap)

    monkeypatch.setattr(subgroups_mod, "_schreier_walk", without_minus_one)
    for ctx, want in ((make_ctx(5, 2), 12), (make_ctx(3, 3), 13)):
        h = Subgroup(ctx, (upper_u(ctx),))
        got = adjoin_minus_one(h)
        assert got is not h and level(h) == ctx.n and genus(got) == want
        with pytest.raises(PreconditionError, match="needs -1 in H"):
            genus(h)


def test_a_dropped_coset_fails_the_coverage_check(monkeypatch):
    # the line walk stops one H-orbit short: on B at 13 (index 14) the 14 lines
    # of P^1(F_13) split into [e1] (the one coset H) and one orbit of 13 lines
    # (the other 13 cosets), so without the second the walk covers 1 of them,
    # and coset_space raises before a count reads it.
    # A report that raised is not kept: without the fault it is made again.
    genus_mod = sys.modules["sl2genus.genus"]
    true_orbits = genus_mod._line_orbits
    h = borel(13)
    index = h.ctx.order // h.order
    monkeypatch.setattr(genus_mod, "_line_orbits", lambda *args: islice(true_orbits(*args), 1))
    with pytest.raises(ConsistencyError, match="the line orbits covered 1 of 14 lines"):
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
    # the walk reads each #(H L), and so l = p^n #(H L) #Lambda_L / #H, p times
    # too large or too small.  On B at 13 the line orbit of e1 is [e1] alone,
    # with Lambda the 12 units, and H is its one coset (l = 1).  Read as 13
    # lines, l = 13, yet u lies in B, so the stabilizer of H in <u> is not 13Z;
    # read as 0, l = 0 divides no p^n.  On the lower Borel subgroup
    # sigma^-1 B sigma the line orbit of e1 holds the 13 lines [1 : y] (l = 13);
    # read as 1, l = 1, yet u is not in it, so the stabilizer is not 1Z.
    genus_mod = sys.modules["sl2genus.genus"]
    true_orbits = genus_mod._line_orbits

    def scaled(hmats, ctx):
        return ((v, int(lines * scale), lam) for v, lines, lam in true_orbits(hmats, ctx))

    c13 = make_ctx(13, 1)
    h = Subgroup.from_codes(c13, map(conjugator(c13, sigma(c13)), borel(13).codes())) if lower else borel(13)
    monkeypatch.setattr(genus_mod, "_line_orbits", scaled)
    with pytest.raises(ConsistencyError, match=message):
        genus_report(h)


def _report_cases():
    """(ctx, codes) for 112 report cases: 6 seeded samples and <sigma> at each of
    (2,2), (2,3), (3,1), (3,2), (5,1), (5,2), (7,1) and (13,1), and <H, -1> for
    each (H itself when -1 is in H)."""
    out = []
    for p, n in ((2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (13, 1)):
        ctx = make_ctx(p, n)
        hs = sample_subgroups(ctx, 6, random.Random((p, n, "faults").__repr__())) + [closure([sigma(ctx)], ctx)]
        out += [(ctx, h.codes()) for h in hs] + [(ctx, adjoin_minus_one(h).codes()) for h in hs]
    return out


def _reports(cases):
    """genus_report of a fresh subgroup per case (a subgroup keeps its report
    and its labels), or the text of the ConsistencyError it raised."""
    out = []
    for ctx, codes in cases:
        try:
            out.append(genus_report(Subgroup.from_codes(ctx, codes)))
        except ConsistencyError as e:
            out.append(str(e))
    return out


def _set_reports_of_g_aside(monkeypatch, cases):
    """Take the report of G out of the memo of each context of cases while a
    fault is planted (the undo restores it), so each report of H = G is built
    under the fault, as a report of H != G is."""
    for ctx in {ctx for ctx, _ in cases}:
        monkeypatch.delitem(ctx.memo, "report of G", raising=False)


def _mutate(monkeypatch, module, name, old, new, owner=None):
    """owner.name (module.name by default, a property by its getter) rebuilt from
    its source in module's namespace, with the one occurrence of old written as new.
    It is compiled under the file name "<mutant>", so a line tracer credits none of
    its lines to the module's file, and padded to its first line, so a traceback
    through it reads the module's line numbers."""
    owner = module if owner is None else owner
    target = vars(owner)[name]
    lines, first = inspect.getsourcelines(getattr(target, "fget", target))
    source = textwrap.dedent("".join(lines))
    assert source.count(old) == 1, old
    scope = dict(vars(module))
    exec(compile("\n" * (first - 1) + source.replace(old, new), "<mutant>", "exec"), scope)
    monkeypatch.setattr(owner, name, scope[name])


def _kills(monkeypatch, name, old, new):
    """Counter of the checks that raise on the 112 report cases with genus.name
    mutated in the module that defines it (and bound so in genus), or None when
    every report equals the true one."""
    cases = _report_cases()
    true = _reports(cases)
    assert not any(isinstance(r, str) for r in true)
    genus_mod = sys.modules["sl2genus.genus"]
    home = sys.modules[getattr(genus_mod, name).__module__]
    _set_reports_of_g_aside(monkeypatch, cases)
    _mutate(monkeypatch, home, name, old, new)
    monkeypatch.setattr(genus_mod, name, getattr(home, name))
    got = _reports(cases)
    assert all(g == t for g, t in zip(got, true) if not isinstance(g, str))  # a fault that moves a report is seen
    kills = Counter(g.split(":")[0] for g in got if isinstance(g, str))
    return kills or None


def test_a_coset_filter_off_by_one_in_the_trace_fails_the_fixed_point_check(monkeypatch):
    # coset_space counts N(v) over the h of trace tr a + 1, not tr a: the
    # fixed counts move and genus_report's comparison with the class route
    # raises.  Its twin, det(v, hv) read at +1 instead of -1, is an equivalent
    # mutant and survives on all 112: h -> h^-1 keeps tr h and negates
    # det(v, hv), so it maps the h counted one way onto those counted the other.
    kills = _kills(monkeypatch, "coset_space", "(a + d - t) % m", "(a + d - t - 1) % m")
    assert kills == {"fixed-point count mismatch": 74}


def test_fixed_counts_without_the_double_coset_length_fail_the_integrality_check(monkeypatch):
    # coset_space adds N(mu v) / p^n for a double coset, not l N(mu v) / p^n:
    # p^n rarely divides N(mu v), and the check that it divides l N(mu v) raises first
    kills = _kills(monkeypatch, "coset_space", "got = ell * dets.count(d)", "got = dets.count(d)")
    pattern = r"(sigma|tau) fixes \d+/\d+ cosets of H g<u>, g e1 = .*"
    integral = sum(k for text, k in kills.items() if re.fullmatch(pattern, text))
    assert (integral, kills["fixed-point count mismatch"]) == (59, 2)


def test_a_line_orbit_read_with_lambda_one_fails_the_length_check(monkeypatch):
    # the walk reads Lambda_L as {1}: each double coset above H L then reads
    # l / #Lambda_L right cosets.  On the 112 report cases that is no whole
    # number, or one that divides p^n but is not the stabilizer's index in
    # <u>; every report that does not raise is one whose every Lambda_L is
    # {1} already, so its report stands
    genus_mod = sys.modules["sl2genus.genus"]
    true_orbits = genus_mod._line_orbits
    cases = _report_cases()
    true = _reports(cases)
    _set_reports_of_g_aside(monkeypatch, cases)
    monkeypatch.setattr(genus_mod, "_line_orbits", lambda *args: ((v, k, 1) for v, k, _ in true_orbits(*args)))
    got = _reports(cases)
    monkeypatch.undo()
    kills = Counter(g.split(" ")[1] for g in got if isinstance(g, str))
    assert kills == {"orbit": 76, "stabilizer": 20}  # "an orbit of ... right cosets", "the stabilizer of H g ..."
    for (ctx, codes), g, t in zip(cases, got, true):
        if not isinstance(g, str):
            h = Subgroup.from_codes(ctx, codes)
            low = h.reduced(level(h))
            assert g == t and {lam for _, _, lam in true_orbits(list(low.mats()), low.ctx)} == {1}


def test_a_root_count_read_at_plus_d_inverse_is_an_equivalent_mutant(monkeypatch):
    # the walk files the double coset of mu v under d = mu^-2, not -mu^-2, so
    # N(mu v) reads #{h : tr h = tr a, det(v, hv) = +mu^-2}.  It survives on
    # all 112: h -> h^-1 keeps tr h and negates det(v, hv), so the count of
    # det(v, hv) is even, and each N it reads, and each integrality check, is
    # the true one (the twin of the det read at +1 above)
    assert _kills(monkeypatch, "coset_space", "-mu * mu % m", "mu * mu % m") is None


def test_a_root_count_read_as_at_odd_p_fails_the_fixed_point_check(monkeypatch):
    # the walk counts at most two mu per d, as at odd p, where mu^2 = w has two
    # roots; modulo 2^n, n >= 3, each unit square has four, so the fixed counts
    # of a line orbit modulo 8 fall short and the class route disagrees
    assert {pow(mu, 2, 8) for mu in (1, 3, 5, 7)} == {1}
    kills = _kills(monkeypatch, "coset_space", "total += got // m * k", "total += got // m * min(2, k)")
    assert kills == {"fixed-point count mismatch": 5}


def test_a_subgroup_with_one_member_misfiled_fails_the_integrality_check():
    # H is the preimage of the lower Borel subgroup mod 2 in SL2(Z/4Z), 16
    # elements, with its member (1 0; 3 1) filed as (1 0; 3 1) u, as a closure
    # that misfiles one product would hold it.  Its orbits still cover the
    # primitive vectors, each l divides 4 and is its stabilizer's index in
    # <u>, yet tau's count over the double coset of e1 is no integer.
    c4 = make_ctx(2, 2)
    enc, x = encoder(c4), mat(1, 0, 3, 1, c4)
    h = closure([lower_u(c4), mat(3, 0, 0, 3, c4), mat(1, 2, 0, 1, c4), mat(1, 0, 2, 1, c4)], c4)
    assert h.order == 16 and enc(x) in h.codes()
    codes = (h.codes() - {enc(x)}) | {enc(mat(1, 1, 3, 0, c4))}  # x u
    with pytest.raises(ConsistencyError, match=r"^tau fixes 2/4 cosets of H g<u>, g e1 = \(1, 0\)$"):
        coset_space(Subgroup.from_codes(c4, codes))


def _unlabelled(kind, r=0):
    """The ConsistencyError text of class_codes for an orbit member without the label (kind, r)."""
    return r"orbit holds an element without the label \('%s', %d\)" % (kind, r)


def _fiber_labels_read_through(monkeypatch):
    """Bind fibers.class_labels to the one in groups (a planted fault there), as _kills binds genus's."""
    monkeypatch.setattr(sys.modules["sl2genus.fibers"], "class_labels", sys.modules["sl2genus.groups"].class_labels)


def test_sigma_labelled_at_trace_one_fails_the_fixed_point_checks(monkeypatch):
    # class_labels files the elements of trace 1, not 0, under sigma: Fix_sigma
    # read through the identity is no integer, or differs from the coset count;
    # a walked Conj(sigma) (on a fresh context, which stores no orbit) carries no
    # label, and fiber_group finds no lift of sigma labelled sigma, so its V
    # differs from the commutator form
    kills = _kills(monkeypatch, "class_labels", "if t == 0 and (p > 2", "if t == 1 and (p > 2")
    assert kills == {"fixed-point identity gave a non-integer": 46, "fixed-point count mismatch": 29}
    with pytest.raises(ConsistencyError, match=_unlabelled("sigma")):
        class_codes(ConjClassRef(GroupCtx(5, 1), "sigma"))
    _fiber_labels_read_through(monkeypatch)
    with pytest.raises(ConsistencyError, match="fiber differs from its commutator form"):
        fiber_group(FiberDescriptor(5, 0, 2, 1, "sigma"))


def test_a_u_power_label_one_level_deep_fails_the_cusp_check(monkeypatch):
    # class_labels files Conj(u^(p^r)) under r + 1: the cusp series reads each
    # count one term late (or not at all at r = n - 1), and the <u>-orbits on
    # the cosets differ; a walked Conj(u^(p^r)) carries the wrong label
    kills = _kills(monkeypatch, "class_labels", "next(r for r", "next(r + 1 for r")
    assert kills == {"cusp ratio mismatch": 48}
    for r in (0, 1):
        with pytest.raises(ConsistencyError, match=_unlabelled("u_power", r)):
            class_codes(ConjClassRef(GroupCtx(5, 2), "u_power", r))


def test_a_flipped_square_class_fails_the_label_oracle_and_no_genus_check(monkeypatch, label_mismatches):
    # the u^(p^r) rule (and tau's at p = 3) accepts the non-square k at odd p:
    # it counts Conj(u^(j p^r)), j a non-residue, in place of Conj(u^(p^r)).
    # x -> x^j, j a non-residue mod p prime to p^2 - 1, maps H onto itself and
    # one class onto the other, so no count of any H moves and every genus
    # report holds: the label oracle on all of G, class_codes' label check
    # on a walked Conj(u^(p^r)) and fiber_group, which finds no labelled lift
    # of u^(p^r) and so no V equal to the commutator form, see the fault.
    assert _kills(monkeypatch, "class_labels", "legendre(k, p) == 1", "legendre(k, p) == -1") is None
    assert label_mismatches(make_ctx(5, 2)) == 2 * 300 + 2 * 12  # Conj(u) and its twin, Conj(u^5) and its twin
    assert label_mismatches(make_ctx(2, 3)) == 0  # the rule at p = 2 reads no Legendre symbol
    for r in (0, 1):
        with pytest.raises(ConsistencyError, match=_unlabelled("u_power", r)):
            class_codes(ConjClassRef(GroupCtx(5, 2), "u_power", r))
    assert len(class_codes(ConjClassRef(GroupCtx(2, 3), "u_power"))) == 3 * 2**2
    _fiber_labels_read_through(monkeypatch)
    for r in (0, 1):
        with pytest.raises(ConsistencyError, match="fiber differs from its commutator form"):
            fiber_group(FiberDescriptor(3, r, 2, 1, "u_power"))
    assert len(fiber_group(FiberDescriptor(2, 0, 4, 3, "u_power"))) == 2**2


def test_a_swapped_member_of_a_walked_sigma_orbit_fails_the_label_check(monkeypatch):
    # conj_class_brute returns Conj(sigma) at 25 with one member that lies in a
    # seeded slim H over B swapped for t(u) (trace 2), size kept, so the size
    # check of class_codes passes.  Y_0 of slim_bound_report then read 49 of the
    # 50 elements of H n Conj(sigma) and nothing raised; class_codes now stores
    # an orbit only when every member carries its label, so the report raises.
    groups_mod = sys.modules["sl2genus.groups"]
    true_brute = groups_mod.conj_class_brute
    ctx = make_ctx(5, 2)
    ref, stranger = ConjClassRef(ctx, "sigma"), encoder(ctx)(lower_u(ctx))
    h = sample_slim_subgroups(ctx, 10, random.Random("fault-plan"), mod_p_target=borel(5))[0]
    orbit = true_brute(sigma(ctx), ctx)
    member = min(orbit & h.codes())
    assert len(orbit & h.codes()) == 50 and stranger not in orbit

    def swapped(rep, ctx, cap):
        got = true_brute(rep, ctx, cap)
        return got - {member} | {stranger} if member in got else got

    monkeypatch.delitem(ctx.memo, ("sigma", 0), raising=False)
    monkeypatch.setattr(groups_mod, "conj_class_brute", swapped)
    with pytest.raises(ConsistencyError, match=_unlabelled("sigma")):
        slim_bound_report(h, ref)
    assert ("sigma", 0) not in ctx.memo


def test_a_torus_generator_tested_at_p_minus_one_fails_the_d_order_check(monkeypatch):
    # D's generator test raises t to (p - 1)/q, not (p + 1)/q: every t of order
    # above 2 passes it, and the first in (x, y) order seldom generates the
    # torus, so the closure of t and the flip falls short of 2(p + 1).  Where
    # that first t does generate it (p = 3, 5, 13, 17, 29, 37) the mutant is
    # equivalent: it builds the true D, at p = 5 and 29 from another torus generator.
    subgroups_mod = sys.modules["sl2genus.subgroups"]
    true_d = subgroups_mod.nonsplit_cartan_normalizer
    _mutate(monkeypatch, subgroups_mod, "nonsplit_cartan_normalizer", "t, (p + 1) // q", "t, (p - 1) // q")
    killed = []
    for p in filter(is_prime, range(3, 48)):
        try:
            assert subgroups_mod.nonsplit_cartan_normalizer(p).codes() == true_d(p).codes(), p
        except ConsistencyError as e:
            assert re.fullmatch(r"D order \d+ != 2\(p\+1\)", str(e)), p
            killed.append(p)
    assert killed == [7, 11, 19, 23, 31, 41, 43, 47]


def test_a_delta_with_the_cusp_term_read_at_5_fails_the_genus_check(monkeypatch):
    # delta = 1 - 3 r_sigma - 4 r_tau - 5 cusp: B at 13 (index 14, cusp ratio 1/7)
    # reads delta -5/7 for -6/7, and g = 1 + 14 delta / 12 = 1/6.  The coset
    # check compares the fixed counts and the cusp ratio, which stand.
    _mutate(monkeypatch, sys.modules["sl2genus.genus"], "delta_from_ratios", "6 * cusp", "5 * cusp")
    with pytest.raises(ConsistencyError, match="^genus 1/6 is not a non-negative integer$"):
        genus_report(borel(13))


def test_standard_subgroups_of_the_wrong_order_fail_their_order_checks(monkeypatch):
    # each builder checks the order of what it closed: B from a diagonal of
    # order 2 (the primitive root read as -1), D from a torus generator test
    # that finds no prime of p + 1 (so the first torus element passes it, at 7
    # one of order 4, and D closes to 8 elements), A1 from u in place of
    # (1 1; 2 -1), and the pullback of a PGL2 group that is no A4, S4 or A5
    subgroups_mod = sys.modules["sl2genus.subgroups"]
    with monkeypatch.context() as m:
        m.setattr(subgroups_mod, "primitive_root", lambda p: p - 1)
        with pytest.raises(ConsistencyError, match=r"^B order 26 != 156$"):
            borel(13)
    with monkeypatch.context() as m:
        m.setattr(subgroups_mod, "factorize", lambda n: {})
        with pytest.raises(ConsistencyError, match=r"^D order 8 != 2\(p\+1\)$"):
            subgroups_mod.nonsplit_cartan_normalizer(7)
    with monkeypatch.context() as m:
        m.setattr(subgroups_mod, "mat", lambda a, b, c, d, ctx: upper_u(ctx))
        with pytest.raises(ConsistencyError, match="^A1 order 48 != 12$"):
            subgroups_mod.a1_subgroup()
    with pytest.raises(ConsistencyError, match="^exceptional pullback has order 2$"):
        subgroups_mod._pullback_to_sl2(frozenset([(1, 0, 0, 1)]), 5, 1000)


def test_a_group_closed_from_u_alone_fails_the_order_check(monkeypatch):
    # t(u) read as u: the closure on a fresh context holds <u>, 3 of the 24 elements of SL2(F_3)
    groups_mod = sys.modules["sl2genus.groups"]
    monkeypatch.setattr(groups_mod, "lower_u", groups_mod.upper_u)
    with pytest.raises(ConsistencyError, match=r"^closure of <u, t\(u\)> missed elements$"):
        enumerate_group(GroupCtx(3, 1))


def test_an_order_that_finds_no_involution_exhausts_the_exceptional_search(monkeypatch):
    # every PGL2 class read as of order 1: no pair is ever drawn, and after its 40,000 draws the search gives up
    monkeypatch.setattr(sys.modules["sl2genus.subgroups"], "_pgl_order", lambda x, p: 1)
    with pytest.raises(RuntimeError, match=r"^exceptional S4 search failed at p=7 \(seed 3\)$"):
        sys.modules["sl2genus.subgroups"].exceptional_subgroup(7, "S4", seed=3)


def test_a_closure_that_skips_its_last_generator_fails_the_order_checks(monkeypatch):
    # extend_closure drops the last of its new generators, in groups and in
    # subgroups, which imports it.  Every closure by generators checks that it
    # holds each of them (one lookup per generator), so the check fires before
    # any order check: on the closure of <u, t(u)> on a fresh context, on the
    # Borel subgroup, on a level-2 H at 25 (whose Schreier walk, which shares no
    # code with the closure, still reads #H = 500), and on <u, diag(3, 5)> at 7,
    # a closure at n = 1 that has no second route.
    groups_mod = sys.modules["sl2genus.groups"]
    true_extend = groups_mod.extend_closure
    ctx, c25 = make_ctx(7, 1), make_ctx(5, 2)

    def skip_last(known, gens, new, right, cap):
        return true_extend(known, gens, list(new)[:-1], right, cap)

    for mod in (groups_mod, sys.modules["sl2genus.subgroups"]):
        monkeypatch.setattr(mod, "extend_closure", skip_last)
    with pytest.raises(ConsistencyError, match="the closure of 2 generators modulo 5 misses one"):
        enumerate_group(GroupCtx(5, 1))
    with pytest.raises(ConsistencyError, match="the closure of 2 generators modulo 7 misses one"):
        borel(7)
    h = Subgroup(c25, (upper_u(c25), mat(2, 0, 0, 13, c25)))
    assert h.order == 500
    with pytest.raises(ConsistencyError, match="the closure of 2 generators modulo 25 misses one"):
        h.codes()
    with pytest.raises(ConsistencyError, match="the closure of 2 generators modulo 7 misses one"):
        closure([upper_u(ctx), mat(3, 0, 0, 5, ctx)], ctx)


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


def _sigma_reports_under(monkeypatch, wrong, kind="a_sigma_p", p=5, n=2):
    # kind's (e, c, k) of bounds._correction (a_sigma_p's is (1, 2, 1)) replaced
    # by wrong, with the stored bound plan of the sigma class at p^n taken out of
    # the memo so that the next report builds it from the fault; returns the true
    # and the faulty reports of seeded slim subgroups over the Borel subgroup
    bounds_mod = sys.modules["sl2genus.bounds"]
    true_correction = bounds_mod._correction
    ctx = make_ctx(p, n)
    ref = ConjClassRef(ctx, "sigma")
    hs = sample_slim_subgroups(ctx, 10, random.Random("fault-plan"), mod_p_target=borel(p))
    true = [slim_bound_report(h, ref).checks for h in hs]
    monkeypatch.setattr(bounds_mod, "_correction", lambda k, q: wrong if k == kind else true_correction(k, q))
    monkeypatch.delitem(ctx.memo, ("plan", "sigma", 0))
    return true, [slim_bound_report(h, ref).checks for h in hs]


def test_exceptional_bounds_above_the_printed_ones_flag_lemma_7_1(monkeypatch):
    # the chain requires E's bounds at or below 30 and 20; its value reads neither, so it stays positive
    monkeypatch.setattr(sys.modules["sl2genus.bounds"], "_e_bounds", lambda p: (31, 21))
    rep = verify_section7("L7.1")
    assert rep.verdict == "positive_but_differs"
    flags = "E sigma bound <= 30; E tau bound <= 20"
    assert rep.notes == flags + "; exceptional case at prime level; positivity threshold p >= 17"


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
    # at 16, a_sigma_2's k = 3 counts H mod 8 n Conj(sigma mod 8), not H mod 4
    # n Conj(sigma mod 4): no H over the Borel subgroup meets Conj(sigma), so
    # every verdict still holds, and no section-7 chain and no p = 2 chain
    # reads k.  Only one report's detail moves (0 <= 28 reads 0 <= 32); the
    # ladder oracle of test_bounds.py, which spells out each count level, is
    # the one check that sees it.
    true, faulty = _sigma_reports_under(monkeypatch, (2, 2, 3), "a_sigma_2", 2, 4)
    moved = [(t[0], f[0]) for t, f in zip(true, faulty) if t != f]
    assert moved == [(("a_sigma_2", True, "0 <= 28"), ("a_sigma_2", True, "0 <= 32"))]
    assert all(ok for checks in faulty for _, ok, _ in checks)
    assert verify_section7("P7.3").verdict == "match"


def test_a_wrong_count_level_at_odd_p_stops_every_chain(monkeypatch):
    # a_sigma_p's k = 2 counts H n Conj(sigma) at level 2, not H mod p n
    # Conj(sigma mod p).  The chain's total reads the count at level r + 1
    # that the bound made (every p >= 3 kind has k = 1), so the first report
    # finds none there and raises; the section-7 chains read no k.
    with pytest.raises(KeyError):
        _sigma_reports_under(monkeypatch, (1, 2, 2))
    assert verify_section7("P7.3").verdict == "match"


def test_a_fiber_size_test_off_by_p_fails_lemma_6_1_cor_6_5_and_the_desk(monkeypatch):
    # _y_sets compares V_x with H_(N-i) only when #H_(N-i) = p^(2i), the size
    # of every V_x; read as p^(2i+1), no H_(N-i) is compared and every Y_i is
    # empty.  Then #(Y_0 - Y_1) is #Y_0 and the first step of the chain fails
    # where Y_1 was not empty: lemma 6.1 and cor. 6.5 fail, and so do desk
    # parts 5-7 (part 7 is asserted here; with them the verify --suite all
    # and main-theorem-desk pins of tier1.yml move); the old-report oracle of
    # test_bounds.py sees it too.
    bounds_mod = sys.modules["sl2genus.bounds"]
    _mutate(monkeypatch, bounds_mod, "_y_sets", "ctx.p ** (2 * i)", "ctx.p ** (2 * i + 1)")
    assert suite_lemma6_1(0) == (False, "violation ('chain:first', False, '') at (3,2), #H=54")
    assert suite_cor6_5(0) == (False, "fiber-count bound fails at modulus 9, #H=27")
    failed = "bound violation ('chain:first', False, '') on subgroup of order 1024"
    assert [(r.status, r.notes) for r in verify_main_theorem_desk(7)] == [("fail", failed)]
    c9 = make_ctx(3, 2)
    hs = sample_slim_subgroups(c9, 25, random.Random((0, 3, 2).__repr__()))  # lemma 6.1's at 9
    reports = [(h, ref, rep) for h in hs for ref, rep in _caught_bound_reports(h)]
    assert any(rep.checks != _old_slim_bound_report(h, ref) for h, ref, rep in reports)


def test_a_row_table_slot_off_by_one_fails_the_order_checks_where_there_is_one(monkeypatch):
    # row_table's slot of the row (1, 0) reads (s11 + 1, s12): each right_mul
    # that has mapped as many codes as its table has slots reads that slot,
    # and a closure leaves SL2.  enumerate_group closes <u, t(u)> under the
    # cap #SL2 (on a fresh context, since G is kept in the memo), after
    # check_order has applied the caller's cap, so passing it is a bug.
    # A closure by generators is compared with the order of its Schreier walk,
    # which reads no table, once that order is known.  A closure whose order
    # was not read first is held to Lagrange's theorem: <u, t(u)> at 9 closes
    # to 5,112 elements, which do not divide the 648 of SL2(Z/9Z).
    core_mod = sys.modules["sl2genus.core"]
    true_table = core_mod.row_table

    def off_by_one(ctx, s):
        table = list(true_table(ctx, s))
        a, b, _, _ = decoder(ctx)(table[1])
        table[1] = encoder(ctx)(((a + 1) % ctx.modulus, b, 0, 0))
        return tuple(table)

    monkeypatch.setattr(core_mod, "row_table", off_by_one)
    with pytest.raises(ConsistencyError, match="closure of <u, t\\(u\\)> passed #SL2 = 120"):
        enumerate_group(GroupCtx(5, 1))
    c27 = make_ctx(3, 3)
    h = Subgroup(c27, (upper_u(c27), mat(1, 0, 3, 1, c27)))
    assert h.order == 2187
    with pytest.raises(ConsistencyError, match=r"closure of \d+ elements, Schreier walk 2187"):
        h.codes()
    c9 = make_ctx(3, 2)
    with pytest.raises(ConsistencyError, match=r"closure of \d+ elements, not dividing #SL2 = 648"):
        closure([upper_u(c9), lower_u(c9)], c9)


def test_a_preimage_without_its_diagonal_kernel_generator_fails_the_order_check(monkeypatch):
    # preimage leaves out the lift of 1 + p^m diag(1, -1), so its kernel
    # generators span only two of the three dimensions of K_m/K_(m+1).  Over
    # H = {1} they generate a proper subgroup of K_m, and the order check, read
    # from the Schreier walk, kills it.  Over B the mutant is equivalent: the
    # lifts of B's generators regenerate the diagonal, so the preimage and its
    # codes are the true ones.
    subgroups_mod = sys.modules["sl2genus.subgroups"]
    true_preimage = subgroups_mod.preimage
    _mutate(monkeypatch, subgroups_mod, "preimage", "[((1 + q) % m, 0, 0, (1 - q) % m), (1, q, 0, 1)", "[(1, q, 0, 1)")
    for p, m, n in ((2, 1, 2), (2, 1, 3), (3, 1, 2), (3, 1, 3), (5, 1, 2), (2, 2, 4), (2, 1, 5)):
        low = make_ctx(p, m)
        trivial = Subgroup.from_codes(low, {encoder(low)(identity(low))})
        with pytest.raises(ConsistencyError, match=r"preimage of order \d+, not #H .* = %d$" % p ** (3 * (n - m))):
            subgroups_mod.preimage(trivial, make_ctx(p, n))
    for p, n in ((2, 3), (3, 2), (5, 2), (7, 2)):
        ctx = make_ctx(p, n)
        assert subgroups_mod.preimage(borel(p), ctx).codes() == true_preimage(borel(p), ctx).codes()


def test_a_reducer_entry_at_the_wrong_level_fails_the_fiber_and_recovery_checks(monkeypatch):
    # reducer reduces the entry d of a code mod p^(level+1), not p^level, in
    # core and in each module that imports it.  fiber_group reads the fiber
    # over alpha' from the labels on the lifts of alpha' and reduces no code,
    # so it returns the true V (the fault is equivalent there); the lemma 5.3
    # suite sees it in reduction_fiber_sizes, whose reduced class is not the
    # lower class.  The chains of slim_bound_report count M(i) =
    # #(Y_i mod p^(r+i)) through the reducers kept in the context's memo (taken
    # out here), and the first violation of lemma 6.1 is a recovery count above
    # its cap.  The memo's entry is set aside with monkeypatch (None reads as
    # absent), so the mutated reducers built in its place go with the test
    # even when no earlier test had built the true ones.
    desc = FiberDescriptor(3, 0, 2, 1, "sigma")
    v = fiber_group(desc)
    core_mod = sys.modules["sl2genus.core"]
    _mutate(monkeypatch, core_mod, "reducer", "(code >> k3) % q << j3", "(code >> k3) % (q * ctx.p) << j3")
    for name in ("sl2genus.subgroups", "sl2genus.bounds", "sl2genus.fibers"):
        monkeypatch.setattr(sys.modules[name], "reducer", core_mod.reducer)
    monkeypatch.setitem(make_ctx(3, 2).memo, "reducers", None)
    assert fiber_group(desc) == v
    with pytest.raises(ConsistencyError, match="class reduction is not onto the lower class"):
        suite_lemma5_3(0)
    assert suite_lemma6_1(0) == (False, "violation ('chain:recovery1', False, '') at (3,2), #H=54")


def test_a_fiber_translated_by_another_lift_is_an_equivalent_mutant(monkeypatch):
    # fiber_group translates the fiber F by its greatest member, not by alpha.
    # No check can see it: if V = alpha^-1 F is a group and a1 = alpha v lies in
    # F, then a1^-1 F = v^-1 alpha^-1 F = v^-1 V = V, and fiber_group checks that
    # V equals P, a group; that check implies that every lift gives the same translate.
    grid = [FiberDescriptor(p, r, n, m, kind) for kind, p, r, n, m in _FIBER_GRID]
    true = [fiber_group(desc) for desc in grid]
    _mutate(monkeypatch, sys.modules["sl2genus.fibers"], "fiber_group", "_inv(alpha, mm)", "_inv(dec(max(fiber)), mm)")
    assert [sys.modules["sl2genus.fibers"].fiber_group(desc) for desc in grid] == true


def test_a_class_size_formula_off_by_one_fails_where_the_orbit_is_built(monkeypatch, capsys):
    # conj_class_size_formula reads one too many for u^p (r = 1).  class_codes
    # checks each orbit against it before storing it, so lemma 5.2 raises
    # there, and verify reports an internal error: the size comparison the
    # suite once made of its own could never run.
    groups_mod = sys.modules["sl2genus.groups"]
    true_size = groups_mod.conj_class_size_formula

    def planted(ref):
        return true_size(ref) + (ref.kind == "u_power" and ref.r == 1)

    monkeypatch.setattr(groups_mod, "conj_class_size_formula", planted)
    for p, n in _SIZE_GRID:
        monkeypatch.delitem(make_ctx(p, n).memo, ("u_power", 1), raising=False)
    with pytest.raises(ConsistencyError, match="off its closed form"):
        suite_lemma5_2(0)
    assert run(["verify", "--suite", "lemma5.2"]) == EXIT_INTERNAL
    assert "off its closed form" in capsys.readouterr().err


def test_a_fiber_order_expected_off_by_p_fails_in_fiber_group(monkeypatch):
    # the parametrization P that fiber_group compares V with spans
    # p^(2(n-m)-1) elements, not p^(2(n-m)): a runs over p^(n-m-1) values.  P
    # states the expected order, so fiber_group raises on the first fiber of
    # lemma 5.3's grid, and so does verify_orthogonality, which reads V from
    # it: neither suite needs a size check of its own.
    fibers_mod = sys.modules["sl2genus.fibers"]
    _mutate(monkeypatch, fibers_mod, "_parametrized_codes", "for a in range(span)", "for a in range(span // p)")
    assert len(fibers_mod._parametrized_codes(FiberDescriptor(3, 0, 2, 1, "sigma"))) == 3
    for suite in (suite_lemma5_3, suite_lemma5_6):
        with pytest.raises(ConsistencyError, match="fiber differs from the explicit parametrization"):
            suite(0)


@pytest.mark.parametrize("swap", (False, True), ids=("labelled_out", "swapped_for_a_lift_outside"))
def test_a_relabelled_fiber_member_fails_lemmas_5_3_and_5_6(monkeypatch, swap):
    # fibers.class_labels takes the sigma label off one member of lemma 5.3's
    # first fiber, (sigma, 3, 0, 2, 1), other than alpha, and with swap puts it
    # on one lift of alpha mod 3 outside the fiber, so that #V stays 9.  Either
    # V is no group and differs from its closed forms, so both suites raise in
    # fiber_group.  alpha' = alpha there, so the fault lies in the fiber over either.
    fibers_mod = sys.modules["sl2genus.fibers"]
    labels, key, ctx = fibers_mod.class_labels, ("sigma", 0), make_ctx(3, 2)
    alpha = FiberDescriptor(3, 0, 2, 1, "sigma").standard_rep()
    lifts = {tuple((a + 3 * e) % 9 for a, e in zip(alpha, es)) for es in product(range(3), repeat=4)}
    lifts = sorted(x for x in lifts if (x[0] * x[3] - x[1] * x[2]) % 9 == 1)
    members = [x for x in lifts if key in labels(x, ctx)]
    assert (len(lifts), len(members)) == (27, 9) and alpha in members
    drop = max(x for x in members if x != alpha)
    add = min(x for x in lifts if x not in members) if swap else None

    def moved(x, c):
        got = labels(x, c)
        if c.modulus == 9 and x == drop:
            return [label for label in got if label != key]
        return got + [key] if c.modulus == 9 and x == add else got

    monkeypatch.setattr(fibers_mod, "class_labels", moved)
    for suite in (suite_lemma5_3, suite_lemma5_6):
        with pytest.raises(ConsistencyError, match="fiber"):
            suite(0)


def test_a_degenerate_orthogonality_base_fails_on_the_complement_alone(monkeypatch):
    # alpha read as the identity makes <1, base> the q multiples of 1, not q^2
    # elements.  The trace pairing is perfect, so the complement holds all q^3
    # trace-0 matrices and cannot equal the q^2 of w_set: verify_orthogonality
    # returns False with no size test of the algebra.  fiber_group reads alpha
    # too, so V is read before alpha is patched, and only the base sees it.
    grid = [FiberDescriptor(p, r, n, m, kind) for kind, p, r, n, m in _FIBER_GRID]
    true = {desc: fiber_group(desc) for desc in grid}
    monkeypatch.setattr(sys.modules["sl2genus.fibers"], "fiber_group", true.__getitem__)
    monkeypatch.setattr(FiberDescriptor, "standard_rep", lambda desc: (1, 0, 0, 1))
    for desc in grid:
        assert not verify_orthogonality(desc), desc


def test_a_golden_class_listed_twice_fails_lemma_4_5(monkeypatch):
    # Conj(-sigma) replaced by Conj(sigma), of the same size: the sizes and
    # each class's orbit still match, and the union misses Conj(-sigma), so
    # the partition test refuses the table with no disjointness test
    suites_mod = sys.modules["sl2genus.suites"]
    golden = suites_mod.golden_conj4_classes()
    assert len(golden["sigma"]) == len(golden["-sigma"]) and golden["sigma"] != golden["-sigma"]
    monkeypatch.setattr(suites_mod, "golden_conj4_classes", lambda: {**golden, "-sigma": golden["sigma"]})
    ok, detail = suite_lemma4_5()
    assert not ok, detail


def _plus_one(true):
    return lambda *args: true(*args) + 1


# (suite, the name planted in suites, the fault made from the true value, the
# suite's detail): each suite returns (False, detail) at its first failing check
_SUITE_FAULTS = [
    ("lemma4.5", "CONJ4_TABLE", lambda t: {**t, "u": ["1,2;0,1"] + t["u"][1:]}, "class u differs from the table"),
    ("lemma4.5", "partition_into_classes", lambda t: lambda g: t(g)[1:], "expected exactly ten classes"),
    ("lemma4.6", "_bcde", _plus_one, "#B n Conj(sigma) = 10 != 11 at p=5"),
    ("lemma4.6", "_e_bounds", lambda t: lambda p: (0, t(p)[1]), "E:A4 sigma count above 0 at p=5"),
    ("lemma4.6", "_e_bounds", lambda t: lambda p: (t(p)[0], 0), "E:A4 tau count above 0 at p=5"),
    ("lemma4.6", "exceptional_subgroup", lambda t: lambda p, iso, seed: borel(p), "E:A4 meets Conj(u) at p=5"),
    ("lemma4.10", "A1_TABLE", lambda t: t[:-1], "A1 differs from the twelve-element table"),
    ("lemma4.10", "count_in_subgroup", _plus_one, "#A1 n Conj(sigma) = 4 != 3"),
    (
        "lemma4.10",
        "count_in_subgroup",
        lambda t: lambda h, ref: t(h, ref) + (ref.kind == "u_power"),
        "#A1 n Conj(u^1) = 1 != 0",
    ),
    ("lemma5.1", "centralizer_order_formula", _plus_one, "orbit-stabilizer fails for sigma at (2,1)"),
    (
        "lemma5.1",
        "centralizer_brute",
        lambda t: lambda rep, g: frozenset(sorted(t(rep, g))[1:]),
        "centralizer mismatch for sigma at (2,1)",
    ),
    (
        "lemma5.3",
        "reduction_fiber_sizes",
        lambda t: lambda *a, r=0: frozenset({1}),
        "sigma mod-2 fibers are not of size 2",
    ),
    (
        "lemma5.3",
        "reduction_fiber_sizes",
        lambda t: lambda kind, *a, r=0: frozenset({2 if kind == "sigma" else 1}),
        "u fibers 2^(r+3) -> 2^(r+2) are not of size 2",
    ),
    (
        "lemma5.3",
        "reduction_fiber_sizes",
        lambda t: lambda kind, p, hi, lo, r=0: frozenset({1 if kind == "u_power" and lo == r + 1 else 2}),
        "u fibers 2^(r+2) -> 2^(r+1) are not of size 2",
    ),
    (
        "lemma5.6",
        "verify_orthogonality",
        lambda t: lambda desc: False,
        "orthogonality fails for FiberDescriptor(p=3, r=0, n=2, m=1, kind='sigma')",
    ),
    (
        "lemma5.8-5.16",
        "recovery_set_brute",
        lambda t: lambda kind, ctx, r=0: frozenset(),
        "recovery set mismatch for sigma at p=3 n=2 r=0",
    ),
    ("lemma5.8-5.16", "recovery_count", _plus_one, "recovery count 2 != 3 for sigma p=3 n=2 m=1 r=0"),
    ("cor6.5", "fiber_count_bound_check", lambda t: lambda *a: False, "fiber-count bound fails at modulus 9, #H=1"),
    (
        "cor6.5",
        "fiber_count_bound_check",
        lambda t: lambda h, *a: h.ctx.n != 3 and t(h, *a),
        "fiber-count bound fails at modulus 27, #H=486",
    ),
]


@pytest.mark.parametrize("suite, name, fault, detail", _SUITE_FAULTS, ids=[fault[3] for fault in _SUITE_FAULTS])
def test_a_planted_fault_fails_its_suite_with_its_detail(monkeypatch, suite, name, fault, detail):
    suites_mod = sys.modules["sl2genus.suites"]
    monkeypatch.setattr(suites_mod, name, fault(getattr(suites_mod, name)))
    assert suites_mod.SUITES[suite](0) == (False, detail)


def test_a_sampler_short_of_its_count_is_noted_in_the_desk(monkeypatch):
    suites_mod = sys.modules["sl2genus.suites"]
    true_sample = suites_mod.sample_slim_subgroups
    monkeypatch.setattr(suites_mod, "sample_slim_subgroups", lambda *args: true_sample(*args)[:-1])
    results = verify_main_theorem_desk(4, samples=2)
    assert [(r.status, r.checked, r.notes) for r in results] == [
        ("pass", 1, "sampled slim subgroups; requested 2, sampler yielded 1")
    ] * 3


def _kernel_below(ctx):
    """K_(n-1) of SL2(Z/p^nZ), of order p^3: the least subgroup that is not slim."""
    q, m = ctx.p ** (ctx.n - 1), ctx.modulus
    return Subgroup(ctx, ((1, q, 0, 1), (1, 0, q, 1), ((1 + q) % m, 0, 0, (1 - q) % m)))


def test_a_non_slim_subgroup_in_a_bound_sample_is_refused(monkeypatch):
    # each seeded slim sample starts with K_(n-1), which is not slim.
    # bound_reports refuses it, so lemma 6.1 and desk part 5 raise; they do not
    # count it as checked with no inequality read.
    suites_mod = sys.modules["sl2genus.suites"]
    true_sample = suites_mod._slim_sample

    def planted(key, ctx, count, mod_p_target=None):
        return [_kernel_below(ctx)] + true_sample(key, ctx, count, mod_p_target)

    monkeypatch.setattr(suites_mod, "_slim_sample", planted)
    assert not is_slim(_kernel_below(make_ctx(3, 2)))
    with pytest.raises(PreconditionError, match="subgroup is not slim"):
        suite_lemma6_1(0)
    with pytest.raises(PreconditionError, match="subgroup is not slim"):
        verify_main_theorem_desk(5, samples=3)


def test_a_lattice_closure_cut_at_a_third_fails_the_reclosing_oracle_and_the_part1_digest(monkeypatch, report_digest):
    # all_subgroups reads the universe once a closure passes k // 3 elements,
    # not k // 2, in subgroups and in suites, which imports it: a subgroup of
    # index 2 becomes the universe, and the subgroups grown from it go missing.
    # The reclosing oracle of test_kernel.py sees it at SL2(Z/4Z), the lattice
    # of SL2(Z/8Z) holds fewer than its 673 subgroups, and desk part 1 (whose
    # containers B@23 and C@11 have subgroups of index 2) moves its digest.
    # On SL2(Z/9Z) the mutant is equivalent: no subgroup there has 217 to 324
    # of its 648 elements, so its lattice digest, and cor6.5 and the
    # benchmark's lattice item, which read that lattice, do not see it.
    subgroups_mod = sys.modules["sl2genus.subgroups"]
    _mutate(monkeypatch, subgroups_mod, "all_subgroups", "k // 2", "k // 3")
    monkeypatch.setattr(sys.modules["sl2genus.suites"], "all_subgroups", subgroups_mod.all_subgroups)
    lattices = {}
    for p, n in ((2, 2), (2, 3), (3, 2)):
        ctx = make_ctx(p, n)
        lattices[p, n] = subgroups_mod.all_subgroups(enumerate_group(ctx), [upper_u(ctx), lower_u(ctx)])
    c4 = make_ctx(2, 2)
    assert lattices[2, 2] != _old_all_subgroups(enumerate_group(c4), [upper_u(c4), lower_u(c4)])
    assert len(lattices[2, 3]) < 673
    part1 = report_digest(verify_main_theorem_desk(1))
    assert part1 != "f5c3be681a5d12ac3cf3b331cc934b3a73585df1c8a2cbb1ce789e2ccaace8ad"
    assert _lattice_digest(lattices[3, 2]) == "ee94a983f4e4a4d57d4435a6186eb5918cb8f12aab3b24299460513751e9cbb8"


def test_a_schreier_generator_read_with_x_u_for_its_inverse_fails_the_orbit_stabilizer_check(monkeypatch):
    # all_subgroups forms each Schreier generator of N(K) as x_t g x_u, not x_t g x_u^-1, in
    # subgroups and in suites, which imports it.  Its check that N(K), closed from those
    # generators, has k / #orbit elements raises on every conjugacy case of the reclosing
    # oracle, and so does cor6.5, the suite that walks the SL2(Z/9Z) lattice.
    subgroups_mod = sys.modules["sl2genus.subgroups"]
    _mutate(monkeypatch, subgroups_mod, "all_subgroups", "col[inv[x_of[u]]][xg]", "col[x_of[u]][xg]")
    monkeypatch.setattr(sys.modules["sl2genus.suites"], "all_subgroups", subgroups_mod.all_subgroups)
    for p, n in ((2, 2), (2, 3), (3, 2), (5, 1), (7, 1)):
        ctx = make_ctx(p, n)
        with pytest.raises(ConsistencyError, match=r"N\(K\) of index other than its \d+ conjugates"):
            subgroups_mod.all_subgroups(enumerate_group(ctx), [upper_u(ctx), lower_u(ctx)])
    with pytest.raises(ConsistencyError, match=r"N\(K\) of index other than its 36 conjugates"):
        suite_cor6_5(0)


def test_a_trivial_representative_seeded_with_no_normalizer_moves_only_the_closure_count(monkeypatch):
    # all_subgroups seeds the trivial representative with N(1) = 1, not the conjugacy
    # generators (N(1) = G).  Every skip is still exact, so the lattice, its order and its
    # digest hold; only the closure-count pin of test_kernel.py sees it: SL2(Z/9Z) takes
    # 641 extensions, not 548.
    subgroups_mod = sys.modules["sl2genus.subgroups"]
    true_all_subgroups = subgroups_mod.all_subgroups
    caps = []  # the spy goes in first: the mutant reads the module's names as _mutate finds them
    monkeypatch.setattr(subgroups_mod, "extend_closure", lambda *a: caps.append(a[-1]) or extend_closure(*a))
    _mutate(monkeypatch, subgroups_mod, "all_subgroups", "[(trivial, (), tuple(xs))]", "[(trivial, (), ())]")
    ctx = make_ctx(3, 2)
    elements, gens = enumerate_group(ctx), [upper_u(ctx), lower_u(ctx)]
    lattice = subgroups_mod.all_subgroups(elements, gens)
    assert (caps.count(324), caps.count(648)) == (641, 67)
    assert _lattice_digest(lattice) == "ee94a983f4e4a4d57d4435a6186eb5918cb8f12aab3b24299460513751e9cbb8"
    assert lattice == true_all_subgroups(elements, gens)


def test_a_filtration_layer_read_one_kernel_deeper_fails_the_lagrange_check(monkeypatch):
    # filtration_level intersects H with K_(s+1), not K_s, in subgroups and in
    # bounds, which imports it.  filtration_level checks each layer against
    # #H / #(H mod p^s) (Lagrange), and the first bound report whose chains
    # read a layer H n K_s larger than H n K_(s+1) raises: lemma 6.1's
    # seeded samples, and desk part 6 at 2^7.  With that check taken out as
    # well, the reduction-size identity (test_filtration_sizes_from_reductions),
    # the depth-filing oracle, the Y-set digest of test_bounds.py and the desk
    # part 6/7 digests fail on it.
    subgroups_mod = sys.modules["sl2genus.subgroups"]
    old, new = "_kernel_codes(h.ctx, s, h.cap)", "_kernel_codes(h.ctx, s + 1, h.cap)"
    _mutate(monkeypatch, subgroups_mod, "filtration_level", old, new)
    monkeypatch.setattr(sys.modules["sl2genus.bounds"], "filtration_level", subgroups_mod.filtration_level)
    with pytest.raises(ConsistencyError, match=r"H_\d of \d+ elements, not #H / #\(H mod p\^\d\)"):
        suite_lemma6_1(0)
    with pytest.raises(ConsistencyError, match=r"H_\d of \d+ elements, not #H / #\(H mod p\^\d\)"):
        verify_main_theorem_desk(6, samples=4)


def _level_two_at_27():
    """<u, 1 + 9W> modulo 27, W over diag(1, -1), E12 and E21: the preimage of <u mod 9>, of level 2 and order 243."""
    ctx = make_ctx(3, 3)
    return Subgroup(ctx, (upper_u(ctx), (10, 0, 0, 19), (1, 9, 0, 1), (1, 0, 9, 1)))


def test_a_rank_three_order_off_by_p_fails_the_preimage_and_closure_checks(monkeypatch):
    # Subgroup.order reads #(H mod p^(n-1)) p^2, not p^3, once the walk finds
    # K_(n-1) <= H.  preimage's order check kills every preimage above its
    # source (B at 5 into 25 reads 20 * 5^2), and an H by generators whose
    # order was read fails Subgroup.codes' closure-vs-walk comparison when it
    # is closed.  On H of level 2 at 27, #H reads 81 = #H_2 * 3^2, which no
    # K_s with s < 3 fits; level and is_slim (and so a report) read K_2 <= H
    # as false by orders, against the walk's rank 3, and raise without
    # closing H.
    h = _level_two_at_27()
    assert (h.order, level(h), is_slim(h)) == (243, 2, False)
    subgroups_mod = sys.modules["sl2genus.subgroups"]
    _mutate(monkeypatch, subgroups_mod, "order", "* p**3", "* p**2", owner=Subgroup)
    with pytest.raises(ConsistencyError, match=r"preimage of order 500, not #H p\^\(3\(n-m\)\) = 2500$"):
        preimage(borel(5), make_ctx(5, 2))
    rank_three = r"K_2 <= H is False by orders, not as the Schreier walk found$"
    for read in (level, is_slim):
        h = _level_two_at_27()
        with pytest.raises(ConsistencyError, match=rank_three):
            read(h)
        assert (h.order, h._codes) == (81, None)
    with pytest.raises(ConsistencyError, match=rank_three):
        genus_report(_level_two_at_27())
    with pytest.raises(ConsistencyError, match="closure of 243 elements, Schreier walk 81"):
        h.codes()


def test_a_walk_short_of_a_lift_below_level_n_fails_the_order_checks(monkeypatch):
    # _schreier_walk drops its last lift on every context below n = 3, which
    # only the rank-3 branch of Subgroup.order walks, one level down.
    # preimage's order check kills the preimage of A1 (level 2) into 8, whose
    # order reads (5 lifts * 2) * 2^3, and the kernel K_2 modulo 27, the
    # preimage of {1} mod 9, which reads 0 lifts, so filtration_level fails
    # there before its Lagrange check.  The reduction H mod 4 of an H by
    # generators, its walk order read for #H, fails Subgroup.codes'
    # closure-vs-walk comparison once level closes it.  A walk one level down
    # that reaches rank 3 reads no lift: over a level-one source the mutant is
    # equivalent, and preimage:B@1 at 27 keeps its order.
    subgroups_mod = sys.modules["sl2genus.subgroups"]
    true_walk = subgroups_mod._schreier_walk
    c8, c27 = make_ctx(2, 3), make_ctx(3, 3)

    def short_below_n(gens, ctx, cap):
        walk = true_walk(gens, ctx, cap)
        return (walk[0][:-1], walk[1]) if ctx.n < 3 else walk

    a1 = a1_subgroup()
    gens = preimage(a1, c8).gens
    monkeypatch.setattr(subgroups_mod, "_schreier_walk", short_below_n)
    monkeypatch.delitem(c27.memo, ("kernel", 2), raising=False)
    with pytest.raises(ConsistencyError, match=r"preimage of order 80, not #H .* = 96$"):
        preimage(a1, c8)
    with pytest.raises(ConsistencyError, match=r"preimage of order 0, not #H .* = 27$"):
        filtration_level(closure([upper_u(c27)], c27), 2)
    h = Subgroup(c8, gens)
    assert h.order == 80
    with pytest.raises(ConsistencyError, match="closure of 12 elements, Schreier walk 10"):
        level(h)
    assert parse_subgroup_spec("preimage:B@1", 3, 3).order == 6 * 3**6


# Section 2's L2_5 shadow decides both of its sides from generators
# (suites._l2_5_sides); the closure oracle of tests/test_section2.py reads
# them from every element.


def test_a_hypothesis_that_drops_a_determinant_fails_the_closure_oracle(monkeypatch):
    # the hypothesis reads the first generator's determinant alone.  That is a
    # stricter hypothesis, so the suite still holds at seed 0 (L2_5 is true on
    # what it keeps, and a proper witness is still drawn at each p); the oracle
    # sees the two-generator draws at 9 whose determinants generate only together
    suites_mod = sys.modules["sl2genus.suites"]
    _mutate(monkeypatch, suites_mod, "_l2_5_sides", "for d in dets]", "for d in dets[:1]]")
    verdict, decided = _decided(monkeypatch, 0)
    assert verdict
    missed = _disagreements(decided, (3,))
    assert missed and all(len(gens) == 2 and _brute_sides(gens, 3)[0] for _, gens in missed)


def test_a_walk_that_keeps_det_z_fails_the_directed_case_and_the_oracle(monkeypatch):
    # each Schreier generator's determinant is read as det z, not det z (det adj t)^-1.
    # That only adds determinants, so the suite still holds; the torus of order
    # p - 1 with u (tests/test_section2.py) reads a power of w != 1 there, and
    # the oracle at 9 reads determinants that H n (1 + 3 M2) does not hold
    suites_mod = sys.modules["sl2genus.suites"]
    _mutate(monkeypatch, suites_mod, "_l2_5_sides", "z2) * pow(a0 * a3 - a1 * a2, -1, m) % m", "z2) % m")
    for p in (3, 5, 7):
        w = pow(primitive_root(p, 2), p, p * p)
        assert not suites_mod._l2_5_sides([(w, 0, 0, 1), (1, 1, 0, 1)], p)[2] <= {1}
    verdict, decided = _decided(monkeypatch, 0)
    assert verdict and _disagreements(decided, (3,))


@pytest.mark.parametrize(
    "old, new",
    [
        ("_lift_walk(gens, m, p,", "_lift_walk(gens[:1], m, p,"),  # the walk forgets a generator
        ("a2, -1, m) % m", "a2, -1, m) % p"),  # dets mod p
    ],
    ids=["one generator", "dets mod p"],
)
def test_a_walk_that_loses_kernel_determinants_fails_the_suite(monkeypatch, old, new):
    # a walk of H mod p by the first generator alone, or kernel determinants
    # read mod p (always 1), misses 1 + pZ/p^2Z on a draw that meets the
    # hypothesis: the suite itself returns False, and so does suite_section2
    suites_mod = sys.modules["sl2genus.suites"]
    _mutate(monkeypatch, suites_mod, "_l2_5_sides", old, new)
    assert not suites_mod.section2_l2_5(0)
    assert suites_mod.suite_section2(0) == (False, "determinant surjectivity criterion failed")


# Section 2's L2_1 shadow reads #H and #(H mod p^crit) from the Schreier walk
# (Subgroup.order); the closure oracle of tests/test_section2.py reads them
# from every element.


def test_a_top_order_read_p_short_fails_l2_1_on_its_first_draw(monkeypatch):
    # #H at level n read p times too small, H mod p^crit read truly: the
    # sharpness draw <sigma, (7 3; 2 1)> at 27 meets the hypothesis (all of
    # SL2(Z/9Z) mod 9), and its #H falls short of #SL2(Z/27Z)
    suites_mod = sys.modules["sl2genus.suites"]

    class Short(Subgroup):
        @property
        def order(self):
            return super().order // self.ctx.p

    monkeypatch.setattr(suites_mod, "Subgroup", Short)
    assert suites_mod.section2_l2_1(0) is False


def test_a_walk_stuck_below_rank_3_fails_the_l2_1_guard(monkeypatch):
    # a walk that never admits a third W reads every H mod 9 over all of
    # SL2(F_3) as 24 * 3^2 = 216 elements, not 648: no draw at p = 3 meets the
    # hypothesis, and the guard that some draw must raises
    subgroups_mod, suites_mod = sys.modules["sl2genus.subgroups"], sys.modules["sl2genus.suites"]
    stuck = "if len(basis) < 2 and not _in_span(basis, w, p):"
    _mutate(monkeypatch, subgroups_mod, "_schreier_walk", "if not _in_span(basis, w, p):", stuck)
    with pytest.raises(ConsistencyError, match="L2_1 sampler produced no surjective subgroup"):
        suites_mod.section2_l2_1(0)


def test_a_hypothesis_read_at_p_not_p2_fails_l2_1_on_the_witness(monkeypatch):
    # crit = 1 at p = 3: the first draw, <sigma, (7 3; 2 1)>, surjects mod 3 and
    # has 648 of 17,496 elements, so the suite returns False on seeds 0-19 alike
    suites_mod = sys.modules["sl2genus.suites"]
    _mutate(monkeypatch, suites_mod, "section2_l2_1", "2 if p < 5 else 1, 0\n", "1, 0\n")
    assert [seed for seed in range(20) if suites_mod.section2_l2_1(seed)] == []
    assert suites_mod.suite_section2(0) == (False, "mod p^2 surjectivity criterion failed")


def test_without_the_witness_a_hypothesis_read_at_p_survives_seed_0(monkeypatch):
    # the same fault with the first draw at p = 3 made like the other even ones:
    # every draw of seed 0 that surjects mod 3 is all of SL2(Z/27Z), so the
    # witness is what kills the fault there
    suites_mod = sys.modules["sl2genus.suites"]
    between = ", 0\n        m = ctx.modulus\n        for i in range(20):\n            if "
    old, new = "2 if p < 5 else 1" + between + "i == 0 and p == 3:", "1" + between + "False:"
    _mutate(monkeypatch, suites_mod, "section2_l2_1", old, new)
    assert suites_mod.section2_l2_1(0)


def test_uniform_l2_1_draws_left_in_gl2_fail_the_generator_check(monkeypatch):
    # an odd draw not column-rescaled keeps its determinant, which
    # Subgroup refuses for a generator before anything is walked
    suites_mod = sys.modules["sl2genus.suites"]
    _mutate(monkeypatch, suites_mod, "section2_l2_1", "[_sl2_lift_one(g, m) for g in draws", "[g for g in draws")
    with pytest.raises(PreconditionError, match=r"generator \(.*\) has det \d+ != 1"):
        suites_mod.section2_l2_1(0)


# The slim sampler reads #H' of each candidate from its Schreier walk and drops
# it unbuilt when a kept H of that order holds every generator (H' <= H, so
# H' = H by Lagrange).  Its two checks: the closure replay of
# tests/test_subgroups.py and the seeded criterion-9 sample digests of
# tests/test_bounds.py.


_EVERY_SAMPLER_CHECK = ["replay 5^2", "digest 5^2", "replay 3^3", "digest 3^3", "replay 2^4", "digest 2^4"]


def _failed_sampler_checks():
    """The names of the sampler checks that fail: the replay at 25, 27 and 16
    and the 500-sample digest at each."""
    subgroups_mod = sys.modules["sl2genus.subgroups"]
    failed = []
    for p, n, _, seed, count in _REPLAY_CASES[:3]:
        ctx = make_ctx(p, n)
        got = subgroups_mod.sample_slim_subgroups(ctx, count, random.Random(seed))
        if [(h.codes(), h.gens) for h in got] != _replay(ctx, count, random.Random(seed))[0]:
            failed.append("replay %d^%d" % (p, n))
        subs = subgroups_mod.sample_slim_subgroups(ctx, 500, random.Random(seed))
        rows = "\n".join(repr(sorted(h.codes())) for h in subs)
        if hashlib.sha256(rows.encode()).hexdigest() != _SAMPLE_DIGESTS["criterion9-%d^%d" % (p, n)]:
            failed.append("digest %d^%d" % (p, n))
    return failed


def test_a_walk_short_of_its_last_w_fails_the_replay_and_the_sample_digests(monkeypatch):
    # the walk drops its last W, so #H' reads p times too small and the sampler
    # builds lifts times a span of p^(rank - 1): not H', and a rank-3 candidate
    # passes as slim.  By Lagrange an understated #H' drops no distinct
    # subgroup (H' <= H gives #H >= #H' >= the order read), but what is built
    # is wrong, and the replay and the digests see it at every context
    subgroups_mod = sys.modules["sl2genus.subgroups"]
    true_walk = subgroups_mod._schreier_walk

    def short_of_a_w(gens, ctx, cap):
        walk = true_walk(gens, ctx, cap)
        return walk if not walk[1] else (walk[0], walk[1][:-1])

    monkeypatch.setattr(subgroups_mod, "_schreier_walk", short_of_a_w)
    assert _failed_sampler_checks() == _EVERY_SAMPLER_CHECK


def test_a_duplicate_test_at_p_times_the_order_fails_the_replay_and_the_sample_digests(monkeypatch):
    # the duplicate test reads #H' as p times its order, what a walk that
    # overstated #H' would give: a candidate of index p in a kept H that holds
    # its generators is dropped though it is a distinct subgroup
    subgroups_mod = sys.modules["sl2genus.subgroups"]
    _mutate(monkeypatch, subgroups_mod, "sample_slim_subgroups", "h.order == order and", "h.order == order * p and")
    assert _failed_sampler_checks() == _EVERY_SAMPLER_CHECK


# At n > 2 the sampler walks each candidate at layer 1 (H mod p, products mod
# p^2) and walks mod p^(n-1) only the ones of rank < 3 there (README, "Each
# fact is checked once").  Its checks: the replay and the digests when a
# candidate is dropped wrongly, and the count of walks that reach level n
# when the rung drops nothing.


def test_a_rung_that_rejects_at_rank_2_fails_the_replay_and_the_sample_digests(monkeypatch):
    # the sampler also drops a candidate whose layer-1 walk has rank 2: a full
    # first layer forces a full top layer, a first layer of rank 2 does not,
    # so slim subgroups go missing at 27 and 16 (the replay's 40 samples at 16
    # miss it, the digest's 500 do not); at 25 there is no rung
    subgroups_mod = sys.modules["sl2genus.subgroups"]
    old = "if ctx.n > 2 and len(basis) < 3:"
    new = "if ctx.n > 2 and len(basis) == 2:\n                continue\n            " + old
    _mutate(monkeypatch, subgroups_mod, "sample_slim_subgroups", old, new)
    assert _failed_sampler_checks() == ["replay 3^3", "digest 3^3", "digest 2^4"]


def test_a_rung_that_never_fires_fails_the_walk_count_alone(monkeypatch):
    # every candidate is walked mod p^(n-1) whatever its layer-1 walk found, as
    # before the rung: a candidate of rank 3 at layer 1 has rank 3 at the top
    # too, so the sampler returns what it did and the replay and the digests
    # pass; only the count of the walks that reach level n sees the waste
    subgroups_mod = sys.modules["sl2genus.subgroups"]
    events = _spy_on_the_sampler(monkeypatch)
    _mutate(monkeypatch, subgroups_mod, "sample_slim_subgroups", "len(basis) < 3:", "len(basis) < 4:")
    ctx = make_ctx(2, 4)
    subgroups_mod.sample_slim_subgroups(ctx, 40, random.Random((2, 4, "criterion9").__repr__()))
    assert len(_walks_at(events, ctx)) == len(_walks_at(events, make_ctx(2, 2))) == 114
    assert _failed_sampler_checks() == []


# A sampled H holds H mod p^(n-1) as the residues of its walk's lifts
# (Subgroup._from_walk) and reduces that set below n - 1.  Its checks: the
# reduction oracle of tests/test_subgroups.py (the closure of the reduced
# generators at every s < n), the sampler's replay and digests when H's own
# codes move, and the Lagrange and filtration checks of the bound reports.


def test_a_lift_dropped_from_the_transversal_fails_the_oracle_the_replay_and_the_desk(monkeypatch):
    # _from_walk builds H from all but the last of its walk's lifts (from the
    # lift 1 when that is the only one): H is no group, and its products and
    # its H mod p^(n-1) agree with each other, so #H and is_slim read them
    # consistently.  The oracle, the replay and the digests fail; desk part
    # 5's Lagrange check on H_3 raises, and desk part 7 reports a filtration
    # violation.  Lemma 6.1's 100 seeded samples do not see it.
    subgroups_mod = sys.modules["sl2genus.subgroups"]
    old, new = "p, m, low = ", "lifts = lifts[:-1] or lifts\n    p, m, low = "  # in the dedented source
    _mutate(monkeypatch, subgroups_mod, "_from_walk", old, new, owner=Subgroup)
    for case in ("criterion9-5^2", "criterion9-3^3", "criterion9-2^4"):
        assert _reduction_mismatches(h for h, _ in _stream(case)), case
    assert _failed_sampler_checks() == _EVERY_SAMPLER_CHECK
    with pytest.raises(ConsistencyError, match=r"H_3 of 9 elements, not #H / #\(H mod p\^3\)$"):
        verify_main_theorem_desk(5)
    (rep,) = verify_main_theorem_desk(7)
    violation = "bound violation ('filtration', False, 'H_4/H_5 = 4 > p^2') on subgroup of order 1020"
    assert (rep.status, rep.notes) == ("fail", violation)
    assert suite_lemma6_1(0)[0]


def test_lifts_reduced_a_level_low_fail_the_oracle_the_lagrange_check_and_the_target(monkeypatch):
    # _from_walk stores the lifts mod p^(n-2), not mod p^(n-1), as H mod
    # p^(n-1) (mod 1 at n = 2: one code).  H's own codes are right, so the
    # replay and the digests pass; the oracle fails on every stream,
    # filtration_level's Lagrange check raises on lemma 6.1's samples, and
    # desk part 2's sampler finds H mod 11 outside its target.
    subgroups_mod = sys.modules["sl2genus.subgroups"]
    _mutate(monkeypatch, subgroups_mod, "_from_walk", "reduce_mat(t, q)", "reduce_mat(t, q // p)", owner=Subgroup)
    for case in ("criterion9-5^2", "criterion9-3^3", "criterion9-2^4"):
        assert _reduction_mismatches(h for h, _ in _stream(case)), case
    assert _failed_sampler_checks() == []
    with pytest.raises(ConsistencyError, match=r"H_1 of 9 elements, not #H / #\(H mod p\^1\)$"):
        suite_lemma6_1(0)
    with pytest.raises(ConsistencyError, match="a candidate lifted from the target leaves it mod 11$"):
        verify_main_theorem_desk(2, samples=2)
