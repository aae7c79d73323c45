"""Section 2's L2_1 and L2_5 shadows against a brute closure.

section2_l2_1 reads #H and #(H mod p^crit) of H = <gens> in SL2(Z/p^nZ) from
the Schreier walk (Subgroup.order), which closes H mod p alone; the closure of
the generators at both levels reads the same two numbers from every element.
suites._l2_5_sides reads three things of H = <gens> in GL2(Z/p^2Z) from its
generators: the hypothesis (det H is all of (Z/p^2Z)^*), #(H mod p), and the
determinants of Schreier generators of H n (1 + p M2).  The closure reads the
same three from every element of H, so it serves as the oracle on the draws
the suite decides."""

import random
import sys
from collections import Counter

import pytest

from sl2genus.core import DEFAULT_MAX_ELEMENTS, ConsistencyError, decoder, make_ctx, primitive_root, reduce_mat, sigma
from sl2genus.groups import _closure_codes, enumerate_group
from sl2genus.subgroups import Subgroup, _lift_to
from sl2genus.suites import _l2_5_sides, section2_l2_1


def _brute_sides(gens, p):
    """(det H is all of (Z/p^2Z)^*, #(H mod p), det(H n (1 + p M2)), #H) from the closure of gens."""
    ctx, m = make_ctx(p, 2), p * p
    h = [decoder(ctx)(c) for c in _closure_codes(gens, ctx, DEFAULT_MAX_ELEMENTS)]
    dets = {(a * d - b * c) % m for a, b, c, d in h}
    kernel = {(a * d - b * c) % m for a, b, c, d in h if (a % p, b % p, c % p, d % p) == (1, 0, 0, 1)}
    return len(dets) == p * (p - 1), len({tuple(e % p for e in x) for x in h}), kernel, len(h)


def _decided(monkeypatch, seed):
    """section2_l2_5(seed), and (p, gens, what _l2_5_sides returned) for each draw
    it decides, read through a spy on the _l2_5_sides then in suites (left in place)."""
    suites_mod = sys.modules["sl2genus.suites"]
    sides, seen = suites_mod._l2_5_sides, []

    def spy(gens, p):
        seen.append((p, gens, sides(gens, p)))
        return seen[-1][2]

    monkeypatch.setattr(suites_mod, "_l2_5_sides", spy)
    return suites_mod.section2_l2_5(seed), seen


def _disagreements(decided, primes):
    """The draws at primes on which the walk and the closure differ: on the
    hypothesis, on #(H mod p), on whether the kernel determinants are all of
    1 + pZ/p^2Z (a group of prime order p), or on the walk's determinants
    lying among the closure's; or where #(H mod p) does not divide #H."""
    out = []
    for p, gens, (full, image, kernel) in decided:
        if p in primes:
            b_full, b_image, b_kernel, order = _brute_sides(gens, p)
            same = (full, image, not kernel <= {1}) == (b_full, b_image, len(b_kernel) == p)
            if not same or not kernel <= b_kernel or order % image:
                out.append((p, gens))
    return out


def test_the_walk_agrees_with_the_closure_on_the_suites_draws(monkeypatch):
    # seed 0, as verify --suite all runs it: at p = 3 and 5 the draws fall on
    # both sides of the hypothesis, and the closure reaches #GL2(Z/25Z) = 300,000
    verdict, decided = _decided(monkeypatch, 0)
    assert verdict
    sides = Counter((p, full) for p, _, (full, _, _) in decided)
    assert sides[3, False] and sides[3, True] and sides[5, False] and sides[5, True], sides
    assert _disagreements(decided, (3, 5)) == []


@pytest.mark.parametrize("p", [3, 5, 7])
def test_a_torus_of_order_p_minus_one_with_u_fails_both_sides(p):
    # H = <diag(w, 1), u>, w = g^p of order p - 1 mod p^2: det H = <w> misses
    # 1 + pZ/p^2Z, and so does det(H n (1 + p M2)), which lies in both.  Every
    # Schreier generator has det z = det t, so a walk that read det z without
    # dividing by det t would see a power of w there.
    m = p * p
    w = pow(primitive_root(p, 2), p, m)
    gens = [(w, 0, 0, 1), (1, 1, 0, 1)]
    assert _l2_5_sides(gens, p) == (False, p * (p - 1), {1})
    assert _brute_sides(gens, p) == (False, p * (p - 1), {1}, (p - 1) * m)


def _old_draws(seed):
    """The draws of the sampler section2_l2_5 had before: diag(g, 1), g a
    primitive root mod p^2, and 0 or 1 lifts of elements of SL2(Z/pZ), six per p."""
    rng = random.Random(seed)
    for p in (3, 5):
        ctx, low = make_ctx(p, 2), make_ctx(p, 1)
        pool = sorted(enumerate_group(low).codes)
        for _ in range(6):
            gens = [(primitive_root(p, 2), 0, 0, 1)]
            for _ in range(rng.choice((0, 1, 1))):
                gens.append(_lift_to(decoder(low)(pool[rng.randrange(len(pool))]), ctx))
            yield p, gens


@pytest.mark.parametrize("seed", [0, 5])
def test_every_draw_of_the_old_sampler_holds_its_own_witness(seed):
    # diag(g, 1) alone meets the hypothesis (det g generates (Z/p^2Z)^*) and the
    # conclusion (diag(g, 1)^(p-1) lies in 1 + pM2 with det g^(p-1) != 1), and a
    # larger H has larger determinant images, so no draw of that sampler could fail
    for p, gens in _old_draws(seed):
        full, _, kernel = _l2_5_sides(gens[:1], p)
        assert full and not kernel <= {1}
        full, _, kernel = _l2_5_sides(gens, p)
        assert full and not kernel <= {1}
    for p in (7, 11, 13):
        full, image, kernel = _l2_5_sides([(primitive_root(p, 2), 0, 0, 1)], p)
        assert full and not kernel <= {1} and image == p - 1


def test_no_proper_witness_raises(monkeypatch):
    # draws that meet the hypothesis only where H mod p is all of GL2(F_p) give
    # the criterion nothing proper to decide, and the suite refuses them
    suites_mod = sys.modules["sl2genus.suites"]
    sides = suites_mod._l2_5_sides

    def only_everything_mod_p(gens, p):
        full, image, kernel = sides(gens, p)
        return full and image == (p * p - 1) * (p * p - p), image, kernel

    monkeypatch.setattr(suites_mod, "_l2_5_sides", only_everything_mod_p)
    with pytest.raises(ConsistencyError, match="L2_5 drew no proper H mod 3 with full determinant image"):
        suites_mod.section2_l2_5(0)



def test_the_suite_draws_past_40_until_a_proper_witness(monkeypatch):
    # the first 45 draws decided at each p look like all of GL2(F_p) mod p: the
    # suite draws on past its 40 and finds a proper H among the later ones
    suites_mod = sys.modules["sl2genus.suites"]
    sides, seen = suites_mod._l2_5_sides, Counter()

    def late_witness(gens, p):
        full, image, kernel = sides(gens, p)
        seen[p] += 1
        return full, image if seen[p] > 45 else (p * p - 1) * (p * p - p), kernel

    monkeypatch.setattr(suites_mod, "_l2_5_sides", late_witness)
    assert suites_mod.section2_l2_5(0)
    assert min(seen[p] for p in (3, 5, 7)) > 45, seen


def test_seed_1784_finds_its_witness_at_p_7_after_40_draws(monkeypatch):
    # of the seeds 0-1999 only 1784 needs more than 40 draws at some p: its first H
    # meeting the hypothesis with H mod 7 proper is its 49th draw (37th decided) at
    # p = 7, where 40 fixed draws would raise; the suite stops right after it
    verdict, decided = _decided(monkeypatch, 1784)
    assert verdict
    proper = [full and image < 48 * 42 for p, _, (full, image, _) in decided if p == 7]
    assert proper == [False] * 36 + [True]


def _l2_1_draws(monkeypatch, seed):
    """section2_l2_1(seed), and the H of each draw it made, read through a spy on
    the Subgroup then in suites (left in place)."""
    suites_mod = sys.modules["sl2genus.suites"]
    drawn = []

    def spy(ctx, gens):
        drawn.append(Subgroup(ctx, gens))
        return drawn[-1]

    monkeypatch.setattr(suites_mod, "Subgroup", spy)
    return suites_mod.section2_l2_1(seed), drawn


def _closed_orders(gens, p, levels):
    """#(<gens> mod p^s) for each s in levels, from the closure of the reduced generators."""
    ctxs = [make_ctx(p, s) for s in levels]
    return [len(_closure_codes([reduce_mat(g, c.modulus) for g in gens], c, DEFAULT_MAX_ELEMENTS)) for c in ctxs]


def test_the_l2_1_walk_agrees_with_the_closure_on_the_suites_draws(monkeypatch):
    # seeds 0 and 1: at p = 3 and 5 the draws fall on both sides of the
    # hypothesis, and the closure reaches #SL2(Z/27Z) = 17,496
    sides = Counter()
    for seed in (0, 1):
        verdict, drawn = _l2_1_draws(monkeypatch, seed)
        assert verdict
        for h in (h for h in drawn if h.gens):
            p = h.ctx.p
            crit = 2 if p == 3 else 1
            low = _closed_orders(h.gens, p, (crit,))[0]
            assert [h.order, h.reduced(crit).order] == _closed_orders(h.gens, p, (h.ctx.n,)) + [low], h
            sides[p, low == make_ctx(p, crit).order] += 1
    assert all(sides[p, hit] for p in (3, 5) for hit in (False, True)), sides


def test_l2_1_holds_on_seeds_0_to_199():
    assert [seed for seed in range(200) if not section2_l2_1(seed)] == []


@pytest.mark.parametrize("seed", [0, 7])
def test_the_first_l2_1_draw_at_3_surjects_mod_3_but_not_mod_9(monkeypatch, seed):
    # <sigma, (7 3; 2 1)> is all of SL2(F_3) mod 3 but has 24 of 648 elements
    # mod 9, and 648 of 17,496 mod 27: a hypothesis read at p rather than p^2
    # would hold on it while the conclusion fails
    ctx = make_ctx(3, 3)
    gens = (sigma(ctx), (7, 3, 2, 1))
    h = Subgroup(ctx, gens)
    assert [h.reduced(1).order, h.reduced(2).order, h.order] == _closed_orders(gens, 3, (1, 2, 3)) == [24, 24, 648]
    assert (make_ctx(3, 1).order, make_ctx(3, 2).order, ctx.order) == (24, 648, 17_496)
    verdict, drawn = _l2_1_draws(monkeypatch, seed)
    assert verdict and drawn[0].gens == gens


def test_l2_1_draws_that_never_meet_the_hypothesis_raise(monkeypatch):
    # each draw cut to its first generator is cyclic, and SL2 mod p is not:
    # no draw exercises the hypothesis, and the suite refuses to pass on none
    suites_mod = sys.modules["sl2genus.suites"]
    monkeypatch.setattr(suites_mod, "Subgroup", lambda ctx, gens: Subgroup(ctx, gens[:1]))
    with pytest.raises(ConsistencyError, match="L2_1 sampler produced no surjective subgroup"):
        suites_mod.section2_l2_1(0)


def test_l2_1_closes_nothing_above_level_one_but_a1(monkeypatch):
    # #H and #(H mod p^crit) come from the walk: the only closures are of H mod p
    # (at most 120 elements) and of the recorded A1 in SL2(Z/4Z), and SL2 is
    # enumerated at no level
    suites_mod, subgroups_mod, groups_mod = (sys.modules["sl2genus." + m] for m in ("suites", "subgroups", "groups"))
    closed, enumerated, true_closure = Counter(), [], subgroups_mod._closure_codes

    def closing(gens, ctx, cap):
        closed[ctx.p, ctx.n] += 1
        return true_closure(gens, ctx, cap)

    monkeypatch.setattr(subgroups_mod, "_closure_codes", closing)
    for module in (groups_mod, subgroups_mod, suites_mod):
        monkeypatch.setattr(module, "enumerate_group", lambda ctx, cap=None: enumerated.append(ctx))
    assert suites_mod.section2_l2_1(0)
    assert enumerated == []
    assert {key for key in closed if key[1] > 1} == {(2, 2)} and closed[3, 1] and closed[5, 1], closed
