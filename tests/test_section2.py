"""Section 2's L2_5 shadow against a brute closure in GL2(Z/p^2Z).

suites._l2_5_sides reads three things of H = <gens> from its generators: the
hypothesis (det H is all of (Z/p^2Z)^*), #(H mod p), and the determinants of
Schreier generators of H n (1 + p M2).  The closure reads the same three from
every element of H, so it serves as the oracle on the draws the suite decides."""

import random
import sys
from collections import Counter

import pytest

from sl2genus.core import DEFAULT_MAX_ELEMENTS, ConsistencyError, decoder, make_ctx, primitive_root
from sl2genus.groups import _closure_codes, enumerate_group
from sl2genus.subgroups import _lift_to
from sl2genus.suites import _l2_5_sides


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
