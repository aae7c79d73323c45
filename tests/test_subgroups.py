import hashlib
import random
import sys
import tracemalloc
from collections import Counter
from itertools import product
from math import gcd

import pytest

from sl2genus.core import (
    DEFAULT_MAX_ELEMENTS,
    ConsistencyError,
    ContextMismatchError,
    FeasibilityError,
    PreconditionError,
    ReductionError,
    _mul,
    conjugator,
    decoder,
    encoder,
    identity,
    is_prime,
    lower_u,
    make_ctx,
    mat,
    mat_pow,
    minus_one,
    primitive_root,
    reduce_mat,
    sigma,
    upper_u,
)
from sl2genus.groups import ConjClassRef, _closure_codes, class_codes, enumerate_group
from sl2genus.subgroups import (
    Subgroup,
    _generators,
    _holds_kernel,
    _kernel_codes,
    _lift_to,
    _lift_walk,
    _schreier_walk,
    _slim_candidate,
    _slim_cap,
    a1_subgroup,
    adjoin_minus_one,
    all_subgroups,
    borel,
    closure,
    exceptional_availability,
    exceptional_subgroup,
    filtration_level,
    full_group,
    is_slim,
    level,
    nonsplit_cartan_normalizer,
    order_three_subgroup,
    parse_subgroup_spec,
    preimage,
    sample_slim_subgroups,
    split_cartan_normalizer,
    standard_subgroup,
)
from sl2genus.genus import count_in_subgroup, cusp_orbit_ratio, fix_points, genus_report
from sl2genus.suites import A1_TABLE, _DESK_SAMPLES, _codes_of, _desk_cases, _desk_sample, section2_l2_1, section2_l2_5

from sampling import sample_subgroups
from test_kernel import _old_all_subgroups


def test_closure_examples():
    c7 = make_ctx(7, 1)
    assert closure([sigma(c7), upper_u(c7)], c7).order == 336
    assert closure([minus_one(c7)], c7).order == 2
    c4 = make_ctx(2, 2)
    a1 = closure([sigma(c4), mat(1, 1, 2, -1, c4)], c4)
    assert a1.order == 12
    assert a1.codes() == _codes_of(A1_TABLE, c4)


def test_closure_rejects_bad_generators():
    c5 = make_ctx(5, 1)
    with pytest.raises(PreconditionError):
        closure([mat(2, 0, 0, 1, c5)], c5)  # det 2


def test_subgroup_rejects_generators_outside_sl2():
    # the check sits in the constructor, so no path builds a Subgroup of order 4 inside GL2(F_5)
    c5 = make_ctx(5, 1)
    with pytest.raises(PreconditionError, match="det 2"):
        Subgroup(c5, ((2, 0, 0, 1),))
    with pytest.raises(PreconditionError, match="det 4"):
        Subgroup.from_codes(c5, frozenset(), gens=(upper_u(c5), (4, 0, 0, 1)))
    assert Subgroup(c5, (upper_u(c5),)).order == 5


def test_subgroup_rejects_unreduced_generators():
    # (6, 1, 0, 1) is u mod 5; accepted, it gave an H of order 5 that did not contain its own generator
    c5 = make_ctx(5, 1)
    with pytest.raises(ContextMismatchError, match="not reduced modulo 5"):
        Subgroup(c5, ((6, 1, 0, 1),))
    with pytest.raises(ContextMismatchError):
        Subgroup.from_codes(c5, frozenset(), gens=(upper_u(c5), (1, -1, 0, 1)))
    assert (1, 1, 0, 1) in Subgroup(c5, ((1, 1, 0, 1),))


def test_membership_rejects_unreduced_matrices():
    # packed unchecked, 33 = 1 + 32 spilled its bit 5 into the b field and read as u,
    # and -1 with negative entries was not found although -1 is in H
    ctx = make_ctx(5, 2)
    h = closure([upper_u(ctx), minus_one(ctx)], ctx)
    for x in ((33, 0, 0, 1), (-1, 0, 0, -1)):
        for where in (h, h.elements()):
            with pytest.raises(ContextMismatchError, match="not reduced modulo 25"):
                x in where
    assert upper_u(ctx) in h and minus_one(ctx) in h.elements()


def test_standard_subgroup_orders():
    assert borel(5).order == 20
    assert borel(2).order == 2
    assert split_cartan_normalizer(11).order == 20
    assert nonsplit_cartan_normalizer(13).order == 28
    assert order_three_subgroup().order == 3
    assert a1_subgroup().order == 12
    assert standard_subgroup("full", 3).order == 24


def test_d_keeps_its_generators_and_its_torus_generator_has_order_p_plus_1():
    # the digest of D's generators at every prime 3 <= p <= 47, taken when D's
    # torus generator was found by its element order over a list of all p^2 pairs
    rows = []
    for p in filter(is_prime, range(3, 48)):
        d = nonsplit_cartan_normalizer(p)
        ctx, (t, _) = d.ctx, d.gens
        x, steps = t, 1
        while x != identity(ctx):  # the order of t by repeated multiplication
            x = _mul(x, t, p)
            steps += 1
        assert (steps, d.order) == (p + 1, 2 * (p + 1)), p
        rows.append((p, d.gens))
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "96295bca5852c04e4dad498b0a0bac38dfff0331eab3d83f18cc376d05c91228"


def test_d_at_2003_builds_without_a_table_of_pairs():
    # a list of the p^2 pairs (x, y) alone held about 400 MB at p = 2003
    tracemalloc.start()
    try:
        d = nonsplit_cartan_normalizer(2003)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.order == 4008
    assert peak < 8 * 2**20, peak


@pytest.mark.parametrize(
    "build, name, p, order",
    [
        (borel, "B", 2, 2),
        (borel, "B", 13, 156),
        (split_cartan_normalizer, "C", 2, 2),
        (split_cartan_normalizer, "C", 13, 24),
        (nonsplit_cartan_normalizer, "D", 13, 28),
    ],
)
def test_a_level_one_subgroup_is_refused_in_closed_form_exactly_above_the_cap(monkeypatch, build, name, p, order):
    # the order is known before anything is built: a refusal finds no primitive root and closes nothing
    calls = []

    def recording(hook, real):
        return lambda *a: calls.append(hook) or real(*a)

    monkeypatch.setattr("sl2genus.subgroups._closure_codes", recording("_closure_codes", _closure_codes))
    monkeypatch.setattr("sl2genus.subgroups.primitive_root", recording("primitive_root", primitive_root))
    refusal = "%s modulo %d holds %d elements, above the cap of %d;" % (name, p, order, order - 1)
    with pytest.raises(FeasibilityError, match=refusal):
        build(p, cap=order - 1)
    assert calls == []
    assert build(p, cap=order).order == order and "_closure_codes" in calls


def test_exceptional_subgroups():
    e = exceptional_subgroup(13, "S4")
    cls = class_codes(ConjClassRef(make_ctx(13, 1), "sigma"))
    assert len(e.codes() & cls) <= 18
    assert e.order in (24, 48)
    assert exceptional_subgroup(19, "A5").order == 120
    with pytest.raises(PreconditionError):
        exceptional_subgroup(13, "A5")  # 13 = 3 mod 5
    with pytest.raises(PreconditionError):
        exceptional_subgroup(5, "A5")  # preimage order divisible by 5
    with pytest.raises(PreconditionError):
        standard_subgroup("E:S4", 3)


def test_exceptional_availability_reads_the_type_before_p():
    # the same verdict as the form that refused p < 5 first and tested A5 at
    # p % 5 in (1, 4) and p != 5 (which p % 5 in (1, 4) already excludes), and
    # an unknown type named at every p
    def old(p, iso):
        if p < 5:
            return False
        return True if iso in ("A4", "S4") else p % 5 in (1, 4) and p != 5

    for p in filter(is_prime, range(2, 100)):
        for iso in ("A4", "S4", "A5"):
            assert exceptional_availability(p, iso) == old(p, iso), (p, iso)
        with pytest.raises(ValueError, match="unknown exceptional type 'A6'"):
            exceptional_availability(p, "A6")


def test_the_exceptional_search_accepts_the_same_pairs():
    # every available (p, iso) at p <= 31, seeds 0-2: 66 code sets, whose digest
    # moves when the search accepts another generator pair or draws another stream
    digest = hashlib.sha256()
    for p in filter(is_prime, range(5, 32)):
        for iso in ("A4", "S4", "A5"):
            if exceptional_availability(p, iso):
                for seed in range(3):
                    digest.update(repr((p, iso, seed, sorted(exceptional_subgroup(p, iso, seed).codes()))).encode())
    assert digest.hexdigest() == "66a0c71aafd3464ccfa694a1c2feca0ef451f6ca7379fa23ffae42c26bb9001b"


def test_a_refusal_names_what_passed_the_cap():
    # the lift walk's error reaches Subgroup.order's caller as raised, with no
    # earlier error behind it, and a closure names itself
    c9 = make_ctx(3, 2)
    with pytest.raises(FeasibilityError) as refused:
        Subgroup(c9, (upper_u(c9),), 2).order
    assert str(refused.value).startswith("the lift walk modulo 9 passed 2 elements, above the cap of 2; ")
    assert refused.value.__context__ is None
    with pytest.raises(FeasibilityError, match="^the closure passed 2 elements, above the cap of 2; "):
        closure([upper_u(c9)], c9, 2)


def test_preimage_examples():
    b = borel(2)
    c4 = make_ctx(2, 2)
    pre = preimage(b, c4)
    assert pre.order == 16  # 2 * 8
    cls_sigma = class_codes(ConjClassRef(c4, "sigma"))
    assert len(pre.codes() & cls_sigma) == 2
    g2 = full_group(make_ctx(2, 1))
    assert preimage(g2, c4).order == c4.order  # full group pulls back to full group
    with pytest.raises(ReductionError, match="preimage between different primes"):
        preimage(b, make_ctx(3, 2))
    with pytest.raises(ReductionError, match="destination level 1 below source level 2"):
        preimage(pre, make_ctx(2, 1))


def test_preimage_order_formula():
    h = closure([upper_u(make_ctx(3, 1))], make_ctx(3, 1))
    pre = preimage(h, make_ctx(3, 3))
    assert pre.order == h.order * 3 ** (3 * 2)


@pytest.mark.parametrize(
    "spec, p, m, n",
    [
        (None, 2, 1, 3),
        (None, 3, 1, 3),
        ("B", 2, 1, 4),
        ("B", 5, 1, 2),
        ("E:S4", 5, 1, 2),  # E has no generators: they are picked from its elements
        ("A1", 2, 2, 4),
        ("preimage:C@1", 3, 2, 3),  # preimage:preimage:C@1@2
    ],
)
def test_a_preimage_is_every_element_over_h(spec, p, m, n):
    # preimage(H, G_n), held by generators, against the brute set {x in G_n : x mod p^m in H}
    low, ctx = make_ctx(p, m), make_ctx(p, n)
    h = parse_subgroup_spec(spec, p, m) if spec else Subgroup.from_codes(low, {encoder(low)(identity(low))})
    dec, enc = decoder(ctx), encoder(low)
    want = {c for c in enumerate_group(ctx).codes if enc(reduce_mat(dec(c), low.modulus)) in h.codes()}
    got = preimage(h, ctx)
    assert got._codes is None and got.gens
    assert got.codes() == want and len(want) == h.order * p ** (3 * (n - m))


def test_filtration_levels():
    c9 = make_ctx(3, 2)
    g = full_group(c9)
    assert filtration_level(g, 1).order == 648 // 24  # kernel of reduction
    assert filtration_level(g, 2).order == 1
    with pytest.raises(ValueError):
        filtration_level(g, 3)


def test_filtration_sizes_from_reductions():
    # |H_s| = |H| / |H mod p^s|, the sizes slim_bound_report's filtration check uses
    for p, n in ((5, 2), (3, 3), (2, 4), (2, 5)):
        ctx = make_ctx(p, n)
        for h in sample_slim_subgroups(ctx, 10, random.Random((p, n).__repr__())):
            for s in range(1, n + 1):
                assert filtration_level(h, s).order == h.order // len(h.reduced(s).codes())


@pytest.mark.parametrize("p, n", [(2, 4), (3, 3), (5, 2)])
def test_each_reduction_holds_the_reduced_codes_of_h(p, n):
    # H mod p^s as a Subgroup, for H by generators (read before its codes) and
    # by codes alone: at every s its codes are those of H reduced, it is kept,
    # by generators its order from the walk meets its closure, and at s = n it
    # is H itself
    ctx = make_ctx(p, n)
    dec = decoder(ctx)
    hs = sample_slim_subgroups(ctx, 4, random.Random((p, n, "reduced").__repr__()))
    hs += [parse_subgroup_spec("preimage:B@1", p, n), parse_subgroup_spec("gens:1,1;0,1", p, n)]
    for h in hs:
        by_gens, by_codes = Subgroup(ctx, h.gens), Subgroup.from_codes(ctx, h.codes())
        for s in range(1, n + 1):
            enc = encoder(make_ctx(p, s))
            want = {enc(reduce_mat(dec(c), p**s)) for c in h.codes()}
            low, twin = by_gens.reduced(s), by_codes.reduced(s)
            assert low.gens == tuple(reduce_mat(g, p**s) for g in h.gens) and low.order == len(want)
            assert low.codes() == twin.codes() == want
            assert by_gens.reduced(s) is low and by_codes.reduced(s) is twin
        assert by_gens.reduced(n) is by_gens and by_codes.reduced(n) is by_codes
        for s in (0, n + 1):
            with pytest.raises(ReductionError):
                by_gens.reduced(s)


def _depth_filing(h):
    """(H_1, ..., H_n) as code sets by the one pass the filtration used to
    make: each code of H filed under its depth t, the largest t with
    x = 1 mod p^t, read from gcd(a - 1, b, c, d - 1, p^n) = p^t; H_s holds
    the codes of depth s or more."""
    ctx, dec = h.ctx, decoder(h.ctx)
    depth_of = {ctx.p**t: t for t in range(ctx.n + 1)}
    by_depth = [set() for _ in range(ctx.n + 1)]
    for code in h.codes():
        a, b, c, d = dec(code)
        by_depth[depth_of[gcd(a - 1, b, c, d - 1, ctx.modulus)]].add(code)
    return [frozenset().union(*by_depth[s:]) for s in range(1, ctx.n + 1)]


def _filtration_subgroups():
    """Every subgroup of SL2(Z/9Z) (456) and of SL2(Z/8Z) (673), and ten seeded
    slim samples at each of (5,2), (3,3), (2,4) and (2,5)."""
    out = []
    for (p, n), want in (((3, 2), 456), ((2, 3), 673)):
        ctx = make_ctx(p, n)
        lattice = all_subgroups(enumerate_group(ctx), conjugacy_gens=[upper_u(ctx), lower_u(ctx)])
        assert len(lattice) == want
        out += [Subgroup.from_codes(ctx, codes) for codes in lattice]
    for p, n in ((5, 2), (3, 3), (2, 4), (2, 5)):
        out += sample_slim_subgroups(make_ctx(p, n), 10, random.Random(("filing", p, n).__repr__()))
    return out


def test_filtration_levels_match_the_depth_filing():
    # H_s = H n K_s, one intersection per s, against the per-element pass it replaced
    subs = _filtration_subgroups()
    assert len(subs) == 456 + 673 + 40
    for h in subs:
        want = _depth_filing(h)
        assert [filtration_level(h, s).codes() for s in range(1, h.ctx.n + 1)] == want


@pytest.mark.parametrize("p, n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2)])
def test_the_kernel_is_every_element_congruent_to_one(p, n):
    # K_s = ker(G -> G_s), built as the preimage of {1}, against {x in G : x = 1 mod p^s}
    ctx = make_ctx(p, n)
    dec = decoder(ctx)
    for s in range(1, n + 1):
        q = p**s
        want = {c for c in enumerate_group(ctx).codes if reduce_mat(dec(c), q) == (1, 0, 0, 1 % q)}
        assert _kernel_codes(ctx, s, DEFAULT_MAX_ELEMENTS) == want and len(want) == p ** (3 * (n - s))
        assert ctx.memo["kernel", s] is _kernel_codes(ctx, s, len(want))


def test_a_kernel_above_the_cap_is_refused_before_it_is_built(monkeypatch):
    # K_1 modulo 125 holds 5^6 = 15,625 codes: refused in closed form, with no closure run
    monkeypatch.setattr("sl2genus.subgroups.preimage", lambda *a, **k: pytest.fail("K_1 was built"))
    ctx = make_ctx(5, 3)
    with pytest.raises(FeasibilityError, match="K_1 modulo 125 holds 15625 elements, above the cap of 15624"):
        _kernel_codes(ctx, 1, 15_624)
    assert ("kernel", 1) not in ctx.memo


@pytest.mark.parametrize("p, iso, gens", [(7, "A4", 2), (7, "S4", 2), (13, "A4", 3), (13, "S4", 3), (11, "A5", 3)])
def test_a_preimage_of_e_picks_its_generators_from_e(p, iso, gens):
    # E:A5 exists at 11, not at 7 or 13.  E has no generators, and preimage
    # lifts only those picked greedily from E (plus the three of the kernel),
    # where it lifted all #E elements before; the preimage is every element over E
    e = exceptional_subgroup(p, iso)
    assert e.gens == () and len(_generators(e)) == gens
    assert _closure_codes(_generators(e), e.ctx, e.order) == e.codes()
    ctx = make_ctx(p, 2)
    h = preimage(e, ctx)
    assert len(h.gens) == gens + 3
    assert h.order == len(h.codes()) == e.order * p**3
    assert h.reduced(1).codes() == e.codes() and Subgroup.from_codes(ctx, h.codes()).reduced(1).codes() == e.codes()


def test_slimness():
    c9 = make_ctx(3, 2)
    assert not is_slim(full_group(c9))
    u_cyc = closure([upper_u(c9)], c9)
    assert u_cyc.order == 9 and is_slim(u_cyc)
    pre = preimage(borel(3), c9)
    assert not is_slim(pre)
    assert filtration_level(u_cyc, 1).order <= 9  # slim H at 3^2 has #H_1 <= 9
    # at n = 1 slim means proper
    c5 = make_ctx(5, 1)
    assert is_slim(borel(5))
    assert not is_slim(full_group(c5))


def test_adjoin_minus_one():
    c5 = make_ctx(5, 1)
    h = closure([upper_u(c5)], c5)
    hh = adjoin_minus_one(h)
    assert hh.order == 2 * h.order
    assert minus_one(c5) in hh
    assert adjoin_minus_one(hh).order == hh.order
    for p, n in ((2, 3), (3, 2), (5, 2)):
        ctx = make_ctx(p, n)
        for h in sample_subgroups(ctx, 8, random.Random("adjoin-%d-%d" % (p, n))):
            assert adjoin_minus_one(h).codes() == closure(h.gens + (minus_one(ctx),), ctx).codes()


def test_parse_subgroup_spec():
    assert parse_subgroup_spec("B", 5, 1).order == 20
    assert parse_subgroup_spec("full", 3, 2).order == 648
    assert parse_subgroup_spec("gens:0,1;-1,0|1,1;0,1", 7, 1).order == 336
    assert parse_subgroup_spec("preimage:B@1", 2, 2).order == 16
    assert parse_subgroup_spec("A1", 2, 2).order == 12
    assert parse_subgroup_spec("E:S4", 13, 1).order in (24, 48)
    with pytest.raises(ValueError):
        parse_subgroup_spec("B", 5, 2)  # level mismatch without preimage
    with pytest.raises(ValueError):
        parse_subgroup_spec("nonsense", 5, 1)


def test_lagrange_on_samples():
    ctx = make_ctx(3, 2)
    for h in sample_subgroups(ctx, 25, random.Random(3)):
        assert ctx.order % h.order == 0


def test_a1_invariants():
    c4 = make_ctx(2, 2)
    a1 = a1_subgroup()
    u = upper_u(c4)
    assert closure(list(a1.mats()) + [mat_pow(u, 2, c4)], c4).order == 48
    # exactly four conjugates
    g = enumerate_group(c4)
    dec = decoder(c4)
    conjugates = {frozenset(map(conjugator(c4, dec(c)), a1.codes())) for c in g.codes}
    assert len(conjugates) == 4
    expected = {a1.codes()}
    for k in (1, 2, 3):
        expected.add(frozenset(map(conjugator(c4, mat_pow(u, k, c4)), a1.codes())))
    assert conjugates == expected
    # right cosets A1\G are represented by 1, u, u^2, u^-1
    enc = encoder(c4)
    cosets = set()
    for rep in (identity(c4), u, mat_pow(u, 2, c4), mat_pow(u, -1, c4)):
        cosets.add(frozenset(enc((_mul_(a, rep, 4))) for a in a1.mats()))
    assert len(cosets) == 4
    assert frozenset().union(*cosets) == g.codes


def _mul_(x, y, m):
    from sl2genus.core import _mul

    return _mul(x, y, m)


def test_no_proper_mod2_surjective_subgroup_has_gl2_conjugate_of_u(sl2_mod4_subgroups, gl2_class):
    # exhaustive at N = 2 (the N = 3 case runs in the acceptance suite)
    ctx, subs = sl2_mod4_subgroups
    sl2_mod2 = enumerate_group(make_ctx(2, 1)).codes
    gl2_u_orbit = gl2_class(upper_u(ctx), ctx)
    checked = 0
    for codes in subs:
        h = Subgroup.from_codes(ctx, codes)
        if h.order == 48 or h.reduced(1).codes() != sl2_mod2:
            continue
        checked += 1
        assert not (codes & gl2_u_orbit)
    assert checked >= 1  # A1 and its conjugates


def test_no_proper_mod3_surjective_subgroup_has_gl2_conjugate_of_u(sl2_mod9_subgroups, gl2_class):
    # exhaustive at N = 3
    ctx, subs = sl2_mod9_subgroups
    sl2_mod3 = enumerate_group(make_ctx(3, 1)).codes
    gl2_u_orbit = gl2_class(upper_u(ctx), ctx)
    checked = 0
    for codes in subs:
        if len(codes) == ctx.order:
            continue
        h = Subgroup.from_codes(ctx, codes)
        if h.reduced(1).codes() != sl2_mod3:
            continue
        checked += 1
        assert not (codes & gl2_u_orbit)
    assert checked >= 1


def test_all_subgroups_conjugacy_matches_plain(sl2_mod4_subgroups):
    # the one search, by conjugacy orbits, against the tests' plain lattice, which extends every subgroup
    ctx, subs = sl2_mod4_subgroups
    assert set(subs) == set(_old_all_subgroups(enumerate_group(ctx)))
    assert len(subs) == 52
    # spot-check closure property on a few returned sets
    dec = decoder(ctx)
    enc = encoder(ctx)
    from sl2genus.core import _mul

    for codes in sorted(subs, key=len)[:10]:
        mats = [dec(c) for c in codes]
        for x in mats:
            for y in mats:
                assert enc(_mul(x, y, 4)) in codes


def test_sample_slim_subgroups_are_slim_and_in_target():
    ctx = make_ctx(5, 2)
    target = borel(5)
    subs = sample_slim_subgroups(ctx, 12, random.Random(11), mod_p_target=target)
    assert len(subs) >= 8
    for h in subs:
        assert is_slim(h)
        assert h.reduced(1).codes() <= target.codes()


# (p, n, mod-p target kind or None, rng seed string, samples): the rng
# streams of criterion 9 and of desk part 4's B@5^4 case, so the candidates are
# the ones those samplers draw first.  A closure that goes over the slim cap
# at (5,4) holds 312,501 elements, so that context asks for three samples.
_REPLAY_CASES = [
    (5, 2, None, (5, 2, "criterion9").__repr__(), 40),
    (3, 3, None, (3, 3, "criterion9").__repr__(), 40),
    (2, 4, None, (2, 4, "criterion9").__repr__(), 40),
    (5, 4, "B", (0, 4, "B@5^4").__repr__(), 3),
]


def _replay(ctx, count, rng, target=None):
    """sample_slim_subgroups by brute force: the same candidates from the same
    rng, each closed under the slim cap, the slim ones kept unless an earlier
    one has the same code set, up to count.  Returns the kept (codes, gens) in
    order and a Counter of the rejections: over the cap, not slim, duplicate."""
    pool = sorted((target if target is not None else full_group(make_ctx(ctx.p, 1))).mats())
    cap = _slim_cap(ctx, len(pool))
    kept, seen, rejected = [], set(), Counter()
    for _ in range(120 * count):
        if len(kept) >= count:
            break
        gens = _slim_candidate(ctx, pool, rng)
        try:
            h = closure(gens, ctx, cap=cap)
        except FeasibilityError:
            rejected["over the cap"] += 1
            continue
        if not is_slim(h):
            rejected["not slim"] += 1
        elif h.codes() in seen:
            rejected["duplicate"] += 1
        else:
            seen.add(h.codes())
            kept.append((h.codes(), tuple(gens)))
    return kept, rejected


@pytest.mark.parametrize("p,n,kind,seed,count", _REPLAY_CASES, ids=["5^2", "3^3", "2^4", "5^4-B"])
def test_certificate_agrees_with_closure(p, n, kind, seed, count):
    """The sampler, which walks each candidate at layer 1 and then at most once
    mod p^(n-1) and drops a duplicate by Lagrange before building it, against
    _replay on the same rng stream: the same subgroups, built from the same
    generators, in the same order.  The streams at 25, 27 and 16 draw
    duplicates and candidates of each rejection."""
    ctx = make_ctx(p, n)
    target = standard_subgroup(kind, p) if kind else None
    want, rejected = _replay(ctx, count, random.Random(seed), target)
    got = sample_slim_subgroups(ctx, count, random.Random(seed), mod_p_target=target)
    assert [(h.codes(), h.gens) for h in got] == want
    assert len(want) == count and rejected["over the cap"] > 0
    assert kind or (rejected["not slim"] > 0 and rejected["duplicate"] > 0)


def test_certificate_sees_the_kernel_and_the_cap():
    # the sampler's two rejections read from _schreier_walk, rank 3 (at layer 1
    # or at n - 1) and the lift walk's refusal; #lifts * p^rank passes only a
    # cap below the slim cap
    ctx = make_ctx(3, 2)
    u, t = upper_u(ctx), lower_u(ctx)
    assert len(_schreier_walk([u, t], ctx, ctx.order)[1]) == 3  # <u, t(u)> = SL2(Z/9Z)
    lifts, basis = _schreier_walk([u], ctx, 9)
    assert (len(lifts), len(basis)) == (3, 1) and closure([u], ctx).order == 9  # order 9, slim
    with pytest.raises(FeasibilityError, match="the lift walk modulo 9 passed 2 elements"):
        _schreier_walk([u], ctx, 2)  # u mod 3 already has 3 elements
    lifts, basis = _schreier_walk([u], ctx, 8)
    assert len(lifts) * 3 ** len(basis) == 9 > 8  # 3 lifts times a kernel part of 3


def _spy_on_the_sampler(monkeypatch):
    """The events of the sampler from now on, in order, as a list that grows:
    ("candidate", ctx, gens) for each _slim_candidate and ("walk", at, gens,
    cap, (lifts, basis)) for each _schreier_walk that returns.  A function
    rebuilt from its source after this call reads the spies too."""
    subgroups_mod = sys.modules["sl2genus.subgroups"]
    true_walk, true_candidate = subgroups_mod._schreier_walk, subgroups_mod._slim_candidate
    events = []

    def candidate(ctx, pool, rng):
        gens = true_candidate(ctx, pool, rng)
        events.append(("candidate", ctx, gens))
        return gens

    def walk(gens, at, cap):
        got = true_walk(gens, at, cap)
        events.append(("walk", at, gens, cap, got))
        return got

    monkeypatch.setattr(subgroups_mod, "_slim_candidate", candidate)
    monkeypatch.setattr(subgroups_mod, "_schreier_walk", walk)
    return events


def _walks_at(events, at):
    """The (lifts, basis) of each walk among events made at the context at."""
    return [e[4] for e in events if e[0] == "walk" and e[1] is at]


def test_the_sampler_builds_only_what_it_returns(monkeypatch):
    """Every candidate whose products are built (Subgroup.from_codes) is
    returned: on the criterion-9 stream at 16, each of the 114 candidates is
    walked at layer 1 (mod 4), fewer walks reach level 4, 13 slim candidates
    within the cap are duplicates of earlier samples, and none of them is
    built."""
    true_from_codes = Subgroup.from_codes
    ctx, built = make_ctx(2, 4), []

    def from_codes(at, codes, gens=(), cap=DEFAULT_MAX_ELEMENTS):
        h = true_from_codes(at, codes, gens, cap)
        if at is ctx:  # not SL2(Z/2Z), the pool of mod-2 images
            built.append(h)
        return h

    events = _spy_on_the_sampler(monkeypatch)
    monkeypatch.setattr(Subgroup, "from_codes", from_codes)
    subs = sample_slim_subgroups(ctx, 40, random.Random((2, 4, "criterion9").__repr__()))
    rung, top = _walks_at(events, make_ctx(2, 2)), _walks_at(events, ctx)
    slim = [w for w in top if len(w[1]) < 3]
    assert [id(h) for h in built] == [id(h) for h in subs]
    assert (len(rung), len(slim) - len(subs)) == (114, 13) and len(top) < len(rung)


# The seeded slim streams that tests/test_bounds.py pins by digest: criterion
# 9's 500 samples at each context, and the default samples of desk parts 2-7
# at seed 0.
_STREAMS = ["criterion9-5^2", "criterion9-3^3", "criterion9-2^4"] + ["desk-%d" % part for part in range(2, 8)]


def _stream(case):
    """(H, #target) for each subgroup of the stream named case, in order."""
    kind, at = case.split("-")
    if kind == "criterion9":
        p, n = map(int, at.split("^"))
        rng = random.Random((p, n, "criterion9").__repr__())
        return [(h, p * (p * p - 1)) for h in sample_slim_subgroups(make_ctx(p, n), 500, rng)]
    out, part = [], int(at)
    for p, n, kinds, note in _desk_cases(part):
        for k in kinds:
            target = standard_subgroup("full" if k == "SL" else k, p)
            label = "%s@%d^%d%s" % (k, p, n, note)
            subs = _desk_sample(part, label, make_ctx(p, n), target, _DESK_SAMPLES[part], 0)[0]
            out += [(h, target.order) for h in subs]
    return out


def _reduction_mismatches(hs):
    """(H, s) for each s < n at which H mod p^s, as H holds it, is not the
    closure of H's generators reduced mod p^s."""
    out = []
    for h in hs:
        p = h.ctx.p
        for s in range(1, h.ctx.n):
            low = h.reduced(s)
            if low.codes() != _closure_codes([reduce_mat(g, p**s) for g in h.gens], low.ctx, DEFAULT_MAX_ELEMENTS):
                out.append((h, s))
    return out


@pytest.mark.parametrize("case", _STREAMS)
def test_a_sampled_h_reduces_to_the_closure_of_its_reduced_generators(case):
    # a sampled H holds H mod p^(n-1) as its walk's lifts and reduces that set
    # below n - 1; the closure of the reduced generators is the oracle
    hs = [h for h, _ in _stream(case)]
    assert hs and _reduction_mismatches(hs) == []


@pytest.mark.parametrize("case", _STREAMS)
def test_every_sampled_h_lies_below_the_slim_cap(case):
    # README, "Each fact is checked once": x -> x^p embeds the layer
    # H_s/H_(s+1) into the next for s >= 1 (s >= 2 at p = 2), so a top layer of
    # rank < 3 bounds #H by #target p^(2(n-1)) (twice that at p = 2), below the
    # slim cap: a walked candidate of rank < 3 is never above the cap
    for h, top in _stream(case):
        p, n = h.ctx.p, h.ctx.n
        sizes = [h.order // h.reduced(s).order for s in range(1, n)] + [1]  # #H_s, s = 1..n
        layers = [a // b for a, b in zip(sizes, sizes[1:])]  # #(H_s/H_(s+1)), s = 1..n-1
        assert layers[-1] < p**3 and h.reduced(1).order <= top
        start = 1 if p == 2 else 0
        assert all(a <= b for a, b in zip(layers[start:], layers[start + 1 :])), layers
        bound = top * p ** (2 * (n - 1)) * (2 if p == 2 else 1)
        assert h.order <= bound < _slim_cap(h.ctx, top)


@pytest.mark.parametrize("p, n", [(3, 2), (3, 3), (2, 4)])
def test_a_walk_above_the_slim_cap_drops_its_candidate(monkeypatch, p, n):
    # the walk's cap is a memory guard (README): a candidate whose lifts pass
    # it is dropped, and the sampler goes on.  Under a slim cap of 2, every
    # candidate whose walk holds a third lift raises there, and each sample
    # has at most two lifts, #(H mod p^(n-1)) <= 2
    subgroups_mod = sys.modules["sl2genus.subgroups"]
    true_walk, raised = subgroups_mod._schreier_walk, []

    def walk(gens, ctx, cap):
        try:
            return true_walk(gens, ctx, cap)
        except FeasibilityError:
            raised.append(ctx)
            raise

    monkeypatch.setattr(subgroups_mod, "_slim_cap", lambda ctx, top: 2)
    monkeypatch.setattr(subgroups_mod, "_schreier_walk", walk)
    hs = sample_slim_subgroups(make_ctx(p, n), 5, random.Random("guard"))
    assert len(hs) == 5 and all(len(h.reduced(n - 1).codes()) <= 2 for h in hs)
    assert len(raised) > 5


@pytest.mark.parametrize("case", ["criterion9-3^3", "criterion9-2^4"] + ["desk-%d" % part for part in range(3, 8)])
def test_a_candidate_rejected_at_layer_1_has_rank_3_at_the_top(monkeypatch, case):
    # README, "Each fact is checked once": a full first layer forces a full
    # top layer, so at n > 2 the sampler walks each candidate mod p with
    # products mod p^2 first and drops it there at rank 3, unwalked mod
    # p^(n-1); the walk mod p^(n-1) it skips is the oracle
    events = _spy_on_the_sampler(monkeypatch)
    _stream(case)
    rejected = 0
    for i, (kind, ctx, gens, *_) in enumerate(events):
        if kind != "candidate":
            continue
        _, at, walked, cap, (_, basis) = events[i + 1]
        assert at is make_ctx(ctx.p, 2) and walked == [reduce_mat(g, ctx.p**2) for g in gens]
        if len(basis) == 3:
            rejected += 1
            assert i + 2 == len(events) or events[i + 2][0] == "candidate"  # not walked mod p^(n-1)
            assert len(_schreier_walk(gens, ctx, cap)[1]) == 3  # the module's walk, not the spy
    assert rejected > 0


def test_a_full_first_layer_at_2_holds_k_2_in_sl2_mod_8():
    # the p = 2 step of that proof (README): lifts 1 + 2A, 1 + 2B in H of E12
    # and E21 square to 1 + 4E12 and 1 + 4E21 mod 8, and their commutator is
    # 1 + 4(AB - BA) = 1 + 4I, so L_1 = F_2^3 forces L_2 = F_2^3, i.e. K_2 <= H
    # at 8, over every subgroup of SL2(Z/8Z)
    ctx = make_ctx(2, 3)
    lattice = all_subgroups(enumerate_group(ctx), conjugacy_gens=[upper_u(ctx), lower_u(ctx)])
    k1, k2 = (_kernel_codes(ctx, s, DEFAULT_MAX_ELEMENTS) for s in (1, 2))
    full = [h for h in lattice if len(h & k1) == 8 * len(h & k2)]
    assert (len(lattice), len(full), sum(k2 <= h for h in lattice)) == (673, 6, 52)
    assert all(k2 <= h for h in full)


def test_slim_sampling_needs_level_two():
    with pytest.raises(PreconditionError):
        sample_slim_subgroups(make_ctx(5, 1), 3, random.Random(0))


def test_order_test_matches_kernel_inclusion(sl2_mod9_subgroups):
    """K_s <= H by orders against set inclusion, for every s, on every subgroup
    of SL2(Z/9Z) and on seeded slim samples at 25, 27 and 16; the level and
    is_slim follow it."""
    ctx9, lattice = sl2_mod9_subgroups
    subs = [Subgroup.from_codes(ctx9, c) for c in lattice]
    for p, n in ((5, 2), (3, 3), (2, 4)):
        subs += sample_slim_subgroups(make_ctx(p, n), 10, random.Random("levels-%d-%d" % (p, n)))
    slim = 0
    for h in subs:
        n = h.ctx.n
        inside = [_kernel_codes(h.ctx, s, DEFAULT_MAX_ELEMENTS) <= h.codes() for s in range(1, n + 1)]
        assert [_holds_kernel(h, s) for s in range(1, n + 1)] == inside
        assert level(h) == inside.index(True) + 1
        assert is_slim(h) == (not inside[n - 2])
        slim += is_slim(h)
    assert 0 < slim < len(subs)


def test_lattice_search_refuses_a_universe_above_its_cap(monkeypatch):
    import sl2genus.subgroups as subgroups

    universe = enumerate_group(make_ctx(2, 4))  # SL2(Z/16Z), 3,072 elements

    def no_table(*args):
        raise AssertionError("the product table was started")

    monkeypatch.setattr(subgroups, "_mul", no_table)
    with pytest.raises(FeasibilityError, match="capped at 3000"):
        all_subgroups(universe, [upper_u(universe.ctx), lower_u(universe.ctx)])


@pytest.mark.parametrize("p, n", [(2, 2), (3, 2), (5, 1)])
def test_conjugators_that_generate_less_than_the_universe_fail_the_index_check(p, n):
    # the true search, with conjugators that generate <u> only: the orbit walk sees only the
    # <u>-conjugates of K, and the N(K) it reads lies in <K, u>, so #N(K) * #orbit falls short of k
    ctx = make_ctx(p, n)
    with pytest.raises(ConsistencyError, match=r"N\(K\) of index other than its 1 conjugates"):
        all_subgroups(enumerate_group(ctx), [upper_u(ctx)])


def test_adjoin_minus_one_keeps_the_set_when_minus_one_is_in():
    ctx = make_ctx(3, 2)
    h = adjoin_minus_one(closure([upper_u(ctx)], ctx))
    assert adjoin_minus_one(h).codes() is h.codes()


def test_nonempty_gens_generate_the_subgroup():
    # Subgroup.reduced reduces the generators, so every constructor that
    # sets gens must set a generating tuple; a subgroup without gens has ()
    c5, c32 = make_ctx(5, 1), make_ctx(3, 2)
    u_codes = Subgroup.from_codes(c5, closure([upper_u(c5)], c5).codes())
    built = [
        closure([upper_u(c32), sigma(c32)], c32),
        full_group(c5),
        full_group(c32),
        adjoin_minus_one(closure([upper_u(c5)], c5)),
        adjoin_minus_one(u_codes),
        adjoin_minus_one(preimage(borel(3), c32)),
        borel(7),
        split_cartan_normalizer(7),
        nonsplit_cartan_normalizer(7),
        order_three_subgroup(),
        a1_subgroup(),
        exceptional_subgroup(13, "S4"),
    ]
    specs = [(s, 7, 1) for s in ("B", "C", "D", "E:S4", "full", "gens:0,1;-1,0|1,1;0,1")]
    specs += [("F", 2, 1), ("A1", 2, 2), ("preimage:B@1", 3, 2), ("preimage:A1@2", 2, 3), ("full", 2, 3)]
    built += [parse_subgroup_spec(*spec) for spec in specs]
    with_gens = 0
    for h in built:
        if h.gens:
            with_gens += 1
            assert _closure_codes(h.gens, h.ctx, h.cap) == h.codes()
    assert adjoin_minus_one(u_codes).gens == () and with_gens >= 12


def test_derived_subgroups_keep_the_cap(builds):
    # each constructor that builds H from a code set hands on H's cap, or its own cap argument
    ctx = make_ctx(5, 2)
    h = closure([upper_u(ctx)], ctx, cap=1000)
    derived = [adjoin_minus_one(h), filtration_level(h, 1)]
    derived += [preimage(borel(5), ctx, cap=2500), full_group(make_ctx(5, 1), cap=1000)]
    assert [d.cap for d in derived] == [1000, 1000, 2500, 1000]
    # the reports walk a table of 25^2 vector slots and close nothing, not G =
    # SL2(Z/25Z) (15,000 elements): under 1000 they equal the uncapped ones,
    # and <H, -1> hands on a cap of 624, which refuses the table
    builds.clear()
    for x in (h, adjoin_minus_one(h)):
        assert genus_report(x) == genus_report(Subgroup.from_codes(ctx, x.codes()))
    assert builds == []
    with pytest.raises(FeasibilityError, match="vector table modulo 25 holds 625 elements, above the cap of 624"):
        genus_report(adjoin_minus_one(closure([upper_u(ctx)], ctx, cap=624)))


def test_section2_checks():
    assert section2_l2_1(5)
    assert section2_l2_5(5)


def test_a1_is_the_p2_counterexample():
    # A1 surjects mod 2 onto SL2(Z/2Z) yet is a proper subgroup
    a1 = a1_subgroup()
    assert a1.reduced(1).codes() == enumerate_group(make_ctx(2, 1)).codes
    assert a1.order < 48


def test_a_subgroup_above_modulus_65536_closes_on_int_codes():
    ctx, ctx1 = make_ctx(257, 2), make_ctx(257, 1)
    h = closure([sigma(ctx)], ctx)
    assert h.order == 4 and minus_one(ctx) in h
    assert all(isinstance(c, int) for c in h.codes())
    mod_p = closure([sigma(ctx1)], ctx1).codes()
    assert h.reduced(1).codes() == Subgroup.from_codes(ctx, h.codes()).reduced(1).codes() == mod_p
    assert level(h) == 2 and is_slim(h)


def _random_sl2(ctx, rng):
    m = ctx.modulus
    while True:
        a, b, c = (rng.randrange(m) for _ in range(3))
        if a % ctx.p:
            return (a, b, c, (1 + b * c) * pow(a, -1, m) % m)


def _kernel_at(ctx, ws):
    """The elements 1 + p^(n-1) W of K_(n-1), one per (W00, W01, W10) in ws
    over F_p, with W11 = -W00."""
    m = ctx.modulus
    q = m // ctx.p
    return [((1 + q * a) % m, q * b, q * c, (1 - q * a) % m) for a, b, c in ws]


def _walk_cases():
    """(ctx, gens): seeded tuples of one to three elements, and per context the
    lifted Borel generators with the kernel generators 1 + p^(n-1)E, which give
    K_(n-1) <= H != G."""
    for (p, n), count in (((2, 3), 8), ((3, 2), 8), ((5, 2), 8), ((2, 4), 6), ((3, 3), 6), ((7, 2), 2)):
        ctx = make_ctx(p, n)
        rng = random.Random("walk-%d-%d" % (p, n))
        for _ in range(count):
            yield ctx, tuple(_random_sl2(ctx, rng) for _ in range(rng.choice((1, 2, 2, 3))))
        kernel = _kernel_at(ctx, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        yield ctx, tuple([_lift_to(g, ctx) for g in borel(p).gens] + kernel)


def test_the_walk_order_and_reports_match_the_closure():
    # an unmaterialized H (order from the Schreier walk, report from H_m below level n)
    # against its twin built from the closure; the twin's lifted class counts against
    # the class counts at level n.  Neither H nor <H, -1> is closed below level n.
    kinds = set()
    for ctx, gens in _walk_cases():
        h = Subgroup(ctx, gens)
        twin = Subgroup.from_codes(ctx, closure(gens, ctx).codes())
        for a, b in ((h, twin), (adjoin_minus_one(h), adjoin_minus_one(twin))):
            assert (a.order, level(a)) == (b.order, level(b)), gens
            report = genus_report(a)
            assert report.to_json_dict() == genus_report(b).to_json_dict(), gens
            assert (a._codes is None) == (level(a) < ctx.n), gens
            refs = [ConjClassRef(ctx, kind) for kind in ("sigma", "tau")]
            assert [report.count_sigma, report.count_tau] == [count_in_subgroup(b, ref) for ref in refs], gens
            assert [report.fix_sigma, report.fix_tau] == [fix_points(b, ref) for ref in refs], gens
            assert report.cusp_ratio == cusp_orbit_ratio(b), gens
        kinds.add("level n" if level(h) == ctx.n else "G" if h.order == ctx.order else "K_(n-1) <= H != G")
    assert kinds == {"level n", "G", "K_(n-1) <= H != G"}


def _twin_candidates(ctx):
    """Sampler candidates (over the Borel subgroup at p = 7, so closures stay
    small, else over SL2(Z/pZ)) and generators holding 1 + p^(n-1)E: lifted
    Borel generators with all three (K_(n-1) <= H) or two of them, u with one,
    and two alone (H inside K_(n-1))."""
    p = ctx.p
    pool = sorted((borel(p) if p == 7 else full_group(make_ctx(p, 1))).mats())
    rng = random.Random("twins-%d-%d" % (p, ctx.n))
    cases = [_slim_candidate(ctx, pool, rng) for _ in range(12)]
    kernel = _kernel_at(ctx, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    lifted = [_lift_to(g, ctx) for g in borel(p).gens]
    return cases + [lifted + kernel, lifted + kernel[:2], [upper_u(ctx), kernel[0]], kernel[1:]]


@pytest.mark.parametrize("p, n", [(2, 3), (3, 2), (5, 2), (2, 4), (3, 3), (7, 2)])
def test_the_walk_twins_agree_with_the_closure(p, n, builds):
    """_schreier_walk and Subgroup.order against the closure C of the same
    generators, each under no cap, the caps #C and #C - 1, and the caps l and
    l - 1 for l = #(C mod p^(n-1)), the lifts a whole walk holds: the walk
    gives C as the products t k of its lifts and the span of its W when C is
    slim, reports three independent W when K_(n-1) <= C, and lets the lift
    walk's FeasibilityError through only once its lifts pass the cap, so a slim
    C exactly when l > cap.  Subgroup.order reads #C wherever the cap holds l,
    raises the lift walk's own error where the walk does, and builds nothing
    above the cap."""
    ctx = make_ctx(p, n)
    enc = encoder(ctx)
    last_kernel = {enc(k) for k in _kernel_at(ctx, product(range(p), repeat=3))}
    seen = set()
    for gens in _twin_candidates(ctx):
        want = _closure_codes(gens, ctx, DEFAULT_MAX_ELEMENTS)
        rank3, held = last_kernel <= want, len(want) // len(want & last_kernel)
        for cap in (DEFAULT_MAX_ELEMENTS, len(want), len(want) - 1, held, max(held - 1, 1)):
            refusal = "the lift walk modulo %d passed %d elements, above the cap of %d" % (ctx.modulus, cap, cap)
            refused = False
            try:
                walk = _schreier_walk(gens, ctx, cap)
            except FeasibilityError as e:
                assert str(e).startswith(refusal), gens
                refused = True
            if held <= cap:
                assert not refused and (len(walk[1]) == 3) == rank3, gens
            elif not rank3:
                assert refused, gens  # above the cap, a rank-3 C may stop at either
            if refused:
                seen.add("over cap")
            else:
                lifts, basis = walk
                combos = product(range(p), repeat=len(basis))
                span = {tuple(sum(j * w[i] for j, w in zip(js, basis)) % p for i in range(3)) for js in combos}
                assert len(span) == p ** len(basis), gens  # the W are independent
                if len(basis) == 3:
                    assert rank3, gens
                    seen.add("rank 3")
                else:
                    assert len({reduce_mat(t, ctx.modulus // p) for t in lifts}) == len(lifts)
                    kernel = _kernel_at(ctx, span)
                    assert {enc(_mul(t, k, ctx.modulus)) for t in lifts for k in kernel} == want, gens
                    assert len(lifts) * len(span) == len(want)
                    seen.add("slim")
            builds.clear()
            if refused:
                with pytest.raises(FeasibilityError, match=refusal):
                    Subgroup(ctx, tuple(gens), cap).order
            elif held <= cap:
                assert Subgroup(ctx, tuple(gens), cap).order == len(want), gens
            assert all(size <= cap for _, size in builds), gens
    assert seen == {"slim", "rank 3", "over cap"}


def _lift_walk_draws(rng):
    """(gens, level-n context, level-(n-1) context): uniform draws of one or two
    elements of SL2(Z/p^nZ), and of GL2(Z/p^2Z) with det prime to p (n = 2)."""
    for p, n in ((2, 3), (3, 2), (5, 2), (2, 4), (3, 3)):
        ctx = make_ctx(p, n)
        pool, dec = sorted(enumerate_group(ctx).codes), decoder(ctx)
        for _ in range(6):
            yield [dec(rng.choice(pool)) for _ in range(rng.randint(1, 2))], ctx, make_ctx(p, n - 1)
    for p in (2, 3, 5, 7):
        m, drawn = p * p, 0
        while drawn < 6:
            gens = [tuple(rng.randrange(m) for _ in range(4)) for _ in range(rng.randint(1, 2))]
            if all((a * d - b * c) % p for a, b, c, d in gens):
                drawn += 1
                yield gens, make_ctx(p, 2), make_ctx(p, 1)


@pytest.mark.parametrize("seed", [0, 1])
def test_the_lift_walk_keeps_a_lift_per_residue_and_yields_schreier_pairs(seed):
    # z meets the residue of t, so z adj t = t adj t = det t * 1 mod q; and the
    # walk keeps one lift per element of H mod q, as the closure there counts them
    for gens, ctx, low in _lift_walk_draws(random.Random(seed)):
        m, q, lifts = ctx.modulus, low.modulus, []
        for z, a in _lift_walk(gens, m, q, lifts, DEFAULT_MAX_ELEMENTS):
            d = (a[0] * a[3] - a[1] * a[2]) % q
            assert reduce_mat(_mul(z, a, m), q) == (d, 0, 0, d), (gens, z, a)
        assert len({reduce_mat(t, q) for t in lifts}) == len(lifts), gens
        assert len(lifts) == len(_closure_codes([reduce_mat(g, q) for g in gens], low, DEFAULT_MAX_ELEMENTS)), gens


@pytest.mark.parametrize(
    "gens, m, q, whole",
    [
        ([(1, 1, 0, 1), (1, 0, 1, 1)], 9, 3, 24),  # <u, t(u)> mod 9 over SL2(F_3)
        ([(2, 0, 0, 1), (1, 1, 0, 1)], 25, 5, 20),  # <diag(2, 1), u> mod 25 over the Borel of GL2(F_5)
    ],
)
def test_a_lift_walk_capped_at_k_raises_holding_k_plus_one_lifts(gens, m, q, whole):
    walked = []
    assert all(len(walked) <= whole for _ in _lift_walk(gens, m, q, walked, whole))
    assert len(walked) == whole
    for k in range(1, whole):
        lifts = []
        with pytest.raises(FeasibilityError, match="the lift walk modulo %d passed %d elements" % (m, k)):
            list(_lift_walk(gens, m, q, lifts, k))
        assert lifts == walked[: k + 1]


def test_a_preimage_reads_its_reductions_from_the_source(monkeypatch):
    # H mod p^s of a preimage is the source's H mod p^s for s <= m, so level()
    # reduces none of the 14,406 codes of preimage:B@1 at 49 (nor of
    # preimage:A1@2 at 8, whose level is 2)
    subgroups_mod = sys.modules["sl2genus.subgroups"]
    true_reducer = subgroups_mod.reducer
    calls = []
    monkeypatch.setattr(subgroups_mod, "reducer", lambda ctx, s: calls.append((ctx.n, s)) or true_reducer(ctx, s))
    h = parse_subgroup_spec("preimage:B@1", 7, 2)
    assert (h.order, level(h), calls) == (14_406, 1, [])
    assert h.reduced(1).codes() == borel(7).codes()
    h = parse_subgroup_spec("preimage:A1@2", 2, 3)
    assert (h.order, level(h), calls) == (96, 2, [])
    assert h.reduced(2).codes() == a1_subgroup().codes()
    assert Subgroup.from_codes(h.ctx, h.codes()).reduced(1).codes() == h.reduced(1).codes()
