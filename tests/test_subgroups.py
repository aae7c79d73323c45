import random
from itertools import product

import pytest

from sl2genus.core import (
    DEFAULT_MAX_ELEMENTS,
    ContextMismatchError,
    FeasibilityError,
    PreconditionError,
    _mul,
    decoder,
    encoder,
    identity,
    lower_u,
    make_ctx,
    mat,
    mat_inv,
    mat_pow,
    minus_one,
    reduce_mat,
    sigma,
    upper_u,
)
from sl2genus.groups import ConjClassRef, _closure_codes, class_codes, enumerate_group, u_power_ref
from sl2genus.subgroups import (
    Subgroup,
    _holds_kernel,
    _last_kernel,
    _lift_to,
    _schreier_walk,
    _slim_candidate,
    _slim_cap,
    _slim_closure_codes,
    a1_subgroup,
    adjoin_minus_one,
    all_subgroups,
    borel,
    closure,
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
    sample_subgroups,
    section2_property_check,
    split_cartan_normalizer,
    standard_subgroup,
)
from sl2genus.genus import count_in_subgroup, cusp_orbit_ratio, fix_points, genus_report
from sl2genus.suites import A1_TABLE, _codes_of


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


def test_preimage_examples():
    b = borel(2)
    c4 = make_ctx(2, 2)
    pre = preimage(b, c4)
    assert pre.order == 16  # 2 * 8
    cls_sigma = class_codes(ConjClassRef(c4, "sigma"))
    assert len(pre.codes() & cls_sigma) == 2
    g2 = full_group(make_ctx(2, 1))
    assert preimage(g2, c4).order == c4.order  # full group pulls back to full group


def test_preimage_order_formula():
    h = closure([upper_u(make_ctx(3, 1))], make_ctx(3, 1))
    pre = preimage(h, make_ctx(3, 3))
    assert pre.order == h.order * 3 ** (3 * 2)


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
                assert filtration_level(h, s).order == h.order // len(h.reduced_codes(s))


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
    conjugates = {a1.conjugate(dec(c)).codes() for c in g.codes}
    assert len(conjugates) == 4
    expected = {a1.codes()}
    for k in (1, 2, 3):
        expected.add(a1.conjugate(mat_pow(u, k, c4)).codes())
    assert conjugates == expected
    # right cosets A1\G are represented by 1, u, u^2, u^-1
    enc = encoder(c4)
    cosets = set()
    for rep in (identity(c4), u, mat_pow(u, 2, c4), mat_inv(u, c4)):
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
        if h.order == 48 or h.reduced_codes(1) != sl2_mod2:
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
        if h.reduced_codes(1) != sl2_mod3:
            continue
        checked += 1
        assert not (codes & gl2_u_orbit)
    assert checked >= 1


def test_all_subgroups_conjugacy_matches_plain(sl2_mod4_subgroups):
    ctx, subs = sl2_mod4_subgroups
    plain = all_subgroups(enumerate_group(ctx))
    assert set(subs) == set(plain)
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
        assert h.reduced_codes(1) <= target.codes()


# (p, n, mod-p target kind or None, rng seed string, candidates): the rng
# streams of criterion 9 and of desk part 4's B@5^4 case, so the candidates are
# the ones those samplers draw first.  A closure that goes over the slim cap
# at (5,4) holds 312,501 elements, so that context checks only four.
_CERTIFICATE_CASES = [
    (5, 2, None, (5, 2, "criterion9").__repr__(), 60),
    (3, 3, None, (3, 3, "criterion9").__repr__(), 60),
    (2, 4, None, (2, 4, "criterion9").__repr__(), 60),
    (5, 4, "B", (0, 4, "B@5^4").__repr__(), 4),
]


@pytest.mark.parametrize("p,n,kind,seed,count", _CERTIFICATE_CASES, ids=["5^2", "3^3", "2^4", "5^4-B"])
def test_certificate_agrees_with_closure(p, n, kind, seed, count):
    """The sampler's Schreier walk against the brute-force closure under the
    slim cap, on candidate tuples drawn as the sampler draws them: the walk
    returns the closure's code set when the closure is slim and within the
    cap, and None otherwise."""
    ctx = make_ctx(p, n)
    pool = sorted((standard_subgroup(kind, p) if kind else full_group(make_ctx(p, 1))).mats())
    cap = _slim_cap(ctx, len(pool))
    rng = random.Random(seed)
    outcomes = set()
    for _ in range(count):
        gens = _slim_candidate(ctx, pool, rng)
        try:
            h = closure(gens, ctx, cap=cap)
        except FeasibilityError:
            h = None
        want = h.codes() if h is not None and is_slim(h) else None
        assert _slim_closure_codes(gens, ctx, cap) == want, gens
        outcomes.add(want is None)
    assert outcomes == {True, False}


def test_certificate_sees_the_kernel_and_the_cap():
    ctx = make_ctx(3, 2)
    u, t = upper_u(ctx), lower_u(ctx)
    assert _slim_closure_codes([u, t], ctx, ctx.order) is None  # <u, t(u)> = SL2(Z/9Z)
    assert _slim_closure_codes([u], ctx, 9) == closure([u], ctx).codes()  # order 9, slim
    assert _slim_closure_codes([u], ctx, 2) is None  # u mod 3 already has 3 elements
    assert _slim_closure_codes([u], ctx, 8) is None  # 3 lifts times a kernel part of 3


def test_slim_sampling_needs_level_two():
    with pytest.raises(PreconditionError):
        sample_slim_subgroups(make_ctx(5, 1), 3, random.Random(0))


def _kernel_codes(ctx, s):
    """K_s = ker(G -> G_s), the preimage of the trivial group at level s."""
    low = make_ctx(ctx.p, s)
    return preimage(Subgroup.from_codes(low, {encoder(low)(identity(low))}), ctx).codes()


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
        inside = [_kernel_codes(h.ctx, s) <= h.codes() for s in range(1, n + 1)]
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
        all_subgroups(universe)


def test_adjoin_minus_one_keeps_the_set_when_minus_one_is_in():
    ctx = make_ctx(3, 2)
    h = adjoin_minus_one(closure([upper_u(ctx)], ctx))
    assert adjoin_minus_one(h).codes() is h.codes()


def test_nonempty_gens_generate_the_subgroup():
    # reduced_codes closes the reduced generators, so every constructor that
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


def test_derived_subgroups_keep_the_cap():
    # each constructor that builds H from a code set hands on H's cap, or its own cap argument
    ctx = make_ctx(5, 2)
    h = closure([upper_u(ctx)], ctx, cap=1000)
    derived = [adjoin_minus_one(h), h.conjugate(sigma(ctx)), filtration_level(h, 1)]
    derived += [preimage(borel(5), ctx, cap=2500), full_group(make_ctx(5, 1), cap=1000)]
    assert [d.cap for d in derived] == [1000, 1000, 1000, 2500, 1000]
    for x in (h, adjoin_minus_one(h)):  # G = SL2(Z/25Z) holds 15,000 elements
        with pytest.raises(FeasibilityError, match="max-elements"):
            genus_report(x)


def test_section2_checks():
    assert section2_property_check("L2_1", trials=8, seed=5)
    assert section2_property_check("L2_5", trials=6, seed=5)
    with pytest.raises(ValueError):
        section2_property_check("L9_9")


def test_a1_is_the_p2_counterexample():
    # A1 surjects mod 2 onto SL2(Z/2Z) yet is a proper subgroup
    a1 = a1_subgroup()
    assert a1.reduced_codes(1) == enumerate_group(make_ctx(2, 1)).codes
    assert a1.order < 48


def test_a_subgroup_above_modulus_65536_closes_on_int_codes():
    ctx, ctx1 = make_ctx(257, 2), make_ctx(257, 1)
    h = closure([sigma(ctx)], ctx)
    assert h.order == 4 and minus_one(ctx) in h
    assert all(isinstance(c, int) for c in h.codes())
    mod_p = closure([sigma(ctx1)], ctx1).codes()
    assert h.reduced_codes(1) == Subgroup.from_codes(ctx, h.codes()).reduced_codes(1) == mod_p
    assert level(h) == 2 and is_slim(h)


def _random_sl2(ctx, rng):
    m = ctx.modulus
    while True:
        a, b, c = (rng.randrange(m) for _ in range(3))
        if a % ctx.p:
            return (a, b, c, (1 + b * c) * pow(a, -1, m) % m)


def _walk_cases():
    """(ctx, gens): seeded tuples of one to three elements, and per context the
    lifted Borel generators with the kernel generators 1 + p^(n-1)E, which give
    K_(n-1) <= H != G."""
    for (p, n), count in (((2, 3), 8), ((3, 2), 8), ((5, 2), 8), ((2, 4), 6), ((3, 3), 6), ((7, 2), 2)):
        ctx = make_ctx(p, n)
        rng = random.Random("walk-%d-%d" % (p, n))
        for _ in range(count):
            yield ctx, tuple(_random_sl2(ctx, rng) for _ in range(rng.choice((1, 2, 2, 3))))
        kernel = _last_kernel(ctx, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
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
    kernel = _last_kernel(ctx, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    lifted = [_lift_to(g, ctx) for g in borel(p).gens]
    return cases + [lifted + kernel, lifted + kernel[:2], [upper_u(ctx), kernel[0]], kernel[1:]]


@pytest.mark.parametrize("p, n", [(2, 3), (3, 2), (5, 2), (2, 4), (3, 3), (7, 2)])
def test_the_walk_twins_agree_with_the_closure(p, n):
    """_schreier_walk, _slim_closure_codes and Subgroup.order against the
    closure C of the same generators, each under no cap, the cap #C and the
    cap #C - 1: the walk gives C as the products t k of its lifts and span
    when C is slim and within the cap, reports rank 3 when K_(n-1) <= C and
    C is within the cap, and None only above the cap."""
    ctx = make_ctx(p, n)
    enc = encoder(ctx)
    last_kernel = {enc(k) for k in _last_kernel(ctx, product(range(p), repeat=3))}
    seen = set()
    for gens in _twin_candidates(ctx):
        want = _closure_codes(gens, ctx, DEFAULT_MAX_ELEMENTS)
        rank3 = last_kernel <= want
        for cap in (DEFAULT_MAX_ELEMENTS, len(want), len(want) - 1):
            walk = _schreier_walk(gens, ctx, cap)
            within = len(want) <= cap
            if within:
                assert walk is not None and (walk[1] is None) == rank3, gens
            elif not rank3:
                assert walk is None, gens  # above the cap, a rank-3 C may stop at either
            if walk is None:
                seen.add("over cap")
            elif walk[1] is None:
                assert rank3, gens
                seen.add("rank 3")
            else:
                lifts, span = walk
                assert len({reduce_mat(t, ctx.modulus // p) for t in lifts}) == len(lifts)
                kernel = _last_kernel(ctx, span)
                assert {enc(_mul(t, k, ctx.modulus)) for t in lifts for k in kernel} == want, gens
                assert len(lifts) * len(span) == len(want)
                seen.add("slim")
            assert _slim_closure_codes(gens, ctx, cap) == (want if within and not rank3 else None), gens
            if within:
                assert Subgroup(ctx, tuple(gens), cap).order == len(want), gens
            else:
                with pytest.raises(FeasibilityError):
                    Subgroup(ctx, tuple(gens), cap).order
    assert seen == {"slim", "rank 3", "over cap"}


def test_a_preimage_reads_its_reductions_from_the_source(monkeypatch):
    # H mod p^s of a preimage is the source's H mod p^s for s <= m, so level()
    # reduces none of the 14,406 codes of preimage:B@1 at 49 (nor of
    # preimage:A1@2 at 8, whose level is 2)
    import sys

    subgroups_mod = sys.modules["sl2genus.subgroups"]
    true_reducer = subgroups_mod.reducer
    calls = []
    monkeypatch.setattr(subgroups_mod, "reducer", lambda ctx, s: calls.append((ctx.n, s)) or true_reducer(ctx, s))
    h = parse_subgroup_spec("preimage:B@1", 7, 2)
    assert (h.order, level(h), calls) == (14_406, 1, [])
    assert h.reduced_codes(1) == borel(7).codes()
    h = parse_subgroup_spec("preimage:A1@2", 2, 3)
    assert (h.order, level(h), calls) == (96, 2, [])
    assert h.reduced_codes(2) == a1_subgroup().codes()
    assert Subgroup.from_codes(h.ctx, h.codes()).reduced_codes(1) == h.reduced_codes(1)
