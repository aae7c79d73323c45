import random

import pytest

from sl2genus.core import (
    FeasibilityError,
    PreconditionError,
    decoder,
    encoder,
    identity,
    lower_u,
    make_ctx,
    mat,
    mat_inv,
    mat_pow,
    minus_one,
    sigma,
    upper_u,
)
from sl2genus.groups import ConjClassRef, _closure_codes, class_codes, conj_class_brute, enumerate_group, u_power_ref
from sl2genus.subgroups import (
    Subgroup,
    _certified_not_slim,
    _slim_candidate,
    _slim_cap,
    a1_subgroup,
    adjoin_minus_one,
    all_subgroups,
    borel,
    closure,
    exceptional_subgroup,
    filtration_level,
    full_group,
    is_slim,
    last_kernel_codes,
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
from sl2genus.genus import genus_report
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
        closure([mat(2, 0, 0, 1, c5)], c5)  # det 2 in SL2 ambient
    closure([mat(2, 0, 0, 1, c5)], c5, ambient="GL2")


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


def test_no_proper_mod2_surjective_subgroup_has_gl2_conjugate_of_u(sl2_mod4_subgroups):
    # exhaustive at N = 2 (the N = 3 case runs in the acceptance suite)
    ctx, subs = sl2_mod4_subgroups
    sl2_mod2 = enumerate_group(make_ctx(2, 1)).codes
    gl2_u_orbit = conj_class_brute(upper_u(ctx), ctx, ambient="GL2").codes
    checked = 0
    for codes in subs:
        h = Subgroup.from_codes(ctx, codes)
        if h.order == 48 or h.reduced_codes(1) != sl2_mod2:
            continue
        checked += 1
        assert not (codes & gl2_u_orbit)
    assert checked >= 1  # A1 and its conjugates


def test_no_proper_mod3_surjective_subgroup_has_gl2_conjugate_of_u(sl2_mod9_subgroups):
    # exhaustive at N = 3
    ctx, subs = sl2_mod9_subgroups
    sl2_mod3 = enumerate_group(make_ctx(3, 1)).codes
    gl2_u_orbit = conj_class_brute(upper_u(ctx), ctx, ambient="GL2").codes
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
    """The Schreier-kernel certificate against the brute-force closure under
    the slim cap, on candidate tuples drawn as the sampler draws them: a True
    verdict means the closure goes over the cap or contains the last kernel;
    a False one (the walk ran to its end) means it goes over the cap or is slim."""
    ctx = make_ctx(p, n)
    pool = sorted((standard_subgroup(kind, p) if kind else full_group(make_ctx(p, 1))).mats())
    cap = _slim_cap(ctx, len(pool))
    rng = random.Random(seed)
    verdicts = []
    for _ in range(count):
        gens = _slim_candidate(ctx, pool, rng)
        verdict = _certified_not_slim(gens, ctx, cap)
        try:
            h = closure(gens, ctx, cap=cap)
        except FeasibilityError:
            h = None
        if verdict:
            assert h is None or last_kernel_codes(ctx) <= h.codes(), gens
        else:
            assert h is None or is_slim(h), gens
        verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_certificate_sees_the_kernel_and_the_cap():
    ctx = make_ctx(3, 2)
    u, t = upper_u(ctx), lower_u(ctx)
    assert _certified_not_slim([u, t], ctx, ctx.order)  # <u, t(u)> = SL2(Z/9Z)
    assert not _certified_not_slim([u], ctx, ctx.order)  # order 9, slim
    assert _certified_not_slim([u], ctx, 2)  # u mod 3 already has 3 elements
    assert not _certified_not_slim([u], ctx, 3)


def test_last_kernel_lives_in_the_context_memo():
    ctx = make_ctx(5, 2)
    k = last_kernel_codes(ctx)
    assert len(k) == 125 and ctx.memo["K_last"] is k and last_kernel_codes(ctx) is k


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
