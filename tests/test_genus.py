import importlib.util
import json
import random
import sys
import types
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2genus.core import (
    ConsistencyError,
    FeasibilityError,
    GroupCtx,
    PreconditionError,
    _mul,
    conjugator,
    decoder,
    encoder,
    identity,
    lower_u,
    make_ctx,
    mat,
    mat_pow,
    minus_one,
    reduce_mat,
    right_mul,
    row_table,
    sigma,
    tau,
    upper_u,
)
from sl2genus.genus import (
    DIRECT_CHECK_CAP,
    _line_orbits,
    closed_form_genus,
    coset_space,
    count_in_subgroup,
    cusp_orbit_ratio,
    delta,
    fix_points,
    genus,
    genus_report,
)
from sl2genus.groups import ConjClassRef, class_labels, conj_class_size_formula, enumerate_group, legendre, u_power_ref
from sl2genus.subgroups import (
    Subgroup,
    adjoin_minus_one,
    all_subgroups,
    borel,
    closure,
    full_group,
    level,
    nonsplit_cartan_normalizer,
    parse_subgroup_spec,
    preimage,
    sample_slim_subgroups,
    split_cartan_normalizer,
)

from sampling import sample_subgroups

ROOT = Path(__file__).resolve().parent.parent


def test_legendre_examples():
    assert legendre(-1, 13) == 1
    assert legendre(-1, 23) == -1
    # oracle: (-3)^5 mod 11 = -1 by Euler's criterion
    assert pow(-3 % 11, 5, 11) == 10
    assert legendre(-3, 11) == -1
    assert legendre(0, 7) == 0
    with pytest.raises(ValueError):
        legendre(3, 2)


def test_closed_form_examples():
    assert closed_form_genus("B", 23) == 2  # (23-6+3+4)/12
    assert closed_form_genus("C", 11) == 2  # (121-88+11+4)/24
    assert closed_form_genus("D", 13) == 3  # (62+6+4)/24
    with pytest.raises(PreconditionError):
        closed_form_genus("B", 3)
    with pytest.raises(ValueError):
        closed_form_genus("X", 7)


def test_genus_thresholds_over_primes():
    primes = [p for p in range(5, 41) if all(p % d for d in range(2, p))]
    for p in primes:
        assert (closed_form_genus("B", p) >= 2) == (p >= 23)
        assert (closed_form_genus("C", p) >= 2) == (p >= 11)
        assert (closed_form_genus("D", p) >= 2) == (p >= 13)


def test_genus_matches_closed_forms():
    for p in (5, 7, 11, 13, 17, 19, 23):
        assert genus(borel(p)) == closed_form_genus("B", p)
        assert genus(split_cartan_normalizer(p)) == closed_form_genus("C", p)
        assert genus(nonsplit_cartan_normalizer(p)) == closed_form_genus("D", p)


def test_quoted_x0_genera():
    for p, want in ((11, 1), (13, 0), (17, 1), (19, 1)):
        assert genus(borel(p)) == want


def test_delta_examples():
    c5 = make_ctx(5, 1)
    assert delta(full_group(c5)) == -12
    assert delta(borel(11)) == 0  # g_B(11) = 1 forces delta = 0
    assert cusp_orbit_ratio(full_group(c5)) == 1
    assert cusp_orbit_ratio(borel(19)) == Fraction(1, 10)  # 2/(p+1)


def test_count_in_subgroup_examples():
    from sl2genus.subgroups import a1_subgroup

    a1 = a1_subgroup()
    assert count_in_subgroup(a1, ConjClassRef(a1.ctx, "sigma")) == 3
    c13 = make_ctx(13, 1)
    assert count_in_subgroup(borel(13), u_power_ref(c13, 0)) == 6  # (p-1)/2
    c7 = make_ctx(7, 1)
    assert count_in_subgroup(nonsplit_cartan_normalizer(7), ConjClassRef(c7, "tau")) == 0
    with pytest.raises(PreconditionError):
        count_in_subgroup(borel(13), ConjClassRef(c7, "tau"))


@pytest.mark.parametrize(
    "p, n",
    [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2), (11, 1), (13, 1)],
)
def test_class_labels_match_the_class_orbits_on_all_of_g(label_mismatches, p, n):
    # every element of G carries the labels of the named orbits that hold it
    # and no other (two at (2, 1), where Conj(sigma) = Conj(u))
    assert label_mismatches(make_ctx(p, n)) == 0


def _word(ctx, exps):
    """u^e0 t(u)^e1 u^e2 ..., an element of SL2 = <u, t(u)>."""
    x = identity(ctx)
    for i, e in enumerate(exps):
        x = _mul(x, mat_pow(lower_u(ctx) if i % 2 else upper_u(ctx), e, ctx), ctx.modulus)
    return x


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([(5, 3), (11, 2), (3, 4), (2, 6)]),
    st.integers(0, 8),
    st.integers(1, 200),
    st.lists(st.integers(0, 4095), min_size=1, max_size=6),
    st.lists(st.integers(0, 4095), min_size=1, max_size=6),
)
def test_class_labels_are_conjugation_invariant(pn, which, e, xs, gs):
    # x is a power of a class representative (the other square classes among
    # them) or a word in u and t(u); g^-1 x g carries the labels of x, and each
    # representative carries its own
    ctx = make_ctx(*pn)
    refs = [ConjClassRef(ctx, "sigma"), ConjClassRef(ctx, "tau")] + [u_power_ref(ctx, r) for r in range(ctx.n)]
    for ref in refs:
        assert (ref.kind, ref.r) in class_labels(ref.representative(), ctx)
    x = mat_pow(refs[which].representative(), e, ctx) if which < len(refs) else _word(ctx, xs)
    g = _word(ctx, gs)
    assert class_labels(_mul(mat_pow(g, -1, ctx), _mul(x, g, ctx.modulus), ctx.modulus), ctx) == class_labels(x, ctx)


def test_a_report_builds_no_class_orbit(monkeypatch):
    # <u> and <u, -1> at (7,2) have level 2; their reports read H's labels, so
    # any class orbit walk fails the test, and the stored orbits are taken out
    # of the memo while they run
    def fail(*args):
        raise AssertionError("genus_report walked a class orbit")

    monkeypatch.setattr(sys.modules["sl2genus.groups"], "conj_class_brute", fail)
    ctx = make_ctx(7, 2)
    for key in [key for key in ctx.memo if key in {("sigma", 0), ("tau", 0), ("u_power", 0), ("u_power", 1)}]:
        monkeypatch.delitem(ctx.memo, key)
    h = closure([upper_u(ctx)], ctx)
    reports = [genus_report(h), genus_report(adjoin_minus_one(h))]
    # 21 of the u^j are in Conj(u) (j a square unit), 3 in Conj(u^7): 1/49 + (6/7) 21/1176 + (6/49) 3/24
    want = [(2352, Fraction(5, 98), None), (1176, Fraction(5, 98), 69)]
    assert [(r.index, r.cusp_ratio, r.genus) for r in reports] == want


def test_fix_points_examples():
    c7 = make_ctx(7, 1)
    assert fix_points(full_group(c7), ConjClassRef(c7, "sigma")) == 1
    assert fix_points(borel(7), ConjClassRef(c7, "sigma")) == 0  # B n Conj(sigma) empty, 7 = -1 mod 4
    assert fix_points(full_group(c7), ConjClassRef(c7, "tau")) == 1


def test_genus_requires_minus_one():
    c5 = make_ctx(5, 1)
    from sl2genus.core import upper_u

    h = closure([upper_u(c5)], c5)
    with pytest.raises(PreconditionError):
        genus(h)


def test_genus_of_full_group_is_zero():
    for p, n in ((5, 1), (7, 1), (3, 2)):
        assert genus(full_group(make_ctx(p, n))) == 0


def test_dual_route_consistency_on_random_subgroups():
    # genus_report raises ConsistencyError on any mismatch between the coset
    # route and the class-counting route
    for p, n, count in ((2, 3, 12), (3, 2, 12), (5, 2, 8)):
        ctx = make_ctx(p, n)
        rng = random.Random((p, n, "dual").__repr__())
        for h in sample_subgroups(ctx, count, rng):
            rep = genus_report(h)
            assert rep.index == ctx.order // h.order
            if rep.genus is not None:
                assert rep.genus >= 0


def test_two_genus_expressions_agree():
    # coset-count expression vs 1 + index*delta/12, for random H containing -1
    for p, n, count in ((3, 2, 10), (2, 3, 10), (5, 1, 10)):
        ctx = make_ctx(p, n)
        rng = random.Random((p, n, "two-expr").__repr__())
        for h0 in sample_subgroups(ctx, count, rng):
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


def test_delta_is_conjugation_invariant():
    ctx = make_ctx(3, 2)
    g = enumerate_group(ctx)
    dec = decoder(ctx)
    pool = sorted(g.codes)
    rng = random.Random(17)
    h = adjoin_minus_one(sample_subgroups(ctx, 3, rng)[-1])
    base = delta(h)
    for _ in range(20):
        conj = Subgroup.from_codes(ctx, map(conjugator(ctx, dec(pool[rng.randrange(len(pool))])), h.codes()))
        assert delta(conj) == base


def test_package_attribute_genus_is_the_module():
    import sl2genus

    assert isinstance(sl2genus.genus, types.ModuleType)
    assert sl2genus.genus is sys.modules["sl2genus.genus"]


def test_genus_report_json_round_trip():
    rep = genus_report(borel(13))
    payload = json.loads(json.dumps(rep.to_json_dict()))
    assert payload["genus"] == "0"
    assert payload["index"] == "14"


def test_genus_report_builds_one_coset_space_and_reuses_the_group(monkeypatch):
    # the functions are patched where genus_report and closure look them up
    genus_mod = sys.modules["sl2genus.genus"]
    groups_mod = sys.modules["sl2genus.groups"]
    ctx = make_ctx(3, 2)
    hs = [closure([upper_u(ctx)], ctx), closure([sigma(ctx)], ctx), closure([tau(ctx)], ctx)]
    calls = {"coset_space": 0, "full_closures": 0}

    def counted(fn, key, hit=lambda out: True):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls[key] += hit(out)
            return out

        return wrapper

    monkeypatch.setattr(genus_mod, "coset_space", counted(genus_mod.coset_space, "coset_space"))
    monkeypatch.setattr(
        groups_mod,
        "_closure_codes",
        counted(groups_mod._closure_codes, "full_closures", lambda out: len(out) == ctx.order),
    )
    genus_report(hs[0])
    assert calls["coset_space"] == 1
    calls["full_closures"] = 0  # G may have been enumerated once, by this report
    for h in hs[1:]:
        genus_report(h)
    assert calls == {"coset_space": 3, "full_closures": 0}


def test_genus_report_matches_standalone_counts():
    # the report's fields equal the standalone class-counting calls, and delta reads the report
    for p, n, count in ((2, 3, 8), (3, 2, 8), (5, 2, 6)):
        ctx = make_ctx(p, n)
        rng = random.Random((p, n, "shared-cosets").__repr__())
        for h0 in sample_subgroups(ctx, count, rng):
            for h in (h0, adjoin_minus_one(h0)):
                rep = genus_report(h)
                assert rep.fix_sigma == fix_points(h, ConjClassRef(ctx, "sigma"))
                assert rep.fix_tau == fix_points(h, ConjClassRef(ctx, "tau"))
                assert rep.cusp_ratio == cusp_orbit_ratio(h)
                assert rep.delta == delta(h)


def _level_route_subgroups(p, n):
    # fresh subgroups: seeded samples with generators, <H, -1> for each,
    # preimages (held by generators; their order check walks H mod p^(n-1))
    # and a copy of each preimage without generators, which reduces its codes
    specs = {
        2: ("preimage:F@1", "preimage:A1@2"),
        3: ("preimage:B@1", "preimage:C@1"),
        5: ("preimage:B@1", "preimage:D@1"),
    }
    ctx = make_ctx(p, n)
    hs = sample_subgroups(ctx, 6, random.Random((p, n, "level-route").__repr__()))
    hs += [adjoin_minus_one(h) for h in hs]
    pre = [parse_subgroup_spec(spec, p, n) for spec in specs[p]]
    return hs + pre + [Subgroup.from_codes(ctx, h.codes()) for h in pre]


def _level_n_perm(reps, coset_of, a, ctx):
    # the permutation gH -> a gH of the test's own level-n coset space
    enc = encoder(ctx)
    return [coset_of[enc(_mul(a, g, ctx.modulus))] for g in reps]


def _cycle_lengths(perm):
    seen, out = set(), []
    for i in range(len(perm)):
        if i not in seen:
            out.append(0)
            while i not in seen:
                seen.add(i)
                out[-1] += 1
                i = perm[i]
    return sorted(out)


def _brute_right_cosets(h):
    # the test's own split of G into right cosets H g: (a g per coset, code -> coset index)
    ctx = h.ctx
    dec, enc = decoder(ctx), encoder(ctx)
    hmats = list(h.mats())
    reps, coset_of = [], {}
    for c in sorted(enumerate_group(ctx).codes):
        if c not in coset_of:
            coset_of.update((enc(_mul(x, dec(c), ctx.modulus)), len(reps)) for x in hmats)
            reps.append(dec(c))
    return reps, coset_of


def _right_perm(reps, coset_of, a, ctx):
    # H g -> H g a on the test's own right cosets
    enc = encoder(ctx)
    return [coset_of[enc(_mul(g, a, ctx.modulus))] for g in reps]


def _brute_fixed(reps, coset_of, ctx):
    # [Fix_sigma, Fix_tau] on the test's own right cosets
    return [sum(i == j for i, j in enumerate(_right_perm(reps, coset_of, a, ctx))) for a in (sigma(ctx), tau(ctx))]


def _kernel(ctx, q):
    dec = decoder(ctx)
    return {c for c in enumerate_group(ctx).codes if reduce_mat(dec(c), q) == (1, 0, 0, 1)}


@pytest.mark.parametrize("p, n", [(2, 3), (3, 2), (5, 2)])
def test_reduced_codes_close_the_reduced_generators(p, n):
    dec = decoder(make_ctx(p, n))
    for h in _level_route_subgroups(p, n):
        for s in range(1, n + 1):
            enc = encoder(make_ctx(p, s))
            assert h.reduced(s).codes() == {enc(reduce_mat(dec(c), p**s)) for c in h.codes()}


@pytest.mark.parametrize("p, n", [(2, 3), (3, 2), (5, 2)])
def test_coset_counts_at_the_level_of_h_equal_the_counts_at_level_n(p, n):
    # the test's own coset space of G at level n against the library's walk of G_m/H_m
    ctx = make_ctx(p, n)
    dec, enc = decoder(ctx), encoder(ctx)
    levels = set()
    for h in _level_route_subgroups(p, n):
        reps, coset_of = [], {}
        hmats = list(h.mats())
        for c in sorted(enumerate_group(ctx).codes):
            if c not in coset_of:
                coset_of.update((enc(_mul(dec(c), x, ctx.modulus)), len(reps)) for x in hmats)
                reps.append(dec(c))
        sub = make_ctx(p, level(h))
        h_m = Subgroup.from_codes(sub, h.reduced(sub.n).codes())
        levels.add(sub.n)
        # the level is the least m with K_m = ker(G -> G_m) inside H
        assert _kernel(ctx, sub.modulus) <= h.codes()
        assert sub.n == 1 or not _kernel(ctx, sub.modulus // p) <= h.codes()
        lengths, walked_fixed = coset_space(h_m)
        assert sum(lengths) == len(reps) == ctx.order // h.order
        # the <u>-cycles of the level-n cosets have the lengths l of the double cosets H_m g<u>
        assert sorted(lengths) == _cycle_lengths(_level_n_perm(reps, coset_of, upper_u(ctx), ctx))
        # every named class: sigma, tau and each u^(p^r); u^k fixes the cosets of the cycles whose length divides k
        refs = [ConjClassRef(ctx, "sigma"), ConjClassRef(ctx, "tau")] + [u_power_ref(ctx, r) for r in range(n)]
        for k, ref in enumerate(refs):
            fixed = sum(i == j for i, j in enumerate(_level_n_perm(reps, coset_of, ref.representative(), ctx)))
            walked = walked_fixed[k] if k < 2 else sum(ell for ell in lengths if p**ref.r % ell == 0)
            assert walked == fixed, ref
            assert fix_points(h, ref) == fixed, ref
        assert cusp_orbit_ratio(h) == Fraction(len(lengths), len(reps))
        with pytest.raises(PreconditionError):  # a class of another context
            fix_points(h, ConjClassRef(make_ctx(p, n - 1), "sigma"))
    assert min(levels) < n and n in levels


def _record_results(monkeypatch, module, names):
    results = {name: [] for name in names}
    for name in names:

        def wrapper(*args, _fn=getattr(module, name), _name=name):
            results[_name].append(_fn(*args))
            return results[_name][-1]

        monkeypatch.setattr(module, name, wrapper)
    return results


def test_level_one_report_at_5_3_runs_the_coset_route(monkeypatch):
    # |G| = 1,875,000 is above DIRECT_CHECK_CAP, but H has level 1 and |G_1| = 120
    h = parse_subgroup_spec("preimage:B@1", 5, 3)
    results = _record_results(monkeypatch, sys.modules["sl2genus.genus"], ("coset_space",))
    rep = genus_report(h)
    assert len(results["coset_space"]) == 1  # the walk, which gives Fix_sigma, Fix_tau and the <u>-orbits
    c5 = make_ctx(5, 1)
    reps, coset_of = _brute_right_cosets(Subgroup.from_codes(c5, h.reduced(1).codes()))
    lengths, fixed = results["coset_space"][0]
    assert sorted(lengths) == _cycle_lengths(_right_perm(reps, coset_of, upper_u(c5), c5)) == [1, 5]
    assert fixed == _brute_fixed(reps, coset_of, c5) == [2, 0]
    assert rep.to_json_dict() == {
        "count_sigma": "6250",
        "count_tau": "0",
        "cusp_ratio": {"den": "3", "num": "1"},
        "delta": {"den": "1", "num": "-2"},
        "fix_sigma": "2",
        "fix_tau": "0",
        "genus": "0",
        "index": "6",
    }


def test_level_one_report_at_7_2_never_enumerates_level_two(monkeypatch):
    # no report builds a G: any closure of <u, t(u)> fails the test, and the
    # stored groups are taken out of the memo while it runs
    def fail(ctx):
        raise AssertionError("genus_report enumerated SL2(Z/%dZ)" % ctx.modulus)

    monkeypatch.setattr(sys.modules["sl2genus.groups"], "_group_closure", fail)
    for p, n in ((7, 1), (7, 2), (5, 1), (5, 2)):
        monkeypatch.delitem(make_ctx(p, n).memo, "G", raising=False)
    rep = genus_report(parse_subgroup_spec("preimage:B@1", 7, 2))
    assert (rep.index, rep.fix_tau, rep.cusp_ratio) == (8, 2, Fraction(1, 4))
    ctx = make_ctx(5, 2)
    h = closure([upper_u(ctx)], ctx)
    assert level(h) == 2
    assert genus_report(h).index == 600


_SPEC_REPORTS = [  # the genus JSON of each, order included, as the eager preimage builder gave it
    (
        "preimage:B@1",
        3,
        5,
        '{"count_sigma": "0", "count_tau": "6561", "cusp_ratio": {"den": "2", "num": "1"}, "delta": {"den": "1", '
        '"num": "-3"}, "fix_sigma": "0", "fix_tau": "1", "genus": "0", "index": "4", "order": "3188646"}',
    ),
    (
        "full",
        5,
        3,
        '{"count_sigma": "18750", "count_tau": "12500", "cusp_ratio": {"den": "1", "num": "1"}, "delta": {"den": "1", '
        '"num": "-12"}, "fix_sigma": "1", "fix_tau": "1", "genus": "0", "index": "1", "order": "1875000"}',
    ),
]


def _closing_nothing_at(monkeypatch, n):
    """Make every closure and every enumeration of G modulo p^n fail the test."""
    groups_mod = sys.modules["sl2genus.groups"]
    closure_codes, group_closure = groups_mod._closure_codes, groups_mod._group_closure

    def closure_below_n(gens, ctx, cap):
        assert ctx.n < n, "a closure modulo %d" % ctx.modulus
        return closure_codes(gens, ctx, cap)

    def group_below_n(ctx):
        assert ctx.n < n, "SL2(Z/%dZ) enumerated" % ctx.modulus
        return group_closure(ctx)

    for mod in (groups_mod, sys.modules["sl2genus.subgroups"]):
        monkeypatch.setattr(mod, "_closure_codes", closure_below_n)
    monkeypatch.setattr(groups_mod, "_group_closure", group_below_n)


@pytest.mark.parametrize("spec, p, n, want", _SPEC_REPORTS, ids=[case[0] for case in _SPEC_REPORTS])
def test_a_spec_report_closes_nothing_at_level_n(monkeypatch, spec, p, n, want):
    # a spec is held by generators and reported at its level 1, so no closure
    # and no enumeration of G runs modulo p^n
    _closing_nothing_at(monkeypatch, n)
    monkeypatch.delitem(make_ctx(p, n).memo, "G", raising=False)
    h = parse_subgroup_spec(spec, p, n)
    assert json.dumps(dict(genus_report(h).to_json_dict(), order=str(h.order)), sort_keys=True) == want
    assert h._codes is None


_COUNTS_3_5 = [  # count --p 3 --n 5 --subgroup preimage:B@1 --output json, as the level-n labels gave it
    ("sigma", "39366", "0"),
    ("tau", "26244", "6561"),
    ("u", "26244", "6561"),
    ("u^p^1", "2916", "2916"),
    ("u^p^2", "324", "324"),
    ("u^p^3", "36", "36"),
    ("u^p^4", "4", "4"),
]


def test_a_count_below_level_n_closes_nothing_at_level_n(monkeypatch, capsys):
    # the count verb on a preimage of level 1 reads H_1's labels and lifts them,
    # so no closure runs modulo 3^5 (H holds 3,188,646 elements there)
    from sl2genus.cli import run

    _closing_nothing_at(monkeypatch, 5)
    monkeypatch.delitem(make_ctx(3, 5).memo, "G", raising=False)
    argv = ["count", "--p", "3", "--n", "5", "--subgroup", "preimage:B@1", "--output", "json", "--class"]
    for cls, size, count in _COUNTS_3_5:
        assert run(argv + [cls]) == 0
        payload = {"class": cls, "class_size": size, "count": count, "subgroup": "preimage:B@1"}
        assert capsys.readouterr().out == json.dumps(dict(payload, subgroup_order="3188646"), sort_keys=True) + "\n"


def test_a_preimage_closes_nothing_above_its_level(monkeypatch):
    # preimage:B@1 at 2^9 holds 2^25 elements and contains K_s at every level
    # s >= 1, so its order reads #(H mod 2^s) 2^3 from one walk per level, down
    # to B at level 1; neither the order, the report (of B) nor a count closes
    # anything modulo 4 or above
    moduli = []
    true_fn = sys.modules["sl2genus.groups"]._closure_codes

    def recording(gens, ctx, cap):
        moduli.append(ctx.modulus)
        return true_fn(gens, ctx, cap)

    for mod in [m for name, m in sys.modules.items() if name.startswith("sl2genus.")]:
        if vars(mod).get("_closure_codes") is true_fn:
            monkeypatch.setattr(mod, "_closure_codes", recording)
    h = parse_subgroup_spec("preimage:B@1", 2, 9)
    assert h.order == 2**25
    want = (
        '{"count_sigma": "32768", "count_tau": "0", "cusp_ratio": {"den": "3", "num": "2"}, "delta": {"den": "1", '
        '"num": "-4"}, "fix_sigma": "1", "fix_tau": "0", "genus": "0", "index": "3", "order": "33554432"}'
    )
    assert json.dumps(dict(genus_report(h).to_json_dict(), order=str(h.order)), sort_keys=True) == want
    refs = [ConjClassRef(h.ctx, "sigma"), ConjClassRef(h.ctx, "tau")] + [u_power_ref(h.ctx, r) for r in range(9)]
    assert [count_in_subgroup(h, ref) for ref in refs] == [32768, 0, 16384, 12288, 3072, 768, 192, 48, 12, 6, 3]
    assert set(moduli) == {2} and h._codes is None


def _below_level_n(p, n):
    """Subgroups of SL2(Z/p^nZ) of level below n: the preimages of the level-one
    specs, of A1 at p = 2, of {1} at each level m < n, and of three seeded
    subgroups of SL2(Z/p^mZ) at each m < n."""
    specs = ["B", "C", "full"] + (["F"] if p == 2 else ["D"]) + (["E:A4", "E:S4"] if p >= 5 else [])
    out = [parse_subgroup_spec("preimage:%s@1" % spec, p, n) for spec in specs]
    if p == 2 and n > 2:
        out.append(parse_subgroup_spec("preimage:A1@2", p, n))
    ctx = make_ctx(p, n)
    for m in range(1, n):
        low = make_ctx(p, m)
        hs = [Subgroup.from_codes(low, {encoder(low)(identity(low))})]
        hs += sample_subgroups(low, 3, random.Random(("lift", p, n, m).__repr__()))
        out += [preimage(h, ctx) for h in hs]
    return out


@pytest.mark.parametrize("p, n", [(2, 3), (2, 4), (3, 3), (5, 2), (7, 2)])
def test_counts_below_level_n_lift_the_level_m_labels(p, n):
    # count_in_subgroup on H of level m < n lifts H_m's labels by #Conj_n / #Conj_m
    # (all of Conj(u^(p^r)) when r >= m); it equals the labels of every element of H at level n
    ctx = make_ctx(p, n)
    refs = [ConjClassRef(ctx, "sigma"), ConjClassRef(ctx, "tau")] + [u_power_ref(ctx, r) for r in range(n)]
    subs = _below_level_n(p, n)
    assert all(level(h) < n for h in subs)
    for h in subs:
        labels = Counter(label for x in h.mats() for label in class_labels(x, ctx))
        assert [count_in_subgroup(h, ref) for ref in refs] == [labels[ref.kind, ref.r] for ref in refs]


@pytest.mark.parametrize("p, n", [(2, 1), (2, 3), (3, 2), (5, 2), (7, 2), (13, 1)])
def test_row_tables_multiply_packed_codes(p, n):
    ctx = make_ctx(p, n)
    dec, enc, m = decoder(ctx), encoder(ctx), ctx.modulus
    codes = list(enumerate_group(ctx).codes)
    for s in (upper_u(ctx), lower_u(ctx)):
        want = [enc(_mul(dec(x), s, m)) for x in codes]
        table = row_table(ctx, s)
        for x in codes:  # the slot of a row (a b) is the code of (a b; 0 0), and its value the code of (a b) s
            row = dec(x)[:2] + (0, 0)
            assert table[enc(row)] == enc(_mul(row, s, m))
        assert len(codes) > len(table)  # enough codes to cross the switch to the table
        assert list(map(right_mul(ctx, s), codes)) == want  # entry by entry, then the table


def _orbits(hmats, ctx):
    """(a vector v of O, #O) for each orbit O = {x v : x in H} on the primitive vectors of (Z/p^n)^2."""
    p, m = ctx.p, ctx.modulus
    seen = bytearray(m * m)  # (x, y) at x + m y
    for y in range(m):
        for x in range(m):
            if not seen[x + m * y] and (x % p or y % p):
                orbit = {(a * x + b * y) % m + m * ((c * x + d * y) % m) for a, b, c, d in hmats}
                for i in orbit:
                    seen[i] = 1
                yield (x, y), len(orbit)


def _vector_walk(h):
    """coset_space's (lengths, fixed) walked on the H-orbits O of the primitive
    vectors v = g e1, one per double coset H g<u>: l = p^n #O / #H, and a fixes
    l N(v) / p^n of its cosets, N(v) = #{h : tr h = tr a, det(v, hv) = -1}.  The
    walk the line walk replaced, kept as its oracle, with its own checks."""
    ctx = h.ctx
    p, m, enc = ctx.p, ctx.modulus, encoder(ctx)
    hm = h.codes()
    hmats = list(map(decoder(ctx), hm))
    forms = [[(c, d - a, -b) for a, b, c, d in hmats if (a + d - t) % m == 0] for t in (0, 1)]
    lengths, fixed, covered = [], [0, 0], 0
    for (x, y), size in _orbits(hmats, ctx):
        covered += size
        ell, rest = divmod(m * size, len(hm))
        assert not rest and ell and m % ell == 0
        stab = [enc(mat(1 - j * x * y, j * x * x, -j * y * y, 1 + j * x * y, ctx)) in hm for j in (ell, ell // p)]
        assert stab[0] and not (ell > 1 and stab[1])
        for i, rows in enumerate(forms):
            got = ell * sum((c * x * x + e * x * y + f * y * y) % m == m - 1 for c, e, f in rows)
            assert got % m == 0
            fixed[i] += got // m
        lengths.append(ell)
    assert covered == m * m - (m // p) ** 2
    return lengths, fixed


@pytest.mark.parametrize("p, n", [(2, 3), (3, 2), (5, 2)])
def test_the_walk_splits_g_m_into_right_cosets_of_h_m(p, n):
    # the test enumerates G_m and splits it into right cosets H_m g; the library
    # walks the H_m-orbits on the lines of P^1(Z/p^m).  Each <u>-cycle of right
    # cosets is a double coset H_m g<u>, and the vectors x g e1 (x in H_m, H_m g
    # in the cycle) are one H_m-orbit: the orbits of the cycles split the
    # primitive vectors, the walk meets each line orbit once, and the vector
    # orbits above it are mu times one of them, #(H L) #Lambda_L vectors each
    for h in _level_route_subgroups(p, n):
        sub = make_ctx(p, level(h))
        m = sub.modulus
        h_m = Subgroup.from_codes(sub, h.reduced(sub.n).codes())
        hmats = list(h_m.mats())
        reps, coset_of = _brute_right_cosets(h_m)
        assert len(coset_of) == sub.order and len(reps) == sub.order // h_m.order
        perm, orbit_of, orbits = _right_perm(reps, coset_of, upper_u(sub), sub), {}, []
        for i in range(len(reps)):
            if i not in orbit_of:
                cycle = [i]
                while perm[cycle[-1]] != i:
                    cycle.append(perm[cycle[-1]])
                orbit = {(y[0], y[2]) for x in hmats for j in cycle for y in [_mul(x, reps[j], sub.modulus)]}
                orbit_of.update((j, len(orbits)) for j in cycle)
                orbits.append((orbit, len(cycle)))
        vectors = [v for orbit, _ in orbits for v in orbit]
        assert len(vectors) == len(set(vectors)) == m * m - (m // p) ** 2
        where = {v: k for k, (orbit, _) in enumerate(orbits) for v in orbit}
        units = [mu for mu in range(m) if mu % p]
        walked, lengths = list(_line_orbits(hmats, sub)), []
        for (x, y), lines, lam in walked:
            above = {where[mu * x % m, mu * y % m] for mu in units}  # the double cosets H_m mu g<u>
            assert len(above) == len(units) // lam
            assert all(len(orbits[k][0]) == lines * lam for k in above)
            lengths += sorted(orbits[k][1] for k in above)
        assert sum(lines for _, lines, _ in walked) == m + m // p
        got, fixed = coset_space(h_m)
        assert got == lengths  # l of each double coset, line orbit by line orbit
        assert fixed == _brute_fixed(reps, coset_of, sub)


def test_the_walk_checks_the_cap_before_it_builds_anything(builds):
    # <u> has level 2 modulo 25; the walk builds a table of the 25 + 5 lines of
    # P^1(Z/25) and decodes <u> itself (25 elements), never G_2 = SL2(Z/25Z)
    # (15,000), so the cap refuses 30 + 25 = 55, not #G_2 or the 625 vectors;
    # the walk's #H is read off the Schreier walk, so the refusal builds nothing
    ctx = make_ctx(5, 2)
    before = list(ctx.memo)
    held = "line table modulo 25 and the matrices of H hold 55 elements, above the cap of 54"
    with pytest.raises(FeasibilityError, match=held):
        coset_space(Subgroup(ctx, (upper_u(ctx),), cap=54))
    assert builds == []
    lengths, fixed = coset_space(Subgroup(ctx, (upper_u(ctx),), cap=55))
    assert list(ctx.memo) == before  # the walk stores nothing in the context
    assert builds == [(ctx, 25)]
    assert (lengths, fixed) == coset_space(Subgroup(ctx, (upper_u(ctx),)))
    # u moves (x, y) to (x + y, y): 20 orbits of 25 vectors (y a unit), 16 of 5
    # (y = 5k, k a unit mod 5) and 20 of one (y = 0); l = 25 #O / #<u> = #O
    assert sorted(lengths) == [1] * 20 + [5] * 16 + [25] * 20 and sum(lengths) == 600
    assert fixed == [0, 0]  # no conjugate of sigma or tau has trace 2


@pytest.mark.parametrize("p, n", [(2, 3), (3, 2), (5, 2), (7, 1)])
def test_the_double_coset_walk_matches_the_brute_right_cosets(p, n):
    # seeded subgroups, <H, -1> and <sigma>, each against the test's own right
    # cosets of G: as many double cosets as <u>-cycles, with the cycles'
    # lengths, the l summing to the index, and equal fixed counts
    ctx = make_ctx(p, n)
    hs = sample_subgroups(ctx, 6, random.Random((p, n, "double-cosets").__repr__())) + [closure([sigma(ctx)], ctx)]
    for h in hs + [adjoin_minus_one(h) for h in hs]:
        reps, coset_of = _brute_right_cosets(h)
        lengths, fixed = coset_space(h)
        cycles = _cycle_lengths(_right_perm(reps, coset_of, upper_u(ctx), ctx))
        assert len(lengths) == len(cycles) and sorted(lengths) == cycles
        assert sum(lengths) == len(reps) == ctx.order // h.order
        assert fixed == _brute_fixed(reps, coset_of, ctx)


def _genus_sweep_pool():
    """H_m = H mod p^m, m the level, of each H and <H, -1> of the benchmark's
    genus_sweep pool (perfbench/workloads.py, loaded from its file)."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    out = []
    for (p, n), sizes in workloads.GENUS_POOL.items():
        ctx = make_ctx(p, n)
        for gens in (g for k in sizes for g in workloads.genus_pool(p, n, k)):
            h = Subgroup(ctx, gens)
            out += [x.reduced(level(x)) for x in (h, adjoin_minus_one(h))]
    return out


def test_the_line_walk_matches_the_vector_walk(sl2_mod9_subgroups):
    # the same fixed counts, and the same double coset lengths as a multiset,
    # on every subgroup of SL2(Z/8Z) and of SL2(Z/9Z), on each H_m of the
    # genus_sweep pool, and on seeded subgroups at 2^4 and 2^5, where each unit
    # square mod 2^m has four roots
    c8 = make_ctx(2, 3)
    lattice8 = all_subgroups(enumerate_group(c8), conjugacy_gens=[upper_u(c8), lower_u(c8)])
    ctx9, lattice9 = sl2_mod9_subgroups
    assert (len(lattice8), len(lattice9)) == (673, 456)
    hs = [Subgroup.from_codes(c8, codes) for codes in lattice8] + [Subgroup.from_codes(ctx9, c) for c in lattice9]
    pool = _genus_sweep_pool()
    assert len(pool) == 426
    hs += pool
    for n in (4, 5):
        ctx = make_ctx(2, n)
        hs += [x for h in sample_subgroups(ctx, 6, random.Random(("roots", n).__repr__())) for x in (h, adjoin_minus_one(h))]
    assert {pow(mu, 2, 32) for mu in range(1, 32, 2)} == {1, 9, 17, 25}  # 16 units, four roots each
    for h in hs:
        lengths, fixed = coset_space(h)
        want_lengths, want_fixed = _vector_walk(h)
        assert (sorted(lengths), fixed) == (sorted(want_lengths), want_fixed)


@pytest.mark.parametrize("p, n", [(11, 2), (13, 2), (5, 3)])
def test_the_walk_checks_a_slim_subgroup_above_the_cap(monkeypatch, p, n):
    # G holds 1,756,920, 4,798,248 and 1,875,000 elements, above
    # DIRECT_CHECK_CAP, so genus_report runs no coset check on a slim H (level
    # n) there; the walk lists no element of G (any closure of <u, t(u)> fails
    # the test) and agrees with the class-counting route on one seeded <H, -1>
    def fail(ctx):
        raise AssertionError("the walk enumerated SL2(Z/%dZ)" % ctx.modulus)

    ctx = make_ctx(p, n)
    h = adjoin_minus_one(sample_slim_subgroups(ctx, 1, random.Random("above-the-cap"))[0])
    assert ctx.order > DIRECT_CHECK_CAP and level(h) == n
    monkeypatch.setattr(sys.modules["sl2genus.groups"], "_group_closure", fail)
    monkeypatch.delitem(ctx.memo, "G", raising=False)
    lengths, fixed = coset_space(h)
    assert sum(lengths) == ctx.order // h.order
    assert fixed == [fix_points(h, ConjClassRef(ctx, kind)) for kind in ("sigma", "tau")]
    assert Fraction(len(lengths), sum(lengths)) == cusp_orbit_ratio(h)


def test_a_report_intersects_h_with_each_class_once(monkeypatch):
    # a report reads H's own classes at level n, u and u^p at 7^2, through count_in_subgroup,
    # whose _class_counts, kept in H's memo, labels each element of H_m of trace 0, 1 or 2
    # once: however often a report reads a count, H is intersected with each class once
    genus_mod = sys.modules["sl2genus.genus"]
    true_count, true_labels = genus_mod.count_in_subgroup, genus_mod.class_labels
    calls, labelled = [], []
    monkeypatch.setattr(genus_mod, "count_in_subgroup", lambda h, ref: calls.append((ref.kind, ref.r)) or true_count(h, ref))
    monkeypatch.setattr(genus_mod, "class_labels", lambda x, ctx: labelled.append(x) or true_labels(x, ctx))

    def traced(h, m):
        return sorted(x for x in h.reduced(m).mats() if (x[0] + x[3]) % h.ctx.p**m <= 2)

    h = parse_subgroup_spec("preimage:B@1", 7, 2)
    rep = genus_report(h)  # level 1, counted on H_1
    assert set(calls) == {("sigma", 0), ("tau", 0), ("u_power", 0), ("u_power", 1)}
    assert sorted(labelled) == traced(h, 1)
    assert (rep.count_sigma, rep.count_tau, rep.fix_tau) == (0, 686, 2)  # B n Conj(sigma) is empty at 7 = -1 mod 4
    calls.clear()
    labelled.clear()
    ctx = make_ctx(5, 2)
    h = adjoin_minus_one(closure([upper_u(ctx)], ctx))
    rep = genus_report(h)  # level 2
    assert set(calls) == {("sigma", 0), ("tau", 0), ("u_power", 0), ("u_power", 1)}
    assert sorted(labelled) == traced(h, 2)
    assert (rep.index, rep.count_sigma, rep.count_tau) == (300, 0, 0)


def _below_level_n_reports():
    """Fresh subgroups for the reports below level n: preimage:B@1 at 7^2, 5^3
    and 2^11, and the level-route subgroups at (2,3), (3,2) and (5,2)."""
    hs = [parse_subgroup_spec("preimage:B@1", p, n) for p, n in ((7, 2), (5, 3), (2, 11))]
    hs += [h for p, n in ((2, 3), (3, 2), (5, 2)) for h in _level_route_subgroups(p, n)]
    return list({id(h): h for h in hs}.values())  # adjoin_minus_one(h) may be h


def _report_from_h_m(h):
    # the construction a report below level n once used: a report on a fresh
    # H_m, with its sigma and tau counts lifted to level n by #Conj_n / #Conj_m
    low = h.reduced(level(h))
    fresh = Subgroup(low.ctx, low.gens, low.cap, low._codes)
    lifted = []
    for kind in ("sigma", "tau"):
        ref_n, ref_m = ConjClassRef(h.ctx, kind), ConjClassRef(low.ctx, kind)
        count = count_in_subgroup(fresh, ref_m)
        lifted.append(count * conj_class_size_formula(ref_n) // conj_class_size_formula(ref_m))
    return genus_report(fresh)._replace(count_sigma=lifted[0], count_tau=lifted[1])


def test_a_report_below_level_n_computes_nothing_on_h_m(monkeypatch):
    # a report reads H_m = h.reduced(m) for its labels and its double cosets
    # alone: genus calls level on the reported H only, and H_m's memo keeps no
    # level, class counts or report of its own
    genus_mod = sys.modules["sl2genus.genus"]
    true_level, calls, below = genus_mod.level, [], 0
    monkeypatch.setattr(genus_mod, "level", lambda h: calls.append(h) or true_level(h))
    hs = _below_level_n_reports()
    for h in hs:
        calls.clear()
        genus_report(h)
        assert calls and all(x is h for x in calls)
        m = true_level(h)
        if m < h.ctx.n:
            below += 1
            assert not {"level", "class counts", "genus_report"} & set(h.reduced(m)._reduced)
    assert (below, len(hs)) == (21, 40)


def test_a_report_below_level_n_equals_the_report_on_h_m_lifted():
    # the class ratios and the cusp series are the same at level n and at m,
    # and [G:H] = [G_m:H_m]: the report on H is the old report on H_m, lifted
    for h in _below_level_n_reports():
        assert genus_report(h) == _report_from_h_m(h)


def test_the_order_of_g_m_is_p_m_times_the_primitive_vectors():
    # #G_m = p^m (p^(2m) - p^(2m-2)): once coset_space's orbits cover the
    # primitive vectors and each l = p^m #O / #H_m is exact, the l sum to
    # [G_m:H_m] with no check of their own
    for p in (2, 3, 5, 7, 11, 13):
        for m in range(1, 5):
            ctx = make_ctx(p, m)
            assert ctx.order == p**m * (p ** (2 * m) - p ** (2 * m - 2))
            if ctx.order <= 20_000:
                assert len(enumerate_group(ctx)) == ctx.order


def test_a_kept_level_below_n_decides_minus_one_without_a_walk(monkeypatch):
    # after its report, a generator-given H of level 1 < n keeps its level, and
    # -1 mod p in H_1 decides -1 in H: adjoin_minus_one runs no Schreier walk.
    # K_1 is generated by 1 + 5W for W = diag(1, -1), E12 and E21.
    subgroups_mod = sys.modules["sl2genus.subgroups"]
    true_walk = subgroups_mod._schreier_walk
    walks = []
    monkeypatch.setattr(subgroups_mod, "_schreier_walk", lambda *args: walks.append(args) or true_walk(*args))
    ctx = make_ctx(5, 2)
    kernel = ((6, 0, 0, 21), (1, 5, 0, 1), (1, 0, 5, 1))
    for first, inside in ((sigma(ctx), True), (upper_u(ctx), False)):
        h = Subgroup(ctx, (first,) + kernel)
        genus_report(h)
        assert level(h) == 1
        walks.clear()
        got = adjoin_minus_one(h)
        assert (got is h, walks, h._codes) == (inside, [], None)
        assert genus_report(got) == genus_report(closure(h.gens + (minus_one(ctx),), ctx))
    h = Subgroup(ctx, kernel)  # no level kept: the walk of #H = 5^3 finds level 1, and H_1 = {1} decides
    walks.clear()
    assert adjoin_minus_one(h) is not h and len(walks) == 1


def test_a_report_below_level_n_closes_nothing_at_level_n(builds):
    # <u, t(u)> = SL2(Z/49Z) has level 1: its order comes from the Schreier walk
    # and its report from SL2(Z/7Z), so neither H, <H, -1> nor a class orbit is
    # built modulo 49.  A cap below #G = 115,248 refuses nothing that is not
    # built: the reports under a cap of 100,000 equal the uncapped ones.  A cap
    # below #SL2(Z/7Z) = 336 still refuses the closure of H mod 7.
    ctx = make_ctx(7, 2)
    h = Subgroup(ctx, (upper_u(ctx), lower_u(ctx)))
    reports = [genus_report(h), genus_report(adjoin_minus_one(h))]
    assert [(r.index, r.genus) for r in reports] == [(1, 0), (1, 0)]
    for wrap, report in zip((lambda x: x, adjoin_minus_one), reports):
        capped = wrap(Subgroup(ctx, h.gens, cap=100_000))
        assert (capped.order, genus_report(capped)) == (ctx.order, report)
        with pytest.raises(FeasibilityError, match="max-elements"):
            wrap(Subgroup(ctx, h.gens, cap=300)).order
        with pytest.raises(FeasibilityError, match="max-elements"):
            genus_report(wrap(Subgroup(ctx, h.gens, cap=300)))
    assert builds and {c.n for c, _ in builds} == {1}


def _minus_one_cases():
    """(ctx, (H, ...)): the first 30 of criterion 7's seeded samples at (2,3),
    (3,2) and (5,2), each also unmaterialized from its generators, and a dozen
    seeded cyclic subgroups of SL2(Z/49Z), unmaterialized."""
    for p, n in ((2, 3), (3, 2), (5, 2)):
        ctx = make_ctx(p, n)
        for h in sample_subgroups(ctx, 30, random.Random((p, n, "criterion7").__repr__())):
            yield ctx, (h, Subgroup(ctx, h.gens))
    ctx, rng = make_ctx(7, 2), random.Random("minus-one-7-2")
    pool = sorted(enumerate_group(ctx).codes)
    for _ in range(12):
        yield ctx, (Subgroup(ctx, (decoder(ctx)(pool[rng.randrange(len(pool))]),)),)


def test_adjoin_minus_one_is_h_exactly_when_minus_one_is_in_h():
    # <H, -1> is H itself when -1 is in H (by membership of -1 mod p^m in
    # H_m, m the level of H, materialized or not), and its report is the
    # report of <gens, -1> closed from scratch
    outcomes = set()
    for ctx, hs in _minus_one_cases():
        gens = hs[0].gens
        inside = minus_one(ctx) in closure(gens, ctx)
        want = genus_report(closure(gens + (minus_one(ctx),), ctx))
        for h in hs:
            assert (adjoin_minus_one(h) is h) == inside, gens
            assert genus_report(adjoin_minus_one(h)) == want, gens
        outcomes.add((ctx.p, inside))
    assert outcomes == {(p, inside) for p in (2, 3, 5, 7) for inside in (False, True)}


def test_deciding_minus_one_closes_nothing_at_level_n(monkeypatch):
    # <sigma, K_1> holds -1 = sigma^2, <u, K_1> does not, and G = <u, t(u)>
    # does; each has level 1 < n, so the decision reads the Schreier walks and
    # H mod 5, never a closure modulo 25.  K_1 is generated by 1 + 5W for
    # W = diag(1, -1), E12 and E21
    calls = []
    true_fn = sys.modules["sl2genus.groups"]._closure_codes

    def recording(gens, ctx, cap):
        calls.append(ctx.n)
        return true_fn(gens, ctx, cap)

    for mod in [m for name, m in sys.modules.items() if name.startswith("sl2genus.")]:
        if vars(mod).get("_closure_codes") is true_fn:
            monkeypatch.setattr(mod, "_closure_codes", recording)
    ctx = make_ctx(5, 2)
    kernel = ((6, 0, 0, 21), (1, 5, 0, 1), (1, 0, 5, 1))
    cases = (((sigma(ctx),) + kernel, True), ((upper_u(ctx),) + kernel, False), ((upper_u(ctx), lower_u(ctx)), True))
    for gens, inside in cases:
        h = Subgroup(ctx, gens)
        got = adjoin_minus_one(h)
        assert (got is h, got._codes, h._codes) == (inside, None, None)
    assert 2 not in calls


def test_one_coset_space_per_subgroup(monkeypatch):
    # the genus_sweep pattern: a report of H, then of <H, -1>, then delta and
    # genus; each distinct subgroup H != G walks its cosets once (every G_m here
    # has at most DIRECT_CHECK_CAP elements), G once per context, whose memo
    # keeps its report, and delta and genus read the kept report
    genus_mod = sys.modules["sl2genus.genus"]
    true_walk = genus_mod.coset_space
    walks = []
    monkeypatch.setattr(genus_mod, "coset_space", lambda h, *mats: walks.append(h) or true_walk(h, *mats))
    distinct, full = 0, Counter()
    for p, n in ((2, 3), (3, 2), (5, 2), (7, 2)):
        ctx = make_ctx(p, n)
        monkeypatch.delitem(ctx.memo, "report of G", raising=False)
        for h0 in sample_subgroups(ctx, 4 if p < 7 else 2, random.Random((p, n, "one-walk").__repr__())):
            h = Subgroup(ctx, h0.gens)
            hh = adjoin_minus_one(h)
            assert genus_report(h) is genus_report(h)
            assert (delta(hh), genus(hh)) == (genus_report(hh).delta, genus_report(hh).genus)
            delta(h)
            for x in (h,) if hh is h else (h, hh):
                if x.order == ctx.order:
                    full[p, n] += 1
                else:
                    distinct += 1
        assert genus_report(Subgroup(ctx, (upper_u(ctx), lower_u(ctx)))).index == 1  # G once more
        full[p, n] += 1
    assert list(full.values()) == [2, 2, 2, 2]  # a context's second report of G walks nothing
    assert len(walks) == distinct + len(full)


def _full_gens(ctx):
    """Generator tuples of G = SL2(Z/p^nZ): <u, t(u)>, <t(u), u>, <sigma, tau>, <u, t(u), -1>."""
    u, t = upper_u(ctx), lower_u(ctx)
    return [(u, t), (t, u), (sigma(ctx), tau(ctx)), (u, t, minus_one(ctx))]


def test_every_report_of_g_is_the_one_report_of_the_context(monkeypatch):
    # H_m of #G_m elements proves H = G (K_m <= H), and a report is a function
    # of H: each generator tuple of G reports what a fresh context reports, and
    # the context's memo gains one entry, the report of G, built once
    genus_mod = sys.modules["sl2genus.genus"]
    true_walk, walks = genus_mod.coset_space, []
    monkeypatch.setattr(genus_mod, "coset_space", lambda h, *mats: walks.append(h) or true_walk(h, *mats))
    for p, n in ((2, 3), (3, 2), (5, 2), (7, 2)):
        ctx = make_ctx(p, n)
        want = genus_report(Subgroup(GroupCtx(p, n), _full_gens(ctx)[0]))
        assert (want.index, want.genus) == (1, 0)
        hs = [Subgroup(ctx, gens) for gens in _full_gens(ctx)] + [full_group(ctx)]  # full_group keeps G
        monkeypatch.delitem(ctx.memo, "report of G", raising=False)
        before, walks[:] = set(ctx.memo), []
        assert [genus_report(h) for h in hs] == [want] * len(hs)
        assert set(ctx.memo) - before == {"report of G"} and ctx.memo["report of G"] == want
        assert len(walks) == 1


def test_a_kept_report_of_g_is_refused_under_the_cap_a_fresh_report_is(monkeypatch):
    # the walk of G_1 = SL2(F_5) holds the 5 + 1 lines and the 120 matrices of
    # G_1: a report under a cap of 126 keeps the report of G, and one under 125
    # is refused with the text a fresh context gives, though nothing is walked
    ctx = make_ctx(5, 2)
    gens = (upper_u(ctx), lower_u(ctx))
    monkeypatch.delitem(ctx.memo, "report of G", raising=False)
    assert genus_report(Subgroup(ctx, gens, cap=126)) == ctx.memo["report of G"]
    held = r"^the line table modulo 5 and the matrices of H hold 126 elements, above the cap of 125; "
    for c in (GroupCtx(5, 2), ctx):
        with pytest.raises(FeasibilityError, match=held):
            genus_report(Subgroup(c, gens, cap=125))


def test_a_report_of_g_that_raises_keeps_nothing(monkeypatch):
    # a planted class_labels fault, which files Conj(tau) under sigma, on a fresh
    # context: the report of G raises, keeps nothing, and so the next one raises too
    genus_mod = sys.modules["sl2genus.genus"]
    true_labels = genus_mod.class_labels
    monkeypatch.setattr(
        genus_mod, "class_labels", lambda x, c: [("sigma", 0) if k == ("tau", 0) else k for k in true_labels(x, c)]
    )
    ctx = GroupCtx(5, 2)
    for gens in _full_gens(ctx)[:2]:
        with pytest.raises(ConsistencyError):
            genus_report(Subgroup(ctx, gens))
        assert "report of G" not in ctx.memo
