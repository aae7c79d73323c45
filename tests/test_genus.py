import json
import random
import sys
import types
from fractions import Fraction

import pytest

from sl2genus.core import (
    FeasibilityError,
    PreconditionError,
    _mul,
    decoder,
    encoder,
    lower_u,
    make_ctx,
    mat_mul,
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
    _carrier,
    _orbits,
    closed_form_genus,
    coset_space,
    cusp_orbit_ratio,
    delta,
    fix_points,
    genus,
    genus_report,
    legendre,
)
from sl2genus.groups import ConjClassRef, enumerate_group, u_power_ref
from sl2genus.subgroups import (
    Subgroup,
    adjoin_minus_one,
    borel,
    closure,
    full_group,
    level,
    nonsplit_cartan_normalizer,
    parse_subgroup_spec,
    sample_slim_subgroups,
    sample_subgroups,
    split_cartan_normalizer,
    standard_subgroup,
)


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
    from sl2genus.genus import count_in_subgroup
    from sl2genus.subgroups import a1_subgroup

    a1 = a1_subgroup()
    assert count_in_subgroup(a1, ConjClassRef(a1.ctx, "sigma")) == 3
    c13 = make_ctx(13, 1)
    assert count_in_subgroup(borel(13), u_power_ref(c13, 0)) == 6  # (p-1)/2
    c7 = make_ctx(7, 1)
    assert count_in_subgroup(nonsplit_cartan_normalizer(7), ConjClassRef(c7, "tau")) == 0
    with pytest.raises(PreconditionError):
        count_in_subgroup(borel(13), ConjClassRef(c7, "tau"))


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
        conj = h.conjugate(dec(pool[rng.randrange(len(pool))]))
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
    # fresh subgroups, so no reduction is memoised yet: seeded samples with
    # generators, <H, -1> for each, and preimages without generators
    specs = {
        2: ("preimage:F@1", "preimage:A1@2"),
        3: ("preimage:B@1", "preimage:C@1"),
        5: ("preimage:B@1", "preimage:D@1"),
    }
    ctx = make_ctx(p, n)
    hs = sample_subgroups(ctx, 6, random.Random((p, n, "level-route").__repr__()))
    hs += [adjoin_minus_one(h) for h in hs]
    return hs + [parse_subgroup_spec(spec, p, n) for spec in specs[p]]


def _level_n_perm(reps, coset_of, a, ctx):
    # the permutation gH -> a gH of the test's own level-n coset space
    enc = encoder(ctx)
    return [coset_of[enc(mat_mul(a, g, ctx))] for g in reps]


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
            coset_of.update((enc(mat_mul(x, dec(c), ctx)), len(reps)) for x in hmats)
            reps.append(dec(c))
    return reps, coset_of


def _right_perm(reps, coset_of, a, ctx):
    # H g -> H g a on the test's own right cosets
    enc = encoder(ctx)
    return [coset_of[enc(mat_mul(g, a, ctx))] for g in reps]


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
            assert h.reduced_codes(s) == {enc(reduce_mat(dec(c), p**s)) for c in h.codes()}


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
                coset_of.update((enc(mat_mul(dec(c), x, ctx)), len(reps)) for x in hmats)
                reps.append(dec(c))
        sub = make_ctx(p, level(h))
        h_m = Subgroup.from_codes(sub, h.reduced_codes(sub.n))
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
    reps, coset_of = _brute_right_cosets(Subgroup.from_codes(c5, h.reduced_codes(1)))
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


@pytest.mark.parametrize("p, n", [(2, 3), (3, 2), (5, 2)])
def test_the_walk_splits_g_m_into_right_cosets_of_h_m(p, n):
    # the test enumerates G_m and splits it into right cosets H_m g; the library
    # walks the H_m-orbits on primitive vectors.  Each <u>-cycle of right cosets
    # is a double coset H_m g<u>, and the vectors x g e1 (x in H_m, H_m g in the
    # cycle) are one H_m-orbit: the orbits of the cycles split the primitive
    # vectors, and the walk meets each once, with its size
    for h in _level_route_subgroups(p, n):
        sub = make_ctx(p, level(h))
        m = sub.modulus
        h_m = Subgroup.from_codes(sub, h.reduced_codes(sub.n))
        hmats = list(h_m.mats())
        reps, coset_of = _brute_right_cosets(h_m)
        assert len(coset_of) == sub.order and len(reps) == sub.order // h_m.order
        perm, orbit_of, orbits = _right_perm(reps, coset_of, upper_u(sub), sub), {}, []
        for i in range(len(reps)):
            if i not in orbit_of:
                cycle = [i]
                while perm[cycle[-1]] != i:
                    cycle.append(perm[cycle[-1]])
                orbit = {(y[0], y[2]) for x in hmats for j in cycle for y in [mat_mul(x, reps[j], sub)]}
                orbit_of.update((j, len(orbits)) for j in cycle)
                orbits.append((orbit, len(cycle)))
        vectors = [v for orbit, _ in orbits for v in orbit]
        assert len(vectors) == len(set(vectors)) == m * m - (m // p) ** 2
        where = {v: k for k, (orbit, _) in enumerate(orbits) for v in orbit}
        walked = list(_orbits(hmats, sub))
        assert sorted(where[v] for v, _ in walked) == list(range(len(orbits)))
        assert all(size == len(orbits[where[v]][0]) for v, size in walked)
        lengths, fixed = coset_space(h_m)
        assert lengths == [orbits[where[v]][1] for v, _ in walked]  # l of each double coset, in the walk's order
        assert fixed == _brute_fixed(reps, coset_of, sub)


def test_the_walk_checks_the_cap_before_it_builds_anything(monkeypatch):
    ctx = make_ctx(5, 2)  # <u> has level 2, and G_2 = SL2(Z/25Z) holds 15,000 elements
    keys = [("u-conjugates", kind) for kind in ("sigma", "tau")]
    for key in keys:
        monkeypatch.delitem(ctx.memo, key, raising=False)
    with pytest.raises(FeasibilityError, match="--max-elements"):
        coset_space(Subgroup(ctx, (upper_u(ctx),), cap=14_999))
    assert not any(key in ctx.memo for key in keys)
    lengths, fixed = coset_space(Subgroup(ctx, (upper_u(ctx),), cap=15_000))
    assert all(len(ctx.memo[key]) == 25 for key in keys)
    # u moves (x, y) to (x + y, y): 20 orbits of 25 vectors (y a unit), 16 of 5
    # (y = 5k, k a unit mod 5) and 20 of one (y = 0); l = 25 #O / #<u> = #O
    assert sorted(lengths) == [1] * 20 + [5] * 16 + [25] * 20 and sum(lengths) == 600
    assert fixed == [0, 0]  # no conjugate of sigma or tau has trace 2


@pytest.mark.parametrize("p, n", [(2, 3), (3, 2), (5, 2), (7, 1)])
def test_the_double_coset_walk_matches_the_brute_right_cosets(p, n):
    # seeded subgroups, <H, -1> and <sigma>, each against the test's own right
    # cosets of G: as many double cosets as <u>-cycles, with the cycles'
    # lengths, the l summing to the index, and equal fixed counts; across them
    # the walk takes both sides of its min rule (l <= #H and l > #H)
    ctx = make_ctx(p, n)
    hs = sample_subgroups(ctx, 6, random.Random((p, n, "double-cosets").__repr__())) + [closure([sigma(ctx)], ctx)]
    sides = set()
    for h in hs + [adjoin_minus_one(h) for h in hs]:
        reps, coset_of = _brute_right_cosets(h)
        lengths, fixed = coset_space(h)
        cycles = _cycle_lengths(_right_perm(reps, coset_of, upper_u(ctx), ctx))
        assert len(lengths) == len(cycles) and sorted(lengths) == cycles
        assert sum(lengths) == len(reps) == ctx.order // h.order
        assert fixed == _brute_fixed(reps, coset_of, ctx)
        sides.update(ell <= h.order for ell in lengths)
    assert sides == {True, False}
    m = ctx.modulus
    for x, y in ((x, y) for x in range(m) for y in range(m) if x % p or y % p):
        g = _carrier(x, y, ctx)
        assert (g[0], g[2]) == (x, y) and (g[0] * g[3] - g[1] * g[2]) % m == 1


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
    # count_in_subgroup is called once per class a report reads: fix_points
    # gives Fix_sigma and Fix_tau, and #(H n Conj) is read back from them
    genus_mod = sys.modules["sl2genus.genus"]
    true_count = genus_mod.count_in_subgroup
    calls = []
    monkeypatch.setattr(genus_mod, "count_in_subgroup", lambda h, ref: calls.append((ref.kind, ref.r)) or true_count(h, ref))
    rep = genus_report(parse_subgroup_spec("preimage:B@1", 7, 2))  # reported at its level 1
    assert calls == [("sigma", 0), ("tau", 0), ("u_power", 0)]
    assert (rep.count_sigma, rep.count_tau, rep.fix_tau) == (0, 686, 2)  # B n Conj(sigma) is empty at 7 = -1 mod 4
    calls.clear()
    ctx = make_ctx(5, 2)
    rep = genus_report(adjoin_minus_one(closure([upper_u(ctx)], ctx)))  # level 2
    assert calls == [("sigma", 0), ("tau", 0), ("u_power", 0), ("u_power", 1)]
    assert (rep.index, rep.count_sigma, rep.count_tau) == (300, 0, 0)


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
    h = Subgroup(ctx, kernel)  # no level kept: the orders of the two walks decide
    walks.clear()
    assert adjoin_minus_one(h) is not h and len(walks) == 2


def test_a_report_below_level_n_closes_nothing_at_level_n(monkeypatch):
    # <u, t(u)> = SL2(Z/49Z) has level 1: its order comes from the Schreier walk
    # and its report from SL2(Z/7Z), so neither H, <H, -1> nor a class orbit is
    # built modulo 49; under a cap below #G = 115,248 both still raise
    calls = []

    def recording(fn, ctx_of):
        def wrapped(*args, **kwargs):
            calls.append(ctx_of(*args).n)
            return fn(*args, **kwargs)

        return wrapped

    mods = [m for name, m in sys.modules.items() if name.startswith("sl2genus.")]
    for name, ctx_of in (("_closure_codes", lambda gens, ctx, cap: ctx), ("class_codes", lambda ref, *cap: ref.ctx)):
        true_fn = getattr(sys.modules["sl2genus.groups"], name)
        for mod in mods:
            if vars(mod).get(name) is true_fn:
                monkeypatch.setattr(mod, name, recording(true_fn, ctx_of))
    ctx = make_ctx(7, 2)
    h = Subgroup(ctx, (upper_u(ctx), lower_u(ctx)))
    reports = [genus_report(h), genus_report(adjoin_minus_one(h))]
    assert [(r.index, r.genus) for r in reports] == [(1, 0), (1, 0)]
    assert 1 in calls and 2 not in calls
    for wrap in (lambda x: x, adjoin_minus_one):
        with pytest.raises(FeasibilityError, match="max-elements"):
            wrap(Subgroup(ctx, h.gens, cap=100_000)).order
        with pytest.raises(FeasibilityError, match="max-elements"):
            genus_report(wrap(Subgroup(ctx, h.gens, cap=100_000)))


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
    # <H, -1> is H itself when -1 is in H (by membership for a materialized H,
    # by the orders of the Schreier walks otherwise), and its report is the
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
    # <sigma> holds -1 = sigma^2, <u> does not, and G = <u, t(u)> has level 1:
    # the decision reads the Schreier walks (and H mod 5 at rank 3), never a
    # closure modulo 25
    calls = []
    true_fn = sys.modules["sl2genus.groups"]._closure_codes

    def recording(gens, ctx, cap):
        calls.append(ctx.n)
        return true_fn(gens, ctx, cap)

    for mod in [m for name, m in sys.modules.items() if name.startswith("sl2genus.")]:
        if vars(mod).get("_closure_codes") is true_fn:
            monkeypatch.setattr(mod, "_closure_codes", recording)
    ctx = make_ctx(5, 2)
    for gens, inside in (((sigma(ctx),), True), ((upper_u(ctx),), False), ((upper_u(ctx), lower_u(ctx)), True)):
        h = Subgroup(ctx, gens)
        got = adjoin_minus_one(h)
        assert (got is h, got._codes, h._codes) == (inside, None, None)
    assert 2 not in calls


def test_one_coset_space_per_subgroup(monkeypatch):
    # the genus_sweep pattern: a report of H, then of <H, -1>, then delta and
    # genus; each distinct subgroup walks its cosets once (every G_m here has
    # at most DIRECT_CHECK_CAP elements), and delta and genus read the kept report
    genus_mod = sys.modules["sl2genus.genus"]
    true_walk = genus_mod.coset_space
    walks = []
    monkeypatch.setattr(genus_mod, "coset_space", lambda h: walks.append(h) or true_walk(h))
    distinct = 0
    for p, n in ((2, 3), (3, 2), (5, 2), (7, 2)):
        ctx = make_ctx(p, n)
        for h0 in sample_subgroups(ctx, 4 if p < 7 else 2, random.Random((p, n, "one-walk").__repr__())):
            h = Subgroup(ctx, h0.gens)
            hh = adjoin_minus_one(h)
            assert genus_report(h) is genus_report(h)
            assert (delta(hh), genus(hh)) == (genus_report(hh).delta, genus_report(hh).genus)
            delta(h)
            distinct += 1 if hh is h else 2
    assert len(walks) == distinct
