import random
from fractions import Fraction

import pytest

from sl2genus import bounds
from sl2genus.bounds import (
    bound_sequence,
    fiber_count_bound_check,
    section7_all,
    section7_case_ids,
    slim_bound_report,
    verify_main_theorem_desk,
    verify_section7,
)
from sl2genus.core import FeasibilityError, PreconditionError, make_ctx, upper_u
from sl2genus.groups import ConjClassRef, u_power_ref
from sl2genus.sequences import BOUND_KINDS, n_prime, n_upper_bound
from sl2genus.subgroups import (
    Subgroup,
    borel,
    closure,
    preimage,
    sample_slim_subgroups,
)


def test_bound_sequence_examples():
    assert bound_sequence("a_sigma_p", 5, 3) == 1250  # 2*5^4, l = 1
    assert bound_sequence("a_tau_3", 3, 2) == 9
    assert bound_sequence("a_u_p", 5, 2) == 50  # (1/2)*4*(2*5^2 - 5^2)
    # frozen values recomputed by hand from the case-split definitions
    assert bound_sequence("a_sigma_p", 19, 2) == 2 * 19**2
    assert bound_sequence("a_sigma_p", 5, 4) == 58 * 125
    assert bound_sequence("a_tau_p", 7, 3) == 2 * 7**4
    assert bound_sequence("a_tau_3", 3, 6) == 13 * 3**6
    assert bound_sequence("a_u_p", 3, 6) == 17 * 3**6
    assert bound_sequence("a_u_2", 2, 11) == 11 * 2**12
    assert bound_sequence("a_u_2", 2, 10) == 14 * 2**10
    assert bound_sequence("a_sigma_2", 2, 3) == 8
    assert bound_sequence("a_sigma_2", 2, 4) == 32
    assert bound_sequence("a_sigma_2", 2, 10) == 72 * 2**8
    assert bound_sequence("a_sigma_2", 2, 11) == 11 * 2**12
    assert bound_sequence("a_tau_2", 2, 10) == 5 * 2**12
    assert bound_sequence("b_u_2", 2, 4) == 16
    assert bound_sequence("b_u_2", 2, 5) == 64
    assert bound_sequence("b_u_2", 2, 9) == 7 * 2**10


def test_bound_sequence_domains():
    with pytest.raises(PreconditionError):
        bound_sequence("a_tau_p", 3, 2)
    with pytest.raises(PreconditionError):
        bound_sequence("a_u_2", 2, 5)
    with pytest.raises(PreconditionError):
        bound_sequence("a_sigma_2", 2, 2)
    with pytest.raises(PreconditionError):
        bound_sequence("a_tau_2", 2, 4)
    with pytest.raises(PreconditionError):
        bound_sequence("b_u_2", 2, 3)
    with pytest.raises(PreconditionError):
        bound_sequence("a_sigma_p", 2, 4)
    with pytest.raises(ValueError):
        bound_sequence("a_nonsense", 3, 3)


def test_bound_sequences_are_nonnegative_integers():
    domains = {
        "a_sigma_p": [(p, n) for p in (3, 5, 7, 11) for n in range(2, 13)],
        "a_tau_p": [(p, n) for p in (5, 7, 11) for n in range(2, 13)],
        "a_tau_3": [(3, n) for n in range(2, 13)],
        "a_u_p": [(p, n) for p in (3, 5, 7) for n in range(2, 13)],
        "a_u_2": [(2, n) for n in range(6, 13)],
        "a_sigma_2": [(2, n) for n in range(3, 13)],
        "a_tau_2": [(2, n) for n in range(5, 13)],
        "b_u_2": [(2, n) for n in range(4, 13)],
    }
    assert set(domains) == set(BOUND_KINDS)
    for kind, grid in domains.items():
        for p, n in grid:
            v = bound_sequence(kind, p, n)
            assert isinstance(v, int) and v >= 0


def test_lemma71_positivity_threshold():
    for p in [q for q in range(5, 51) if all(q % d for d in range(2, q))]:
        assert (Fraction(p * p - 7 * p - 164, (p - 1) * p) > 0) == (p >= 17)


def test_exponent_tables():
    assert n_upper_bound(23) == 0 and n_upper_bound(29) == 0
    assert n_upper_bound(19) == n_upper_bound(11) == 1
    assert n_upper_bound(7) == 2 and n_upper_bound(5) == 3
    assert n_upper_bound(3) == 5 and n_upper_bound(2) == 11
    assert n_prime(2) == 10 and n_prime(3) == 5 and n_prime(23) == 0


def test_check_slim_bound_trivial_and_cyclic():
    ctx = make_ctx(3, 2)
    trivial = closure([], ctx)
    for ref in (ConjClassRef(ctx, "sigma"), ConjClassRef(ctx, "tau"), u_power_ref(ctx, 0)):
        assert slim_bound_report(trivial, ref).ok
    u_cyc = closure([upper_u(ctx)], ctx)
    assert slim_bound_report(u_cyc, u_power_ref(ctx, 0)).ok


def test_slim_bound_rejects_non_slim_and_level_one():
    ctx = make_ctx(3, 2)
    from sl2genus.subgroups import full_group

    with pytest.raises(PreconditionError):
        slim_bound_report(full_group(ctx), ConjClassRef(ctx, "sigma"))
    c5 = make_ctx(5, 1)
    with pytest.raises(PreconditionError):
        slim_bound_report(borel(5), ConjClassRef(c5, "sigma"))


def test_slim_bounds_on_preimage_layers():
    # the largest slim subgroups: B-preimage intersected with the slim cap
    ctx = make_ctx(5, 2)
    rng = random.Random(23)
    subs = sample_slim_subgroups(ctx, 15, rng, mod_p_target=borel(5))
    assert subs
    for h in subs:
        for ref in (ConjClassRef(ctx, "sigma"), ConjClassRef(ctx, "tau"), u_power_ref(ctx, 0)):
            rep = slim_bound_report(h, ref)
            assert rep.ok, rep.checks


def test_bounds_are_not_vacuous():
    # negative control: the full group's class counts break the slim bound,
    # so the inequalities genuinely depend on slimness
    ctx = make_ctx(3, 2)
    from sl2genus.groups import class_codes, conj_class_size_formula

    full_count = conj_class_size_formula(ConjClassRef(ctx, "sigma"))  # 54
    level1 = conj_class_size_formula(ConjClassRef(make_ctx(3, 1), "sigma"))  # 6
    rhs = bound_sequence("a_sigma_p", 3, 2) + 3 * (level1 - 2)
    assert full_count > rhs  # 54 > 30


def test_fiber_lemma_shadows():
    ctx = make_ctx(3, 3)
    rng = random.Random(31)
    subs = sample_slim_subgroups(ctx, 10, rng)
    assert subs
    for h in subs:
        for ref in (ConjClassRef(ctx, "sigma"), ConjClassRef(ctx, "tau"), u_power_ref(ctx, 0)):
            assert fiber_count_bound_check(h, ref, 1, 0)
            assert fiber_count_bound_check(h, ref, 1, 1)


def _old_fiber_count_bound_check(h, ref, i, d):
    """fiber_count_bound_check as it was before it counted Y_0 - Y_i: each
    fiber of H n Conj over H mod p^(r+i+d) is bad when its first element x has
    H_(n-i) != V_x.  Returns (the verdict, whether a bad fiber meets the limit)."""
    from sl2genus.bounds import _v_codes
    from sl2genus.core import decoder, reduce_mat
    from sl2genus.fibers import FiberDescriptor
    from sl2genus.groups import class_codes
    from sl2genus.subgroups import filtration_level

    ctx = h.ctx
    p, r = ctx.p, ref.r
    depth = ctx.n - r
    dec = decoder(ctx)
    filt = filtration_level(h, ctx.n - i).codes()
    desc = FiberDescriptor(p, r, depth, depth - i, ref.kind)
    lo_mod = p ** (r + i + d)
    counts, bad_v = {}, {}
    for c in h.codes() & class_codes(ref):
        x = dec(c)
        base = reduce_mat(x, lo_mod)
        counts[base] = counts.get(base, 0) + 1
        if base not in bad_v:
            bad_v[base] = filt != _v_codes(desc, x)
    limit = p ** (depth - 1 - d)
    bad = [cnt for base, cnt in counts.items() if bad_v[base]]
    return all(cnt <= limit for cnt in bad), limit in bad


def test_fiber_count_bound_matches_the_per_fiber_oracle(sl2_mod9_subgroups):
    """Cor. 6.5's inputs: every slim subgroup of SL2(Z/9Z) at d = 0, and
    seeded slim samples at modulus 27 at d = 0 and 1."""
    from sl2genus.subgroups import is_slim

    ctx9, lattice = sl2_mod9_subgroups
    cases = [(h, 0) for h in (Subgroup.from_codes(ctx9, c) for c in lattice) if is_slim(h)]
    ctx27 = make_ctx(3, 3)
    cases += [(h, d) for h in sample_slim_subgroups(ctx27, 10, random.Random(31)) for d in (0, 1)]
    tight = 0
    for h, d in cases:
        for ref in (ConjClassRef(h.ctx, "sigma"), ConjClassRef(h.ctx, "tau"), u_power_ref(h.ctx, 0)):
            want, at_limit = _old_fiber_count_bound_check(h, ref, 1, d)
            assert fiber_count_bound_check(h, ref, 1, d) == want
            tight += at_limit
    assert tight > 0  # some bad fiber is exactly at the limit, so one element more would fail it


def test_section7_case_ids_cover_spec_set():
    ids = set(section7_case_ids())
    for want in (
        "L7.1",
        "P7.2",
        "P7.3",
        "P7.4:B",
        "P7.4:E",
        "P7.5:B",
        "P7.5:C",
        "P7.5:D",
        "P7.5:E",
        "P7.8",
        "P7.9:B",
        "P7.9:D",
        "P7.9:E",
        "P7.10:B",
        "P7.10:C",
        "P7.10:D",
        "P7.10:SL",
        "P7.11",
        "P7.12:F",
        "P7.12:SL",
    ):
        assert want in ids


def test_section7_verdicts(report_digest):
    for cid in section7_case_ids():
        rep = verify_section7(cid)
        if cid == "P7.8":
            assert rep.verdict == "positive_but_differs"
            assert rep.recomputed_value == rep.printed_value > 0
            assert "p^3" in rep.notes and "p^(n-1)" in rep.notes
        else:
            assert rep.verdict == "match", (cid, rep.notes)
            assert rep.recomputed_value == rep.printed_value > 0
    # every chain label, value and step, verdict and note, as first recorded
    assert report_digest(section7_all()) == "98ba867c78a9a36ee25a8baf492bb82fe52e21464d3cbae53da8164d406ffa7d"


def test_section7_key_fractions():
    assert verify_section7("P7.2").printed_value == Fraction(1805 - 74 - 1083, 5 * 19**2)
    assert verify_section7("P7.3").printed_value == Fraction(867 - 33 - 578, 3 * 17**2)
    rep = verify_section7("P7.4:B")
    branch = dict(rep.inequality_chain)
    assert branch["Vu branch: printed"] == Fraction(1183 - 75 - 100 - 546, 7 * 13**2)
    assert branch["no-Vu branch: printed"] == Fraction(1183 - 75 - 100 - 582, 7 * 13**2)
    assert verify_section7("P7.12:SL").printed_value == Fraction(512 - 73 - 80 - 248, 2**9)
    assert verify_section7("L7.1:19").printed_value == Fraction(19 * 19 - 7 * 19 - 164, 18 * 19)


def test_section7_unknown_case():
    with pytest.raises(KeyError):
        verify_section7("P9.9")
    with pytest.raises(KeyError):
        verify_section7("L7.1:13")


def test_case_report_json():
    import json

    rep = verify_section7("P7.2")
    payload = json.loads(json.dumps(rep.to_json_dict(), sort_keys=True))
    assert payload["printed"] == {"num": "648", "den": "1805"}
    assert payload["verdict"] == "match"


def test_desk_part_arguments():
    with pytest.raises(ValueError):
        verify_main_theorem_desk(0)
    with pytest.raises(ValueError):
        verify_main_theorem_desk(8)


def test_desk_smoke_parts_6_7(report_digest):
    digests = {
        6: "530905a46a09a84a824b017331f7d44c918cef26c72a8e35b7e0658b963bb53b",
        7: "50fb8b77bf340a4dea3bf8dfc41b5ba4297e3d281ca7ade1738d8769d3c8c80e",
    }
    for part in (6, 7):
        results = verify_main_theorem_desk(part, samples=4)
        for r in results:
            assert r.status == "pass", (r.label, r.notes)
        assert report_digest(results) == digests[part]


def test_desk_failure_paths(monkeypatch):
    """Every delta 0 and every bound report failing: each case fails on its
    first subgroup, and the sampled cases keep their seed."""

    def failing_report(h, ref):
        rep = bounds.SlimBoundReport(ref.kind, ref.r, h.order)
        rep.add("forced", False, "x")
        return rep

    monkeypatch.setattr(bounds, "delta", lambda h: Fraction(0))
    monkeypatch.setattr(bounds, "slim_bound_report", failing_report)
    got = [
        (r.label, r.status, r.checked, r.min_delta, r.seed, r.notes)
        for part, samples in ((1, None), (2, 1), (6, 1))
        for r in verify_main_theorem_desk(part, samples=samples)
    ]
    part1 = ["B@23", "C@11", "C@13", "D@13", "E:A4@17", "E:S4@17", "E:A4@19", "E:S4@19", "E:A5@19"]
    part2 = ["B@11^2", "D@11^2", "E:A4@11^2", "E:S4@11^2", "E:A5@11^2"]
    part2 += ["B@13^2", "D@13^2", "E:A4@13^2", "E:S4@13^2"]  # no A5 at p = 13
    violation = "bound violation ('forced', False, 'x') on subgroup of order %d"
    assert got == (
        [(label, "fail", 1, 0, None, "found delta <= 0") for label in part1]
        + [(label, "fail", 1, 0, 0, "found slim subgroup with delta <= 0") for label in part2]
        + [
            ("F@2^7 (reduced from 2^10)", "fail", 1, None, 0, violation % 24),
            ("SL@2^7 (reduced from 2^10)", "fail", 1, None, 0, violation % 512),
        ]
    )


# ---- differential test: the kind table against the per-class ladder ----


def _ladder_oracle(h, ref):
    """The closed-form checks and the p = 2 short chain of slim_bound_report,
    written as one if/elif branch per class, prime and depth, with every
    correction term spelled out (the form they had before the kind table)."""
    from sl2genus.bounds import _count_reduced, _mod_count, _y_sets
    from sl2genus.groups import class_codes

    ctx = h.ctx
    p = ctx.p
    r = ref.r if ref.kind == "u_power" else 0
    depth = ctx.n - r
    if depth < 2:
        raise PreconditionError("no closed-form bound applies at depth %d" % depth)
    y0 = h.codes() & class_codes(ref)
    cnt = len(y0)
    checks = []

    def add(kind, rhs):
        checks.append((kind, cnt <= rhs, "%d <= %d" % (cnt, rhs)))

    def a(kind):
        return bound_sequence(kind, p, depth)

    def red(level):
        return _count_reduced(h, ref, level)

    if ref.kind == "sigma":
        if p >= 3:
            add("a_sigma_p", a("a_sigma_p") + p ** (depth - 1) * (red(1) - 2))
        elif depth >= 3:
            add("a_sigma_2", a("a_sigma_2") + 2 ** (depth - 2) * (red(2) - 2))
    elif ref.kind == "tau":
        if p >= 5:
            add("a_tau_p", a("a_tau_p") + p ** (depth - 1) * (red(1) - 2))
        elif p == 3:
            add("a_tau_3", a("a_tau_3") + 3 ** (depth - 1) * (red(1) - 1))
        elif depth >= 5:
            add("a_tau_2", a("a_tau_2") + 2 ** (depth - 2) * (red(3) - 8))
    elif p >= 3:
        add("a_u_p", a("a_u_p") + p ** (depth - 1) * (red(r + 1) - (p - 1) // 2))
    else:
        if depth >= 6:
            add("a_u_2", a("a_u_2") + 2 ** (depth - 1) * (red(r + 3) - 2))
        if depth >= 4:
            add("b_u_2", a("b_u_2") + 2 ** (depth - 3) * (red(r + 3) - 4))
    if not checks:
        raise PreconditionError("no closed-form bound applies")

    chain = []
    if p == 2 and ref.kind == "sigma" and 3 <= depth <= 5:
        y = _y_sets(h, ref, y0, [1])
        m1, m0 = _mod_count(ctx, y[1], 2), _mod_count(ctx, y[0], 2)
        chain.append(("chain:last", len(y[1]) <= 2 ** (2 * (depth - 2)) * m1, ""))
        chain.append(("chain:first", len(y[0] - y[1]) <= 2 ** (depth - 2) * (m0 - m1), ""))
        total = (2 ** (2 * (depth - 2)) - 2 ** (depth - 2)) * m1 + 2 ** (depth - 2) * m0
        chain.append(("chain:total", cnt <= total, "%d <= %d" % (cnt, total)))
        chain.append(("chain:recovery1", m1 <= 2, ""))
    elif p == 2 and ref.kind == "u_power" and 4 <= depth <= 6:
        y = _y_sets(h, ref, y0, [1])
        m1, m0 = _mod_count(ctx, y[1], r + 3), _mod_count(ctx, y[0], r + 3)
        chain.append(("chain:last", len(y[1]) <= 2 ** (2 * (depth - 3)) * m1, ""))
        chain.append(("chain:first", len(y[0] - y[1]) <= 2 ** (depth - 3) * (m0 - m1), ""))
        total = (2 ** (2 * (depth - 3)) - 2 ** (depth - 3)) * m1 + 2 ** (depth - 3) * m0
        chain.append(("chain:total", cnt <= total, "%d <= %d" % (cnt, total)))
        chain.append(("chain:recovery1", m1 <= 4, ""))
    return checks, chain


def _assert_report_matches_oracle(h, ref, reached):
    try:
        want, want_chain = _ladder_oracle(h, ref)
    except PreconditionError:
        with pytest.raises(PreconditionError):
            slim_bound_report(h, ref)
        return
    got = slim_bound_report(h, ref).checks
    assert [c for c in got if c[0] in BOUND_KINDS] == want
    if h.ctx.p == 2:
        assert [c for c in got if c[0].startswith("chain:")] == want_chain
    reached.update(c[0] for c in want)


def test_slim_bound_report_matches_the_ladder_oracle(sl2_mod9_subgroups):
    reached = set()
    for p, n, count in ((5, 2, 15), (3, 3, 15), (2, 4, 15), (2, 5, 10), (2, 6, 6), (2, 7, 4)):
        ctx = make_ctx(p, n)
        refs = [ConjClassRef(ctx, "sigma"), ConjClassRef(ctx, "tau")]
        refs += [u_power_ref(ctx, r) for r in range(n)]  # r = n-1 has depth 1: no bound
        subs = sample_slim_subgroups(ctx, count, random.Random("ladder-%d-%d" % (p, n)))
        assert subs
        for h in subs:
            for ref in refs:
                _assert_report_matches_oracle(h, ref, reached)
    ctx, lattice = sl2_mod9_subgroups
    from sl2genus.subgroups import is_slim

    for codes in lattice:
        h = Subgroup.from_codes(ctx, codes)
        if is_slim(h):
            for ref in (ConjClassRef(ctx, "sigma"), ConjClassRef(ctx, "tau"), u_power_ref(ctx, 0)):
                _assert_report_matches_oracle(h, ref, reached)
    assert reached == set(BOUND_KINDS)


# ---- the subgroup memo: H_s is built once per (H, s), with the same results ----


def test_filtration_memo_keeps_the_y_sets(sl2_mod9_subgroups):
    """Every slim subgroup of SL2(Z/9Z) plus seeded slim samples at 25, 27 and
    16: the filtration check and the Y_i sets hash as they did before H_s was
    memoized, and a second filtration_level call returns the stored H_s."""
    import hashlib

    from sl2genus.bounds import SlimBoundReport, _class_in, _filtration_checks, _y_sets
    from sl2genus.subgroups import filtration_level, is_slim

    ctx9, lattice = sl2_mod9_subgroups
    subs = [h for h in (Subgroup.from_codes(ctx9, c) for c in sorted(lattice, key=sorted)) if is_slim(h)]
    for p, n in ((5, 2), (3, 3), (2, 4)):
        subs += sample_slim_subgroups(make_ctx(p, n), 10, random.Random("memo-%d-%d" % (p, n)))
    rows = []
    nonempty = 0
    for h in subs:
        ctx = h.ctx
        rep = SlimBoundReport("sigma", 0, h.order)
        _filtration_checks(h, rep)
        rows.append(repr(rep.checks))
        if ctx.p == 2:
            refs = [(ConjClassRef(ctx, "sigma"), [1]), (u_power_ref(ctx, 0), [1])]
        else:
            refs = [ConjClassRef(ctx, "sigma"), ConjClassRef(ctx, "tau")]
            refs += [u_power_ref(ctx, r) for r in range(ctx.n - 1)]
            refs = [(ref, list(range(1, (ctx.n - ref.r) // 2 + 1))) for ref in refs]
        for ref, idxs in refs:
            y = _y_sets(h, ref, _class_in(h, ref), idxs)
            nonempty += any(y[i] for i in idxs)
            rows.append(repr(sorted((i, sorted(v)) for i, v in y.items())))
        for s in range(1, ctx.n + 1):
            assert filtration_level(h, s) is filtration_level(h, s)
    assert (len(subs), nonempty) == (471, 27)
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == "1abb11ddf3d17f94bf982a884570962799c6edeced3fd7388d403408f713e6a8"


# ---- the sampler's certificate: the seeded sample lists hash as before it ----

_SAMPLE_DIGESTS = {
    "criterion9-5^2": "c5fe06db76eed34bcd5cdfabea20f107070254ab9ab2da2319d29fe7d9b60b70",
    "criterion9-3^3": "b88643b5afff4e0f2c9dc7e62dab1cd7f40a74c1f5e7a9a90c1b7efd2ac0161e",
    "criterion9-2^4": "5393e38be17e54467306aeec0fdb003b6e7dbb41d86143fa61feabd4b6d099ad",
    "desk-2": "ff5bd36644ecaa18e92bf14e51e9f3fbfee6d221b42cbdf0a33d6943c74cf5f1",
    "desk-3": "de7481762b342f0fa354b5d83b67496e05b42f11494692fbce5cc7888ef12d40",
    "desk-4": "552ead93bfc15fd8247ea1194bae973be2a7ea7e2269fbc556ae9b445008a98b",
    "desk-5": "b459c504de8b32cc1d5c49f16489e27bbe8b89ce13c8379345ab6fbf398a1931",
    "desk-6": "76b382e5a74024a882650cb4c49aa9e179d5552c62940c26a71b7bdb46c62917",
    "desk-7": "952a9fc14867911bf7dd4cc4744b192178f15ffad0953fafd759bc0c781f9c98",
}


@pytest.mark.parametrize("case", list(_SAMPLE_DIGESTS))
def test_seeded_sample_lists_hash_as_before_the_certificate(case):
    """Criterion 9's samples (500 at each context) and the default samples of
    desk parts 2-7 at seed 0: the same subgroups, in the same order, as the
    sampler gave when it closed every candidate."""
    import hashlib

    from sl2genus.bounds import _DESK_SAMPLES, _desk_cases, _desk_sample
    from sl2genus.subgroups import standard_subgroup

    kind, at = case.split("-")
    if kind == "criterion9":
        p, n = map(int, at.split("^"))
        subs = sample_slim_subgroups(make_ctx(p, n), 500, random.Random((p, n, "criterion9").__repr__()))
    else:
        part = int(at)
        subs = []
        for p, n, kinds, note in _desk_cases(part):
            for k in kinds:
                target = standard_subgroup("full" if k == "SL" else k, p)
                label = "%s@%d^%d%s" % (k, p, n, note)
                subs += _desk_sample(part, label, make_ctx(p, n), target, _DESK_SAMPLES[part], 0)[0]
    rows = "\n".join(repr(sorted(h.codes())) for h in subs)
    assert hashlib.sha256(rows.encode()).hexdigest() == _SAMPLE_DIGESTS[case]


# ---- the bound plan: derived once per (context, class), never per subgroup ----


@pytest.mark.parametrize("p, n", [(5, 2), (3, 3), (2, 4)])
def test_a_report_after_the_plan_derives_nothing_of_the_class(monkeypatch, p, n):
    """Once a class's plan is stored, a report on a fresh subgroup (its own
    memo empty) evaluates no bound sequence and builds no class reference or
    fiber descriptor, and its checks are those of the first report; at 16 the
    tau class and u^2, u^4 have no bound and raise PreconditionError."""
    from sl2genus.fibers import FiberDescriptor

    ctx = make_ctx(p, n)
    refs = [ConjClassRef(ctx, "sigma"), ConjClassRef(ctx, "tau")] + [u_power_ref(ctx, r) for r in range(n - 1)]
    subs = sample_slim_subgroups(ctx, 6, random.Random("plan-%d-%d" % (p, n)))

    def reports(hs):
        out = []
        for h in hs:
            for ref in refs:
                try:
                    out.append(slim_bound_report(h, ref).checks)
                except PreconditionError:  # no closed-form bound for this class here
                    out.append(None)
        return out

    first = reports(subs)
    fresh = [Subgroup.from_codes(ctx, h.codes()) for h in subs]
    calls = {"bound_sequence": 0, "ConjClassRef": 0, "FiberDescriptor": 0}

    def counted(fn, name):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(bounds, "bound_sequence", counted(bounds.bound_sequence, "bound_sequence"))
    monkeypatch.setattr(ConjClassRef, "__post_init__", counted(ConjClassRef.__post_init__, "ConjClassRef"))
    monkeypatch.setattr(FiberDescriptor, "__post_init__", counted(FiberDescriptor.__post_init__, "FiberDescriptor"))
    assert reports(fresh) == first and any(first)
    assert calls == {"bound_sequence": 0, "ConjClassRef": 0, "FiberDescriptor": 0}


def test_a_cap_below_the_class_still_stops_a_report():
    # the plan holds no element set: the level-n class is read under the
    # subgroup's cap, before and after the plan is stored
    from sl2genus.core import FeasibilityError
    from sl2genus.groups import class_codes

    ctx = make_ctx(3, 3)
    ref = ConjClassRef(ctx, "sigma")
    h = sample_slim_subgroups(ctx, 1, random.Random("plan-cap"))[0]
    size = len(class_codes(ref))
    for _ in range(2):
        with pytest.raises(FeasibilityError, match="above the cap of %d" % (size - 1)):
            slim_bound_report(Subgroup.from_codes(ctx, h.codes(), cap=size - 1), ref)
        assert slim_bound_report(Subgroup.from_codes(ctx, h.codes(), cap=size), ref).ok


def test_a_class_without_a_bound_raises_before_any_count(monkeypatch):
    # at 16 no closed-form bound applies to tau, u^2 or u^4: the report raises
    # without intersecting H with the class (bounds._class_in, the report's one
    # intersection)
    ctx = make_ctx(2, 4)
    h = sample_slim_subgroups(ctx, 1, random.Random("no-bound"))[0]
    calls = []
    true_count = bounds._class_in
    monkeypatch.setattr(bounds, "_class_in", lambda sub, ref: calls.append(ref) or true_count(sub, ref))
    for ref in (ConjClassRef(ctx, "tau"), u_power_ref(ctx, 1), u_power_ref(ctx, 2)):
        with pytest.raises(PreconditionError, match="no closed-form bound"):
            slim_bound_report(h, ref)
    assert calls == []
    slim_bound_report(h, ConjClassRef(ctx, "sigma"))  # a class with a bound is counted, through the patch
    assert len(calls) == 1


def test_the_fiber_count_check_reads_the_class_under_the_subgroups_cap():
    # Conj(sigma) at 125 holds 18,750 elements: under a cap of 2,000 the
    # fiber-count check stops where the slim report stops, at the class
    ctx = make_ctx(5, 3)
    ref = ConjClassRef(ctx, "sigma")
    hs = sample_slim_subgroups(ctx, 3, random.Random("fiber-cap"), mod_p_target=borel(5))
    h = next(h for h in hs if h.order <= 2000)
    assert fiber_count_bound_check(h, ref, 1, 0)
    low = Subgroup.from_codes(ctx, h.codes(), h.gens, cap=2000)
    for check in (lambda: slim_bound_report(low, ref), lambda: fiber_count_bound_check(low, ref, 1, 0)):
        with pytest.raises(FeasibilityError, match="cap of 2000"):
            check()


def test_the_fiber_count_check_refuses_a_class_of_another_context():
    # a class at 25 against a subgroup at 125: the codes of the two contexts
    # do not compare, so the check raises as slim_bound_report does
    ctx = make_ctx(5, 3)
    h = sample_slim_subgroups(ctx, 1, random.Random("fiber-ctx"))[0]
    ref = ConjClassRef(make_ctx(5, 2), "sigma")
    for check in (lambda: slim_bound_report(h, ref), lambda: fiber_count_bound_check(h, ref, 1, 0)):
        with pytest.raises(PreconditionError, match="class reference bound to a different context"):
            check()


def test_a_slim_report_reads_the_level_n_class_once(monkeypatch):
    # the bound checks count #(H n Conj) and the chains read that same set as
    # Y_0, so each report reads the level-n class once; at odd p every count
    # of the bound checks is below level n
    import sys

    true_fn = sys.modules["sl2genus.groups"].class_codes
    reads = []
    for mod in [m for name, m in sys.modules.items() if name.startswith("sl2genus.")]:
        if vars(mod).get("class_codes") is true_fn:
            monkeypatch.setattr(mod, "class_codes", lambda ref, *cap: reads.append(ref) or true_fn(ref, *cap))
    reports = 0
    for p, n in ((5, 2), (5, 3), (3, 3)):
        ctx = make_ctx(p, n)
        for h in sample_slim_subgroups(ctx, 3, random.Random("one-y0-%d-%d" % (p, n)), mod_p_target=borel(p)):
            for ref in (ConjClassRef(ctx, "sigma"), ConjClassRef(ctx, "tau"), u_power_ref(ctx, 0)):
                reads.clear()
                checks = slim_bound_report(h, ref).checks
                assert any(label.startswith("chain:") for label, _, _ in checks)
                assert [r for r in reads if r.ctx == ctx] == [ref]
                reports += 1
    assert reports == 27
