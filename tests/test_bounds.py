import random
import sys
from fractions import Fraction

import pytest

from sl2genus import bounds, groups, suites
from sl2genus.bounds import (
    bound_sequence,
    fiber_count_bound_check,
    section7_all,
    section7_case_ids,
    slim_bound_report,
    verify_section7,
)
from sl2genus.core import FeasibilityError, PreconditionError, make_ctx, upper_u
from sl2genus.groups import ConjClassRef, u_power_ref
from sl2genus.sequences import BOUND_KINDS, n_prime, n_upper_bound
from sl2genus.subgroups import (
    Subgroup,
    borel,
    closure,
    is_slim,
    preimage,
    sample_slim_subgroups,
)
from sl2genus.suites import suite_lemma6_1, verify_main_theorem_desk


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


def _caught_bound_reports(h):
    """bound_reports as it read before the plan chose its classes: every class
    asked, and any PreconditionError read as "no bound at this level"; each
    report with its class, (ref, report)."""
    ctx = h.ctx
    for ref in [ConjClassRef(ctx, "sigma"), ConjClassRef(ctx, "tau")] + [u_power_ref(ctx, r) for r in range(ctx.n - 1)]:
        try:
            rep = slim_bound_report(h, ref)
        except PreconditionError:
            continue
        yield ref, rep


def test_bound_reports_on_slim_subgroups_match_the_catching_loop(sl2_mod9_subgroups):
    ctx9, lattice = sl2_mod9_subgroups
    slim = [h for h in (Subgroup.from_codes(ctx9, c) for c in lattice) if is_slim(h)]
    grid = ((3, 2), (5, 2), (3, 3), (2, 4))  # suite_lemma6_1's, at seed 0
    samples = [h for p, n in grid for h in suites._slim_sample((0, p, n), make_ctx(p, n), 25)]
    counts = []
    for subs in (slim, samples):
        reports = [[rep.checks for rep in bounds.bound_reports(h)] for h in subs]
        assert reports == [[rep.checks for _, rep in _caught_bound_reports(h)] for h in subs]
        counts.append(sum(map(len, reports)))
    assert counts[1] == 300  # suite_lemma6_1's "300 sampled (H, class) pairs"
    assert counts[0] > 0


@pytest.mark.parametrize("p, n", [(5, 2), (3, 3), (2, 4)])
def test_a_sampled_item_closes_nothing(monkeypatch, p, n):
    # the benchmark's slim item: 20 seeded slim samples and their bound
    # reports.  A sampled H holds H mod p^(n-1) as its walk's lifts, so once
    # a first item has filled the context's memo (G mod p, the kernels K_s),
    # neither the sampler nor a report closes a group at any level
    ctx = make_ctx(p, n)

    def item(seed):
        reports = [list(bounds.bound_reports(h)) for h in sample_slim_subgroups(ctx, 20, random.Random(seed))]
        assert len(reports) == 20 and all(reports)

    item("warm")
    calls, true_fn = [], groups._closure_codes
    for mod in [m for name, m in sys.modules.items() if name.startswith("sl2genus.")]:
        if vars(mod).get("_closure_codes") is true_fn:
            monkeypatch.setattr(mod, "_closure_codes", lambda *args: calls.append(args) or true_fn(*args))
    item("spied")
    assert calls == []


def test_bound_reports_refuse_a_subgroup_that_is_not_slim():
    h = preimage(borel(3), make_ctx(3, 2))
    assert list(_caught_bound_reports(h)) == []
    with pytest.raises(PreconditionError, match="subgroup is not slim"):
        list(bounds.bound_reports(h))


# a ConjClassRef admits only the kinds of groups._KINDS, so every class it
# names has a row of bounds, and slim_bound_report needs no guard of its own
def test_every_class_kind_has_its_bound_kinds():
    assert set(bounds._CLASS_BOUNDS) == set(groups._KINDS)


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
    seeded slim samples at modulus 27 (cor. 6.5's 40 at seed 0, and 10 more)
    at d = 0 and 1.  The oracle builds H_(n-i) and compares V_x on every
    fiber, whatever the sizes."""

    ctx9, lattice = sl2_mod9_subgroups
    cases = [(h, 0) for h in (Subgroup.from_codes(ctx9, c) for c in lattice) if is_slim(h)]
    ctx27 = make_ctx(3, 3)
    hs = suites._slim_sample((0, "cor65"), ctx27, 40) + sample_slim_subgroups(ctx27, 10, random.Random(31))
    cases += [(h, d) for h in hs for d in (0, 1)]
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

    def failing_report(h, ref, plan):
        rep = bounds.SlimBoundReport()
        rep.add("forced", False, "x")
        return rep

    monkeypatch.setattr(suites, "delta", lambda h: Fraction(0))
    monkeypatch.setattr(bounds, "_report", failing_report)
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


# ---- the report as it read before it shared one plan and one count per level ----


def _old_count_reduced(h, ref, level):
    """#(H mod p^level n Conj mod p^level), recounted on every call."""
    from sl2genus.groups import class_codes

    return len(h.reduced(level).codes() & class_codes(ConjClassRef(make_ctx(h.ctx.p, level), ref.kind, ref.r)))


def _old_y_sets(h, ref, y0, idxs):
    """Y_0 = y0 and Y_i = {x in Y_0 : H_(N-i) = V_x}: H_(N-i) built and V_x
    compared for each x in Y_0, whatever the sizes."""
    from sl2genus.bounds import _v_codes
    from sl2genus.core import decoder
    from sl2genus.fibers import FiberDescriptor
    from sl2genus.subgroups import filtration_level

    ctx, dec, depth = h.ctx, decoder(h.ctx), h.ctx.n - ref.r
    out = {0: y0}
    for i in idxs:
        desc = FiberDescriptor(ctx.p, ref.r, depth, depth - i, ref.kind)
        filt = filtration_level(h, ctx.n - i).codes()
        out[i] = frozenset(c for c in y0 if filt == _v_codes(desc, dec(c)))
    return out


def _old_mod_count(ctx, codes, level):
    from sl2genus.core import reducer

    return len(set(map(reducer(ctx, level), codes)))


def _old_slim_bound_report(h, ref):
    """The checks of slim_bound_report as it read when each count looked up
    its plan and recounted its level, and the chains compared V_x with
    H_(N-i) for every x in Y_0: the oracle of the shared counts and of the
    fiber work the report skips."""
    from sl2genus.bounds import _CLASS_BOUNDS, _corrected, _filtration_checks
    from sl2genus.fibers import recovery_count
    from sl2genus.groups import class_codes

    ctx, p, r = h.ctx, h.ctx.p, ref.r
    depth = ctx.n - r
    y0 = h.codes() & class_codes(ref)
    cnt, checks = len(y0), []
    for kind in _CLASS_BOUNDS[ref.kind]:
        try:
            k, bound = _corrected(kind, p, depth)
        except PreconditionError:
            continue
        rhs = bound(_old_count_reduced(h, ref, r + k))
        checks.append((kind, cnt <= rhs, "%d <= %d" % (cnt, rhs)))
    checks.append(("filtration", *_filtration_checks(h)))
    if p >= 3:
        l = depth // 2
        idxs = list(range(1, l + 1))
        y = _old_y_sets(h, ref, y0, idxs)
        m = {i: _old_mod_count(ctx, y[i], r + i) for i in idxs}
        checks.append(("chain:last", len(y[l]) <= p ** (2 * (depth - l)) * m[l], ""))
        for i in idxs[1:] + [1]:
            rhs = p ** (depth - 1) * (_old_mod_count(ctx, y[i - 1], r + i) - m[i])
            checks.append(("chain:step%d" % i if i > 1 else "chain:first", len(y[i - 1] - y[i]) <= rhs, ""))
        total = (p ** (2 * (depth - l)) - p ** (depth - 1)) * m[l]
        total += (p * p - 1) * p ** (depth - 1) * sum(m[i] for i in range(1, l))
        total += p ** (depth - 1) * _old_count_reduced(h, ref, r + 1)
        checks.append(("chain:total", cnt <= total, "%d <= %d" % (cnt, total)))
        checks += [("chain:recovery%d" % i, m[i] <= recovery_count(ref.kind, p, depth, depth - i), "") for i in idxs]
        return checks
    short = {"sigma": (2, 2, 2), "u_power": (3, r + 3, 4)}.get(ref.kind)
    if short is None or not short[0] < depth <= short[0] + 3:
        return checks
    k, level, cap = short
    y = _old_y_sets(h, ref, y0, [1])
    m1, m0 = _old_mod_count(ctx, y[1], level), _old_mod_count(ctx, y[0], level)
    checks.append(("chain:last", len(y[1]) <= 2 ** (2 * (depth - k)) * m1, ""))
    checks.append(("chain:first", len(y[0] - y[1]) <= 2 ** (depth - k) * (m0 - m1), ""))
    total = (2 ** (2 * (depth - k)) - 2 ** (depth - k)) * m1 + 2 ** (depth - k) * m0
    checks.append(("chain:total", cnt <= total, "%d <= %d" % (cnt, total)))
    checks.append(("chain:recovery1", m1 <= cap, ""))
    return checks


def _oracle_inputs(sl2_mod9_subgroups):
    """(name, slim subgroups): the 441 slim subgroups of SL2(Z/9Z), 40 of each
    criterion-9 stream at 25, 27 and 16, and the samples of lemma 6.1 and of
    desk parts 5-7 at seed 0."""
    from sl2genus.subgroups import standard_subgroup
    from sl2genus.suites import _DESK_SAMPLES, _desk_cases, _desk_sample, _slim_sample

    ctx9, lattice = sl2_mod9_subgroups
    out = [("SL2(Z/9Z)", [h for h in (Subgroup.from_codes(ctx9, c) for c in lattice) if is_slim(h)])]
    for p, n in ((5, 2), (3, 3), (2, 4)):
        rng = random.Random((p, n, "criterion9").__repr__())
        out.append(("criterion9 %d^%d" % (p, n), sample_slim_subgroups(make_ctx(p, n), 40, rng)))
    grid = ((3, 2), (5, 2), (3, 3), (2, 4))
    out.append(("lemma6.1", [h for p, n in grid for h in _slim_sample((0, p, n), make_ctx(p, n), 25)]))
    for part in (5, 6, 7):
        subs = []
        for p, n, kinds, note in _desk_cases(part):
            for k in kinds:
                target = standard_subgroup("full" if k == "SL" else k, p)
                label = "%s@%d^%d%s" % (k, p, n, note)
                subs += _desk_sample(part, label, make_ctx(p, n), target, _DESK_SAMPLES[part], 0)[0]
        out.append(("desk part %d" % part, subs))
    return out


def _met_fibers(h, ref):
    """The i at which some x in Y_0 has V_x = H_(N-i), by the old route."""
    y0 = bounds._class_in(h, ref)
    l = (h.ctx.n - ref.r) // 2 if h.ctx.p >= 3 else 1
    return [i for i, y in _old_y_sets(h, ref, y0, range(1, l + 1)).items() if i and y] if y0 else []


def test_slim_bound_report_matches_the_old_report(sl2_mod9_subgroups):
    """Every report on the oracle's inputs has the checks of the old report,
    which recounted each level and compared V_x for each x in Y_0; some Y_i is
    non-empty on each input, so the fiber comparison is exercised."""
    reports = 0
    for name, subs in _oracle_inputs(sl2_mod9_subgroups):
        assert subs, name
        met = 0
        for h in subs:
            for ref, rep in _caught_bound_reports(Subgroup.from_codes(h.ctx, h.codes())):
                assert rep.checks == _old_slim_bound_report(h, ref), (name, h.order, ref)
                met += any(c[0] == "chain:last" for c in rep.checks) and bool(_met_fibers(h, ref))
                reports += 1
        assert met, name
    assert reports > 2000


def test_bound_reports_looks_up_each_class_plan_once(monkeypatch):
    """bound_reports asks each of the n + 1 classes of an H for its plan once, and a
    class with a bound hands that plan to its report: lemma 6.1 at seed 0 makes 375
    lookups for its 300 reports on 100 subgroups, where a second lookup per report
    made 675."""
    plans, per_h = [], []
    true_plan, true_reports = bounds._bound_plan, bounds.bound_reports
    monkeypatch.setattr(bounds, "_bound_plan", lambda ref: plans.append(ref) or true_plan(ref))

    def reports(h):
        del plans[:]
        got = list(true_reports(h))
        per_h.append((h.ctx.n, len(got), list(plans)))
        return iter(got)

    monkeypatch.setattr(suites, "bound_reports", reports)
    assert suite_lemma6_1(0) == (True, "filtration and closed-form bounds on 300 sampled (H, class) pairs")
    assert len(per_h) == 100 and sum(got for _, got, _ in per_h) == 300
    for n, _, refs in per_h:
        assert len(refs) == len(set(refs)) == n + 1
    assert sum(len(refs) for _, _, refs in per_h) == 375


def test_a_report_reads_its_plan_once_and_no_layer_for_an_empty_class(monkeypatch, sl2_mod9_subgroups):
    """One _bound_plan lookup per slim_bound_report; no filtration_level read
    for an H whose Y_0 is empty; and no V_x read where #H_(N-i) is not p^(2i)."""
    plans, layers, fibers = [], [], []
    true_plan, true_layer, true_v = bounds._bound_plan, bounds.filtration_level, bounds._v_codes
    monkeypatch.setattr(bounds, "_bound_plan", lambda ref: plans.append(ref) or true_plan(ref))
    monkeypatch.setattr(bounds, "filtration_level", lambda h, s: layers.append(s) or true_layer(h, s))
    monkeypatch.setattr(bounds, "_v_codes", lambda desc, x: fibers.append(desc) or true_v(desc, x))
    empty = sized = 0
    for name, subs in _oracle_inputs(sl2_mod9_subgroups)[:4]:
        for h in subs:
            ctx = h.ctx
            refs = [ConjClassRef(ctx, "sigma"), ConjClassRef(ctx, "tau")] + [u_power_ref(ctx, r) for r in range(ctx.n - 1)]
            for ref in refs:
                if not true_plan(ref).bounds:
                    continue
                fresh = Subgroup.from_codes(ctx, h.codes())
                y0 = bounds._class_in(fresh, ref)
                del plans[:], layers[:], fibers[:]
                slim_bound_report(fresh, ref)
                assert plans == [ref]
                if not y0:
                    assert layers == [] and fibers == []
                    empty += 1
                for s in set(layers):
                    if len(true_layer(fresh, s).codes()) != ctx.p ** (2 * (ctx.n - s)):
                        assert all(d.n - d.m != ctx.n - s for d in fibers), (name, s)  # d.n - d.m is its i
                        sized += 1
    assert empty > 100 and sized > 100


def _ladder_oracle(h, ref):
    """The closed-form checks and the p = 2 short chain of slim_bound_report,
    written as one if/elif branch per class, prime and depth, with every
    correction term spelled out (the form they had before the kind table)."""
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
        return _old_count_reduced(h, ref, level)

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
        y = _old_y_sets(h, ref, y0, [1])
        m1, m0 = _old_mod_count(ctx, y[1], 2), _old_mod_count(ctx, y[0], 2)
        chain.append(("chain:last", len(y[1]) <= 2 ** (2 * (depth - 2)) * m1, ""))
        chain.append(("chain:first", len(y[0] - y[1]) <= 2 ** (depth - 2) * (m0 - m1), ""))
        total = (2 ** (2 * (depth - 2)) - 2 ** (depth - 2)) * m1 + 2 ** (depth - 2) * m0
        chain.append(("chain:total", cnt <= total, "%d <= %d" % (cnt, total)))
        chain.append(("chain:recovery1", m1 <= 2, ""))
    elif p == 2 and ref.kind == "u_power" and 4 <= depth <= 6:
        y = _old_y_sets(h, ref, y0, [1])
        m1, m0 = _old_mod_count(ctx, y[1], r + 3), _old_mod_count(ctx, y[0], r + 3)
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

    from sl2genus.bounds import SlimBoundReport, _bound_plan, _class_in, _filtration_checks, _y_sets
    from sl2genus.subgroups import filtration_level

    ctx9, lattice = sl2_mod9_subgroups
    subs = [h for h in (Subgroup.from_codes(ctx9, c) for c in sorted(lattice, key=sorted)) if is_slim(h)]
    for p, n in ((5, 2), (3, 3), (2, 4)):
        subs += sample_slim_subgroups(make_ctx(p, n), 10, random.Random("memo-%d-%d" % (p, n)))
    rows = []
    nonempty = 0
    for h in subs:
        ctx = h.ctx
        rep = SlimBoundReport()
        rep.add("filtration", *_filtration_checks(h))
        rows.append(repr(rep.checks))
        if ctx.p == 2:
            refs = [(ConjClassRef(ctx, "sigma"), [1]), (u_power_ref(ctx, 0), [1])]
        else:
            refs = [ConjClassRef(ctx, "sigma"), ConjClassRef(ctx, "tau")]
            refs += [u_power_ref(ctx, r) for r in range(ctx.n - 1)]
            refs = [(ref, list(range(1, (ctx.n - ref.r) // 2 + 1))) for ref in refs]
        for ref, idxs in refs:
            y = _y_sets(h, _bound_plan(ref), _class_in(h, ref), idxs)
            nonempty += any(y[i] for i in idxs)
            rows.append(repr(sorted((i, sorted(v)) for i, v in y.items())))
        for s in range(1, ctx.n + 1):
            assert filtration_level(h, s) is filtration_level(h, s)
    assert (len(subs), nonempty) == (471, 27)
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == "1abb11ddf3d17f94bf982a884570962799c6edeced3fd7388d403408f713e6a8"


def _all_pairs_filtration(p, sizes):
    """(ok, the last violation) of #H_t <= #H_s p^(2(s-t)) over every pair t < s of sizes."""
    ok, detail = True, ""
    for t in sorted(sizes)[:-1]:
        for s in range(t + 1, max(sizes) + 1):
            if sizes[t] > sizes[s] * p ** (2 * (s - t)):
                ok, detail = False, "H_%d/H_%d = %d > p^%d" % (t, s, sizes[t] // sizes[s], 2 * (s - t))
    return ok, detail


class _Layers:
    """H as _filtration_checks reads it: #H and the size of each H mod p^s."""

    def __init__(self, ctx, order, reduced_sizes):
        self.ctx, self.order, self._reduced, self._sizes = ctx, order, {}, reduced_sizes

    def reduced(self, s):
        return Subgroup.from_codes(self.ctx, range(self._sizes[s]))


def test_the_filtration_check_compares_adjacent_layers_alone(sl2_mod9_subgroups):
    # #H_t <= #H_(t+1) p^2 for t0 <= t < n gives every pair by induction, so
    # the adjacent loop reads ok as the all-pairs loop does; a failing detail
    # names (T, T+1), T the greatest t of a violation, where the all-pairs
    # loop named (T, s) for its greatest violating s
    from sl2genus.bounds import _filtration_checks
    from sampling import sample_subgroups

    ctx9, lattice = sl2_mod9_subgroups
    subs = [h for h in (Subgroup.from_codes(ctx9, c) for c in sorted(lattice, key=sorted)) if is_slim(h)]
    for p, n in ((3, 3), (2, 4), (2, 5)):
        ctx, rng = make_ctx(p, n), random.Random("filtration-%d-%d" % (p, n))
        subs += sample_slim_subgroups(ctx, 5, rng) + sample_subgroups(ctx, 10, rng)
    fails = 0
    for h in subs:
        t0 = 2 if h.ctx.p == 2 else 1
        sizes = {s: h.order // len(h.reduced(s).codes()) for s in range(t0, h.ctx.n + 1)}
        (ok, detail), (want, old) = _filtration_checks(h), _all_pairs_filtration(h.ctx.p, sizes)
        assert ok == want, h
        if not ok:
            fails += 1
            t = int(old[2 : old.index("/")])
            assert detail.startswith("H_%d/H_%d = " % (t, t + 1)), (detail, old)
    assert fails > 0
    # #H_1 = 243, #H_2 = 27 and #H_3 = 1 at p = 3 break (1, 3), as 243 > 3^4, and (2, 3)
    h = _Layers(make_ctx(3, 3), 243, {1: 1, 2: 9, 3: 243})
    assert _all_pairs_filtration(3, {1: 243, 2: 27, 3: 1}) == (False, "H_2/H_3 = 27 > p^2")
    assert _filtration_checks(h) == (False, "H_2/H_3 = 27 > p^2")


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

    from sl2genus.suites import _DESK_SAMPLES, _desk_cases, _desk_sample
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
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # a class reference or fiber descriptor is built only through its constructor, __new__
    monkeypatch.setattr(bounds, "bound_sequence", counted(bounds.bound_sequence, "bound_sequence"))
    monkeypatch.setattr(ConjClassRef, "__new__", counted(ConjClassRef.__new__, "ConjClassRef"))
    monkeypatch.setattr(FiberDescriptor, "__new__", counted(FiberDescriptor.__new__, "FiberDescriptor"))
    assert ConjClassRef(ctx, "sigma") and calls["ConjClassRef"] == 1  # the patch sees a construction
    calls["ConjClassRef"] = 0
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


def test_the_fiber_count_check_refuses_i_and_d_outside_its_hypotheses():
    # i >= 1, d >= 0 and 2i + d <= n - r; at p = 2, tau needs d >= 1.  Each is refused before H is read;
    # an i with no fiber V (p = 2) is refused once the class is read
    h = closure([upper_u(make_ctx(2, 4))], make_ctx(2, 4))
    for ref, i, d, refusal in (
        (ConjClassRef(h.ctx, "sigma"), 0, 0, "hypotheses of the fiber-count bound violated"),
        (ConjClassRef(h.ctx, "sigma"), 2, 1, "hypotheses of the fiber-count bound violated"),
        (ConjClassRef(h.ctx, "tau"), 1, 0, "p=2 tau needs d >= 1"),
    ):
        with pytest.raises(PreconditionError, match=refusal):
            fiber_count_bound_check(h, ref, i, d)
    # at 4, i = 1 meets the hypotheses, and no sigma fiber V^(2, 1) exists at p = 2
    c4 = make_ctx(2, 2)
    with pytest.raises(PreconditionError, match="p=2 sigma fibers need m >= 2"):
        fiber_count_bound_check(closure([upper_u(c4)], c4), ConjClassRef(c4, "sigma"), 1, 0)


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
