"""Property tests for the closure and orbit kernels and their callers.

The oracles are independent reference routines: a breadth-first closure
that also steps by every inverse generator (``groups.extend_closure`` adds
whole cosets and steps by the generators alone, which is enough in a finite
group), the number of products its right-coset walk forms (each coset of H
in <H, g> tested once per step and mapped whole at most once), the lattice
search as it was before it extended subgroups (it closed every candidate from
the identity, with a table of direct products), conjugation and centralizers
on decoded matrices for ``core.conjugator`` and its callers, and three
separate primitive-root finders for p, p^2 and p^n that
``core.primitive_root`` must agree with, and the brute-force span in F_p^3
for the rank test of the Schreier walk (``subgroups._in_span``).

GL2 stays an input domain next to SL2: its subgroups close on codes through
``groups._closure_codes`` (a Subgroup lies in SL2), and its classes, built in
conftest.py as unions of SL2 classes, are checked against conjugation over all
of GL2.
"""

import hashlib
import json
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sl2genus import core, subgroups
from sl2genus.core import (
    DEFAULT_MAX_ELEMENTS,
    FeasibilityError,
    NotInvertibleError,
    _inv,
    _mul,
    conjugator,
    decoder,
    encoder,
    factorize,
    identity,
    is_prime,
    lower_u,
    make_ctx,
    primitive_root,
    row_table,
    sigma,
    upper_u,
)
from sl2genus.groups import (
    ConjClassRef,
    _closure_codes,
    capped_orbit,
    centralizer_brute,
    class_codes,
    conj_class_brute,
    enumerate_group,
    extend_closure,
)
from sl2genus.subgroups import Subgroup, _in_span, all_subgroups, borel, full_group
from sl2genus.suites import suite_cor6_5

CONTEXTS = ((2, 2), (3, 2), (5, 1), (2, 3))
AMBIENTS = ("SL2", "GL2")


def _old_closure(gens, ctx):
    """Breadth-first closure stepping by each generator and its inverse."""
    m = ctx.modulus
    enc = encoder(ctx)
    step = []
    for g in gens:
        step += [g, _inv(g, m)]
    one = identity(ctx)
    seen = {enc(one)}
    frontier = [one]
    while frontier:
        nxt = []
        for x in frontier:
            for g in step:
                z = _mul(x, g, m)
                if enc(z) not in seen:
                    seen.add(enc(z))
                    nxt.append(z)
        frontier = nxt
    return frozenset(seen)


def _generators(ctx, ambient):
    """u, t(u), and for GL2 diagonal matrices generating the determinant image."""
    m = ctx.modulus
    gens = [upper_u(ctx), lower_u(ctx)]
    if ambient == "SL2":
        return gens
    if ctx.p == 2:
        if ctx.n >= 2:
            gens.append(((-1) % m, 0, 0, 1))
        if ctx.n >= 3:
            gens.append((5 % m, 0, 0, 1))
    else:
        gens.append((primitive_root(ctx.p, ctx.n), 0, 0, 1))
    return gens


_AMBIENT_CODES = {}


def _ambient(ctx, ambient):
    """Codes of SL2 or GL2 over Z/p^nZ, computed once per context."""
    key = (ctx, ambient)
    if key not in _AMBIENT_CODES:
        if ambient == "SL2":
            _AMBIENT_CODES[key] = enumerate_group(ctx).codes
        else:
            _AMBIENT_CODES[key] = _old_closure(_generators(ctx, ambient), ctx)
    return _AMBIENT_CODES[key]


def _close(gens, ctx, cap=DEFAULT_MAX_ELEMENTS):
    """The closure kernel on codes; a GL2 subgroup is no Subgroup, so every input closes here."""
    return _closure_codes(gens, ctx, cap)


@st.composite
def subgroup_inputs(draw):
    p, n = draw(st.sampled_from(CONTEXTS))
    ambient = draw(st.sampled_from(AMBIENTS))
    ctx = make_ctx(p, n)
    pool = sorted(_ambient(ctx, ambient))
    dec = decoder(ctx)
    idx = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=3))
    return ctx, ambient, tuple(dec(pool[i]) for i in idx)


@settings(max_examples=60, deadline=None)
@given(subgroup_inputs())
def test_closure_matches_inverse_stepping_oracle(data):
    ctx, ambient, gens = data
    assert _close(gens, ctx) == _old_closure(gens, ctx)


@settings(max_examples=60, deadline=None)
@given(subgroup_inputs())
def test_closure_order_divides_group_order(data):
    ctx, ambient, gens = data
    assert len(_ambient(ctx, ambient)) % len(_close(gens, ctx)) == 0


@st.composite
def extension_inputs(draw):
    """A subgroup input plus one more element g of the same ambient group."""
    ctx, ambient, gens = draw(subgroup_inputs())
    pool = sorted(_ambient(ctx, ambient))
    return ctx, ambient, gens, decoder(ctx)(pool[draw(st.integers(0, len(pool) - 1))])


def _extend(known, gens, new, ctx, cap, products=None):
    """extend_closure on packed codes, gens and new passed as codes; products, if given, counts the products formed."""
    m, enc, dec = ctx.modulus, encoder(ctx), decoder(ctx)

    def right(y):
        def step(x):
            if products is not None:
                products.append(1)
            return enc(_mul(dec(x), dec(y), m))

        return step

    return extend_closure(known, [enc(g) for g in gens], [enc(g) for g in new], right, cap)


@settings(max_examples=60, deadline=None)
@given(extension_inputs())
def test_extending_a_closed_subgroup_matches_the_closure_of_all_generators(data):
    ctx, ambient, gens, g = data
    h = _close(gens, ctx)
    want = _old_closure(gens + (g,), ctx)
    assert _extend(h, gens, (g,), ctx, len(want)) == want
    if want != h:  # the cap boundary: #<H, g> keys pass, one fewer raises
        with pytest.raises(FeasibilityError, match="max-elements"):
            _extend(h, gens, (g,), ctx, len(want) - 1)


@settings(max_examples=40, deadline=None)
@given(extension_inputs())
def test_a_generator_already_inside_changes_nothing(data):
    ctx, ambient, gens, g = data
    h = _close(gens + (g,), ctx)
    products = []
    assert _extend(h, gens + (g,), gens + (g,), ctx, len(h), products) == h
    assert products == []  # no coset is mapped


@st.composite
def new_generator_inputs(draw):
    """A subgroup input, its closure H, and one element g of the ambient group outside H."""
    ctx, ambient, gens = draw(subgroup_inputs())
    h = _close(gens, ctx)
    outside = sorted(_ambient(ctx, ambient) - h)
    assume(outside)
    return ctx, gens, h, decoder(ctx)(outside[draw(st.integers(0, len(outside) - 1))])


@settings(max_examples=40, deadline=None)
@given(new_generator_inputs())
def test_the_walk_meets_each_right_coset_once(data):
    # each of the t = [<H, g> : H] right cosets is tested once per step, on its
    # first member, and each but H is mapped whole once: t (#gens + 1) + (t - 1) #H
    # products in all, so no coset is walked twice and none is missed
    ctx, gens, h, g = data
    want = _old_closure(gens + (g,), ctx)
    products = []
    assert _extend(h, gens, (g,), ctx, len(want), products) == want
    t = len(want) // len(h)
    assert len(products) == t * (len(gens) + 1) + (t - 1) * len(h)


@pytest.mark.parametrize("p, n, builds", [(7, 2, True), (2, 9, False)])
def test_closures_on_both_sides_of_the_table_switch(monkeypatch, p, n, builds):
    # SL2(Z/49Z) maps more codes than the 4,096 slots of a table; <u> at modulus 512 maps 512 of 262,144
    ctx = make_ctx(p, n)
    gens = (upper_u(ctx), lower_u(ctx)) if builds else (upper_u(ctx),)
    built = []
    monkeypatch.setattr(core, "row_table", lambda c, s: built.append(s) or row_table(c, s))
    assert Subgroup(ctx, gens).codes() == _old_closure(gens, ctx)
    assert bool(built) == builds


@settings(max_examples=40, deadline=None)
@given(subgroup_inputs())
def test_closure_cap_boundary(data):
    ctx, ambient, gens = data
    h = _close(gens, ctx)
    assert _close(gens, ctx, cap=len(h)) == h
    if len(h) > 1:  # the identity is known, not seen, so the trivial group never raises
        with pytest.raises(FeasibilityError, match="max-elements"):
            _close(gens, ctx, cap=len(h) - 1)


@settings(max_examples=40, deadline=None)
@given(subgroup_inputs())
def test_closure_is_idempotent(data):
    ctx, ambient, gens = data
    h = _close(gens, ctx)
    assert _close([decoder(ctx)(c) for c in h], ctx) == h


@st.composite
def class_inputs(draw):
    """A context, the group to conjugate in, and x in SL2 (GL2 classes are built from SL2 classes)."""
    ctx = make_ctx(*draw(st.sampled_from(CONTEXTS)))
    pool = sorted(_ambient(ctx, "SL2"))
    return ctx, draw(st.sampled_from(AMBIENTS)), decoder(ctx)(pool[draw(st.integers(0, len(pool) - 1))])


@settings(max_examples=40, deadline=None)
@given(class_inputs())
def test_conj_class_matches_conjugation_over_the_group(gl2_class, data):
    ctx, ambient, x = data
    m = ctx.modulus
    enc = encoder(ctx)
    dec = decoder(ctx)
    want = set()
    for c in _ambient(ctx, ambient):
        g = dec(c)
        want.add(enc(_mul(_inv(g, m), _mul(x, g, m), m)))
    assert (conj_class_brute(x, ctx) if ambient == "SL2" else gl2_class(x, ctx)) == want


@pytest.mark.parametrize("p, n", [(2, 1), (3, 2), (5, 3), (257, 2)])
@pytest.mark.parametrize("ambient", AMBIENTS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_conjugator_maps_codes_as_matrices_conjugate(p, n, ambient, data):
    ctx = make_ctx(p, n)
    m, enc = ctx.modulus, encoder(ctx)
    entries = st.tuples(*[st.integers(0, m - 1)] * 4)
    x = data.draw(entries)
    a, b, c, d = data.draw(entries.filter(lambda g: (g[0] * g[3] - g[1] * g[2]) % p))
    if ambient == "SL2":  # rescale the first column to det 1
        di = pow((a * d - b * c) % m, -1, m)
        a, c = a * di % m, c * di % m
    g = (a, b, c, d)
    assert conjugator(ctx, g)(enc(x)) == enc(_mul(_inv(g, m), _mul(x, g, m), m))
    with pytest.raises(NotInvertibleError):
        conjugator(ctx, (p % m, 0, 0, 1))


@settings(max_examples=40, deadline=None)
@given(class_inputs())
def test_capped_orbit_cap_boundary(data):
    ctx, _, x = data
    steps = [conjugator(ctx, g) for g in (upper_u(ctx), lower_u(ctx))]
    orbit = capped_orbit(encoder(ctx)(x), steps, DEFAULT_MAX_ELEMENTS)
    assert capped_orbit(encoder(ctx)(x), steps, len(orbit)) == orbit
    if len(orbit) > 1:  # the start is seen before any step, so a one-point orbit never raises
        with pytest.raises(FeasibilityError, match="max-elements"):
            capped_orbit(encoder(ctx)(x), steps, len(orbit) - 1)


def _old_centralizer(rep, group):
    """centralizer_brute as it was: the decoded elements g with g rep = rep g."""
    m = group.ctx.modulus
    dec = decoder(group.ctx)
    out = set()
    for c in group.codes:
        g = dec(c)
        if _mul(g, rep, m) == _mul(rep, g, m):
            out.add(c)
    return frozenset(out)


@st.composite
def conjugate_inputs(draw):
    """H = <gens> in SL2 and g in SL2 or GL2 over one of CONTEXTS."""
    ctx = make_ctx(*draw(st.sampled_from(CONTEXTS)))
    dec = decoder(ctx)
    gens = draw(st.lists(st.sampled_from(sorted(_ambient(ctx, "SL2"))), min_size=1, max_size=2))
    g = draw(st.sampled_from(sorted(_ambient(ctx, draw(st.sampled_from(AMBIENTS))))))
    return Subgroup(ctx, tuple(map(dec, gens))), dec(g)


@settings(max_examples=40, deadline=None)
@given(conjugate_inputs())
def test_centralizer_matches_the_old_body(data):
    h, rep = data
    for group in (h.elements(), enumerate_group(h.ctx)):
        assert centralizer_brute(rep, group) == _old_centralizer(rep, group)


def _old_primitive_root_mod_p(p):
    qs = list(factorize(p - 1))
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in qs):
            return g
    raise RuntimeError("no primitive root mod %d" % p)


def _old_primitive_root_mod_p2(p):
    m = p * p
    target = p * (p - 1)
    qs = list(factorize(target))
    for g in range(2, m):
        if g % p and all(pow(g, target // q, m) != 1 for q in qs):
            return g
    raise RuntimeError("no primitive root mod %d" % m)


def _old_primitive_root_mod_pn(p, n):
    m = p**n
    target = (p - 1) * p ** (n - 1)
    qs = list(factorize(target))
    for g in range(2, m):
        if g % p == 0:
            continue
        if all(pow(g, target // q, m) != 1 for q in qs):
            return g
    raise RuntimeError("no primitive root mod %d^%d" % (p, n))


@pytest.mark.parametrize("p", [q for q in range(3, 50) if is_prime(q)])
def test_primitive_root_matches_old_finders(p):
    assert primitive_root(p) == _old_primitive_root_mod_p(p)
    assert primitive_root(p, 2) == _old_primitive_root_mod_p2(p)
    for n in (1, 2, 3):
        g = primitive_root(p, n)
        assert g == _old_primitive_root_mod_pn(p, n)
        assert gcd(g, p) == 1
        assert len({pow(g, k, p**n) for k in range((p - 1) * p ** (n - 1))}) == (p - 1) * p ** (n - 1)


def test_primitive_root_mod_powers_of_two():
    assert primitive_root(2, 2) == _old_primitive_root_mod_pn(2, 2) == 3
    for n in (1, 3):
        with pytest.raises(RuntimeError):
            primitive_root(2, n)


def test_class_cache_respects_a_lower_cap():
    ctx = make_ctx(5, 2)
    ref = ConjClassRef(ctx, "sigma")
    full = class_codes(ref)  # warm the cache
    assert len(full) == 750
    with pytest.raises(FeasibilityError, match="max-elements"):
        class_codes(ref, cap=10)
    assert class_codes(ref, cap=750) == full


def test_group_cache_respects_a_lower_cap():
    ctx = make_ctx(3, 2)
    full = enumerate_group(ctx)  # warm the cache
    assert len(full) == ctx.order == 648
    with pytest.raises(FeasibilityError, match="max-elements"):
        enumerate_group(ctx, cap=ctx.order - 1)
    with pytest.raises(FeasibilityError, match="max-elements"):
        full_group(ctx, cap=ctx.order - 1)
    assert enumerate_group(ctx, cap=ctx.order).codes == full.codes
    assert full_group(ctx, cap=ctx.order).codes() == full.codes


def test_closure_cap_names_the_flag():
    ctx = make_ctx(3, 2)
    h = Subgroup(ctx, (sigma(ctx), (1, 1, 0, 1)), cap=50)
    with pytest.raises(FeasibilityError, match="max-elements"):
        h.codes()


def _old_all_subgroups(universe, conjugacy_gens=None):
    """The lattice search as it was: a table of direct products, and every
    candidate <hgens, cgen> closed from the identity by capped_orbit.  Without
    conjugacy_gens it extends every subgroup: the tests' plain lattice."""
    ctx = universe.ctx
    dec, enc, m = decoder(ctx), encoder(ctx), ctx.modulus
    codes = sorted(universe.codes)
    index = {c: i for i, c in enumerate(codes)}
    k = len(codes)
    mats = [dec(c) for c in codes]
    table = [[index[enc(_mul(x, y, m))] for y in mats] for x in mats]

    def mul(i, j):
        return table[i][j]

    e = index[enc(identity(ctx))]
    cyc = {}
    for i in range(k):
        orbit = [e]
        j = i
        while j != e:
            orbit.append(j)
            j = mul(j, i)
        if len(factorize(len(orbit))) == 1:
            cyc.setdefault(frozenset(orbit), i)
    pool = sorted(cyc.items(), key=lambda kv: (len(kv[0]), kv[1]))
    conj_perm = []
    for g in conjugacy_gens or ():
        gi = _inv(g, m)
        conj_perm.append([index[enc(_mul(gi, _mul(x, g, m), m))] for x in mats])

    def conjugate(s, perm):
        return frozenset(perm[x] for x in s)

    trivial = frozenset([e])
    seen_all = {trivial: None}
    reps = [(trivial, ())]
    wl = 0
    while wl < len(reps):
        h, hgens = reps[wl]
        wl += 1
        for cset, cgen in pool:
            if cset <= h:
                continue
            kgens = hgens + (cgen,)
            knew = capped_orbit(e, [lambda x, g=g: mul(x, g) for g in kgens], k)
            if knew in seen_all:
                continue
            for t in capped_orbit(knew, [lambda s, perm=perm: conjugate(s, perm) for perm in conj_perm], k):
                seen_all[t] = None
            reps.append((knew, kgens))
    return [frozenset(codes[i] for i in s) for s in seen_all]


def _lattice_digest(subgroups):
    return hashlib.sha256(json.dumps([sorted(s) for s in subgroups]).encode()).hexdigest()


@pytest.mark.parametrize(
    "universe, u_and_tu",
    [
        ("SL2(Z/4Z)", False),
        ("SL2(Z/4Z)", True),
        ("SL2(Z/8Z)", True),
        ("SL2(Z/9Z)", True),
        ("borel(23)", False),
        ("SL2(Z/5Z)", False),  # SL2(Z/5Z) and SL2(Z/7Z) are not solvable: some subgroups
        ("SL2(Z/5Z)", True),  # are reached through no normal subgroup of prime index
        ("SL2(Z/7Z)", True),
    ],
)
def test_lattice_matches_the_reclosing_oracle(universe, u_and_tu):
    # same subgroups in the same order: each extension is the same frozenset the oracle closes.
    # The conjugators are u and t(u), or else the universe's own generators: B's, or those
    # _generators picks from SL2's codes, as desk part 1 does for an E: container
    if universe == "borel(23)":  # the desk part-1 container at p = 23
        container = borel(23)
    else:
        p, n = {
            "SL2(Z/4Z)": (2, 2),
            "SL2(Z/8Z)": (2, 3),
            "SL2(Z/9Z)": (3, 2),
            "SL2(Z/5Z)": (5, 1),
            "SL2(Z/7Z)": (7, 1),
        }[universe]
        ctx = make_ctx(p, n)
        container = Subgroup.from_codes(ctx, enumerate_group(ctx).codes)
    elements, ctx = container.elements(), container.ctx
    gens = [upper_u(ctx), lower_u(ctx)] if u_and_tu else list(container.gens or subgroups._generators(container))
    assert all_subgroups(elements, conjugacy_gens=gens) == _old_all_subgroups(elements, conjugacy_gens=gens)


def test_lattice_extends_once_per_conjugation_orbit_of_the_pool(monkeypatch):
    # <H, Z^x> = <H, Z>^x for x in N(H), and each new subgroup is recorded with its whole
    # conjugacy orbit, so H is extended by one Z per N(H)-orbit: 548 extensions (cap k/2)
    # and 67 normalizer closures (cap k, one per Schreier generator that enlarges N(K)),
    # 615 closures in all, where one Z per H-orbit made 1,263 and one closure per candidate 4,384
    caps = []
    monkeypatch.setattr("sl2genus.subgroups.extend_closure", lambda *a: caps.append(a[-1]) or extend_closure(*a))
    ctx = make_ctx(3, 2)
    assert len(all_subgroups(enumerate_group(ctx), conjugacy_gens=[upper_u(ctx), lower_u(ctx)])) == 456
    assert (caps.count(324), caps.count(648), len(caps)) == (548, 67, 615)


@pytest.mark.parametrize("p, n", [(2, 2), (2, 3), (3, 2), (5, 1), (7, 1)])
def test_lattice_normalizers_match_the_brute_force_stabilizers(monkeypatch, p, n):
    # the conjugacy cases of the reclosing oracle: N(K) of each class representative K is
    # K closed (cap k) with the Schreier generators of its orbit walk that enlarge it, one
    # closure each, and K itself when none does; each is {x : x^-1 K x = K}, tested at every
    # x of the universe, for every K the search extends but the trivial one (N(1) = G is
    # seeded, not read from an orbit)
    elements = enumerate_group(make_ctx(p, n))
    ctx, k = elements.ctx, len(elements)
    extended, normalizers, last = set(), {}, []

    def spy(known, gens, new, right, cap):
        got = extend_closure(known, gens, new, right, cap)
        if cap < k:
            extended.add(known)
        else:  # one more generator of N(K), for the K whose chain of closures it continues
            rep = last[1] if last and last[0] is known else known
            last[:] = [got, rep]
            normalizers[rep] = got
        return got

    monkeypatch.setattr("sl2genus.subgroups.extend_closure", spy)
    all_subgroups(elements, conjugacy_gens=[upper_u(ctx), lower_u(ctx)])
    dec, enc, m = decoder(ctx), encoder(ctx), ctx.modulus
    codes = sorted(elements.codes)  # the search's indices
    index = {c: i for i, c in enumerate(codes)}
    mats = [dec(c) for c in codes]
    inv = [index[enc(_inv(x, m))] for x in mats]
    table = [[index[enc(_mul(x, y, m))] for y in mats] for x in mats]
    reps = {rep for rep in extended | set(normalizers) if len(rep) > 1}
    assert normalizers and set(normalizers) <= reps
    for rep in reps:
        assert normalizers.get(rep, rep) == {x for x in range(k) if all(table[table[inv[x]][g]][x] in rep for g in rep)}


def test_cor6_5_suite_checks_every_slim_subgroup_of_the_lattice():
    # the one suite that drives the lattice search with conjugacy; its count before the pruning
    assert suite_cor6_5(0) == (True, "1563 fiber-count checks")


def test_sl2_mod9_lattice_hashes_as_before_the_extension(sl2_mod9_subgroups):
    # SHA-256 of the ordered lattice, computed with the search that closed every candidate from the identity
    _, subs = sl2_mod9_subgroups
    assert len(subs) == 456
    assert _lattice_digest(subs) == "ee94a983f4e4a4d57d4435a6186eb5918cb8f12aab3b24299460513751e9cbb8"


def _brute_span(basis, p):
    """Every F_p-combination of the basis vectors of F_p^3."""
    span = {(0, 0, 0)}
    for v in basis:
        span = {tuple((a + j * b) % p for a, b in zip(s, v)) for s in span for j in range(p)}
    return span


@st.composite
def span_inputs(draw):
    """(p, an independent basis of at most two vectors of F_p^3, a vector w);
    half the w are drawn from the span, so both answers come up."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    vec = st.tuples(*[st.integers(0, p - 1)] * 3)
    basis = []
    for v in draw(st.lists(vec, max_size=2)):
        if v not in _brute_span(basis, p):
            basis.append(v)
    if draw(st.booleans()):
        w = draw(st.sampled_from(sorted(_brute_span(basis, p))))
    else:
        w = draw(vec)
    return p, basis, w


@settings(max_examples=300, deadline=None)
@given(span_inputs())
def test_the_rank_test_matches_the_brute_force_span(data):
    # the cross product (one basis vector) or the determinant (two) against the span itself
    p, basis, w = data
    assert _in_span(basis, w, p) == (w in _brute_span(basis, p))
