"""Property tests for the closure and orbit kernels and their callers.

The oracles are independent reference routines: a breadth-first closure
that also steps by every inverse generator (``groups.extend_closure`` adds
whole cosets and steps by the generators alone, which is enough in a finite
group), the lattice search as it was before it extended subgroups (it closed
every candidate from the identity, with a table of direct products), and
three separate primitive-root finders for p, p^2 and p^n that
``core.primitive_root`` must agree with.
"""

import hashlib
import json
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2genus.core import (
    FeasibilityError,
    _inv,
    _mul,
    decoder,
    encoder,
    factorize,
    identity,
    is_prime,
    lower_u,
    make_ctx,
    primitive_root,
    sigma,
    upper_u,
)
from sl2genus.groups import (
    ConjClassRef,
    capped_orbit,
    class_codes,
    conj_class_brute,
    enumerate_group,
    extend_closure,
    gl2_generators,
)
from sl2genus.subgroups import Subgroup, all_subgroups, borel, full_group

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


_AMBIENT_CODES = {}


def _ambient(ctx, ambient):
    """Codes of SL2 or GL2 over Z/p^nZ, computed once per context."""
    key = (ctx, ambient)
    if key not in _AMBIENT_CODES:
        if ambient == "SL2":
            _AMBIENT_CODES[key] = enumerate_group(ctx).codes
        else:
            _AMBIENT_CODES[key] = _old_closure(gl2_generators(ctx), ctx)
    return _AMBIENT_CODES[key]


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
    h = Subgroup(ctx, gens, ambient)
    assert h.codes() == _old_closure(gens, ctx)


@settings(max_examples=60, deadline=None)
@given(subgroup_inputs())
def test_closure_order_divides_group_order(data):
    ctx, ambient, gens = data
    h = Subgroup(ctx, gens, ambient)
    assert len(_ambient(ctx, ambient)) % h.order == 0


@st.composite
def extension_inputs(draw):
    """A subgroup input plus one more element g of the same ambient group."""
    ctx, ambient, gens = draw(subgroup_inputs())
    pool = sorted(_ambient(ctx, ambient))
    return ctx, ambient, gens, decoder(ctx)(pool[draw(st.integers(0, len(pool) - 1))])


def _extend(known, gens, new, ctx, cap, products=None):
    """extend_closure on packed codes; products, if given, counts the products formed."""
    m = ctx.modulus

    def mul(x, y):
        if products is not None:
            products.append(1)
        return _mul(x, y, m)

    return extend_closure(known, gens, new, mul, encoder(ctx), decoder(ctx), cap)


@settings(max_examples=60, deadline=None)
@given(extension_inputs())
def test_extending_a_closed_subgroup_matches_the_closure_of_all_generators(data):
    ctx, ambient, gens, g = data
    h = Subgroup(ctx, gens, ambient).codes()
    want = _old_closure(gens + (g,), ctx)
    assert _extend(h, gens, (g,), ctx, len(want)) == want
    if want != h:  # the cap boundary: #<H, g> keys pass, one fewer raises
        with pytest.raises(FeasibilityError, match="max-elements"):
            _extend(h, gens, (g,), ctx, len(want) - 1)


@settings(max_examples=40, deadline=None)
@given(extension_inputs())
def test_a_generator_already_inside_changes_nothing(data):
    ctx, ambient, gens, g = data
    h = Subgroup(ctx, gens + (g,), ambient).codes()
    products = []
    assert _extend(h, gens + (g,), gens + (g,), ctx, len(h), products) == h
    assert products == []


@settings(max_examples=40, deadline=None)
@given(subgroup_inputs())
def test_closure_cap_boundary(data):
    ctx, ambient, gens = data
    h = Subgroup(ctx, gens, ambient).codes()
    assert Subgroup(ctx, gens, ambient, cap=len(h)).codes() == h
    if len(h) > 1:  # the identity is known, not seen, so the trivial group never raises
        with pytest.raises(FeasibilityError, match="max-elements"):
            Subgroup(ctx, gens, ambient, cap=len(h) - 1).codes()


@settings(max_examples=40, deadline=None)
@given(subgroup_inputs())
def test_closure_is_idempotent(data):
    ctx, ambient, gens = data
    h = Subgroup(ctx, gens, ambient)
    again = Subgroup(ctx, tuple(h.mats()), ambient)
    assert again.codes() == h.codes()


@settings(max_examples=40, deadline=None)
@given(subgroup_inputs())
def test_conj_class_matches_conjugation_over_the_group(data):
    ctx, ambient, gens = data
    x = gens[0]
    m = ctx.modulus
    enc = encoder(ctx)
    dec = decoder(ctx)
    want = set()
    for c in _ambient(ctx, ambient):
        g = dec(c)
        want.add(enc(_mul(_inv(g, m), _mul(x, g, m), m)))
    assert conj_class_brute(x, ctx, ambient=ambient).codes == want


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
    candidate <hgens, cgen> closed from the identity by capped_orbit."""
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
            knew = capped_orbit(e, kgens, mul, None, k)
            if knew in seen_all:
                continue
            for t in capped_orbit(knew, conj_perm, conjugate, None, k):
                seen_all[t] = None
            reps.append((knew, kgens))
    return [frozenset(codes[i] for i in s) for s in seen_all]


def _lattice_digest(subgroups):
    return hashlib.sha256(json.dumps([sorted(s) for s in subgroups]).encode()).hexdigest()


@pytest.mark.parametrize(
    "universe, conjugate",
    [
        ("SL2(Z/4Z)", False),
        ("SL2(Z/4Z)", True),
        ("SL2(Z/8Z)", False),
        ("SL2(Z/8Z)", True),
        ("SL2(Z/9Z)", True),
        ("borel(23)", False),
    ],
)
def test_lattice_matches_the_reclosing_oracle(universe, conjugate):
    # same subgroups in the same order: each extension is the same frozenset the oracle closes
    if universe == "borel(23)":  # the desk part-1 container at p = 23
        elements = borel(23).elements()
    else:
        p, n = {"SL2(Z/4Z)": (2, 2), "SL2(Z/8Z)": (2, 3), "SL2(Z/9Z)": (3, 2)}[universe]
        elements = enumerate_group(make_ctx(p, n))
    gens = [upper_u(elements.ctx), lower_u(elements.ctx)] if conjugate else None
    assert all_subgroups(elements, conjugacy_gens=gens) == _old_all_subgroups(elements, conjugacy_gens=gens)


def test_sl2_mod9_lattice_hashes_as_before_the_extension(sl2_mod9_subgroups):
    # SHA-256 of the ordered lattice, computed with the search that closed every candidate from the identity
    _, subs = sl2_mod9_subgroups
    assert len(subs) == 456
    assert _lattice_digest(subs) == "ee94a983f4e4a4d57d4435a6186eb5918cb8f12aab3b24299460513751e9cbb8"
