"""Property tests for the breadth-first orbit kernel and its callers.

The oracles are independent reference routines: a closure that also steps
by every inverse generator (``groups.capped_orbit`` steps by the generators
alone, which is enough in a finite group), and three separate primitive-root
finders for p, p^2 and p^n that ``core.primitive_root`` must agree with.
"""

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
    make_ctx,
    primitive_root,
    sigma,
)
from sl2genus.groups import ConjClassRef, class_codes, conj_class_brute, enumerate_group, gl2_generators
from sl2genus.subgroups import Subgroup, full_group

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
