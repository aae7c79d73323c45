import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2genus.core import (
    _mul,
    NotInvertibleError,
    ReductionError,
    decoder,
    encoder,
    factorize,
    format_mat,
    identity,
    make_ctx,
    mat,
    mat_pow,
    minus_one,
    neg,
    parse_mat,
    product_codes,
    reduce_mat,
    reducer,
    sigma,
    tau,
    upper_u,
)
from sl2genus.groups import enumerate_group


def _det(x, m):
    return (x[0] * x[3] - x[1] * x[2]) % m


def test_context_validates_prime():
    with pytest.raises(ValueError):
        make_ctx(6, 1)
    with pytest.raises(ValueError):
        make_ctx(1, 2)
    with pytest.raises(ValueError):
        make_ctx(5, 0)


def test_group_order_field():
    assert make_ctx(2, 2).order == 48
    assert make_ctx(3, 2).order == 648
    assert make_ctx(5, 2).order == 15000


def test_identity_neutral():
    ctx = make_ctx(7, 1)
    s = sigma(ctx)
    assert _mul(identity(ctx), s, ctx.modulus) == s
    assert _mul(s, identity(ctx), ctx.modulus) == s


def test_u_times_tau_is_sigma_mod5():
    ctx = make_ctx(5, 1)
    assert _mul(upper_u(ctx), tau(ctx), ctx.modulus) == sigma(ctx)


def test_sigma_squared_is_minus_one_mod7():
    ctx = make_ctx(7, 1)
    assert _mul(sigma(ctx), sigma(ctx), ctx.modulus) == minus_one(ctx)


def test_standard_inverses():
    for p, n in ((5, 1), (7, 1), (3, 2)):
        ctx = make_ctx(p, n)
        assert mat_pow(sigma(ctx), -1, ctx) == mat(0, -1, 1, 0, ctx)
        assert mat_pow(tau(ctx), -1, ctx) == mat(0, -1, 1, 1, ctx)
        assert mat_pow(identity(ctx), -1, ctx) == identity(ctx)


def test_inverse_of_non_unit_det_rejected():
    ctx = make_ctx(5, 2)
    with pytest.raises(NotInvertibleError):
        mat_pow(mat(5, 0, 0, 1, ctx), -1, ctx)


def test_reduce_mod_examples():
    c8, c4 = make_ctx(2, 3), make_ctx(2, 2)
    assert reduce_mat(sigma(c8), 2) == (0, 1, 1, 0)
    assert reduce_mat(mat(1, 4, 0, 1, c8), 4) == identity(c4)


def test_reduce_mod_is_a_homomorphism():
    # oracle: compare reduce(x*y) with reduce(x)*reduce(y) on random pairs
    src, dst = make_ctx(3, 3), make_ctx(3, 1)
    rng = random.Random(20240811)
    pool = sorted(enumerate_group(src).codes)
    dec = decoder(src)
    for _ in range(1000):
        x = dec(pool[rng.randrange(len(pool))])
        y = dec(pool[rng.randrange(len(pool))])
        lhs = reduce_mat(_mul(x, y, src.modulus), dst.modulus)
        rhs = _mul(reduce_mat(x, dst.modulus), reduce_mat(y, dst.modulus), dst.modulus)
        assert lhs == rhs


def test_reduce_mod_functorial():
    c27 = make_ctx(3, 3)
    rng = random.Random(7)
    pool = sorted(enumerate_group(c27).codes)
    dec = decoder(c27)
    for _ in range(200):
        x = dec(pool[rng.randrange(len(pool))])
        assert reduce_mat(reduce_mat(x, 9), 3) == reduce_mat(x, 3)


def test_factorize_agrees_with_a_sieve_of_smallest_prime_factors():
    top = 20_000
    spf = list(range(top + 1))
    for q in range(2, top + 1):
        if spf[q] == q:
            for j in range(q * q, top + 1, q):
                spf[j] = min(spf[j], q)
    for m in range(1, top + 1):
        want, x = {}, m
        while x > 1:
            want[spf[x]] = want.get(spf[x], 0) + 1
            x //= spf[x]
        assert factorize(m) == want


def test_encode_round_trip_packs_every_modulus_into_an_int():
    for p, n in ((2, 2), (3, 2), (13, 1), (65537, 1)):
        ctx = make_ctx(p, n)
        enc, dec = encoder(ctx), decoder(ctx)
        rng = random.Random((p, n).__repr__())
        for _ in range(50):
            x = tuple(rng.randrange(ctx.modulus) for _ in range(4))
            assert isinstance(enc(x), int) and dec(enc(x)) == x


@pytest.mark.parametrize("p, n", [(2, 4), (3, 3), (5, 2), (7, 2), (257, 2), (2, 17)])
def test_reducer_maps_codes_as_reduce_mat_maps_matrices(p, n):
    ctx = make_ctx(p, n)
    enc = encoder(ctx)
    rng = random.Random((p, n, "reducer").__repr__())
    xs = [tuple(rng.randrange(ctx.modulus) for _ in range(4)) for _ in range(200)]
    xs += [(ctx.modulus - 1,) * 4, (0, 0, 0, 0)]
    for s in range(1, n + 1):
        red, enc_s = reducer(ctx, s), encoder(make_ctx(p, s))
        assert [red(enc(x)) for x in xs] == [enc_s(reduce_mat(x, p**s)) for x in xs]
    for s in (0, n + 1):
        with pytest.raises(ReductionError):
            reducer(ctx, s)


@pytest.mark.parametrize("p, n", [(2, 4), (3, 3), (5, 2), (257, 2), (2, 17)])
def test_product_codes_pack_each_product_as_the_encoder_does(p, n):
    # the slim sampler builds H from these codes: every product x y, the
    # largest entries included, packed as encoder packs _mul's result
    ctx = make_ctx(p, n)
    rng = random.Random((p, n, "products").__repr__())
    xs = [tuple(rng.randrange(ctx.modulus) for _ in range(4)) for _ in range(20)] + [(ctx.modulus - 1,) * 4]
    ys = [tuple(rng.randrange(ctx.modulus) for _ in range(4)) for _ in range(20)] + [identity(ctx)]
    enc = encoder(ctx)
    assert product_codes(ctx, xs, ys) == frozenset(enc(_mul(x, y, ctx.modulus)) for x in xs for y in ys)
    assert product_codes(ctx, xs, []) == frozenset()


def test_parse_and_format():
    ctx = make_ctx(7, 1)
    assert parse_mat("0,1;-1,0", ctx) == sigma(ctx)
    assert parse_mat(" 1 , 1 ; 0 , 1 ", ctx) == upper_u(ctx)
    assert parse_mat(format_mat(tau(ctx)), ctx) == tau(ctx)
    with pytest.raises(ValueError):
        parse_mat("1,2,3;4", ctx)


def test_negative_literals_normalized():
    ctx = make_ctx(11, 1)
    assert mat(-1, 0, 0, -1, ctx) == minus_one(ctx)
    assert neg(identity(ctx), ctx) == minus_one(ctx)


@settings(max_examples=60, deadline=None)
@given(st.tuples(*[st.integers(0, 8)] * 4), st.tuples(*[st.integers(0, 8)] * 4))
def test_det_multiplicative(x, y):
    assert _det(_mul(x, y, 9), 9) == _det(x, 9) * _det(y, 9) % 9


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(*[st.integers(0, 24)] * 4),
    st.tuples(*[st.integers(0, 24)] * 4),
    st.tuples(*[st.integers(0, 24)] * 4),
)
def test_mul_associative(x, y, z):
    ctx = make_ctx(5, 2)
    assert _mul(_mul(x, y, ctx.modulus), z, ctx.modulus) == _mul(x, _mul(y, z, ctx.modulus), ctx.modulus)


def test_det_one_closed_under_product():
    ctx = make_ctx(5, 1)
    rng = random.Random(4)
    pool = sorted(enumerate_group(ctx).codes)
    dec = decoder(ctx)
    for _ in range(300):
        x = dec(pool[rng.randrange(len(pool))])
        y = dec(pool[rng.randrange(len(pool))])
        assert _det(_mul(x, y, ctx.modulus), ctx.modulus) == 1


def test_mat_pow():
    ctx = make_ctx(13, 1)
    u = upper_u(ctx)
    assert mat_pow(u, 13, ctx) == identity(ctx)
    assert mat_pow(u, -1, ctx) == mat(1, -1, 0, 1, ctx)
    assert mat_pow(sigma(ctx), 2, ctx) == minus_one(ctx)


def test_hypothesis_profile(request):
    """Derandomized by default; --hypothesis-profile=explore wins over that."""
    explore = request.config.getoption("hypothesis_profile") == "explore"
    assert settings.default.derandomize is not explore
    assert (settings.default.database is None) is not explore
