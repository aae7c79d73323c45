import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2genus.core import (
    ContextMismatchError,
    NotInvertibleError,
    ReductionError,
    decoder,
    det,
    element_order,
    encoder,
    format_mat,
    identity,
    make_ctx,
    mat,
    mat_inv,
    mat_mul,
    mat_pow,
    minus_one,
    neg,
    parse_mat,
    reduce_mat,
    reduce_mod,
    reducer,
    sigma,
    tau,
    upper_u,
)
from sl2genus.groups import enumerate_group


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
    assert mat_mul(identity(ctx), s, ctx) == s
    assert mat_mul(s, identity(ctx), ctx) == s


def test_u_times_tau_is_sigma_mod5():
    ctx = make_ctx(5, 1)
    assert mat_mul(upper_u(ctx), tau(ctx), ctx) == sigma(ctx)


def test_sigma_squared_is_minus_one_mod7():
    ctx = make_ctx(7, 1)
    assert mat_mul(sigma(ctx), sigma(ctx), ctx) == minus_one(ctx)


def test_standard_inverses():
    for p, n in ((5, 1), (7, 1), (3, 2)):
        ctx = make_ctx(p, n)
        assert mat_inv(sigma(ctx), ctx) == mat(0, -1, 1, 0, ctx)
        assert mat_inv(tau(ctx), ctx) == mat(0, -1, 1, 1, ctx)
        assert mat_inv(identity(ctx), ctx) == identity(ctx)


def test_inverse_of_non_unit_det_rejected():
    ctx = make_ctx(5, 2)
    with pytest.raises(NotInvertibleError):
        mat_inv(mat(5, 0, 0, 1, ctx), ctx)


def test_unreduced_operand_is_context_mismatch():
    ctx = make_ctx(5, 1)
    with pytest.raises(ContextMismatchError):
        mat_mul((7, 0, 0, 1), identity(ctx), ctx)


def test_reduce_mod_examples():
    c8, c4, c2 = make_ctx(2, 3), make_ctx(2, 2), make_ctx(2, 1)
    assert reduce_mod(sigma(c8), c8, c2) == (0, 1, 1, 0)
    assert reduce_mod(mat(1, 4, 0, 1, c8), c8, c4) == identity(c4)
    with pytest.raises(ReductionError):
        reduce_mod(sigma(c2), c2, c8)
    with pytest.raises(ReductionError):
        reduce_mod(sigma(c2), c2, make_ctx(3, 1))


def test_reduce_mod_is_a_homomorphism():
    # oracle: compare reduce(x*y) with reduce(x)*reduce(y) on random pairs
    src, dst = make_ctx(3, 3), make_ctx(3, 1)
    rng = random.Random(20240811)
    pool = sorted(enumerate_group(src).codes)
    dec = decoder(src)
    for _ in range(1000):
        x = dec(pool[rng.randrange(len(pool))])
        y = dec(pool[rng.randrange(len(pool))])
        lhs = reduce_mod(mat_mul(x, y, src), src, dst)
        rhs = mat_mul(reduce_mod(x, src, dst), reduce_mod(y, src, dst), dst)
        assert lhs == rhs


def test_reduce_mod_functorial():
    c27, c9, c3 = make_ctx(3, 3), make_ctx(3, 2), make_ctx(3, 1)
    rng = random.Random(7)
    pool = sorted(enumerate_group(c27).codes)
    dec = decoder(c27)
    for _ in range(200):
        x = dec(pool[rng.randrange(len(pool))])
        assert reduce_mod(reduce_mod(x, c27, c9), c9, c3) == reduce_mod(x, c27, c3)


def test_element_orders():
    c5 = make_ctx(5, 1)
    assert element_order(sigma(c5), c5) == 4
    assert element_order(tau(c5), c5) == 6
    assert element_order(identity(c5), c5) == 1
    # oracle for ord(u) = p^n: plain repeated multiplication
    for p, n in ((3, 2), (5, 1)):
        ctx = make_ctx(p, n)
        u = upper_u(ctx)
        x, steps = u, 1
        while x != identity(ctx):
            x = mat_mul(x, u, ctx)
            steps += 1
        assert steps == p**n
        assert element_order(u, ctx) == p**n


def test_element_order_divides_group_order():
    ctx = make_ctx(3, 2)
    rng = random.Random(99)
    pool = sorted(enumerate_group(ctx).codes)
    dec = decoder(ctx)
    for _ in range(1000):
        x = dec(pool[rng.randrange(len(pool))])
        assert ctx.order % element_order(x, ctx) == 0


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
    ctx = make_ctx(3, 2)
    assert det(mat_mul(x, y, ctx), ctx) == det(x, ctx) * det(y, ctx) % 9


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(*[st.integers(0, 24)] * 4),
    st.tuples(*[st.integers(0, 24)] * 4),
    st.tuples(*[st.integers(0, 24)] * 4),
)
def test_mul_associative(x, y, z):
    ctx = make_ctx(5, 2)
    assert mat_mul(mat_mul(x, y, ctx), z, ctx) == mat_mul(x, mat_mul(y, z, ctx), ctx)


def test_det_one_closed_under_product():
    ctx = make_ctx(5, 1)
    rng = random.Random(4)
    pool = sorted(enumerate_group(ctx).codes)
    dec = decoder(ctx)
    for _ in range(300):
        x = dec(pool[rng.randrange(len(pool))])
        y = dec(pool[rng.randrange(len(pool))])
        assert det(mat_mul(x, y, ctx), ctx) == 1


def test_mat_pow():
    ctx = make_ctx(13, 1)
    u = upper_u(ctx)
    assert mat_pow(u, 13, ctx) == identity(ctx)
    assert mat_pow(u, -1, ctx) == mat_inv(u, ctx)
    assert mat_pow(sigma(ctx), 2, ctx) == minus_one(ctx)


def test_hypothesis_profile(request):
    """Derandomized by default; --hypothesis-profile=explore wins over that."""
    explore = request.config.getoption("hypothesis_profile") == "explore"
    assert settings.default.derandomize is not explore
    assert (settings.default.database is None) is not explore
