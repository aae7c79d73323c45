import pytest

from sl2genus.core import (
    PreconditionError,
    _inv,
    _mul,
    decoder,
    encoder,
    make_ctx,
    mat,
)
from sl2genus.fibers import (
    FiberDescriptor,
    commutator_fiber_codes,
    fiber_group,
    recovery_count,
    recovery_count_brute,
    recovery_set_brute,
    reduction_fiber_sizes,
    verify_orthogonality,
)
from sl2genus.suites import _golden_recovery


def test_fiber_sigma_5_shape():
    desc = FiberDescriptor(5, 0, 2, 1, "sigma")
    v = fiber_group(desc)  # structural assertions live inside
    assert len(v) == 25
    ctx = desc.full_ctx()
    dec = decoder(ctx)
    for c in v:
        x = dec(c)
        a, b = (x[0] - 1) // 5 % 5, x[1] // 5 % 5
        assert x == ((1 + 5 * a) % 25, 5 * b % 25, 5 * b % 25, (1 - 5 * a) % 25)


def test_fiber_tau_p2_shape():
    desc = FiberDescriptor(2, 0, 2, 1, "tau")
    v = fiber_group(desc)
    assert len(v) == 4
    ctx = desc.full_ctx()
    dec = decoder(ctx)
    for c in v:
        x = dec(c)
        a = (x[0] - 1) // 2 % 2
        b = x[1] // 2 % 2
        assert x[2] // 2 % 2 == (b - a) % 2 and (x[3] - 1) // 2 % 2 == (-a) % 2


def test_fiber_group_orders_across_kinds():
    for kind, p, r, n, m in (
        ("sigma", 3, 0, 2, 1),
        ("tau", 3, 0, 2, 1),
        ("u_power", 3, 0, 2, 1),
        ("u_power", 3, 1, 2, 1),
        ("u_power", 2, 1, 4, 3),
    ):
        assert len(fiber_group(FiberDescriptor(p, r, n, m, kind))) == p ** (2 * (n - m))


def test_hypothesis_violations_rejected():
    with pytest.raises(PreconditionError):
        FiberDescriptor(2, 0, 2, 1, "sigma")  # p=2 sigma needs m >= 2
    with pytest.raises(PreconditionError):
        FiberDescriptor(2, 0, 3, 2, "u_power")  # p=2 u needs m >= 3
    with pytest.raises(PreconditionError):
        FiberDescriptor(3, 0, 4, 1, "sigma")  # n > 2m
    with pytest.raises(PreconditionError):
        FiberDescriptor(3, 1, 2, 1, "sigma")  # r > 0 for sigma


def test_the_fibers_api_takes_the_class_kinds_alone():
    # "u" is the CLI's name for Conj(u); below the CLI a class kind is one of
    # ConjClassRef's, so the fibers API refuses it
    with pytest.raises(ValueError):
        FiberDescriptor(5, 0, 2, 1, "u")
    with pytest.raises(ValueError):
        recovery_count("u", 5, 2, 1)


def test_remark_size_two_fibers():
    assert reduction_fiber_sizes("sigma", 2, 2, 1) == frozenset({2})
    assert reduction_fiber_sizes("u_power", 2, 3, 2) == frozenset({2})
    assert reduction_fiber_sizes("u_power", 2, 4, 3, r=1) == frozenset({2})
    assert reduction_fiber_sizes("u_power", 2, 2, 1) == frozenset({2})
    # in-hypothesis fibers have exactly p^2 elements
    assert reduction_fiber_sizes("sigma", 3, 2, 1) == frozenset({9})
    assert reduction_fiber_sizes("tau", 2, 3, 2) == frozenset({4})


def test_well_definedness_exhaustive_3_2_1():
    # fiber_group compares the translate over every lift when the fiber is
    # small; at (p, n, m) = (3, 2, 1) that is all 9 lifts
    for kind in ("sigma", "tau", "u_power"):
        fiber_group(FiberDescriptor(3, 0, 2, 1, kind))


def test_conjugation_equivariance():
    for p in (3, 5):
        ctx = make_ctx(p, 2)
        desc = FiberDescriptor(p, 0, 2, 1, "sigma")
        v = fiber_group(desc)
        dec = decoder(ctx)
        enc = encoder(ctx)
        m = ctx.modulus
        for g in (mat(1, 2, 0, 1, ctx), mat(2, 1, 1, 1, ctx)):
            gi = _inv(g, m)
            alpha_g = _mul(gi, _mul(desc.standard_rep(), g, m), m)
            v_conj = commutator_fiber_codes(desc, alpha_g)
            want = frozenset(enc(_mul(gi, _mul(dec(c), g, m), m)) for c in v)
            assert v_conj == want


def test_v_depends_only_on_low_level():
    desc = FiberDescriptor(3, 0, 2, 1, "sigma")
    ctx = desc.full_ctx()
    alpha = desc.standard_rep()
    v = commutator_fiber_codes(desc, alpha)
    # perturbing alpha by p^(r+n-m) leaves V unchanged
    shift = 3 ** (0 + 2 - 1)
    perturbed = tuple((e + shift * k) % ctx.modulus for e, k in zip(alpha, (1, 2, 0, 1)))
    assert commutator_fiber_codes(desc, perturbed) == v


def test_orthogonality_examples():
    assert verify_orthogonality(FiberDescriptor(3, 0, 2, 1, "sigma"))
    assert verify_orthogonality(FiberDescriptor(5, 0, 2, 1, "u_power"))
    assert verify_orthogonality(FiberDescriptor(3, 0, 2, 1, "tau"))
    assert verify_orthogonality(FiberDescriptor(2, 0, 4, 2, "tau"))
    assert verify_orthogonality(FiberDescriptor(2, 1, 4, 3, "u_power"))


def test_recovery_count_examples():
    assert recovery_count("sigma", 5, 2, 1) == 2
    assert recovery_count("tau", 3, 3, 2) == 1  # n - m = 1
    assert recovery_count("u_power", 2, 5, 3) == 2  # n - m = 2
    assert recovery_count("u_power", 5, 2, 1) == 2  # (p-1)/2 p^(n-m-1)
    assert recovery_count("sigma", 2, 6, 3) == 4
    assert recovery_count("tau", 3, 4, 2) == 3
    with pytest.raises(PreconditionError):
        recovery_count("u_power", 2, 3, 2)
    with pytest.raises(PreconditionError):
        recovery_count("sigma", 3, 5, 2)


def test_recovery_counts_brute_grid():
    for kind, p, n, m, r in (
        ("sigma", 3, 2, 1, 0),
        ("sigma", 2, 4, 2, 0),
        ("tau", 3, 2, 1, 0),
        ("tau", 5, 2, 1, 0),
        ("u_power", 3, 2, 1, 0),
        ("u_power", 2, 5, 3, 0),
        ("u_power", 2, 4, 3, 1),
    ):
        assert recovery_count_brute(kind, p, n, m, r=r) == recovery_count(kind, p, n, m)


def test_recovery_sets_match_golden_lists():
    for kind, p, n, r in (
        ("sigma", 3, 2, 0),
        ("sigma", 2, 3, 0),
        ("tau", 3, 2, 0),
        ("u_power", 2, 3, 0),
        ("u_power", 3, 2, 1),
    ):
        ctx = make_ctx(p, r + n if kind == "u_power" else n)
        assert recovery_set_brute(kind, ctx, r=r) == _golden_recovery(kind, p, n, r)


def test_commutant_class_counts():
    # cardinalities of the commutant-shaped class slices
    ctx = make_ctx(5, 2)
    assert len(recovery_set_brute("u_power", ctx)) == (5 - 1) // 2 * 5  # (p-1)/2 p^(n-1)
    ctx = make_ctx(2, 5)
    assert len(recovery_set_brute("u_power", ctx)) == 2 ** (5 - 2)  # 2^(n-2) for n >= 3
