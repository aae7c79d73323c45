import sys

import pytest

from sl2genus.core import (
    DEFAULT_MAX_ELEMENTS,
    PreconditionError,
    _inv,
    _mul,
    decoder,
    encoder,
    make_ctx,
    mat,
    reduce_mat,
    reducer,
)
from sl2genus.fibers import (
    FiberDescriptor,
    _parametrized_codes,
    commutator_fiber_codes,
    fiber_group,
    recovery_count,
    recovery_count_brute,
    recovery_set_brute,
    reduction_fiber_sizes,
    verify_orthogonality,
)
from sl2genus.groups import class_codes
from sl2genus.suites import _FIBER_GRID, _RECOVERY_GRID, _golden_recovery


def _orbit_alpha_prime(desc):
    """alpha' by the orbit route: the least member of the level-(r+m) class
    orbit over the standard representative mod p^(r+n-m)."""
    full, ctx_m, low = desc.full_ctx(), make_ctx(desc.p, desc.r + desc.m), desc.r + desc.n - desc.m
    want, red = reducer(full, low)(encoder(full)(desc.standard_rep())), reducer(ctx_m, low)
    return decoder(ctx_m)(min(c for c in class_codes(desc.class_ref(desc.r + desc.m)) if red(c) == want))


def _orbit_fiber_group(desc):
    """V by the orbit route: the level-(r+n) class orbit filtered by reduction
    to alpha', translated by each of its members; every translate is the same."""
    ctx, low = desc.full_ctx(), desc.r + desc.m
    red, want = reducer(ctx, low), encoder(make_ctx(desc.p, low))(_orbit_alpha_prime(desc))
    dec, enc, mm = decoder(ctx), encoder(ctx), ctx.modulus
    fiber = [dec(c) for c in class_codes(desc.class_ref(desc.r + desc.n)) if red(c) == want]
    translates = {frozenset(enc(_mul(_inv(a, mm), x, mm)) for x in fiber) for a in fiber}
    assert len(translates) == 1, desc
    return translates.pop()


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
    with pytest.raises(ValueError, match="need 1 <= lo < hi"):
        reduction_fiber_sizes("sigma", 2, 2, 2)


def test_well_definedness_exhaustive_3_2_1():
    # fiber_group translates the fiber by alpha^-1 and checks that V equals P,
    # a group, which makes every translate the same (a1 = alpha v gives
    # a1^-1 F = v^-1 V = V); the orbit route compares the translates by all
    # 9 lifts at (p, n, m) = (3, 2, 1)
    for kind in ("sigma", "tau", "u_power"):
        desc = FiberDescriptor(3, 0, 2, 1, kind)
        assert fiber_group(desc) == _orbit_fiber_group(desc)


# descriptors outside _FIBER_GRID, every kind at p = 2, 3, 5 and 7, r up to 2
_BEYOND_GRID = (
    ("sigma", 7, 0, 2, 1),
    ("tau", 7, 0, 2, 1),
    ("u_power", 7, 0, 2, 1),
    ("sigma", 5, 0, 3, 2),
    ("tau", 5, 0, 3, 2),
    ("u_power", 5, 1, 2, 1),
    ("sigma", 3, 0, 5, 3),
    ("tau", 3, 0, 3, 2),
    ("u_power", 3, 0, 3, 2),
    ("u_power", 3, 2, 2, 1),
    ("sigma", 2, 0, 4, 3),
    ("tau", 2, 0, 3, 2),
    ("u_power", 2, 0, 5, 4),
    ("u_power", 2, 2, 4, 3),
)


def test_the_label_route_agrees_with_the_orbit_route(monkeypatch):
    # V over alpha from labels on lifts against the orbit route over alpha'
    # above, and verify_orthogonality and recovery_count_brute read through either
    fibers_mod = sys.modules["sl2genus.fibers"]
    descs = [FiberDescriptor(p, r, n, m, kind) for kind, p, r, n, m in _BEYOND_GRID]
    assert not set(_BEYOND_GRID) & set(_FIBER_GRID)

    def reads(desc):
        return verify_orthogonality(desc), recovery_count_brute(desc.kind, desc.p, desc.n, desc.m, r=desc.r)

    labels = [(fiber_group(d), reads(d)) for d in descs]
    monkeypatch.setattr(fibers_mod, "fiber_group", _orbit_fiber_group)
    assert labels == [(_orbit_fiber_group(d), reads(d)) for d in descs]
    assert all(got[1] == (True, recovery_count(d.kind, d.p, d.n, d.m)) for d, got in zip(descs, labels))


def test_orthogonality_reads_the_standard_representative(monkeypatch):
    # the complement of verify_orthogonality and V itself depend on alpha mod
    # p^(r+n-m) alone, where alpha' of the orbit route lies over the standard
    # representative, so both read the representative: V over alpha equals V
    # over alpha', and verify_orthogonality reads V once, from fiber_group
    fibers_mod = sys.modules["sl2genus.fibers"]
    read, calls = fibers_mod.fiber_group, []
    monkeypatch.setattr(fibers_mod, "fiber_group", lambda desc: calls.append(desc) or read(desc))
    for kind, p, r, n, m in _FIBER_GRID + _BEYOND_GRID:
        desc = FiberDescriptor(p, r, n, m, kind)
        low = p ** (r + n - m)
        assert reduce_mat(_orbit_alpha_prime(desc), low) == reduce_mat(desc.standard_rep(), low)
        assert read(desc) == _orbit_fiber_group(desc)
        calls.clear()
        assert verify_orthogonality(desc)
        assert calls == [desc]


def test_the_parametrization_lies_over_one():
    # fiber_group compares V with _parametrized_codes, every member of which is
    # 1 + p^(r+m) W, so V <= K_(r+m) needs no test of its own
    for kind, p, r, n, m in _FIBER_GRID:
        desc = FiberDescriptor(p, r, n, m, kind)
        one = encoder(make_ctx(p, r + m))((1, 0, 0, 1))
        assert set(map(reducer(desc.full_ctx(), r + m), _parametrized_codes(desc))) == {one}


def test_fiber_group_reads_one_kernel_and_closes_nothing(monkeypatch):
    # V is read from the lifts k alpha, k in K_(r+m) at level r+n, one kernel,
    # and checked against its closed forms alone, which make it a group: no
    # generators are picked to close it.  The kernels are built first, as
    # their preimage of {1} picks generators of its own
    subgroups_mod, fibers_mod = sys.modules["sl2genus.subgroups"], sys.modules["sl2genus.fibers"]
    kernel, kernels = fibers_mod._kernel_codes, []
    for kind, p, r, n, m in _FIBER_GRID:
        kernel(make_ctx(p, r + n), r + m, DEFAULT_MAX_ELEMENTS)

    def read(ctx, s, cap):
        kernels.append((ctx.n, s))
        return kernel(ctx, s, cap)

    def closes(h):
        raise AssertionError("fiber_group picked generators")

    monkeypatch.setattr(fibers_mod, "_kernel_codes", read)
    for mod in (subgroups_mod, fibers_mod):
        if hasattr(mod, "_generators"):
            monkeypatch.setattr(mod, "_generators", closes)
    for kind, p, r, n, m in _FIBER_GRID:
        kernels.clear()
        fiber_group(FiberDescriptor(p, r, n, m, kind))
        assert kernels == [(r + n, r + m)], (kind, p, r, n, m)


def test_fiber_group_walks_no_class_orbit(monkeypatch):
    # fiber_group at (3, 0, 4, 2, sigma) reads Conj(sigma) over alpha from the
    # labels on its 729 lifts to 81, not from the orbit of 4,374 elements; the
    # spy sees the orbit that reduction_fiber_sizes reads at 81
    groups_mod, fibers_mod = sys.modules["sl2genus.groups"], sys.modules["sl2genus.fibers"]
    brute, codes, read = groups_mod.conj_class_brute, fibers_mod.class_codes, []
    monkeypatch.setattr(groups_mod, "conj_class_brute", lambda rep, ctx, *c: read.append(ctx.modulus) or brute(rep, ctx, *c))
    monkeypatch.setattr(fibers_mod, "class_codes", lambda ref, *c: read.append(ref.ctx.modulus) or codes(ref, *c))
    assert len(fiber_group(FiberDescriptor(3, 0, 4, 2, "sigma"))) == 81
    assert 81 not in read
    reduction_fiber_sizes("sigma", 3, 4, 2)
    assert 81 in read


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
    with pytest.raises(PreconditionError, match="p=2 sigma recovery needs m >= 2"):
        recovery_count("sigma", 2, 2, 1)
    with pytest.raises(PreconditionError, match="p=2 tau recovery needs m >= 2"):
        recovery_count("tau", 2, 2, 1)


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


def test_the_recovery_grid_starts_at_level_two():
    # _golden_recovery states the recovery sets for n >= 2 alone: the suite's
    # grid, the one caller under src/, asks for no level-one set
    assert _RECOVERY_GRID and all(n >= 2 for _, _, n, _ in _RECOVERY_GRID)


def test_commutant_class_counts():
    # cardinalities of the commutant-shaped class slices
    ctx = make_ctx(5, 2)
    assert len(recovery_set_brute("u_power", ctx)) == (5 - 1) // 2 * 5  # (p-1)/2 p^(n-1)
    ctx = make_ctx(2, 5)
    assert len(recovery_set_brute("u_power", ctx)) == 2 ** (5 - 2)  # 2^(n-2) for n >= 3
