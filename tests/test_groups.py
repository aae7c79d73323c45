import pytest

from sl2genus import groups
from sl2genus.core import (
    ConsistencyError,
    ContextMismatchError,
    FeasibilityError,
    GroupCtx,
    PreconditionError,
    decoder,
    encoder,
    identity,
    make_ctx,
    mat_pow,
    minus_one,
    sigma,
    tau,
    upper_u,
)
from sl2genus.groups import (
    ConjClassRef,
    centralizer_brute,
    centralizer_order_formula,
    class_codes,
    conj_class_brute,
    conj_class_size_formula,
    enumerate_group,
    u_power_ref,
)
from sl2genus.suites import golden_conj4_classes


def test_group_order_formula_against_closure():
    # brute-force closure is the oracle for the closed form
    for p, n, want in ((2, 1, 6), (3, 1, 24), (2, 2, 48)):
        assert make_ctx(p, n).order == want
        assert len(enumerate_group(make_ctx(p, n))) == want
    for p, n in ((4, 1), (3, 0)):
        with pytest.raises(ValueError):
            make_ctx(p, n)


def test_enumerate_group_examples():
    g = enumerate_group(make_ctx(3, 1))
    assert len(g) == 24
    enc = encoder(g.ctx)
    assert enc(identity(g.ctx)) in g.codes and enc(minus_one(g.ctx)) in g.codes
    assert len(enumerate_group(make_ctx(5, 2))) == (5 + 1) * (5 - 1) * 5**4 == 15000


def test_class_size_formula_examples():
    c5 = make_ctx(5, 1)
    assert conj_class_size_formula(ConjClassRef(c5, "sigma")) == 30
    c4 = make_ctx(2, 2)
    assert conj_class_size_formula(ConjClassRef(c4, "tau")) == 8
    c169 = make_ctx(13, 2)
    assert conj_class_size_formula(u_power_ref(c169, 1)) == 84


def test_centralizer_formula_examples():
    assert centralizer_order_formula(u_power_ref(make_ctx(3, 1), 0)) == 6
    assert centralizer_order_formula(ConjClassRef(make_ctx(5, 1), "sigma")) == 4
    with pytest.raises(PreconditionError, match="no closed-form centralizer for kind 'u_power'"):
        centralizer_order_formula(u_power_ref(make_ctx(3, 2), 1))  # u^p: r > 0


_GRID = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2)]


def test_orbit_stabilizer_everywhere():
    for p, n in ((3, 1), (3, 2), (5, 1), (2, 3)):
        ctx = make_ctx(p, n)
        for ref in (ConjClassRef(ctx, "sigma"), ConjClassRef(ctx, "tau"), u_power_ref(ctx, 0)):
            assert len(class_codes(ref)) * centralizer_order_formula(ref) == ctx.order


def test_class_sizes_brute_vs_formula_small_grid():
    # exhaustive while p^n stays small
    for p, n in [(p, n) for p, n in _GRID if p**n <= 49]:
        ctx = make_ctx(p, n)
        for ref in (ConjClassRef(ctx, "sigma"), ConjClassRef(ctx, "tau")):
            assert len(conj_class_brute(ref.representative(), ctx)) == conj_class_size_formula(ref)
        for r in range(n):
            ref = u_power_ref(ctx, r)
            assert len(conj_class_brute(ref.representative(), ctx)) == conj_class_size_formula(ref)


def test_conj_class_brute_examples():
    ctx = make_ctx(2, 2)
    golden = golden_conj4_classes()
    assert conj_class_brute(tau(ctx), ctx) == golden["tau"]
    assert conj_class_brute(identity(ctx), ctx) == frozenset({next(iter(golden["1"]))})
    c3 = make_ctx(3, 1)
    assert len(conj_class_brute(sigma(c3), c3)) == 6  # (3-1)*3, 3 = -1 mod 4


def test_sigma_class_equals_inverse_class_odd_p():
    for p in (3, 5, 7, 13):
        ctx = make_ctx(p, 1)
        cls = conj_class_brute(sigma(ctx), ctx)
        assert conj_class_brute(mat_pow(sigma(ctx), -1, ctx), ctx) == cls
        # Conj(sigma) = trace-zero locus for odd p at level one
        dec = decoder(ctx)
        trace_zero = {
            c for c in enumerate_group(ctx).codes if (dec(c)[0] + dec(c)[3]) % p == 0
        }
        assert cls == trace_zero


def test_p2_classes_not_determined_by_trace():
    # sigma and -sigma both sit in the trace-0 locus mod 4 yet are distinct
    # classes, so p=2 membership tests must use orbit sets, never the trace
    ctx = make_ctx(2, 2)
    golden = golden_conj4_classes()
    dec = decoder(ctx)
    traces = lambda cls: {(dec(c)[0] + dec(c)[3]) % 4 for c in cls}
    assert golden["sigma"] != golden["-sigma"]
    assert traces(golden["sigma"]) == traces(golden["-sigma"]) == {0}
    assert golden["u"] != golden["u^2"]
    assert traces(golden["u"]) == traces(golden["u^2"]) == {2}


def test_centralizer_brute_matches_formula():
    for p, n in ((2, 2), (3, 1), (3, 2), (5, 1)):
        ctx = make_ctx(p, n)
        g = enumerate_group(ctx)
        for ref in (ConjClassRef(ctx, "sigma"), ConjClassRef(ctx, "tau"), u_power_ref(ctx, 0)):
            assert len(centralizer_brute(ref.representative(), g)) == centralizer_order_formula(ref)


def test_a_class_orbit_off_its_closed_form_is_not_stored(monkeypatch):
    # an orbit that misses one element would change count_tau in a genus report without any error
    ctx = make_ctx(5, 2)
    monkeypatch.delitem(ctx.memo, ("tau", 0), raising=False)
    brute = groups.conj_class_brute

    def drop_one(rep, c, cap):
        got = brute(rep, c, cap)
        return got - {min(got)}

    monkeypatch.setattr(groups, "conj_class_brute", drop_one)
    with pytest.raises(ConsistencyError, match="closed form"):
        class_codes(ConjClassRef(ctx, "tau"))
    assert ("tau", 0) not in ctx.memo


def test_a_class_above_the_cap_is_refused_before_its_walk(monkeypatch):
    # Conj(sigma) at 125 holds 18,750 elements in closed form: under a cap of
    # 2,000 class_codes raises without walking the orbit, which would hold
    # 2,001 codes before it failed
    ctx = make_ctx(5, 3)
    monkeypatch.delitem(ctx.memo, ("sigma", 0), raising=False)
    walks = []
    monkeypatch.setattr(groups, "conj_class_brute", lambda *args: walks.append(args))
    with pytest.raises(FeasibilityError, match="18750 elements, above the cap of 2000; raise --max-elements"):
        class_codes(ConjClassRef(ctx, "sigma"), 2000)
    assert walks == [] and ("sigma", 0) not in ctx.memo


def test_a_capped_orbit_names_the_orbit():
    c9 = make_ctx(3, 2)
    with pytest.raises(FeasibilityError, match="^the orbit passed 5 elements, above the cap of 5; raise --max"):
        conj_class_brute(upper_u(c9), c9, 5)


def test_conj_class_brute_rejects_an_unreduced_representative():
    # (6, 1, 0, 1) is u mod 5; walked as given, its orbit held 13 codes, one more than Conj(u)
    c5 = make_ctx(5, 1)
    with pytest.raises(ContextMismatchError, match="not reduced modulo 5"):
        conj_class_brute((6, 1, 0, 1), c5)
    assert len(conj_class_brute(upper_u(c5), c5)) == 12
    with pytest.raises(PreconditionError, match=r"representative \(1, 1, 0, 2\) is not in SL2 \(det=2\)"):
        conj_class_brute((1, 1, 0, 2), c5)


def test_u_power_ref_validation():
    ctx = make_ctx(3, 2)
    u_power_ref(ctx, 1)
    with pytest.raises(PreconditionError):
        u_power_ref(ctx, 2)


def test_class_ref_kinds():
    ctx = make_ctx(3, 2)
    for kind in ("sigma", "tau"):  # only the u_power family takes an exponent
        with pytest.raises(PreconditionError):
            ConjClassRef(ctx, kind, r=1)
    for kind in ("neg_sigma", "neg_tau", "neg_u", "u_square", "custom"):
        with pytest.raises(ValueError, match="unknown class kind"):
            ConjClassRef(ctx, kind)


# The value types are plain classes and named tuples: equality, hashing and the
# reprs that error messages print are those a dataclass gave them.
def test_values_compare_hash_and_print_as_records():
    from sl2genus.fibers import FiberDescriptor

    ctx = make_ctx(5, 1)
    assert GroupCtx(5, 1) == ctx and hash(GroupCtx(5, 1)) == hash(ctx) and ctx != make_ctx(5, 2)
    ref = ConjClassRef(GroupCtx(5, 1), "sigma")
    assert ref == ConjClassRef(ctx, "sigma", 0) and hash(ref) == hash(ConjClassRef(ctx, "sigma"))
    assert repr(ref) == "ConjClassRef(ctx=GroupCtx(p=5, n=1, modulus=5, order=120), kind='sigma', r=0)"
    assert repr(FiberDescriptor(5, 0, 2, 1, "sigma")) == "FiberDescriptor(p=5, r=0, n=2, m=1, kind='sigma')"


def test_gl2_conjugacy_orbit(gl2_class):
    # sigma and -sigma are GL2- but not SL2-conjugate at level 4
    ctx = make_ctx(2, 2)
    sl2_orbit = conj_class_brute(sigma(ctx), ctx)
    gl2_orbit = gl2_class(sigma(ctx), ctx)
    from sl2genus.core import encoder, neg

    assert encoder(ctx)(neg(sigma(ctx), ctx)) not in sl2_orbit
    assert sl2_orbit < gl2_orbit
