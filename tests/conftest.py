import hashlib
import json
import sys

import pytest
from hypothesis import settings

from sl2genus import groups
from sl2genus.core import _inv, _mul, decoder, lower_u, make_ctx, upper_u
from sl2genus.groups import ConjClassRef, conj_class_brute, enumerate_group, u_power_ref
from sl2genus.subgroups import all_subgroups

# Tier-1 draws the same Hypothesis examples on every run: the cost of an
# example depends heavily on the draw, so random draws made timings measure
# the draw.  --hypothesis-profile=explore draws fresh random examples and
# keeps a failure database, for deeper runs.
settings.register_profile("explore", settings.get_profile("default"))
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def sl2_mod9_subgroups():
    """Every subgroup of SL2(Z/9Z), as code frozensets (456 of them)."""
    ctx = make_ctx(3, 2)
    g = enumerate_group(ctx)
    return ctx, all_subgroups(g, conjugacy_gens=[upper_u(ctx), lower_u(ctx)])


@pytest.fixture(scope="session")
def sl2_mod4_subgroups():
    ctx = make_ctx(2, 2)
    g = enumerate_group(ctx)
    return ctx, all_subgroups(g, conjugacy_gens=[upper_u(ctx), lower_u(ctx)])


@pytest.fixture(scope="session")
def gl2_class():
    """Conj_GL2(x) for x in SL2(Z/p^nZ), as codes.  GL2 is the union of the
    cosets d SL2 with d = diag(e, 1), e a unit, so the GL2 class of x is the
    union over e of the SL2 classes of d^-1 x d."""

    def orbit(x, ctx):
        m = ctx.modulus
        out = set()
        for e in range(1, m):
            if e % ctx.p:
                d = (e, 0, 0, 1)
                out |= conj_class_brute(_mul(_inv(d, m), _mul(x, d, m), m), ctx)
        return frozenset(out)

    return orbit


@pytest.fixture(scope="session")
def report_digest():
    """SHA-256 of the JSON of a list of CaseReport/DeskResult values with their
    wall-clock elapsed_ms removed: the part of a report a code change must keep."""

    def digest(reports):
        rows = [{k: v for k, v in r.to_json_dict().items() if k != "elapsed_ms"} for r in reports]
        return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()

    return digest


@pytest.fixture(scope="session")
def label_mismatches():
    """The number of elements x of SL2(Z/p^nZ) whose groups.class_labels (read
    at call time, so a planted fault shows) differ from the named class orbits
    that hold x, walked by conj_class_brute (class_codes checks its orbits
    against the labels, so it would raise on a planted fault)."""

    def count(ctx):
        refs = [ConjClassRef(ctx, "sigma"), ConjClassRef(ctx, "tau")] + [u_power_ref(ctx, r) for r in range(ctx.n)]
        orbits = [((ref.kind, ref.r), conj_class_brute(ref.representative(), ctx)) for ref in refs]
        dec = decoder(ctx)
        codes = enumerate_group(ctx).codes
        return sum(groups.class_labels(dec(c), ctx) != [key for key, orbit in orbits if c in orbit] for c in codes)

    return count


@pytest.fixture
def builds(monkeypatch):
    """(context, size) of each set groups._closure_codes and groups.class_codes
    return while the test runs, read through every sl2genus module that imported
    them by name: the closures, G and class orbits a call materialized."""
    seen = []

    def recording(fn, ctx_of):
        def wrapped(*args):
            got = fn(*args)
            seen.append((ctx_of(*args), len(got)))
            return got

        return wrapped

    mods = [m for name, m in sys.modules.items() if name.startswith("sl2genus.")]
    for name, ctx_of in (("_closure_codes", lambda gens, ctx, cap: ctx), ("class_codes", lambda ref, *cap: ref.ctx)):
        true_fn = getattr(groups, name)
        wrapped = recording(true_fn, ctx_of)
        for mod in mods:
            if vars(mod).get(name) is true_fn:
                monkeypatch.setattr(mod, name, wrapped)
    return seen
