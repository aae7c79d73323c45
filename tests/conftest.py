import hashlib
import json

import pytest
from hypothesis import settings

from sl2genus.core import _inv, _mul, lower_u, make_ctx, upper_u
from sl2genus.groups import conj_class_brute, enumerate_group
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
                out |= conj_class_brute(_mul(_inv(d, m), _mul(x, d, m), m), ctx).codes
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
