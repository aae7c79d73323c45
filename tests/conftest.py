import hashlib
import json

import pytest
from hypothesis import settings

from sl2genus.core import lower_u, make_ctx, upper_u
from sl2genus.groups import enumerate_group
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
def report_digest():
    """SHA-256 of the JSON of a list of CaseReport/DeskResult values with their
    wall-clock elapsed_ms removed: the part of a report a code change must keep."""

    def digest(reports):
        rows = [{k: v for k, v in r.to_json_dict().items() if k != "elapsed_ms"} for r in reports]
        return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()

    return digest
