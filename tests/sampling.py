"""Seeded random subgroups of SL2(Z/p^nZ) for the tests: the library samples
slim subgroups alone (subgroups.sample_slim_subgroups); the genus, oracle and
fault tests also draw subgroups with no constraint, from here."""

import random
from typing import List

from sl2genus.core import GroupCtx, decoder
from sl2genus.groups import enumerate_group
from sl2genus.subgroups import Subgroup


def sample_subgroups(ctx: GroupCtx, count: int, rng: random.Random) -> List[Subgroup]:
    """Random generator pairs/triples, deduplicated by the element-set hash."""
    pool = sorted(enumerate_group(ctx).codes)
    dec = decoder(ctx)
    out: List[Subgroup] = []
    seen: set = set()
    for _ in range(40 * count):
        if len(out) >= count:
            break
        k = rng.choice((1, 2, 2, 3))
        gens = tuple(dec(pool[rng.randrange(len(pool))]) for _ in range(k))
        h = Subgroup(ctx, gens)
        key = h.codes()
        if key not in seen:
            seen.add(key)
            out.append(h)
    return out
