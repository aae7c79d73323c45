"""Fault injection: each test plants one named fault with monkeypatch and
asserts that a fast library check raises on it, so a fault that no check
kills shows up as a failing test.  Standard library and pytest only."""

import sys

import pytest

from sl2genus.core import ConsistencyError
from sl2genus.genus import delta
from sl2genus.groups import ConjClassRef
from sl2genus.subgroups import adjoin_minus_one, borel


def test_an_extra_sigma_fixed_point_fails_the_coset_check(monkeypatch):
    # the class-counting route overcounts Fix_sigma by one; genus_report, which
    # delta reads, counts it again on the cosets of G_1 (2,184 elements at 13)
    genus_mod = sys.modules["sl2genus.genus"]
    true_fix = genus_mod.fix_points

    def one_more_for_sigma(h, ref):
        return true_fix(h, ref) + (ref.kind == "sigma")

    h = adjoin_minus_one(borel(13))
    assert true_fix(h, ConjClassRef(h.ctx, "sigma")) == 2
    monkeypatch.setattr(genus_mod, "fix_points", one_more_for_sigma)
    with pytest.raises(ConsistencyError, match="fixed-point count mismatch: direct 2 vs identity 3"):
        delta(h)
