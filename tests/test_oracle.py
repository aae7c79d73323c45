"""An oracle that shares no code with sl2genus: sympy's permutation groups
(Schreier-Sims) on the action of SL2(Z/p^nZ) on the column vectors of
(Z/p^nZ)^2 give |G|, |H|, a transversal of the cosets of H and membership in
H, from which the cosets that sigma and tau fix, and the <u>-orbits on the
cosets, are counted one by one.
The degree p^(2n) stays at 2,401 or below: at (5,3), 15,625 points, sympy
ran out of memory.  sympy is an optional test dependency."""

import random

import pytest

pytest.importorskip("sympy")

from sympy.combinatorics import Permutation, PermutationGroup

from sl2genus.core import make_ctx
from sl2genus.genus import cusp_orbit_ratio, fix_points
from sl2genus.groups import ConjClassRef
from sl2genus.subgroups import closure

from sampling import sample_subgroups

U, LOWER_U, SIGMA, TAU = (1, 1, 0, 1), (1, 0, 1, 1), (0, 1, -1, 0), (1, 1, -1, 0)


def _perm(g, m):
    """g = (a b; c d) acting on the points x + m y, the vectors (x, y)."""
    a, b, c, d = g
    return Permutation([(a * x + b * y) % m + m * ((c * x + d * y) % m) for y in range(m) for x in range(m)])


def _subgroups():
    """<u, diag(3, 5)> at (7,1) and two seeded samples each at (5,2), (3,2) and (2,3)."""
    out = [closure([U, (3, 0, 0, 5)], make_ctx(7, 1))]
    for p, n in ((5, 2), (3, 2), (2, 3)):
        out += sample_subgroups(make_ctx(p, n), 2, random.Random((p, n, "perm").__repr__()))
    return out


def test_orders_and_fixed_cosets_match_a_permutation_group_oracle():
    # sympy composes left to right (s * t applies s first), so g -> _perm(g)
    # reverses products: its cosets H * t are the cosets t H of the matrices,
    # and a fixes t H exactly when t^-1 a t lies in H, which sympy spells
    # t * s * t^-1.  The other pairing reads another count on one case (the
    # order-4 sample at (2,3)), so a test that paired them wrongly would fail.
    other_pairing_differs = False
    for h in _subgroups():
        ctx, m = h.ctx, h.ctx.modulus
        G = PermutationGroup([_perm(U, m), _perm(LOWER_U, m)])
        H = PermutationGroup([_perm(g, m) for g in h.gens])
        assert (G.order(), H.order()) == (ctx.order, h.order)
        transversal = G.coset_transversal(H)
        for kind, a in (("sigma", SIGMA), ("tau", TAU)):
            s = _perm(a, m)
            want = fix_points(h, ConjClassRef(ctx, kind))
            assert sum(H.contains(t * s * t**-1) for t in transversal) == want, (ctx, h.gens, kind)
            other_pairing_differs |= sum(H.contains(t**-1 * s * t) for t in transversal) != want
    assert other_pairing_differs


def _classes(G, H, transversal, step):
    """The number of classes of the transversal joined by t ~ the representative of H step(t)."""
    index, root = {t: i for i, t in enumerate(transversal)}, list(range(len(transversal)))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for i, t in enumerate(transversal):
        root[find(i)] = find(index[G._coset_representative(step(t), H)])
    return sum(find(i) == i for i in range(len(root)))


def test_cusp_orbits_on_the_cosets_match_a_permutation_group_oracle():
    # u maps the coset t H of the matrices to u t H, which sympy spells H * t * u
    # (see above), so the <u>-orbits on the cosets number cusp_orbit_ratio(h)
    # [G:H].  The reversed pairing, t H -> t u H (H * u * t), reads another
    # count on some case, so a test that paired them wrongly would fail.
    other_pairing_differs = False
    for h in _subgroups():
        m = h.ctx.modulus
        G = PermutationGroup([_perm(U, m), _perm(LOWER_U, m)])
        H = PermutationGroup([_perm(g, m) for g in h.gens])
        transversal, u = G.coset_transversal(H), _perm(U, m)
        want = cusp_orbit_ratio(h) * len(transversal)
        assert _classes(G, H, transversal, lambda t: t * u) == want, (h.ctx, h.gens)
        other_pairing_differs |= _classes(G, H, transversal, lambda t: u * t) != want
    assert other_pairing_differs
