"""The closed-form bound sequences a(.,p)_n and b(u,2)_n, and the exponent
tables n(p) and n'(p).

bound_sequence evaluates the eight upper-bound sequences for
#(H n Conj(alpha)) over slim subgroups H.  It imports only core, so the CLI
reads the sequences without loading bounds.py, which only verify runs.
"""

from __future__ import annotations

from .core import PreconditionError, is_prime

# -------------------- exponent tables --------------------


def n_upper_bound(p: int) -> int:
    """The proven upper bound for n(p) (all-elliptic-curves statement)."""
    if p >= 23:
        return 0
    return {19: 1, 17: 1, 13: 1, 11: 1, 7: 2, 5: 3, 3: 5, 2: 11}[p]


def n_prime(p: int) -> int:
    """The exponent n'(p) so that slim subgroups mod p^(n'(p)+1) control the bound."""
    if p >= 23:
        return 0
    return {19: 1, 17: 1, 13: 1, 11: 1, 7: 2, 5: 3, 3: 5, 2: 10}[p]


# -------------------- bound sequences --------------------

BOUND_KINDS = (
    "a_sigma_p",
    "a_tau_p",
    "a_tau_3",
    "a_u_p",
    "a_u_2",
    "a_sigma_2",
    "a_tau_2",
    "b_u_2",
)


def bound_sequence(kind: str, p: int, n: int) -> int:
    """The closed-form sequences, with l = floor(n/2) and l' = ceil(n/2)."""
    if kind not in BOUND_KINDS:
        raise ValueError("unknown bound kind %r" % kind)
    if not is_prime(p):
        raise PreconditionError("p must be prime, got %d" % p)
    l = n // 2
    lp = (n + 1) // 2
    if kind in ("a_sigma_p", "a_tau_p"):
        if p < (3 if kind == "a_sigma_p" else 5):
            raise PreconditionError("%s needs p >= %d" % (kind, 3 if kind == "a_sigma_p" else 5))
        if n < 2:
            raise PreconditionError("%s needs n >= 2" % kind)
        return 2 * p ** (2 * (n - l)) + 2 * (l - 1) * (p * p - 1) * p ** (n - 1)
    if kind == "a_tau_3":
        if p != 3 or n < 2:
            raise PreconditionError("a_tau_3 needs p = 3 and n >= 2")
        if n == 2:
            return 9
        if n % 2 == 0:
            return (4 * n - 11) * 3**n
        return (4 * n - 9) * 3**n
    if kind == "a_u_p":
        if p < 3 or n < 2:
            raise PreconditionError("a_u_p needs p >= 3 and n >= 2")
        if n % 2 == 0:
            return (p - 1) * (2 * p ** (3 * l - 1) - p**n) // 2
        return (p - 1) * (p ** (3 * l + 1) + p ** (3 * l) - p**n) // 2
    if p != 2:
        raise PreconditionError("%s is a p = 2 sequence" % kind)
    if kind == "a_u_2":
        if n < 6:
            raise PreconditionError("a_u_2 needs n >= 6")
        base = 2 ** (3 * l - 1) if n % 2 == 0 else 3 * 2 ** (3 * l - 1)
        return base - 2 ** (n + 1)
    if kind == "a_sigma_2":
        if n < 3:
            raise PreconditionError("a_sigma_2 needs n >= 3")
        if n == 3:
            return 8
        if n == 4:
            return 32
        if n % 2 == 0:
            return 3 * (l - 2) * 2 ** (n + 1)
        return (3 * l - 4) * 2 ** (n + 1)
    if kind == "a_tau_2":
        if n < 5:
            raise PreconditionError("a_tau_2 needs n >= 5")
        if n % 2 == 0:
            return (3 * lp - 5) * 2 ** (n + 1)
        return (3 * lp - 7) * 2 ** (n + 1)
    # b_u_2
    if n < 4:
        raise PreconditionError("b_u_2 needs n >= 4")
    if n % 2 == 0:
        return 3 * 2 ** (3 * lp - 2) - 2 ** (n + 1)
    return 2 ** (3 * lp - 2) - 2 ** (n + 1)
