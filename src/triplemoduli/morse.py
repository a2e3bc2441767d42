"""Fixed-point bookkeeping for the circle action on Higgs moduli.

A fixed point is a Hodge chain: a decomposition E = F_1 + ... + F_m with
the Higgs field mapping each F_i into F_{i+1} x K. Only the ranks r_i and
degrees e_i enter the formulas here. The adjoint bundle splits into weight
spaces U_k (the Hom(F_j, F_i) with i - j = k), and the Morse function's
local data at the fixed point reduces to ranks and degrees of the U_k:
the H^1 dimension of the weight-k subcomplex and the Morse index

    index = sum over k = 2..m-1 of ((g-1) rk U_k + (-1)^(k+1) deg U_k).

These are formula evaluators: nothing checks that a chain is realizable as
a stable critical point (that needs bundle data, not just numbers), and a
negative index is returned as-is so callers can attach the
non-realizability advisory.
"""

from __future__ import annotations

from .errors import DomainError, record, require_int

MORSE_NEGATIVE_ADVISORY = (
    "negative index: not realizable as a stable critical point"
)


@record
class HodgeChain:
    """Ranks and degrees (r_1..r_m, e_1..e_m) of a chain of length m."""

    ranks: tuple[int, ...]
    degrees: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ranks", tuple(self.ranks))
        object.__setattr__(self, "degrees", tuple(self.degrees))
        if len(self.ranks) < 1:
            raise DomainError("chain length must be >= 1")
        if len(self.ranks) != len(self.degrees):
            raise DomainError(
                "ranks and degrees must have equal length, got %d and %d"
                % (len(self.ranks), len(self.degrees))
            )
        for r in self.ranks:
            require_int("chain rank", r, 1)
        for e in self.degrees:
            require_int("chain degree", e)

    @property
    def length(self) -> int:
        return len(self.ranks)


def uk_profile(C: HodgeChain, k: int) -> tuple[int, int]:
    """(rank, degree) of the weight-k piece U_k of the adjoint bundle.

    U_k collects Hom(F_j, F_i) over i - j = k, so
    rank = sum r_j r_i and degree = sum (r_j e_i - r_i e_j); weights
    beyond the chain (|k| > m - 1) give (0, 0).
    """
    require_int("weight k", k)
    return _uk_profile(C, k)


def _uk_profile(C: HodgeChain, k: int) -> tuple[int, int]:
    """uk_profile without the check of k, for an int k the caller
    computed."""
    m = C.length
    rank = 0
    degree = 0
    for i in range(1, m + 1):
        j = i - k
        if 1 <= j <= m:
            rj, ri = C.ranks[j - 1], C.ranks[i - 1]
            ej, ei = C.degrees[j - 1], C.degrees[i - 1]
            rank += rj * ri
            degree += rj * ei - ri * ej
    return rank, degree


def dim_h1_weight(C: HodgeChain, k: int, g: int) -> int:
    """Dimension of H^1 of the weight-k subcomplex, k >= 0.

    For k >= 1 this is (g-1)(rk U_{2k+1} + rk U_{2k}) + deg U_{2k+1}
    - deg U_{2k}; the invariant-direction case k = 0 picks up an extra 1.
    """
    require_int("weight k", k, 0)
    require_int("genus", g, 2)
    r_odd, d_odd = _uk_profile(C, 2 * k + 1)
    r_even, d_even = _uk_profile(C, 2 * k)
    base = (g - 1) * (r_odd + r_even) + d_odd - d_even
    if k == 0:
        return 1 + base
    return base


def morse_index(C: HodgeChain, g: int) -> int:
    """Complex Morse index at the fixed point; the real index is double.

    Evaluates sum_{k=2}^{m-1} ((g-1) rk U_k + (-1)^(k+1) deg U_k)
    verbatim; length-2 chains (the minima) give the empty sum 0. Chain
    data that is not realizable as a stable critical point can produce a
    negative value, which is returned unchanged.
    """
    require_int("genus", g, 2)
    total = 0
    for k in range(2, C.length):
        rank, degree = _uk_profile(C, k)
        sign = 1 if (k + 1) % 2 == 0 else -1
        total += (g - 1) * rank + sign * degree
    return total
