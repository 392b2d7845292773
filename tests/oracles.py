"""Exponential-time reference routes, used only as oracles in the tests.

The library computes pfaffians and determinants by elimination on a grid
of roots of unity.  The routes here share no code with it: recursive
expansion along the first surviving row (memoized on the index subset),
summation over perfect matchings with explicit permutation signs, and
Laplace expansion of the determinant.  Their cost grows exponentially
with the dimension, so keep them to dimension 8, or 14 for the row
expansion.

The bridge's step is scored here one candidate at a time, from the wedge
formula of a one-point step rather than the library's stacked update.
A cubic's ten coefficients are read off its monomials, and the partner
direction of an admissible pair off its ``kappa``, with no library helper.
Pfaffian invariance is compared coefficient-wise, on both pfaffian
polynomials, as the library did before it compared values at points.
"""

import math

import numpy as np

from pfaffrep import CubicCoeffs, HomPoly, SkewPencil
from pfaffrep.poly import relative_deviation
from pfaffrep.quartic import CUBIC_FIELDS


def _pfaffian_expand(entry, indices, one):
    """Recursive expansion along the first surviving index.

    ``entry`` maps ordered pairs ``(i, j)`` with ``i < j`` to ring
    elements supporting ``+``, ``-`` and ``*``; ``one`` is the ring unit.
    """
    memo = {}

    def rec(s):
        if not s:
            return one
        if s in memo:
            return memo[s]
        i = s[0]
        total = None
        for m in range(1, len(s)):
            j = s[m]
            rest = tuple(k for k in s if k != i and k != j)
            term = entry[(i, j)] * rec(rest)
            if m % 2 == 0:
                term = -term
            total = term if total is None else total + term
        memo[s] = total
        return total

    return rec(tuple(indices))


def pfaffian_by_expansion(P: SkewPencil, drop: tuple[int, ...] = ()) -> HomPoly:
    """Symbolic pfaffian of ``P`` with the rows and columns in ``drop`` removed."""
    keep = [k for k in range(P.dim) if k not in drop]
    entry = {(i, j): P.entry(i, j).as_poly() for i in keep for j in keep if i < j}
    return _pfaffian_expand(entry, keep, HomPoly.constant(1.0))


def pfaffian_numeric_by_expansion(A, drop: tuple[int, ...] = ()) -> complex:
    """Pfaffian of a constant skew matrix with the indices in ``drop`` removed."""
    keep = [k for k in range(A.shape[0]) if k not in drop]
    if len(keep) % 2:
        return 0j
    entry = {(i, j): complex(A[i, j]) for i in keep for j in keep if i < j}
    return complex(_pfaffian_expand(entry, keep, 1.0 + 0j))


def det_by_laplace(M) -> HomPoly:
    """Symbolic determinant of a ``DetRep`` by Laplace expansion on row subsets."""
    d = M.size
    memo: dict[tuple[int, ...], HomPoly] = {}

    def rec(rows: tuple[int, ...]) -> HomPoly:
        if not rows:
            return HomPoly.constant(1.0)
        if rows in memo:
            return memo[rows]
        col = d - len(rows)
        total = HomPoly.zero(len(rows))
        for pos, r in enumerate(rows):
            sub = rec(tuple(x for x in rows if x != r))
            term = M.entry(r, col).as_poly() * sub
            total = total + (term if pos % 2 == 0 else -term)
        memo[rows] = total
        return total

    return rec(tuple(range(d)))


def _matchings(items: tuple[int, ...]):
    if not items:
        yield ()
        return
    first = items[0]
    for k in range(1, len(items)):
        rest = tuple(x for x in items[1:] if x != items[k])
        for m in _matchings(rest):
            yield ((first, items[k]),) + m


def _perm_sign(perm: list[int]) -> int:
    inv = 0
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                inv += 1
    return -1 if inv % 2 else 1


def pfaffian_by_matchings(P: SkewPencil) -> HomPoly:
    """Pfaffian as a signed sum over perfect matchings."""
    n = P.dim
    entry = {(i, j): P.entry(i, j).as_poly() for i in range(n) for j in range(i + 1, n)}
    total = HomPoly.zero(P.half_deg)
    for m in _matchings(tuple(range(n))):
        perm = [i for pair in m for i in pair]
        term = HomPoly.constant(float(_perm_sign(perm)))
        for (i, j) in m:
            term = term * entry[(i, j)]
        total = total + term
    return total


def pfaffian_numeric_by_matchings(A) -> complex:
    n = A.shape[0]
    if n % 2:
        return 0j
    total = 0j
    for m in _matchings(tuple(range(n))):
        perm = [i for pair in m for i in pair]
        prod = complex(_perm_sign(perm))
        for (i, j) in m:
            prod *= A[i, j]
        total += prod
    return total


def cubic_coeffs_from_poly(cubic: HomPoly) -> CubicCoeffs:
    """The ten coefficients of a cubic: ``w_abc`` is the coefficient of the
    monomial ``x_a x_b x_c`` over its number of orderings, ``3! / prod(e_k!)``."""
    exps = [tuple(name[1:].count(str(k)) for k in range(3)) for name in CUBIC_FIELDS]
    return CubicCoeffs(*(cubic.coeff(e) * math.prod(map(math.factorial, e)) / 6 for e in exps))


def partner_direction(pc, v_coeffs) -> np.ndarray:
    """For an admissible pair ``pc``: the kernel direction at mu coupled to
    ``v = pc.basis_lambda.vectors @ v_coeffs`` by ``K(v, u) = 0``."""
    row = np.asarray(v_coeffs, dtype=complex) @ pc.kappa
    u_coeffs = np.array([row[1], -row[0]])
    return pc.basis_mu.vectors @ (u_coeffs / np.linalg.norm(u_coeffs))


def pf_coeff_deviation(P: SkewPencil, Q: SkewPencil) -> float:
    """The largest coefficient of ``Pf P - Pf Q`` relative to ``Pf P``'s."""
    return relative_deviation(P.pfaffian(), Q.pfaffian())


def coeff_rel_dev(a: HomPoly, b: HomPoly) -> float:
    """Largest coefficient difference, relative to the largest coefficient.

    Compares the term maps exponent by exponent, so nothing is pruned
    (``HomPoly`` subtraction drops differences at an absolute ``zero_tol``).
    """
    scale = max(a.max_coeff(), b.max_coeff())
    if scale == 0.0:
        return 0.0
    ta, tb = a.terms, b.terms
    return max(abs(ta.get(e, 0j) - tb.get(e, 0j)) for e in ta.keys() | tb.keys()) / scale


def best_step_one_by_one(P: SkewPencil, V, zero_tol: float):
    """The bridge's choice among the rows ``v`` of ``V``, scored one by one.

    A one-point step with constant ``rho`` adds ``2 rho (s2 v ^ s1 v)`` to the
    constant part; ``U`` is that wedge's off-pattern entries at ``rho = 1`` and
    ``G`` the current ones.  Each row takes the least-squares ``rho`` minimizing
    ``|G + rho U|``; a row with ``|rho| |U| <= zero_tol |G|`` is skipped, and the
    first row with the least new norm wins.  Returns ``(row, rho, new norm)``,
    or None when every row is skipped.
    """
    d = P.half_deg

    def pattern(M):
        return np.concatenate([M[:d, :d].ravel(), M[d:, d:].ravel()])

    G = pattern(P.gamma)
    off = np.linalg.norm(G)
    best = None
    for k, v in enumerate(V):
        a, b = P.sigma2 @ v, P.sigma1 @ v
        U = pattern(2.0 * (np.outer(a, b) - np.outer(b, a)))
        uu = np.vdot(U, U).real
        if uu <= 0:
            continue
        rho = -np.vdot(U, G) / uu
        if abs(rho) * np.sqrt(uu) <= zero_tol * off:
            continue
        new_off = float(np.linalg.norm(G + rho * U))
        if best is None or new_off < best[2]:
            best = (k, complex(rho), new_off)
    return best
