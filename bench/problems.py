"""Seeded problem generator for the benchmark, built with numpy only.

Nothing here imports ``pfaffrep``: the parent commit and a change under
test receive byte-identical problem documents for the same seed.

Curve points and their kernels are planted rather than searched for.
Three affine points ``p_j = (1, a_j, b_j)`` and three corank-2 skew
matrices ``K_j`` are drawn, and the pencil is the unique one with
``A(p_j) = K_j``: ``[A0, A1, A2] = V^-1 [K_1, K_2, K_3]`` for the 3x3
matrix ``V`` with rows ``p_j``.  Kernel vectors come from the null
space of each ``K_j``.  Pencils are normalized to unit largest entry
and then multiplied by the drawn scale.

Problem ``i`` of a workload draws from ``default_rng((seed, tag, i))``,
so a problem does not depend on how many were generated before it.
"""

from __future__ import annotations

import math

import numpy as np

# -- wire encoding (mirrors the documented JSON conventions) --------------------

def enc_c(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def enc_v(v) -> list:
    return [enc_c(z) for z in np.asarray(v, dtype=complex)]


def enc_m(m) -> list:
    return [enc_v(row) for row in np.asarray(m, dtype=complex)]


def enc_pencil(A) -> dict:
    return {"d": A[0].shape[0] // 2, "A0": enc_m(A[0]), "A1": enc_m(A[1]), "A2": enc_m(A[2])}


def enc_poly(terms: dict, degree: int) -> dict:
    return {"degree": degree,
            "terms": [{"exp": list(e), "coeff": enc_c(terms[e])}
                      for e in sorted(terms, reverse=True)]}


def dec_c(pair) -> complex:
    return complex(pair[0], pair[1])


def dec_v(obj) -> np.ndarray:
    return np.array([dec_c(z) for z in obj], dtype=complex)


def dec_m(obj) -> np.ndarray:
    return np.array([[dec_c(z) for z in row] for row in obj], dtype=complex)


def dec_pencil(obj) -> list[np.ndarray]:
    return [dec_m(obj[k]) for k in ("A0", "A1", "A2")]


def dec_poly(obj) -> dict:
    out: dict = {}
    for t in obj["terms"]:
        e = tuple(t["exp"])
        out[e] = out.get(e, 0) + dec_c(t["coeff"])
    return out


# -- small polynomial helpers (dicts of exponent triples) -----------------------

def poly_eval(terms: dict, x) -> complex:
    return complex(sum(c * x[0] ** a * x[1] ** b * x[2] ** e for (a, b, e), c in terms.items()))


def poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for (a1, b1, c1), v1 in p.items():
        for (a2, b2, c2), v2 in q.items():
            e = (a1 + a2, b1 + b2, c1 + c2)
            out[e] = out.get(e, 0) + v1 * v2
    return out


def poly_add(p: dict, q: dict, s: complex = 1.0) -> dict:
    out = dict(p)
    for e, v in q.items():
        out[e] = out.get(e, 0) + s * v
    return out


def linear(coeffs) -> dict:
    return {(1, 0, 0): complex(coeffs[0]), (0, 1, 0): complex(coeffs[1]),
            (0, 0, 1): complex(coeffs[2])}


def linear_power(coeffs, k: int) -> dict:
    """Expansion of ``(c . x)^k`` by the multinomial theorem."""
    c = [complex(z) for z in coeffs]
    out = {}
    for i in range(k + 1):
        for j in range(k + 1 - i):
            l = k - i - j
            mult = math.factorial(k) // (math.factorial(i) * math.factorial(j) * math.factorial(l))
            out[(i, j, l)] = mult * c[0] ** i * c[1] ** j * c[2] ** l
    return out


def partial(terms: dict, k: int) -> dict:
    out = {}
    for e, v in terms.items():
        if e[k]:
            f = list(e)
            f[k] -= 1
            out[tuple(f)] = out.get(tuple(f), 0) + v * e[k]
    return out


# The cubic normalization of the quartic pipeline: coefficient name ->
# (monomial, multiplicity), so a cubic is sum(mult * w * monomial).
CUBIC_MONOMIALS = {
    "w000": ((3, 0, 0), 1), "w111": ((0, 3, 0), 1), "w222": ((0, 0, 3), 1),
    "w012": ((1, 1, 1), 6), "w001": ((2, 1, 0), 3), "w002": ((2, 0, 1), 3),
    "w011": ((1, 2, 0), 3), "w022": ((1, 0, 2), 3), "w112": ((0, 2, 1), 3),
    "w122": ((0, 1, 2), 3),
}


def cubic_coeffs(cubic: dict) -> dict:
    return {n: enc_c(cubic.get(e, 0) / m) for n, (e, m) in CUBIC_MONOMIALS.items()}


def polar_coeffs(quartic: dict) -> dict:
    """Polar-cubic coefficients of a quartic: each a linear form in the pole."""
    grads = [partial(quartic, k) for k in range(3)]
    return {n: [enc_c(g.get(e, 0) / m) for g in grads]
            for n, (e, m) in CUBIC_MONOMIALS.items()}


# -- the published worked example -----------------------------------------------

CBRT107 = 107.0 ** (1.0 / 3.0)
WORKED_QUARTIC = {(4, 0, 0): 1.0, (3, 1, 0): 1.0, (0, 4, 0): -1.0,
                  (0, 1, 3): -1.0, (1, 2, 1): CBRT107}
WORKED_SCORZA = {(3, 1, 0): 27.0, (1, 3, 0): -432.0, (0, 4, 0): -1.0,
                 (2, 1, 1): -72 * CBRT107, (1, 2, 1): -9 * CBRT107,
                 (2, 0, 2): 81 / CBRT107, (1, 0, 3): -108.0, (0, 1, 3): -27.0}
WORKED_POINT = [1.0, 0.0, 0.75 / CBRT107]


def worked_theta_rep() -> list[np.ndarray]:
    """The published symmetric 4x4 representation, printed to 3 decimals."""
    c = CBRT107
    r13 = np.exp(1j * np.pi / 3)
    r23 = np.exp(2j * np.pi / 3)
    D = np.diag([0.0, -3.0, 3 * r13, -3 * r23])
    W = np.array([
        [4, -24.296, 23.685 + 0.336j, -23.685 + 0.336j],
        [-24.296, 428 / 3 - c, -141.449 + 2.004j, 141.449 + 2.004j],
        [23.685 + 0.336j, -141.449 + 2.004j, 428 / 3 - c * r23, -145.099],
        [-23.685 + 0.336j, 141.449 + 2.004j, -145.099, 428 / 3 + c * r13]],
        dtype=complex)
    return [W, np.eye(4, dtype=complex), -D]


# Printed to three decimals, so identification needs looser tolerances.
WORKED_THETA_TOL = {"zero_tol": 1e-9, "rank_tol": 1e-5, "match_tol": 2e-2}

# -- random building blocks ---------------------------------------------------

def cnormal(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def skew(rng, n: int) -> np.ndarray:
    m = cnormal(rng, (n, n))
    return m - m.T


def wedge(u, v) -> np.ndarray:
    return np.outer(u, v) - np.outer(v, u)


def corank2_skew(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A skew matrix of corank exactly 2 and an orthonormal basis of its kernel."""
    W = cnormal(rng, (n, n - 2))
    K = W @ skew(rng, n - 2) @ W.T
    _, _, vh = np.linalg.svd(W.T)
    return K, vh[n - 2:].conj().T


def kernel2(M: np.ndarray) -> np.ndarray:
    _, _, vh = np.linalg.svd(M)
    return vh[-2:].conj().T


# Well-separated base positions for the planted points; each draw moves
# them by a small random offset.
_POINT_CENTERS = [(0.5, -0.3), (-0.6, 0.4), (0.2, 0.9)]


def planted_pencil(rng, d: int, scale: float = 1.0) -> dict:
    """Pencil with three planted curve points and their kernel bases."""
    n = 2 * d
    pts = [np.array([1.0, a + 0.1 * cnormal(rng, ()), b + 0.1 * cnormal(rng, ())])
           for a, b in _POINT_CENTERS]
    Ks, kers = zip(*(corank2_skew(rng, n) for _ in pts))
    Vinv = np.linalg.inv(np.array(pts))
    A = [sum(Vinv[k, j] * Ks[j] for j in range(3)) for k in range(3)]
    norm = max(float(np.max(np.abs(m))) for m in A)
    A = [scale * (m - m.T) / (2 * norm) for m in A]
    return {"A": A, "points": pts, "kernels": list(kers)}


def first_canonical(rng, d: int, scale: float = 1.0) -> list[np.ndarray]:
    J = np.array([[0, 1], [-1, 0]], dtype=complex)
    ps = cnormal(rng, d)
    A1 = np.kron(np.eye(d), J)
    A2 = np.zeros((2 * d, 2 * d), dtype=complex)
    for i, p in enumerate(ps):
        A2[2 * i: 2 * i + 2, 2 * i: 2 * i + 2] = -p * J
    return [scale * skew(rng, 2 * d) / 2, A1, A2]


def second_canonical(rng, d: int, decomposable: bool) -> list[np.ndarray]:
    """Second canonical form; the constant part is block-decomposable or random."""
    Z, I = np.zeros((d, d)), np.eye(d)
    D = np.diag(cnormal(rng, d))
    A1 = np.block([[Z, I], [-I, Z]]).astype(complex)
    A2 = np.block([[Z, -D], [D, Z]])
    if decomposable:
        C = cnormal(rng, (d, d))
        A0 = np.block([[Z, C], [-C.T, Z]])
    else:
        A0 = skew(rng, 2 * d) / 2
    return [A0, A1, A2]


def type2_update(A, v, rho) -> np.ndarray:
    """Constant part after a one-point step: ``gamma + 2 rho (s2 v ^ s1 v)``."""
    s1, s2 = -A[2], A[1]
    g = A[0] + 2.0 * rho * wedge(s2 @ v, s1 @ v)
    return (g - g.T) / 2


def k_value(A, lam, v, mu, u, t1, t2) -> complex:
    """The coupling constant ``v^t (t1 s1 + t2 s2) u / (t1 (l1-m1) + t2 (l2-m2))``."""
    s1, s2 = -A[2], A[1]
    den = t1 * (lam[1] / lam[0] - mu[1] / mu[0]) + t2 * (lam[2] / lam[0] - mu[2] / mu[0])
    return complex(v @ (t1 * s1 + t2 * s2) @ u / den)


def coupling_pairs(A, lam, mu, V, U) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kernel vectors from the singular pairs of the 2x2 coupling matrix
    of the kernel bases ``V`` at ``lam`` and ``U`` at ``mu`` (affine points).

    Returns ``v``, ``u_max`` and ``u_null``: ``v`` and ``u_max`` couple with
    the largest ``|K|`` (the best-conditioned two-point step), while ``v``
    and ``u_null`` do not couple at all.
    """
    t1, t2 = 0.6 + 0.2j, -0.3 + 0.7j  # K does not depend on this direction
    den = t1 * (lam[1] - mu[1]) + t2 * (lam[2] - mu[2])
    X, _, Yh = np.linalg.svd(V.T @ (t1 * -A[2] + t2 * A[1]) @ U / den)
    return V @ X[:, 0].conj(), U @ Yh[0].conj(), U @ Yh[1].conj()


def type1_update(A, lam, v, mu, u, K) -> np.ndarray:
    s1, s2 = -A[2], A[1]
    g = A[0] + (-wedge(s1 @ u, s2 @ v) + wedge(s2 @ u, s1 @ v)) / K
    return (g - g.T) / 2


def record(kind, before, after, lam=None, mu=None, v=None, u=None, rho=None, k=None) -> dict:
    return {"kind": kind,
            "lambda": enc_v(lam) if lam is not None else None,
            "mu": enc_v(mu) if mu is not None else None,
            "v": enc_v(v) if v is not None else None,
            "u": enc_v(u) if u is not None else None,
            "rho": enc_c(rho) if rho is not None else None,
            "k_value": enc_c(k) if k is not None else None,
            "gamma_before": enc_m(before), "gamma_after": enc_m(after),
            "conint_data": None}


def mix(rng, basis: np.ndarray) -> np.ndarray:
    """A random unit vector in the column span of ``basis``."""
    v = basis @ cnormal(rng, basis.shape[1])
    return v / np.linalg.norm(v)


def off_curve_point(rng) -> np.ndarray:
    return np.array([1.0, *cnormal(rng, 2)])


# -- problem builders -------------------------------------------------------------
# Each builder returns the problem document; ``expect`` carries what the
# checker needs to know about the input (never sent to the program).

def _doc(kind, payload, seed=0, tolerances=None, **expect) -> dict:
    doc = {"kind": kind, "payload": payload, "seed": seed}
    if tolerances:
        doc["tolerances"] = tolerances
    return {"doc": doc, "expect": expect}


def build_pencil_problem(kind: str, d: int, scale: float, rng) -> dict:
    """Problems on a general pencil of half-degree ``d`` at overall ``scale``."""
    if kind == "canon2":
        A = first_canonical(rng, d, scale)
        return _doc(kind, {"pencil": enc_pencil(A)})
    if kind == "structure":
        decomposable = bool(rng.integers(2))
        A = second_canonical(rng, d, decomposable)
        A[0] = scale * A[0]
        return _doc(kind, {"pencil": enc_pencil(A)}, decomposable=decomposable)
    if kind == "bridge":
        return build_bridge_problem(1, d, rng)
    pl = planted_pencil(rng, d, scale)
    A, pts, kers = pl["A"], pl["points"], pl["kernels"]
    pen = enc_pencil(A)
    lam, mu = pts[0], pts[1]
    v, u = mix(rng, kers[0]), mix(rng, kers[1])
    if kind in ("pf", "canon"):
        return _doc(kind, {"pencil": pen})
    if kind == "pf-minor":
        i, j = (int(x) for x in rng.choice(2 * d, size=2, replace=False))
        return _doc(kind, {"pencil": pen, "i": i, "j": j})
    if kind == "adjoint":
        return _doc(kind, {"pencil": pen, "point": enc_v(off_curve_point(rng))})
    if kind in ("kernel", "tangent"):
        return _doc(kind, {"pencil": pen, "point": enc_v(lam)})
    if kind == "classify-pair":
        return _doc(kind, {"pencil": pen, "lambda": enc_v(lam), "mu": enc_v(mu)})
    if kind == "k-const":
        t = cnormal(rng, 2)
        return _doc(kind, {"pencil": pen, "lambda": enc_v(lam), "mu": enc_v(mu),
                           "v": enc_v(v), "u": enc_v(u), "t1": enc_c(t[0]), "t2": enc_c(t[1])},
                    k=enc_c(k_value(A, lam, v, mu, u, t[0], t[1])))
    if kind == "partners":
        return _doc(kind, {"pencil": pen, "lambda": enc_v(lam), "v": enc_v(v), "u": enc_v(u)})
    if kind == "type1":
        # the best-coupled pair: small |K| makes the step ill-conditioned,
        # which pair_probe measures separately
        v, u, _ = coupling_pairs(A, lam, mu, kers[0], kers[1])
        return _doc(kind, {"pencil": pen, "lambda": enc_v(lam), "mu": enc_v(mu),
                           "v": enc_v(v), "u": enc_v(u)})
    if kind == "type2":
        return _doc(kind, {"pencil": pen, "lambda": enc_v(lam), "v": enc_v(v),
                           "rho": enc_c(0.5 * cnormal(rng, ()))})
    if kind == "conint":
        m = 2 + int(rng.integers(2))
        vecs = [mix(rng, kers[k]) for k in range(m)]
        return _doc(kind, {"pencil": pen, "points": [enc_v(p) for p in pts[:m]],
                           "vectors": [enc_v(w) for w in vecs],
                           "rhos": [enc_c(0.5 * cnormal(rng, ())) for _ in range(m)]})
    if kind == "verify-replay":
        recs, cur = [], A
        for _ in range(2):
            rho = 0.5 * cnormal(rng, ())
            after = type2_update(cur, v, rho)
            recs.append(record("II", cur[0], after, lam=lam, v=v, rho=rho))
            cur = [after, cur[1], cur[2]]
        return _doc(kind, {"pencil": pen, "records": recs})
    if kind == "bundle-check":
        if rng.integers(2):
            t = cnormal(rng, 2)
            K = k_value(A, lam, v, mu, u, t[0], t[1])
            rec = record("I", A[0], type1_update(A, lam, v, mu, u, K),
                         lam=lam, mu=mu, v=v, u=u, k=K)
            curve = [pts[2]]
        else:
            rho = 0.5 * cnormal(rng, ())
            rec = record("II", A[0], type2_update(A, v, rho), lam=lam, v=v, rho=rho)
            curve = [mu, pts[2]]
        samples = [enc_v(off_curve_point(rng)) for _ in range(3)]
        return _doc(kind, {"pencil": pen, "record": rec, "samples": samples,
                           "curve_samples": [enc_v(p) for p in curve]})
    raise ValueError(f"no pencil builder for {kind!r}")


def decomposable_points(C, D, rng, count: int) -> list[np.ndarray]:
    """Curve points of det(C x0 + x1 I - D x2) = 0 in the chart x0 = 1."""
    out = []
    for _ in range(count):
        t = cnormal(rng, ())
        ev = np.linalg.eigvals(C - t * D)
        out.append(np.array([1.0, -ev[int(rng.integers(len(ev)))], t]))
    return out


def planted_bridge(rng, d: int, steps: int) -> list[np.ndarray]:
    """A decomposable second-canonical pencil moved off the pattern by
    ``steps`` one-point steps, each at a fresh curve point."""
    Z, I = np.zeros((d, d)), np.eye(d)
    C = cnormal(rng, (d, d))
    D = np.diag(cnormal(rng, d))
    A = [np.block([[Z, C], [-C.T, Z]]), np.block([[Z, I], [-I, Z]]).astype(complex),
         np.block([[Z, -D], [D, Z]])]
    for x in decomposable_points(C, D, rng, steps):
        kb = kernel2(x[0] * A[0] + x[1] * A[1] + x[2] * A[2])
        A = [type2_update(A, mix(rng, kb), 0.4 + 0.4 * cnormal(rng, ())), A[1], A[2]]
    return A


def build_bridge_problem(steps: int, d: int, rng) -> dict:
    """A planted corpus (``steps`` >= 1) or a random constant part (``steps`` = 0)."""
    A = planted_bridge(rng, d, steps) if steps else second_canonical(rng, d, decomposable=False)
    return _doc("bridge", {"pencil": enc_pencil(A), "budget": 30})


def random_quartic(rng) -> dict:
    return {(a, b, 4 - a - b): complex(cnormal(rng, ()))
            for a in range(5) for b in range(5 - a)}


def triangle_quartic(rng) -> tuple[dict, np.ndarray]:
    """A quartic whose polar cubic at the returned point is a sum of three cubes.

    ``F = sum l_i^4 / (4 l_i0) + sum m_j^4`` with ``m_j`` free of ``x0``
    has polar cubic ``dF/dx0 = sum l_i^3`` at ``e0``; a random change of
    coordinates ``g`` moves the pole to ``g^-1 e0``.
    """
    g = cnormal(rng, (3, 3))
    F: dict = {}
    for _ in range(3):
        l = cnormal(rng, 3)
        F = poly_add(F, linear_power(g.T @ l, 4), 1.0 / (4 * l[0]))
        m = np.array([0.0, *cnormal(rng, 2)])
        F = poly_add(F, linear_power(g.T @ m, 4))
    pole = np.linalg.solve(g, np.array([1.0, 0.0, 0.0]))
    return F, pole / pole[0]


def sym_net_with_base_points(rng) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Three symmetric 4x4 matrices whose quadrics all pass through b_i and b_j."""
    b_i, b_j = cnormal(rng, 4), cnormal(rng, 4)
    idx = [(r, c) for r in range(4) for c in range(r, 4)]
    # b^t M b for symmetric M is linear in the 10 upper-triangular entries
    rows = [[b[r] * b[c] * (1 if r == c else 2) for r, c in idx] for b in (b_i, b_j)]
    _, _, vh = np.linalg.svd(np.array(rows))
    null = vh[2:].conj().T
    mats = []
    for _ in range(3):
        x = null @ cnormal(rng, null.shape[1])
        M = np.zeros((4, 4), dtype=complex)
        for (r, c), val in zip(idx, x):
            M[r, c] = M[c, r] = val
        mats.append(M / np.max(np.abs(M)))
    return mats, b_i, b_j


def enc_detrep(M) -> dict:
    return {"d": M[0].shape[0], "M0": enc_m(M[0]), "M1": enc_m(M[1]), "M2": enc_m(M[2])}


def build_quartic_problem(kind: str, worked: bool, rng) -> dict:
    """Quartic-pipeline problems on the worked example or on random data."""
    F = WORKED_QUARTIC if worked else random_quartic(rng)
    if kind == "polar-cubic":
        return _doc(kind, {"quartic": enc_poly(F, 4)})
    if kind == "scorza":
        payload = {"quartic": enc_poly(F, 4)}
        if worked:
            payload["expected"] = enc_poly(WORKED_SCORZA, 4)
        return _doc(kind, payload)
    if kind == "aronhold-pencil":
        return _doc("aronhold", {"coeffs": polar_coeffs(F)},
                    scorza=enc_poly(WORKED_SCORZA, 4) if worked else None)
    if kind == "aronhold-scalar":
        # a sum of three cubes (Fermat for the worked slot) has invariant zero
        lines = [np.eye(3)[k] for k in range(3)] if worked else [cnormal(rng, 3) for _ in range(3)]
        cubic: dict = {}
        for l in lines:
            cubic = poly_add(cubic, linear_power(l, 3))
        return _doc("aronhold", {"coeffs": cubic_coeffs(cubic)}, three_cubes=True,
                    coeff_scale=max(abs(v) for v in cubic.values()))
    if kind == "integrate-polar":
        return _doc(kind, {"coeffs": polar_coeffs(F)}, quartic=enc_poly(F, 4))
    if kind == "triangle":
        if worked:
            F, pole = WORKED_QUARTIC, np.array(WORKED_POINT)
        else:
            F, pole = triangle_quartic(rng)
        return _doc(kind, {"quartic": enc_poly(F, 4), "point": enc_v(pole)})
    if kind == "factor-lines":
        lines = ([[1, 1, 0], [1, -1, 0], [0, 1, 2]] if worked
                 else [cnormal(rng, 3) for _ in range(3)])
        cubic = poly_mul(poly_mul(linear(lines[0]), linear(lines[1])), linear(lines[2]))
        return _doc(kind, {"cubic": enc_poly(cubic, 3)})
    if kind == "identify-theta":
        return _doc(kind, {"quartic": enc_poly(WORKED_QUARTIC, 4),
                           "candidates": [enc_detrep(worked_theta_rep())], "samples": 3},
                    seed=3, tolerances=WORKED_THETA_TOL, index=0)
    if kind == "bitangent":
        M, b_i, b_j = sym_net_with_base_points(rng)
        line = [complex(b_i @ Mk @ b_j) for Mk in M]
        return _doc(kind, {"rep": enc_detrep(M), "b_i": enc_v(b_i), "b_j": enc_v(b_j)},
                    line=enc_v(line))
    raise ValueError(f"no quartic builder for {kind!r}")


# -- workloads ----------------------------------------------------------------------

PENCIL_KINDS = ("pf", "pf-minor", "adjoint", "kernel", "canon", "canon2", "structure",
                "tangent", "classify-pair", "k-const", "partners", "type1", "type2",
                "conint", "verify-replay", "bundle-check", "bridge")
QUARTIC_KINDS = ("polar-cubic", "aronhold-scalar", "aronhold-pencil", "scorza",
                 "integrate-polar", "triangle", "factor-lines", "identify-theta", "bitangent")

# Every pencil command at d = 2, 3, 4, one bridge from a random constant
# part at d = 3 (it runs its whole budget), then every quartic command on
# the worked example and on random data (identify-theta: worked case only).
CLI_SMALL_SLOTS = ([(k, d) for d in (2, 3, 4) for k in PENCIL_KINDS]
                   + [("bridge-random", 3)]
                   + [(k, w) for w in (True, False) for k in QUARTIC_KINDS
                      if w or k != "identify-theta"])

# Scale range in which no cli-small command failed when the benchmark was
# defined; the wider range is covered by scale_probe (see README).
CLI_SMALL_LOG10_SCALE = (-1.0, 1.0)

# Batches of three problems whose pfaffian work is (nearly) equal, so the
# batch latency stays unimodal: the four kinds that compute two pfaffians
# rotate over d = 7, 6, 5, and the fifth batch holds the one-pfaffian
# ``pf`` twice at d = 7 and the three-pfaffian ``verify-replay`` at d = 6.
_TWO_PF = ("canon", "type1", "type2", "conint")
BATCH_SIZE = 3
BATCH_SLOTS = ([(_TWO_PF[(b + k) % 4], d) for b in range(4) for k, d in enumerate((7, 6, 5))]
               + [("pf", 7), ("pf", 7), ("verify-replay", 6)])

# (planted steps, d): corpora planted with 1, 2 and 3 one-point steps at
# d = 4 and 5 alternate with random constant parts (0 steps) at d = 3 and
# 4.  The step count is part of the cycle, so every seed runs the same mix.
BRIDGE_SLOTS = [(1, 4), (0, 3), (2, 5), (0, 4), (3, 4), (0, 3),
                (1, 5), (0, 4), (2, 4), (0, 3), (3, 5), (0, 4)]

WORKLOADS = {"cli-small": CLI_SMALL_SLOTS, "batch-highdeg": BATCH_SLOTS,
             "bridge-corpus": BRIDGE_SLOTS}
_TAGS = {"cli-small": 1, "batch-highdeg": 2, "bridge-corpus": 3, "scale-probe": 4,
         "pair-probe": 5}


def problem(workload: str, seed: int, index: int) -> dict:
    """Problem ``index`` of a workload's seeded stream."""
    slots = WORKLOADS[workload]
    rng = np.random.default_rng((seed, _TAGS[workload], index))
    kind, variant = slots[index % len(slots)]
    if workload == "cli-small":
        if kind == "bridge-random":
            return build_bridge_problem(0, variant, rng)
        if kind in PENCIL_KINDS:
            lo, hi = CLI_SMALL_LOG10_SCALE
            scale = 10.0 ** rng.uniform(lo, hi)
            return build_pencil_problem(kind, variant, scale, rng)
        return build_quartic_problem(kind, variant, rng)
    if workload == "batch-highdeg":
        return build_pencil_problem(kind, variant, 1.0, rng)
    return build_bridge_problem(kind, variant, rng)


SCALE_PROBE_KINDS = ("pf", "canon", "classify-pair")
SCALE_PROBE_LOG10 = tuple(range(-3, 4))


def scale_probe(seed: int) -> list[dict]:
    """The same d = 4 problems at scales 1e-3 ... 1e3 (ROADMAP scale probe)."""
    out = []
    for k, kind in enumerate(SCALE_PROBE_KINDS):
        for e in SCALE_PROBE_LOG10:
            rng = np.random.default_rng((seed, _TAGS["scale-probe"], k))
            out.append(build_pencil_problem(kind, 4, 10.0 ** e, rng))
    return out


PAIR_PROBE_EPS = (1.0, 1e-1, 1e-2, 1e-3)


def pair_probe(seed: int) -> list[dict]:
    """One d = 6 type I step with the coupling |K| shrunk by each factor in
    ``PAIR_PROBE_EPS``: ``u = u_null + eps * u_max``, normalized."""
    rng = np.random.default_rng((seed, _TAGS["pair-probe"], 0))
    pl = planted_pencil(rng, 6)
    A, (lam, mu, _), kers = pl["A"], pl["points"], pl["kernels"]
    v, u_max, u_null = coupling_pairs(A, lam, mu, kers[0], kers[1])
    out = []
    for eps in PAIR_PROBE_EPS:
        u = u_null + eps * u_max
        out.append(_doc("type1", {"pencil": enc_pencil(A), "lambda": enc_v(lam), "mu": enc_v(mu),
                                  "v": enc_v(v), "u": enc_v(u / np.linalg.norm(u))}))
    return out
