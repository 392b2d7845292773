import importlib.util
from pathlib import Path

import numpy as np
import pytest

from pfaffrep import (HomPoly, ProjPoint, SkewPencil, SymDetRep, TolerancePolicy, kernel_at,
                      polar_triangle, sample_curve_points, to_canonical)
from pfaffrep import jsonio as io

CBRT107 = 107.0 ** (1.0 / 3.0)


def random_skew(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return m - m.T


def random_pencil(rng, dim):
    """A random pencil; its pfaffian is a smooth curve with probability one."""
    return SkewPencil(random_skew(rng, dim), random_skew(rng, dim), random_skew(rng, dim))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def quartic_example():
    """The worked quartic x^4 + x^3 y - y^4 - y z^3 + 107^(1/3) x y^2 z."""
    return HomPoly(4, {(4, 0, 0): 1, (3, 1, 0): 1, (0, 4, 0): -1,
                       (0, 1, 3): -1, (1, 2, 1): CBRT107})


@pytest.fixture
def scorza_printed():
    """The published covariant quartic of the worked example."""
    c = CBRT107
    return HomPoly(4, {(3, 1, 0): 27, (1, 3, 0): -432, (0, 4, 0): -1,
                       (2, 1, 1): -72 * c, (1, 2, 1): -9 * c, (2, 0, 2): 81 / c,
                       (1, 0, 3): -108, (0, 1, 3): -27})


def theta_rep():
    """The published symmetric 4x4 representation (entries printed to 3 decimals)."""
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
    return SymDetRep(W, np.eye(4, dtype=complex), -D)


@pytest.fixture
def m_theta():
    return theta_rep()


@pytest.fixture
def theta_lambda():
    """The sample point (1, 0, (3/4) 107^(-1/3)) on the covariant quartic."""
    return ProjPoint(1.0, 0.0, 0.75 / CBRT107)


@pytest.fixture
def theta_vertices_printed():
    """Published polar-triangle vertices at theta_lambda (3 decimals)."""
    return [ProjPoint(1, 0, 0),
            ProjPoint(1, -4, -20.034 + 34.609j),
            ProjPoint(1, -4, -20.034 - 34.609j)]


@pytest.fixture
def printed_kernel_vectors():
    """Published corank-1 kernel vectors of the symmetric representation."""
    return {
        "lambda": np.array([-0.006 - 0.009j, -0.335 - 0.482j,
                            -0.571 + 0.04j, -0.236 + 0.521j]),
        "mu1": np.array([0, -0.543 - 0.164j, -0.419 + 0.404j, 0.124 + 0.569j]),
        "mu2": np.array([0.602 - 0.73j, -0.186 - 0.025j,
                         -0.124 + 0.147j, 0.062 + 0.172j]),
        "mu3": np.array([0.613 + 0.72j, -0.185 + 0.028j,
                         -0.059 + 0.173j, 0.127 + 0.145j]),
    }


@pytest.fixture
def loose_policy():
    """Policy sized for data printed to three decimals."""
    return TolerancePolicy(zero_tol=1e-9, rank_tol=1e-5, match_tol=1e-4)


@pytest.fixture
def relation_policy():
    """Decision thresholds for kernel pairings on three-decimal data.

    Measured floors: true-pair residuals ~1.3e-6 of the representation
    scale, the tangent self-pairing ~8e-5, off-triangle imposters
    >= 1.8e-4; a 1e-5 threshold separates them all with margin.
    """
    return TolerancePolicy(zero_tol=1e-9, rank_tol=1e-5, match_tol=1e-5)


def bench_problems():
    """The benchmark's problem generator (numpy only), loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "bench" / "problems.py"
    spec = importlib.util.spec_from_file_location("bench_problems", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def related_doc(lam, mu, policy) -> dict:
    """A ``related`` problem on the worked symmetric representation."""
    tolerances = {name: getattr(policy, name) for name in ("zero_tol", "rank_tol", "match_tol")}
    return {"kind": "related", "tolerances": tolerances,
            "payload": {"rep": io.enc_value(theta_rep()), "lambda": io.enc_value(lam),
                        "mu": io.enc_value(mu)}}


@pytest.fixture
def theta_vertex(quartic_example, theta_lambda, relation_policy):
    return polar_triangle(quartic_example, theta_lambda, policy=relation_policy).vertices[0]


@pytest.fixture
def problems(theta_lambda, theta_vertex, relation_policy):
    """One successful problem per command: the first cli-small problem of each
    kind the benchmark draws, and built here for ``gauge``, ``line`` and ``related``."""
    bench = bench_problems()
    docs = {}
    for index in range(len(bench.WORKLOADS["cli-small"])):
        doc = bench.problem("cli-small", 1, index)["doc"]
        docs.setdefault(doc["kind"], doc)
    rng = np.random.default_rng(11)
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    docs["gauge"] = {"kind": "gauge", "payload": {
        "pencil": io.enc_value(to_canonical(random_pencil(rng, 4)).pencil),
        "blocks": io.enc_value([np.eye(2), rot])}}
    P = random_pencil(rng, 6)
    lam, mu = (cp.pt for cp in sample_curve_points(P.pfaffian(), 2, seed=3))
    docs["line"] = {"kind": "line", "payload": io.enc_value(
        {"pencil": P, "lambda": lam, "mu": mu, "v": kernel_at(P, lam).v1,
         "u": kernel_at(P, mu).v1})}
    docs["related"] = related_doc(theta_lambda, theta_vertex, relation_policy)
    return docs
