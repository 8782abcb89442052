"""Property tests (Hypothesis) for the line laws and the assembly kernels.

Each law's vectorized ``transform`` of ``rng.random((m, law.draws))`` must
reproduce, bit for bit, the scalar per-line loop over the same generator, so
seeded experiment tables stay the same.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grid_concentrator import admittance as adm
from grid_concentrator import graph_core as gc

PROPERTIES = settings(derandomize=True, database=None, deadline=None, max_examples=40)


# Reference draws: one line at a time, in the order the scalar code drew them.

def _disk_loop(law, rng, m):
    out = []
    for _ in range(m):
        r = math.sqrt(rng.random())
        phi = 2.0 * math.pi * rng.random()
        out.append(complex(abs(r * math.cos(phi)), -abs(r * math.sin(phi))))
    return out


def _fixed_loop(law, rng, m):
    return [complex(law.admittance)] * m


def _bernoulli_loop(law, rng, m):
    return [complex(law.admittance) if rng.random() < law.prob else 0j for _ in range(m)]


def _bounded_loop(law, rng, m):
    out = []
    for _ in range(m):
        dg = rng.uniform(-law.delta, law.delta)
        db = rng.uniform(-law.delta, law.delta)
        out.append(complex(law.center_g + dg, law.center_b + db))
    return out


def _sphere_loop(law, rng, m):
    # Box-Muller per line, then each vector scaled by its squared norm summed in line order.
    g, b = [], []
    for _ in range(m):
        r = math.sqrt(-2.0 * math.log(1.0 - rng.random()))
        phi = 2.0 * math.pi * rng.random()
        g.append(r * math.cos(phi))
        b.append(r * math.sin(phi))

    def scaled(z):
        total = 0.0
        for x in z:
            total += x * x
        norm = math.sqrt(total)
        return [x * (math.sqrt(law.radius_sq) / norm) if norm > 0 else 0.0 for x in z]
    return [complex(x, y) for x, y in zip(scaled(g), scaled(b))]


REFERENCE = {
    adm.UnitDisk: _disk_loop,
    adm.FixedDeterministic: _fixed_loop,
    adm.FixedBernoulli: _bernoulli_loop,
    adm.BoundedPerturbation: _bounded_loop,
    adm.SphereUniform: _sphere_loop,
}

_admittances = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
_reals = st.floats(-2.0, 2.0)
LAWS = {
    "disk": st.just(adm.UnitDisk()),
    "fixed": st.builds(adm.FixedDeterministic, _admittances),
    "bernoulli": st.builds(adm.FixedBernoulli, _admittances, st.floats(0.0, 1.0)),
    "bounded": st.builds(adm.BoundedPerturbation, _reals, _reals, st.floats(0.0, 1.0)),
    "sphere": st.builds(adm.SphereUniform, st.floats(0.0, 2.0)),
}
SEEDS = st.integers(0, 2 ** 32 - 1)
per_law = pytest.mark.parametrize("kind", sorted(LAWS))


def _sample(law, rng, m):
    return law.transform(rng.random((m, law.draws)))


@per_law
@PROPERTIES
@given(data=st.data(), m=st.integers(0, 40), seed=SEEDS)
def test_sample_equals_scalar_loop(kind, data, m, seed):
    law = data.draw(LAWS[kind])
    w = _sample(law, np.random.default_rng(seed), m)
    ref = np.array(REFERENCE[type(law)](law, np.random.default_rng(seed), m), dtype=complex)
    assert w.shape == (m,) and w.dtype == complex
    np.testing.assert_array_equal(w, ref)


@per_law
@PROPERTIES
@given(data=st.data(), m=st.integers(0, 40), seed=SEEDS)
def test_sample_within_support(kind, data, m, seed):
    law = data.draw(LAWS[kind])
    w = _sample(law, np.random.default_rng(seed), m)
    assert np.all(np.abs(w) <= law.support * (1.0 + 1e-12) + 1e-15)


@per_law
@settings(PROPERTIES, max_examples=10)
@given(data=st.data(), seed=SEEDS)
def test_sample_mean_matches_law_mean(kind, data, seed):
    # The sphere's coordinates are exchangeable, so one long draw still has
    # standard error std / sqrt(m) around the mean 0.
    law = data.draw(LAWS[kind])
    m = 20_000
    w = _sample(law, np.random.default_rng(seed), m)
    for part, expected in ((w.real, law.mean.real), (w.imag, law.mean.imag)):
        std = float(np.std(part))
        if kind == "bernoulli":  # the law's own spread: at p near 0 or 1 a sample has none
            std = abs(expected / law.prob) * math.sqrt(law.prob * (1.0 - law.prob)) \
                if law.prob else 0.0
        stderr = std / math.sqrt(m)
        assert abs(float(np.mean(part)) - expected) <= 5.0 * stderr + 1e-12


@st.composite
def _weighted_topologies(draw):
    n = draw(st.integers(1, 8))
    ends = st.integers(0, n - 1)
    lines = st.tuples(ends, ends).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(lines, max_size=20)) if n > 1 else []
    w = draw(st.lists(_admittances, min_size=len(edges), max_size=len(edges)))
    return gc.Topology(n, edges), np.array(w, dtype=complex)


@PROPERTIES
@given(case=_weighted_topologies())
def test_assemble_admittance_matches_scatter_kernel(case):
    t, w = case
    y = adm.assemble_admittance(t, w)
    np.testing.assert_allclose(y, gc.weighted_laplacians(t, w), rtol=0, atol=1e-12)
    np.testing.assert_allclose(y.sum(axis=1), 0.0, rtol=0, atol=1e-12)


@per_law
@pytest.mark.parametrize("m", [0, 1, 7, 190, 1225])
def test_stacked_and_strided_transforms_equal_row_by_row(kind, m):
    # A chunk's rows are transformed at once; sqrt, cos and sin take SIMD paths whose
    # tails fall elsewhere in a stacked or strided array.
    law = {"disk": adm.UnitDisk(), "fixed": adm.FixedDeterministic(0.6 - 0.8j),
           "bernoulli": adm.FixedBernoulli(0.6 - 0.8j, 0.4),
           "bounded": adm.BoundedPerturbation(0.5, -0.5, 0.2),
           "sphere": adm.SphereUniform(0.5)}[kind]
    u = np.random.default_rng(m).random((5, 2 * m + 3, law.draws))
    for lines in (slice(0, m), slice(1, 2 * m + 1, 2)):  # leading lines, every other line
        rows = np.array([law.transform(row[lines].copy()) for row in u]).reshape(5, m)
        stacked = law.transform(u[:, lines])
        assert stacked.dtype == complex
        np.testing.assert_array_equal(stacked, rows)
        np.testing.assert_array_equal(law.transform(u[::-1, lines])[::-1], rows)
    # run_fig1's block: a strided view of a chunk's law slots, zeroed past each row's lines.
    counts = np.array([m, m // 2, 0, min(m, 1), 2 * m + 3])
    chunk = np.random.default_rng(m).random((5, 7 + (2 * m + 3) * law.draws))
    block = chunk[:, 7:].reshape(5, 2 * m + 3, law.draws)
    rows = [law.transform(row[:count].copy()) for row, count in zip(block, counts)]
    block[np.arange(2 * m + 3) >= counts[:, None]] = 0.0
    for got, count, want in zip(law.transform(block), counts, rows):
        np.testing.assert_array_equal(got[:count], want)
