"""The vectorized per-sample streams equal the per-sample generators, bit for bit.

``experiment_harness.sample_uniforms`` runs ``SeedSequence`` hashing and
``PCG64`` seeding and stepping over a whole range of sample indices at once.
Monte Carlo and ``lcpf_bounds`` draw through it; ``sample_rng`` stays the
replay contract for a single sample, so the two must never disagree.
"""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from grid_concentrator import cli
from grid_concentrator import experiment_harness as eh
from test_properties import PROPERTIES

SEEDS = st.sampled_from([0, 1, -3, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 5, 2 ** 64 - 1]) \
    | st.integers(-2 ** 70, 2 ** 70)
SWEEPS = st.sampled_from([0, 2 ** 32 - 1, 2 ** 32, 2 ** 33, 2 ** 40]) | st.integers(0, 2 ** 40)
STARTS = st.integers(1, 10 ** 6) | st.integers(2 ** 32 - 8, 2 ** 32 - 1)


def _reference(seed, sweep, start, stop, count):
    return np.array([eh.sample_rng(seed, sweep, s).random(count)
                     for s in range(start, stop)]).reshape(stop - start, count)


@PROPERTIES
@given(seed=SEEDS, sweep=SWEEPS, start=STARTS, rows=st.integers(0, 6),
       count=st.integers(0, 9))
def test_kernel_matches_sample_rng(seed, sweep, start, rows, count):
    stop = min(start + rows, 2 ** 32)
    got = eh.sample_uniforms(seed, sweep, start, stop, count)
    assert got.shape == (stop - start, count)
    assert np.array_equal(got, _reference(seed, sweep, start, stop, count))


@PROPERTIES
@given(seed=SEEDS, start=STARTS, rows=st.integers(1, 4),
       delta=st.sampled_from([0.1, 0.37, 1e-3]) | st.floats(1e-9, 1e3),
       m=st.sampled_from([2, 7, 1225]) | st.integers(0, 40))
def test_uniform_form_matches_generator_uniform(seed, start, rows, delta, m):
    # run_lcpf_experiment's draw: Generator.uniform(-delta, delta, (2, m)) per sample.
    stop = min(start + rows, 2 ** 32)
    u = eh.sample_uniforms(seed, 0, start, stop, 2 * m)
    got = (-delta + (2 * delta) * u).reshape(stop - start, 2, m)
    want = [eh.sample_rng(seed, 0, s).uniform(-delta, delta, (2, m)) for s in range(start, stop)]
    assert np.array_equal(got, np.array(want).reshape(got.shape))


@pytest.mark.parametrize("seed,sweep,start,stop,count", [
    (0, 0, 0, 3, 5000),      # long streams: several tiles of draws per row
    (5, 2, 10, 11, 9000),
    (7, 1, 0, 9000, 2),      # more rows than one tile holds: one draw per tile
    (-1, 3, 2 ** 32 - 4, 2 ** 32, 3000),
    (11, 0, 4, 4, 5),        # empty range
])
def test_kernel_matches_sample_rng_across_tiles(seed, sweep, start, stop, count):
    assert np.array_equal(eh.sample_uniforms(seed, sweep, start, stop, count),
                          _reference(seed, sweep, start, stop, count))


@pytest.mark.parametrize("sweep,start,stop", [
    (-1, 0, 3),              # a naive word split of a negative int never ends
    (0, -2, 3),
    (0, 2 ** 32 - 1, 2 ** 32 + 1),  # index 2^32 hashes as two words: raise, never differ
    (0, 2 ** 32, 2 ** 32 + 2),
    (0, 5, 4),
])
def test_kernel_rejects_indices_outside_its_domain(sweep, start, stop):
    with pytest.raises(ValueError, match="indices"):
        eh.sample_uniforms(0, sweep, start, stop, 3)


def test_runners_draw_no_per_sample_generator(monkeypatch):
    # References through the per-sample generators and the default chunking...
    cfg = eh.ExperimentConfig(experiment="thm2_tail", backend="montecarlo", samples=20, seed=4)
    draws = np.array([eh.sample_rng(4, 2, s).random(3) for s in range(20)])
    want_norms = eh._centered_norms_for_patterns(cfg.model, (draws < cfg.model.probs) * 1.0)
    lcpf = eh.ExperimentConfig(experiment="lcpf_bounds", samples=20, seed=4,
                               topology={"name": "complete", "n": 4})
    want_lcpf = eh.run_lcpf_experiment(lcpf).records
    # ...then chunks of 7 samples, with every per-sample generator gone.
    monkeypatch.setattr(eh, "_ENUM_CHUNK", 7)
    monkeypatch.setattr(eh, "sample_rng", lambda *args: pytest.fail("per-sample generator"))
    got = eh.monte_carlo_distribution(cfg.model, 20, 4, sweep_index=2)
    assert np.array_equal(got.norms, want_norms)
    assert eh.run_lcpf_experiment(lcpf).records == want_lcpf


def test_samples_are_capped_at_2_to_the_32():
    eh.ExperimentConfig(experiment="thm2_tail", backend="montecarlo", samples=2 ** 32)
    with pytest.raises(eh.ConfigError, match="^samples must be at most 2\\^32"):
        eh.ExperimentConfig(experiment="thm2_tail", backend="montecarlo", samples=2 ** 32 + 1)


def test_cli_rejects_too_many_samples(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"backend": "montecarlo"}))
    code = cli.main(["thm2_tail", "--config", str(cfg_path), "--samples", "1000000000000"])
    assert code == 1
    assert capsys.readouterr().err.startswith("config error: samples must be at most 2^32")
