"""The vectorized per-sample streams equal the per-sample generators, bit for bit.

``experiment_harness.sample_uniforms`` runs ``SeedSequence`` hashing and
``PCG64`` seeding over all of a chunk's sample indices at once, then draws by
one of two paths: rows of up to ``_KERNEL_MAX_DRAWS`` draws step every row's
LCG once per draw (the kernel), and longer rows set one ``PCG64`` to each row's
hashed state in turn (hashed rows). Monte Carlo, ``lcpf_bounds``, ``fig1`` and
``manifold`` draw through it; ``sample_rng`` stays the replay contract for a single sample,
so neither path may disagree with it, on either side of the crossover, for a
chunk of any number of rows.
"""

import contextlib
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from grid_concentrator import admittance as adm
from grid_concentrator import cli
from grid_concentrator import experiment_harness as eh
from grid_concentrator import graph_core as gc
from grid_concentrator import lcpf as lcpf_mod
from grid_concentrator.spectra import operator_norm
from test_properties import PROPERTIES

SEEDS = st.sampled_from([0, 1, -3, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 5, 2 ** 64 - 1]) \
    | st.integers(-2 ** 70, 2 ** 70)
SWEEPS = st.sampled_from([0, 2 ** 32 - 1, 2 ** 32, 2 ** 33, 2 ** 40]) | st.integers(0, 2 ** 40)
STARTS = st.integers(1, 10 ** 6) | st.integers(2 ** 32 - 8, 2 ** 32 - 1)


def _reference(seed, sweep, start, stop, count):
    return np.array([eh.sample_rng(seed, sweep, s).random(count)
                     for s in range(start, stop)]).reshape(stop - start, count)


# _KERNEL_MAX_DRAWS that sends every chunk down one path.
PATHS = {"kernel": 2 ** 40, "hashed": -1}


@contextlib.contextmanager
def _path(name):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eh, "_KERNEL_MAX_DRAWS", PATHS[name])
        yield


@PROPERTIES
@given(seed=SEEDS, sweep=SWEEPS, start=STARTS, rows=st.integers(0, 6),
       count=st.integers(0, 9))
def test_kernel_matches_sample_rng(seed, sweep, start, rows, count):
    stop = min(start + rows, 2 ** 32)
    with _path("kernel"):
        got = eh.sample_uniforms(seed, sweep, start, stop, count)
    assert got.shape == (stop - start, count)
    assert np.array_equal(got, _reference(seed, sweep, start, stop, count))


@PROPERTIES
@given(seed=SEEDS, sweep=SWEEPS, start=STARTS, rows=st.integers(0, 6),
       count=st.integers(0, 9) | st.sampled_from([201, 600]))
def test_hashed_rows_match_sample_rng(seed, sweep, start, rows, count):
    stop = min(start + rows, 2 ** 32)
    with _path("hashed"):
        got = eh.sample_uniforms(seed, sweep, start, stop, count)
    assert got.shape == (stop - start, count) and got.flags.c_contiguous
    assert np.array_equal(got, _reference(seed, sweep, start, stop, count))


@PROPERTIES
@given(seed=SEEDS, start=STARTS, rows=st.integers(1, 4),
       delta=st.sampled_from([0.1, 0.37, 1e-3]) | st.floats(1e-9, 1e3),
       m=st.sampled_from([2, 7, 1225]) | st.integers(0, 40))
def test_uniform_form_matches_generator_uniform(seed, start, rows, delta, m):
    # run_lcpf_experiment's noise: the bounded law at center 0 on the (rows, m, 2) view of
    # (rows, 2, m) uniforms is Generator.uniform(-delta, delta, (2, m)) per sample.
    stop = min(start + rows, 2 ** 32)
    u = eh.sample_uniforms(seed, 0, start, stop, 2 * m).reshape(stop - start, 2, m)
    got = adm.BoundedPerturbation(0.0, 0.0, delta).transform(u.swapaxes(1, 2))
    want = np.array([eh.sample_rng(seed, 0, s).uniform(-delta, delta, (2, m))
                     for s in range(start, stop)]).reshape(u.shape)
    assert got.shape == (stop - start, m)
    assert np.array_equal(got.real, want[:, 0]) and np.array_equal(got.imag, want[:, 1])


@pytest.mark.parametrize("seed,sweep,start,stop,count", [
    (0, 0, 0, 3, 5000),      # long streams: thousands of steps of a few rows
    (5, 2, 10, 11, 9000),
    (7, 1, 0, 9000, 2),      # wide chunks: each step spans 9000 rows
    (-1, 3, 2 ** 32 - 4, 2 ** 32, 3000),
    (11, 0, 4, 4, 5),        # empty range
])
def test_kernel_matches_sample_rng_across_tiles(seed, sweep, start, stop, count):
    # The stepping kernel, even for chunks that would go to hashed rows.
    with _path("kernel"):
        got = eh.sample_uniforms(seed, sweep, start, stop, count)
    assert np.array_equal(got, _reference(seed, sweep, start, stop, count))


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
    # References through the per-sample generators and the default chunking. The K4
    # model's norms vary by sample (the default K3 model's are all 1.5)...
    cfg = eh.ExperimentConfig(experiment="thm2_tail", backend="montecarlo", samples=20, seed=4,
                              topology={"name": "complete", "n": 4}, probs=0.4,
                              admittances=[0.6, -0.8])
    draws = np.array([eh.sample_rng(4, 0, s).random(6) for s in range(20)])
    want_norms = eh._centered_norms_for_patterns(cfg.model, (draws < cfg.model.probs) * 1.0)
    lcpf = eh.ExperimentConfig(experiment="lcpf_bounds", samples=20, seed=4,
                               topology={"name": "complete", "n": 4})
    want_lcpf = eh.run_lcpf_experiment(lcpf).records
    assert len(np.unique(want_norms)) > 1
    # ...then chunks of 7 and 6 samples, with every per-sample generator gone.
    monkeypatch.setattr(eh, "_ENUM_CHUNK", 7)
    monkeypatch.setattr(eh, "sample_rng", lambda *args: pytest.fail("per-sample generator"))
    got = eh.monte_carlo_distribution(cfg.model, 20, 4)
    assert np.array_equal(got.norms, want_norms)
    assert eh.run_lcpf_experiment(lcpf).records == want_lcpf


@pytest.mark.parametrize("longer", [0, 1], ids=["kernel", "per_row"])
def test_stream_crossover_pins_both_sides(monkeypatch, longer):
    # Only the draw count picks the path: a chunk of one row is hashed like a large one.
    count = eh._KERNEL_MAX_DRAWS + longer
    wants = {rows: _reference(9, 1, 40, 40 + rows, count) for rows in (1, 15, 16)}
    steps, mul_add = [], eh._mul_add128
    monkeypatch.setattr(eh, "_mul_add128", lambda *args: steps.append(args) or mul_add(*args))
    monkeypatch.setattr(eh, "sample_rng", lambda *args: pytest.fail("per-sample generator"))
    for rows, want in wants.items():
        steps.clear()
        got = eh.sample_uniforms(9, 1, 40, 40 + rows, count)
        assert got.shape == (rows, count) and got.flags.c_contiguous
        assert np.array_equal(got, want)
        assert len(steps) == 1 + (0 if longer else count)  # srandom, then one step per draw


def test_long_stream_lcpf_matches_per_sample_generators(monkeypatch):
    # K50 draws 2 m = 2450 uniforms per sample, past the kernel's crossover: chunks of
    # 16, 16 and 8 samples all take hashed rows.
    lcpf = eh.ExperimentConfig(experiment="lcpf_bounds", samples=40, seed=6, delta=0.2,
                               topology={"name": "complete", "n": 50},
                               t_grid=[0.5, 1.0, 1.5, 2.0])
    t, m = lcpf.topology, lcpf.topology.n_edges
    assert 2 * m > eh._KERNEL_MAX_DRAWS
    norms = []
    for s in range(40):
        dg, db = eh.sample_rng(6, 0, s).uniform(-0.2, 0.2, (2, m))
        g, b = gc.weighted_laplacians(t, dg), gc.weighted_laplacians(t, db)
        norms.append(operator_norm(adm.lift_blocks(g, b, -1.0)))
    want = eh.SampleStats.sampled(np.array(norms))
    monkeypatch.setattr(eh, "_ENUM_CHUNK", 16)
    records = eh.run_lcpf_experiment(lcpf).records
    assert [r["mean_norm"] for r in records] == [want.mean] * 4
    assert [r["tail_empirical"] for r in records] == want.tails(lcpf.t_grid)


def test_short_stream_lcpf_matches_per_sample_generators(monkeypatch):
    # K4 draws 2 m = 12 uniforms per sample, so chunks of 6, 7 and 7 samples take the
    # stepping kernel; each reference is the flat-start Jacobian of one sample's dG + j dB.
    lcpf = eh.ExperimentConfig(experiment="lcpf_bounds", samples=20, seed=6, delta=0.3,
                               topology={"name": "complete", "n": 4},
                               t_grid=[0.5, 0.8, 0.9, 1.0])
    t, m = lcpf.topology, lcpf.topology.n_edges
    assert 2 * m <= eh._KERNEL_MAX_DRAWS
    norms = []
    for s in range(20):
        dg, db = eh.sample_rng(6, 0, s).uniform(-0.3, 0.3, (2, m))
        norms.append(operator_norm(lcpf_mod.flat_start_jacobian(t, dg + 1j * db)))
    want = eh.SampleStats.sampled(np.array(norms))
    assert 0.0 < want.tails(lcpf.t_grid)[-1] < want.tails(lcpf.t_grid)[0] == 1.0
    spans, draw = [], eh.sample_uniforms
    monkeypatch.setattr(eh, "sample_uniforms",
                        lambda *args: spans.append(args[2:4]) or draw(*args))
    monkeypatch.setattr(eh, "_ENUM_CHUNK", 7)
    records = eh.run_lcpf_experiment(lcpf).records
    assert sorted(spans) == [(0, 6), (6, 13), (13, 20)]
    assert [r["mean_norm"] for r in records] == [want.mean] * 4
    assert [r["tail_empirical"] for r in records] == want.tails(lcpf.t_grid)


# Monte Carlo contingency models: real K3 lines of three sizes (8 patterns, 4 distinct
# norms), complex K4 lines (the SVD path), K8's 28 lines (nearly every row distinct), and
# K8 with rare lines on, whose keys hold zero bytes inside and last and space (0x20) bytes
# inside (line 8j + 5 alone in byte j). Keys are one uint8 a row up to 7 lines, uint16 up
# to 15 (K5), uint32 up to 31 (K8), uint64 up to 63 (K9) and bytes beyond (K12, 66 lines,
# with zero bytes inside and last).
MC_MODELS = {
    "k3_real": {"admittances": [1.0, 0.5, 0.25]},
    "k4_complex": {"topology": {"name": "complete", "n": 4}, "probs": 0.4,
                   "admittances": [0.6, -0.8]},
    "k5": {"topology": {"name": "complete", "n": 5}, "probs": 0.3},
    "k8": {"topology": {"name": "complete", "n": 8}},
    "k8_rare": {"topology": {"name": "complete", "n": 8}, "probs": 0.03},
    "k9": {"topology": {"name": "complete", "n": 9}, "probs": 0.9},
    "k12_rare": {"topology": {"name": "complete", "n": 12}, "probs": 0.03},
}
MC_CHUNKS = {"chunk7": 7, "default": eh._ENUM_CHUNK}


def _mc_model(name):
    return eh.ExperimentConfig(experiment="thm2_tail", backend="montecarlo",
                               **MC_MODELS[name]).model


@pytest.mark.parametrize("chunk", MC_CHUNKS.values(), ids=MC_CHUNKS)
@pytest.mark.parametrize("name", MC_MODELS)
def test_monte_carlo_norms_match_per_sample_norming(monkeypatch, name, chunk):
    # A chunk norms each distinct pattern once; every sample must still get, bit for
    # bit, the norm of its own pattern normed alone.
    model, samples, seed = _mc_model(name), 120, 11
    patterns = eh.sample_uniforms(seed, 0, 0, samples, len(model.probs)) < model.probs
    want = np.array([eh._centered_norms_for_patterns(model, row[None])[0] for row in patterns])
    assert len(np.unique(want)) > 1
    monkeypatch.setattr(eh, "_ENUM_CHUNK", chunk)
    assert np.array_equal(eh.monte_carlo_distribution(model, samples, seed).norms, want)


@pytest.mark.parametrize("name", [name for name in MC_MODELS if len(_mc_model(name).probs) < 64])
def test_monte_carlo_key_is_the_pattern_index(monkeypatch, name):
    # The switch-pattern encoding both contingency backends share: a sample's key, read as
    # a little-endian integer, is the sum of 2^l over the lines l its draws close, the
    # index k of its pattern in the enumeration. Below 64 lines a key is one uint that
    # np.unique sorts.
    model, samples, seed = _mc_model(name), 120, 11
    unique, keys = np.unique, []
    monkeypatch.setattr(np, "unique", lambda a, **kw: keys.append(a.copy()) or unique(a, **kw))
    eh.monte_carlo_distribution(model, samples, seed)
    closed = eh.sample_uniforms(seed, 0, 0, samples, len(model.probs)) < model.probs
    key_bytes = keys[0].view(np.uint8).reshape(samples, -1)
    assert [int.from_bytes(key[:8].tobytes(), "little") for key in key_bytes] == \
        [sum(1 << int(line) for line in np.flatnonzero(row)) for row in closed]


@pytest.mark.parametrize("chunk", MC_CHUNKS.values(), ids=MC_CHUNKS)
@pytest.mark.parametrize("name", MC_MODELS)
def test_monte_carlo_norms_each_distinct_pattern_once(monkeypatch, process_log, name, chunk):
    # A run's norm calls, which all come after its last draw chunk, together take exactly
    # its distinct patterns, each once. Each call is logged with the number of draw chunks
    # before it, from the calling process or a forked chunk worker.
    model, samples, seed = _mc_model(name), 120, 11
    drawn, uniforms, norms = [], eh.sample_uniforms, eh._centered_norms_for_patterns
    monkeypatch.setattr(eh, "_ENUM_CHUNK", chunk)
    monkeypatch.setattr(eh, "sample_uniforms", lambda seed, sweep, start, stop, count: drawn.append(
        (start, stop)) or uniforms(seed, sweep, start, stop, count))
    monkeypatch.setattr(eh, "_centered_norms_for_patterns", lambda model, patterns:
                        process_log(len(drawn), patterns) or norms(model, patterns))
    eh.monte_carlo_distribution(model, samples, seed)
    patterns = uniforms(seed, 0, 0, samples, len(model.probs)) < model.probs
    assert len(drawn) > (1 if chunk == 7 else 0)
    assert [start for start, _ in drawn[1:]] == [stop for _, stop in drawn[:-1]]
    assert drawn[0][0] == 0 and drawn[-1][1] == samples
    calls = [record for _, record in process_log.read()]
    assert {drawn_before for drawn_before, _ in calls} == {len(drawn)}
    rows, distinct = np.concatenate([rows for _, rows in calls]), np.unique(patterns, axis=0)
    assert len(rows) == len(distinct)
    assert np.array_equal(np.unique(rows, axis=0), distinct)
    if name == "k3_real":
        assert len(rows) <= 8


def test_monte_carlo_on_an_edgeless_topology():
    # No lines: one (empty) pattern, whose centered matrix is zero.
    cfg = eh.ExperimentConfig(experiment="thm2_expectation", backend="montecarlo", samples=50,
                              topology={"n": 2, "edges": []})
    record = eh.run_expectation_experiment(cfg).records[0]
    assert record["expectation_empirical"] == 0.0 and record["bound_ok"] is True


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
