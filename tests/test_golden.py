"""Golden outputs: SHA-256 of the CSV table of small pinned configs.

Reruns within one process are checked elsewhere (acceptance criterion 10);
these digests catch output drift between versions of the code. A digest may
change only with a recorded, intentional re-baseline.

Every config here gives the same digest with one and with two BLAS threads.
The ``fig1`` configs run at n = 8: at n = 20 the table's last digits have been
seen to change with the BLAS thread count.
"""

import hashlib

import pytest

from grid_concentrator import experiment_harness as eh

# P4 plus a chord and a line parallel to (0, 1): parallel lines exercise
# the order in which per-line terms accumulate into one matrix entry.
_MESH = {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 2], [0, 1]]}
_MESH_PROBS = [0.5, 0.3, 0.8, 0.6, 0.25]
_MESH_ADMITTANCES = [[0.6, -0.8], [0.5, -0.5], [1.0, 0.0], [0.3, -0.9], [0.2, -0.7]]
_FIXED_LAW = {"kind": "fixed", "admittance": [0.6, -0.8]}
_FIG1 = {"experiment": "fig1", "n": 8, "samples": 10, "seed": 3, "p_grid": [0.3, 0.7]}

GOLDEN = {
    "fig1_disk": (
        _FIG1,
        "7db65db27a47129c7e6897b49a75107196bcc08e14d1d7674bd2ca947c4dd98d"),
    "fig1_fixed": (
        {**_FIG1, "line_model": _FIXED_LAW},
        "c2886e8b63d9010057ea755bbe9a45573a467c24437d3a491ce9f1bb24c27e4d"),
    # The other three laws, each with support <= 1.
    "fig1_bernoulli": (
        {**_FIG1, "line_model": {"kind": "bernoulli", "admittance": [0.6, -0.8], "p": 0.5}},
        "f822fb113dc4b4e11e40b19497b3bbce66f6c4d51885422423e44f3f77e84ec3"),
    "fig1_bounded": (
        {**_FIG1, "line_model": {"kind": "bounded", "center_g": 0.5, "center_b": -0.5,
                                 "delta": 0.2}},
        "360692e2da78955c9e64d182fab0f1c6330376255889d77170b387bfa3479e8f"),
    "fig1_sphere": (
        {**_FIG1, "line_model": {"kind": "sphere", "radius_sq": 0.5}},
        "a7f000a90834c5623e4ce9fac2f505539231329d4106f46453f661719442b9ef"),
    "thm2_tail_bruteforce": (
        {"experiment": "thm2_tail", "backend": "bruteforce", "topology": _MESH,
         "probs": _MESH_PROBS, "admittances": _MESH_ADMITTANCES},
        "e5bd51b174133c455660b80c5fad1ee8896c6414fd940b1a6d024a1ed8a0d997"),
    "thm2_tail_montecarlo": (
        {"experiment": "thm2_tail", "backend": "montecarlo", "topology": _MESH,
         "probs": _MESH_PROBS, "admittances": _MESH_ADMITTANCES,
         "samples": 500, "seed": 5},
        "fd67ec98a67273400e13fc2e3d174259f0fed652a608ae52628979ad2335ed14"),
    "thm2_expectation_bruteforce": (
        {"experiment": "thm2_expectation", "backend": "bruteforce",
         "topology": {"name": "complete", "n": 4}, "probs": 0.4,
         "admittances": [0.6, -0.8]},
        "07a693b44b95c6b78f496eb103594e187ff83b2fd92d99a3cb21ef8e0b2ab037"),
    "thm2_expectation_montecarlo": (
        {"experiment": "thm2_expectation", "backend": "montecarlo",
         "topology": {"name": "complete", "n": 4}, "probs": 0.4,
         "admittances": [0.6, -0.8], "samples": 2000, "seed": 11},
        "50a2786f98a1f109a45e9acb0f6d491d2a75d68685a9c15d9e5135c99e3a2dc2"),
    # Default K3 model; 9000 samples: more than one 8192-row chunk. At p = 1/2 every
    # sample's centered norm is 1.5 (to the last bit or one ulp off), so this digest
    # holds across seeds and sample counts: it cannot see a stream or chunking fault.
    "thm2_expectation_montecarlo_multichunk": (
        {"experiment": "thm2_expectation", "backend": "montecarlo",
         "samples": 9000, "seed": 2},
        "91294d2f9c36d0e3ea1522ced557a20b19ff96bff0088a845c54b8044e34912c"),
    # K4 with 14 distinct norms; 8200 samples: chunks of 8192 and 8 rows, so the short
    # tail's stream is in the digest too.
    "thm2_expectation_montecarlo_k4_short_tail": (
        {"experiment": "thm2_expectation", "backend": "montecarlo",
         "topology": {"name": "complete", "n": 4}, "probs": 0.4,
         "admittances": [0.6, -0.8], "samples": 8200, "seed": 2},
        "1f7c15efaa19862519b74f2c972dc4c47ce083230a8695cd46f8865ec3f6fa25"),
    "lcpf_bounds_k6": (
        {"experiment": "lcpf_bounds", "topology": {"name": "complete", "n": 6},
         "delta": 0.2, "samples": 300, "seed": 4},
        "b39ebdc2e735b08475c6f96de18faf361e08f7228a41a2077f5f1acd1923f3b8"),
    "lcpf_bounds_single_bus": (
        {"experiment": "lcpf_bounds", "topology": {"n": 1, "edges": []},
         "samples": 5, "seed": 1, "t_grid": [0.0, 0.5]},
        "5c4664bea148238cef78d0ab654aa597527332e48d2eafa097b38bfad97e6aa9"),
    # K30: its 60 x 60 lifted matrices fill more than one chunk at 400 samples.
    "lcpf_bounds_k30": (
        {"experiment": "lcpf_bounds", "topology": {"name": "complete", "n": 30},
         "delta": 0.05, "samples": 400, "seed": 6},
        "7f55cf942b78e99ee88bb8f952377edf2f4c1c39cedb443da1fa424c1588ea92"),
    # 250 samples: chunks of 246 and 4 rows of 870 draws, a wide short tail.
    "lcpf_bounds_k30_short_tail": (
        {"experiment": "lcpf_bounds", "topology": {"name": "complete", "n": 30},
         "delta": 0.05, "samples": 250, "seed": 6},
        "958ab77fd0171a53ddaf70a19cb88b4ca4931b7a000ecb4668287baef2c83e12"),
    # 10 000 samples: more than one 8192-row chunk.
    "lcpf_bounds_p3_multichunk": (
        {"experiment": "lcpf_bounds", "topology": {"name": "path", "n": 3},
         "delta": 0.1, "samples": 10000, "seed": 1},
        "1ac339f030abdbb42bf85b6b9f218349683c00daf89de1f8b945811a302213d5"),
    "bruteforce": (
        {"experiment": "bruteforce", "topology": _MESH, "probs": _MESH_PROBS,
         "admittances": _MESH_ADMITTANCES},
        "3baf780038683a1701ea41a7f24d091f8490ec5dd4e8462a43754bad48111e28"),
    "manifold": (
        {"experiment": "manifold", "topology": {"name": "complete", "n": 4},
         "samples": 20, "seed": 3, "h": 0.1},
        "a1cb1b12e3ad9befc22de730a71da5631e8611bcf7080e5ecae64096a5c903ab"),
    "manifold_fixed": (
        {"experiment": "manifold", "topology": {"name": "complete", "n": 4},
         "samples": 20, "seed": 3, "h": 0.1, "line_model": _FIXED_LAW},
        "58cb3ad6c73e2dc657528165eddbbcfa5eef630b1ee8ae8961d46b004ff64419"),
    # The two laws the manifold goldens above skip: the sphere's normals and the bounded
    # law's uniforms.
    "manifold_sphere": (
        {"experiment": "manifold", "topology": {"name": "complete", "n": 4},
         "samples": 20, "seed": 3, "h": 0.1,
         "line_model": {"kind": "sphere", "radius_sq": 0.5}},
        "297e02f4cb7bbf9787b62bb9a7362f1f384eee0f3bf6e25956f8f1a8ca612b52"),
    "manifold_bounded": (
        {"experiment": "manifold", "topology": {"name": "complete", "n": 4},
         "samples": 20, "seed": 3, "h": 0.1,
         "line_model": {"kind": "bounded", "center_g": 0.5, "center_b": -0.5,
                        "delta": 0.2}},
        "77c1ded0ba3416febb1498100db4bcfbf86185b9455c0ffb9435ffe2bae1bffc"),
}


def table_digest(cfg: dict) -> str:
    result = eh.run_experiment(eh.ExperimentConfig.from_dict(cfg))
    text = eh.emit(result.records, "csv", None, result.fieldnames)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(name):
    cfg, digest = GOLDEN[name]
    assert table_digest(cfg) == digest


if __name__ == "__main__":
    for name in sorted(GOLDEN):
        print(name, table_digest(GOLDEN[name][0]))
