"""Fixtures that see into the chunk workers the harness forks, and the random
contingency models that the bound and acceptance tests share.

A forked worker's writes to a list or a set of the test never reach the test
process, so the tests observe processes instead: the pids a fork returns,
``os.getpid()`` inside a chunk, and records appended to a file.
"""

import os
import pickle

import numpy as np
import pytest

from grid_concentrator import bounds as bnd
from grid_concentrator import graph_core as gc


def _random_connected_model(rng, n_max=8):
    """A random tree on 3 to ``n_max`` buses plus each other pair's line with chance 0.3,
    each line with p in [0.1, 0.9] and an admittance of modulus in [0.2, 1] at any phase."""
    n = int(rng.integers(3, n_max + 1))
    tree = gc.sample_random_tree(n, rng)
    extra = tuple((i, j) for i in range(n) for j in range(i + 1, n)
                  if (i, j) not in tree.edges and rng.random() < 0.3)
    t = gc.Topology(n, tree.edges + extra)
    probs = rng.uniform(0.1, 0.9, t.n_edges)
    mags = rng.uniform(0.2, 1.0, t.n_edges)
    phases = rng.uniform(0, 2 * np.pi, t.n_edges)
    return bnd.ContingencyModel(t, probs, mags * np.exp(1j * phases))


class ProcessLog:
    """Records appended by the test process and by every process it forks, read back in
    the order they were written. Each record is one ``O_APPEND`` write of its pickle,
    tagged with the pid of the process that wrote it."""

    def __init__(self, path):
        self.path = path

    def __call__(self, *record):
        data = pickle.dumps((os.getpid(), record))
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, len(data).to_bytes(8, "little") + data)
        finally:
            os.close(fd)

    def read(self) -> list:
        """Every (pid, record) pair so far."""
        if not os.path.exists(self.path):
            return []
        with open(self.path, "rb") as fh:
            data = fh.read()
        pairs, at = [], 0
        while at < len(data):
            size = int.from_bytes(data[at:at + 8], "little")
            pairs.append(pickle.loads(data[at + 8:at + 8 + size]))
            at += 8 + size
        return pairs

    def clear(self):
        if os.path.exists(self.path):
            os.remove(self.path)


@pytest.fixture
def process_log(tmp_path):
    return ProcessLog(tmp_path / "process.log")


@pytest.fixture
def forks(monkeypatch):
    """The pid of every child forked from here on, as the forking process saw it."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", counted)
    return pids

