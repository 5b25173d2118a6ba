"""Seeded relabelling keeps locality and every answer."""

import numpy as np
import pytest

import batch
from common import BLOCK, block_permutation, seeded_edges


def test_block_permutation_moves_ids_within_their_block():
    new_id = block_permutation(1000, seed=3)
    assert sorted(new_id) == list(range(1000))
    assert np.all(new_id // BLOCK == np.arange(1000) // BLOCK)
    assert not np.array_equal(new_id, np.arange(1000))
    assert np.array_equal(new_id, block_permutation(1000, seed=3))
    assert not np.array_equal(new_id, block_permutation(1000, seed=4))
    assert sorted(block_permutation(1000, seed=-5)) == list(range(1000))


@pytest.fixture(scope="module")
def small():
    from repro.graph import datasets
    return datasets.load("EA")


def _graph(src, dst, labels, n):
    from repro.graph import builders
    return builders.from_edges(src, dst, n, labels=labels)


def test_relabelling_keeps_fpm_supports(small):
    from repro.algorithms import frequent_pattern_mining
    from repro.core.framework import Gamma
    digests = set()
    for seed in (None, 1, 2):
        graph = small if seed is None else _graph(*seeded_edges(small, seed))
        with Gamma(graph) as engine:
            result = frequent_pattern_mining(engine, 2, 8)
        digests.add(batch.fpm_digest(result.patterns,
                                     result.frequent_per_level))
    assert len(digests) == 1


def test_relabelling_keeps_clique_counts(small):
    from repro.algorithms import count_kcliques
    from repro.shard import ShardedGamma
    counts = set()
    for seed in (None, 1, 2):
        arrays = ((small.edge_src, small.edge_dst, small.labels,
                   small.num_vertices) if seed is None
                  else seeded_edges(small, seed))
        with ShardedGamma(_graph(*arrays), num_shards=2, policy="stealing",
                          executor="serial") as engine:
            counts.add(count_kcliques(engine, 3).cliques)
        counts.add(batch.independent_kclique_count(arrays[0], arrays[1],
                                                   arrays[3], k=3))
    assert len(counts) == 1 and counts.pop() > 0


def test_expected_answers_come_from_independent_runs():
    """The constants the timed iterations check against: the fpm-cl digest
    under the reference pipeline, and the CL*8 4-clique count from the
    set-based counter that shares no code with the program."""
    from repro.graph import datasets
    assert batch.reference_digest() == batch.FpmCl.expected
    cl8 = datasets.load(batch.KcliqueShard.dataset)
    assert batch.independent_kclique_count(
        cl8.edge_src, cl8.edge_dst, cl8.num_vertices,
        batch.KcliqueShard.k) == batch.KcliqueShard.expected
