"""The benchmark's output checks reject corrupted outputs and pass real ones.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import bench_checks as checks


@pytest.fixture(scope="module")
def tiny():
    from repro import SubsetProblem, greedy_heap, load_dataset

    ds = load_dataset("cifar100_tiny", n_points=200, seed=3)
    problem = SubsetProblem.with_alpha(ds.utilities, ds.graph, 0.9)
    selected = np.sort(greedy_heap(problem, 20).selected)
    return ds, problem, selected


def _objective(problem, selected):
    g = problem.graph
    return checks.pairwise_objective(
        problem.utilities, g.indptr, g.indices, g.weights,
        problem.alpha, problem.beta, selected,
    )


# -- real outputs pass --------------------------------------------------------


def test_real_outputs_pass(tiny):
    from repro import PairwiseObjective

    ds, problem, selected = tiny
    checks.check_selection(selected, ds.n, 20)
    checks.check_objective(
        "greedy", PairwiseObjective(problem).value(selected),
        _objective(problem, selected),
    )
    checks.check_knn(ds.embeddings, ds.neighbors, ds.similarities)
    g = ds.graph
    checks.check_symmetric_graph(
        ds.n, g.indptr, g.indices, g.weights,
        embeddings=ds.embeddings, neighbors=ds.neighbors,
    )


def test_real_bounding_passes(tiny):
    from repro import bound
    from repro.dataflow import EngineOptions, beam_bound

    ds, problem, _ = tiny
    memory = bound(problem, 20, mode="exact", seed=0)
    dataflow, _ = beam_bound(
        problem, 20, mode="exact", seed=0, options=EngineOptions()
    )
    checks.check_bounding(memory, ds.n, 20)
    checks.check_bounding(dataflow, ds.n, 20)
    checks.check_same_bounding(memory, dataflow)


# -- corrupted outputs fail ---------------------------------------------------


def test_duplicated_id_fails(tiny):
    ds, _, selected = tiny
    bad = selected.copy()
    bad[1] = bad[0]
    with pytest.raises(checks.CheckFailed, match="duplicate"):
        checks.check_selection(bad, ds.n, 20)


@pytest.mark.parametrize(
    "corrupt",
    [lambda s: s[:-1], lambda s: np.append(s[:-1], -1), lambda s: s + 10_000],
    ids=["short", "negative", "out-of-range"],
)
def test_malformed_selection_fails(tiny, corrupt):
    ds, _, selected = tiny
    with pytest.raises(checks.CheckFailed):
        checks.check_selection(corrupt(selected), ds.n, 20)


def test_wrong_objective_fails(tiny):
    _, problem, selected = tiny
    right = _objective(problem, selected)
    with pytest.raises(checks.CheckFailed, match="objective"):
        checks.check_objective("report", right * (1 + 1e-6), right)


def test_objective_counts_inside_pairs_once(tiny):
    """The recomputation is α·Σu − β·½·Σw, checked by hand on two nodes."""
    _, problem, _ = tiny
    g = problem.graph
    a = 0
    b = int(g.indices[g.indptr[0]])
    w = float(g.weights[g.indptr[0]])
    expected = problem.alpha * (problem.utilities[a] + problem.utilities[b]) \
        - problem.beta * w
    assert _objective(problem, np.array([a, b])) == pytest.approx(expected)


def test_non_symmetric_graph_fails(tiny):
    ds, _, _ = tiny
    g = ds.graph
    weights = g.weights.copy()
    weights[0] += 0.5
    with pytest.raises(checks.CheckFailed, match="symmetric"):
        checks.check_symmetric_graph(ds.n, g.indptr, g.indices, weights)


def test_missing_mirror_edge_fails(tiny):
    ds, _, _ = tiny
    g = ds.graph
    indices = g.indices.copy()
    # Point the first edge of row 0 elsewhere: its mirror no longer matches.
    row0 = set(indices[g.indptr[0]:g.indptr[1]].tolist())
    indices[0] = next(v for v in range(1, ds.n) if v not in row0)
    with pytest.raises(checks.CheckFailed):
        checks.check_symmetric_graph(ds.n, g.indptr, indices, g.weights)


def test_knn_corruptions_fail(tiny):
    ds, _, _ = tiny
    nb, sims = ds.neighbors, ds.similarities

    self_loop = nb.copy()
    self_loop[5, 0] = 5
    with pytest.raises(checks.CheckFailed, match="self-loop"):
        checks.check_knn(ds.embeddings, self_loop, sims)

    unsorted = sims.copy()
    unsorted[7, 0] = unsorted[7, 1] - 1e-3
    with pytest.raises(checks.CheckFailed, match="sorted"):
        checks.check_knn(ds.embeddings, nb, unsorted)

    shifted = sims.copy()
    shifted[11, :] *= 0.5
    with pytest.raises(checks.CheckFailed, match="recomputed cosine"):
        checks.check_knn(ds.embeddings, nb, shifted)

    duplicate = nb.copy()
    duplicate[9, 1] = duplicate[9, 0]
    with pytest.raises(checks.CheckFailed, match="duplicate"):
        checks.check_knn(ds.embeddings, duplicate, sims)


def test_knn_better_than_brute_force_fails(tiny):
    """A neighbour list may not beat the true top-k at any rank."""
    ds, _, _ = tiny
    x = ds.embeddings / np.linalg.norm(ds.embeddings, axis=1, keepdims=True)
    rows = np.arange(ds.n)
    checks.check_knn_not_above_brute_force(x, rows, ds.similarities)
    inflated = ds.similarities.copy()
    inflated[3, :] = inflated[3, 0] + 1e-3
    with pytest.raises(checks.CheckFailed, match="brute-force"):
        checks.check_knn_not_above_brute_force(x, rows, inflated)


def test_bounding_bookkeeping_fails():
    result = SimpleNamespace(
        solution=np.array([0, 1]), remaining=np.array([2, 3, 4]),
        n_excluded=5, k_remaining=2, overshoot=0,
    )
    checks.check_bounding(result, 10, 4)
    for field, value in (("n_excluded", 4), ("k_remaining", 3)):
        bad = SimpleNamespace(**{**vars(result), field: value})
        with pytest.raises(checks.CheckFailed):
            checks.check_bounding(bad, 10, 4)
    overlap = SimpleNamespace(**{**vars(result), "remaining": np.array([1, 3, 4])})
    with pytest.raises(checks.CheckFailed, match="overlap"):
        checks.check_bounding(overlap, 10, 4)
    with pytest.raises(checks.CheckFailed, match="discarded"):
        checks.check_bounding(result, 10, 4, selected=np.array([0, 1, 2, 9]))


def test_different_bounding_fails():
    a = SimpleNamespace(
        solution=np.array([0, 1]), remaining=np.array([2, 3]),
        n_excluded=1, k_remaining=1,
    )
    b = SimpleNamespace(**{**vars(a), "remaining": np.array([2, 4])})
    with pytest.raises(checks.CheckFailed, match="remaining"):
        checks.check_same_bounding(a, b)


def test_quality_floor_and_identity():
    checks.check_quality(0.99, 0.95)
    with pytest.raises(checks.CheckFailed):
        checks.check_quality(0.9, 0.95)
    with pytest.raises(checks.CheckFailed):
        checks.check_identical("repeat", np.arange(3), np.array([0, 2, 1]))


# -- the benchmark itself -----------------------------------------------------


def test_quick_mode_runs_every_workload(capsys):
    """Every workload, tiny, untraced and traced, passes its checks."""
    import json

    from perfbench import run

    assert run.quick() == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    seen = {(r["workload"], r["trace"]) for r in lines}
    assert len(seen) == 6
    for r in lines:
        assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1
        if r["trace"] == 0:
            assert set(r["metrics"]) == set(run.END_TO_END_UNITS)
            assert all(m["value"] > 0 for m in r["metrics"].values())
