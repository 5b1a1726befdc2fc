"""Output checks for the benchmark, computed apart from the program.

Every check recomputes what it needs in plain NumPy from the program's
*inputs* (embeddings, utilities, the CSR arrays) or tests a property the
method must have.  None compares against a stored copy of earlier output.
A failed check raises :class:`CheckFailed` with a message naming the
first violation.
"""

from __future__ import annotations

import numpy as np

#: Relative tolerance for objective values: the program and these checks
#: sum the same terms in different orders.
OBJECTIVE_RTOL = 1e-9

#: Absolute tolerance for a similarity recomputed with a different
#: matmul blocking than the program used.
SIMILARITY_ATOL = 1e-9


class CheckFailed(AssertionError):
    """An output violated a property the method must have."""


def _fail(what: str) -> None:
    raise CheckFailed(what)


def _close(a: float, b: float, rtol: float = OBJECTIVE_RTOL) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


# -- selections ------------------------------------------------------------


def check_selection(selected, n: int, k: int) -> np.ndarray:
    """Exactly ``k`` distinct ids in ``[0, n)``; returns them as int64."""
    ids = np.asarray(selected)
    if ids.ndim != 1:
        _fail(f"selection must be 1-D, got shape {ids.shape}")
    if ids.size and not np.issubdtype(ids.dtype, np.integer):
        _fail(f"selection ids must be integers, got dtype {ids.dtype}")
    ids = ids.astype(np.int64)
    if ids.size != k:
        _fail(f"selection has {ids.size} ids, expected k={k}")
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        _fail(f"selection ids out of range [0, {n})")
    if np.unique(ids).size != ids.size:
        _fail("selection contains duplicate ids")
    return ids


def pairwise_objective(
    utilities: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    alpha: float,
    beta: float,
    selected: np.ndarray,
) -> float:
    """``α·Σ_{v∈S} u(v) − β·½·Σ w`` over CSR entries with both ends in S.

    The symmetric CSR stores each undirected edge twice, hence the half.
    """
    n = utilities.shape[0]
    mask = np.zeros(n, dtype=bool)
    mask[selected] = True
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    inside = mask[rows] & mask[indices]
    return float(
        alpha * utilities[mask].sum() - beta * 0.5 * weights[inside].sum()
    )


def check_objective(name: str, reported: float, expected: float) -> None:
    """A reported objective equals the independent recomputation."""
    if not _close(float(reported), float(expected)):
        _fail(
            f"{name} objective {reported!r} differs from the recomputed "
            f"{expected!r}"
        )


def check_quality(ratio: float, floor: float) -> None:
    """``f(S) / f(centralized greedy)`` stays above a stated floor."""
    if not np.isfinite(ratio) or ratio < floor:
        _fail(f"objective ratio {ratio!r} is below the floor {floor}")


# -- bounding --------------------------------------------------------------


def check_bounding(result, n: int, k: int, selected=None) -> None:
    """Bookkeeping of a bounding result adds up.

    ``solution`` and ``remaining`` are disjoint sorted id sets; together
    with ``n_excluded`` (and the ``overshoot`` points grown past the
    budget and subsampled away) they partition the ground set; the open
    budget is what the solution left.  With ``selected``, the final
    selection keeps the whole solution and draws the rest from
    ``remaining``.
    """
    solution = np.asarray(result.solution, dtype=np.int64)
    remaining = np.asarray(result.remaining, dtype=np.int64)
    for label, ids in (("solution", solution), ("remaining", remaining)):
        if ids.size and (ids.min() < 0 or ids.max() >= n):
            _fail(f"bounding {label} ids out of range [0, {n})")
        if ids.size > 1 and not (np.diff(ids) > 0).all():
            _fail(f"bounding {label} ids are not sorted and distinct")
    if np.intersect1d(solution, remaining).size:
        _fail("bounding solution and remaining sets overlap")
    overshoot = int(getattr(result, "overshoot", 0))
    total = solution.size + remaining.size + int(result.n_excluded) + overshoot
    if total != n:
        _fail(
            f"bounding sets do not partition the ground set: "
            f"{solution.size} + {remaining.size} + {result.n_excluded} "
            f"+ {overshoot} != {n}"
        )
    if solution.size + int(result.k_remaining) != k:
        _fail(
            f"bounding budget does not add up: {solution.size} included + "
            f"{result.k_remaining} open != k={k}"
        )
    if remaining.size < int(result.k_remaining):
        _fail("bounding left fewer candidates than the open budget")
    if selected is not None:
        selected = np.asarray(selected, dtype=np.int64)
        if np.setdiff1d(solution, selected).size:
            _fail("final selection drops points bounding included")
        rest = np.setdiff1d(selected, solution)
        if np.setdiff1d(rest, remaining).size:
            _fail("final selection holds points bounding discarded")


def check_same_bounding(memory, dataflow) -> None:
    """The dataflow and in-memory bounding made the same decisions."""
    for field in ("solution", "remaining"):
        a = np.asarray(getattr(memory, field))
        b = np.asarray(getattr(dataflow, field))
        if a.shape != b.shape or not np.array_equal(a, b):
            _fail(f"dataflow bounding {field} differs from the in-memory one")
    for field in ("n_excluded", "k_remaining"):
        if getattr(memory, field) != getattr(dataflow, field):
            _fail(
                f"dataflow bounding {field}={getattr(dataflow, field)} "
                f"differs from the in-memory {getattr(memory, field)}"
            )


# -- kNN graphs ------------------------------------------------------------


def _unit_rows(embeddings: np.ndarray) -> np.ndarray:
    x = np.asarray(embeddings, dtype=np.float64)
    return x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-12)


def _clamped_cosines(
    x: np.ndarray, a: np.ndarray, b: np.ndarray, block: int = 1 << 15
) -> np.ndarray:
    """``max(x[a[i]] · x[b[i]], 0)`` for every pair, a block at a time."""
    out = np.empty(a.size, dtype=np.float64)
    for start in range(0, a.size, block):
        stop = start + block
        out[start:stop] = np.einsum(
            "ij,ij->i", x[a[start:stop]], x[b[start:stop]]
        )
    return np.maximum(out, 0.0)


def check_knn(
    embeddings: np.ndarray,
    neighbors: np.ndarray,
    similarities: np.ndarray,
    *,
    sample_rows: int = 256,
    seed: int = 0,
) -> None:
    """The directed kNN table is valid and never beats brute force.

    - each row holds distinct ids, no self-loop, sorted by decreasing
      similarity;
    - every similarity equals the recomputed cosine (clamped at zero, as
      the objective requires ``s >= 0``);
    - on a row sample, the similarity at every rank is at most the
      brute-force one at that rank.
    """
    x = _unit_rows(embeddings)
    nb = np.asarray(neighbors)
    sims = np.asarray(similarities, dtype=np.float64)
    check_knn_table(x.shape[0], nb, sims)
    check_knn_similarities(x, nb, sims)
    rng = np.random.default_rng(seed)
    sample = rng.choice(x.shape[0], size=min(sample_rows, x.shape[0]), replace=False)
    check_knn_not_above_brute_force(x, sample, sims[sample])


def check_knn_table(n: int, nb: np.ndarray, sims: np.ndarray) -> None:
    """Rows of distinct in-range ids, no self-loop, decreasing similarity."""
    if nb.ndim != 2 or nb.shape != sims.shape or nb.shape[0] != n:
        _fail(f"kNN table shapes {nb.shape}/{sims.shape} do not match n={n}")
    if (nb < 0).any() or (nb >= n).any():
        _fail("kNN neighbor ids out of range")
    if (nb == np.arange(n)[:, None]).any():
        _fail("kNN table holds a self-loop")
    ordered = np.sort(nb, axis=1)
    if (ordered[:, 1:] == ordered[:, :-1]).any():
        _fail("kNN row holds a duplicate neighbor")
    if (np.diff(sims, axis=1) > 0).any():
        _fail("kNN row is not sorted by decreasing similarity")


def check_knn_similarities(x: np.ndarray, nb: np.ndarray, sims: np.ndarray) -> None:
    """Every similarity is the clamped cosine of its pair (unit rows ``x``)."""
    n, k = nb.shape
    recomputed = _clamped_cosines(
        x, np.repeat(np.arange(n, dtype=np.int64), k), nb.ravel()
    ).reshape(n, k)
    if not np.allclose(sims, recomputed, rtol=0.0, atol=SIMILARITY_ATOL):
        bad = int(np.argmax(np.abs(sims - recomputed).max(axis=1)))
        _fail(f"kNN similarity of row {bad} differs from the recomputed cosine")


def check_knn_not_above_brute_force(
    x: np.ndarray, rows: np.ndarray, sims: np.ndarray
) -> None:
    """At every rank, ``sims`` (the table's ``rows``) is at most the
    brute-force similarity: a neighbour list is a subset of the
    candidates, so its j-th best cannot exceed the true j-th best."""
    exact = x[rows] @ x.T
    exact[np.arange(rows.size), rows] = -np.inf
    best = np.maximum(-np.sort(-exact, axis=1)[:, : sims.shape[1]], 0.0)
    if (sims > best + SIMILARITY_ATOL).any():
        _fail("kNN similarity exceeds the brute-force one at the same rank")


def check_symmetric_graph(
    n: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    embeddings=None,
    neighbors=None,
) -> None:
    """The CSR graph is symmetric, loop-free and has distinct rows.

    With ``embeddings``, every weight equals the recomputed clamped
    cosine; with ``neighbors``, the edge set is exactly the directed kNN
    edges mirrored.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    if indptr.shape != (n + 1,) or indptr[0] != 0 or indptr[-1] != indices.size:
        _fail("graph indptr is malformed")
    if (np.diff(indptr) < 0).any():
        _fail("graph indptr is not monotone")
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        _fail("graph neighbor ids out of range")
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    if (rows == indices).any():
        _fail("graph holds a self-loop")
    fwd = np.lexsort((indices, rows))
    r, c, w = rows[fwd], indices[fwd], weights[fwd]
    if r.size > 1 and ((r[1:] == r[:-1]) & (c[1:] == c[:-1])).any():
        _fail("graph row holds a duplicate neighbor")
    rev = np.lexsort((rows, indices))
    if not (
        np.array_equal(r, indices[rev])
        and np.array_equal(c, rows[rev])
        and np.array_equal(w, weights[rev])
    ):
        _fail("graph is not symmetric")
    if embeddings is not None:
        x = _unit_rows(embeddings)
        cos = _clamped_cosines(x, rows, indices)
        if not np.allclose(weights, cos, rtol=0.0, atol=SIMILARITY_ATOL):
            _fail("graph weight differs from the recomputed cosine")
    if neighbors is not None:
        nb = np.asarray(neighbors, dtype=np.int64)
        src = np.repeat(np.arange(nb.shape[0], dtype=np.int64), nb.shape[1])
        dst = nb.ravel()
        pairs = np.unique(
            np.concatenate([src * n + dst, dst * n + src])
        )
        if not np.array_equal(pairs, np.unique(rows * n + indices)):
            _fail("graph edges are not the mirrored kNN edges")


# -- repeats and service results ---------------------------------------------


def check_identical(name: str, expected, actual) -> None:
    """Two outputs that must be bit-identical are."""
    a = np.asarray(expected)
    b = np.asarray(actual)
    if a.shape != b.shape or not np.array_equal(a, b):
        _fail(f"{name}: outputs differ")
