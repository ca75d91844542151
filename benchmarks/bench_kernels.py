"""Micro-benchmarks of the computational kernels.

Unlike the table/figure benches (one full experiment per timer run),
these time the inner loops repeatedly: the O / R tensor-vector products
(the section 4.5 cost model says each is O(D) in the nonzero count) and
one full T-Mark fit.
"""

import numpy as np
import pytest

from repro.core import TMark
from repro.datasets import make_dblp
from repro.tensor.transition import build_transition_tensors
from repro.utils.rng import ensure_rng
from tests.conftest import random_sparse_tensor


@pytest.fixture(scope="module")
def medium_tensor():
    rng = ensure_rng(0)
    return random_sparse_tensor(rng, n=500, m=10, density=0.002)


@pytest.fixture(scope="module")
def transition_pair(medium_tensor):
    return build_transition_tensors(medium_tensor)


def test_kernel_o_propagate(benchmark, transition_pair):
    o_tensor, _ = transition_pair
    n, _, m = o_tensor.shape
    x = np.full(n, 1.0 / n)
    z = np.full(m, 1.0 / m)
    result = benchmark(o_tensor.propagate, x, z)
    assert result.shape == (n,)
    assert np.isclose(result.sum(), 1.0)


def test_kernel_r_propagate(benchmark, transition_pair):
    _, r_tensor = transition_pair
    n, _, m = r_tensor.shape
    x = np.full(n, 1.0 / n)
    result = benchmark(r_tensor.propagate, x)
    assert result.shape == (m,)
    assert np.isclose(result.sum(), 1.0)


def test_kernel_transition_build(benchmark, medium_tensor):
    o_tensor, r_tensor = benchmark(build_transition_tensors, medium_tensor)
    assert o_tensor.shape == medium_tensor.shape
    assert r_tensor.shape == medium_tensor.shape


def test_kernel_tmark_fit(benchmark):
    hin = make_dblp(n_authors=200, attendees_per_conference=20, seed=0)
    mask = np.zeros(hin.n_nodes, dtype=bool)
    mask[::5] = True
    train = hin.masked(mask)

    def fit():
        return TMark(alpha=0.8, gamma=0.6, label_threshold=0.8).fit(train)

    model = benchmark(fit)
    assert model.result_.node_scores.shape == (hin.n_nodes, hin.n_labels)


def test_kernel_cost_scales_with_nnz(benchmark):
    """Section 4.5: the per-iteration cost is O(D) in the nonzeros.

    Timed as one unit: propagation on a tensor with 4x the nonzeros of
    the medium one must not be more than ~25x slower (generous bound —
    we only guard against accidentally quadratic implementations).
    """
    import time

    rng = ensure_rng(1)
    small = random_sparse_tensor(rng, n=400, m=8, density=0.002)
    large = random_sparse_tensor(rng, n=800, m=8, density=0.002)

    def measure(tensor):
        o_tensor, _ = build_transition_tensors(tensor)
        n, _, m = tensor.shape
        x = np.full(n, 1.0 / n)
        z = np.full(m, 1.0 / m)
        started = time.perf_counter()
        for _ in range(30):
            o_tensor.propagate(x, z)
        return time.perf_counter() - started

    time_small = measure(small)
    time_large = benchmark.pedantic(
        measure, args=(large,), rounds=1, iterations=1
    )
    assert time_large < max(time_small, 1e-4) * 25


def test_kernel_batched_vs_looped_fit(benchmark):
    """The batched multi-class fit must beat q sequential chains by >= 2x.

    Timed on a 12-class synthetic HIN (n=800, m=3, dense feature walk):
    the looped reference advances one class chain at a time via
    the tests' ``run_chain`` while the batched path advances all q columns in
    lockstep through ``propagate_many``.  Both consume the same cached
    operators, so the comparison isolates the kernel layer.  Best-of-4
    timing damps scheduler noise.
    """
    import time

    from repro.core.tmark import build_operators
    from tests.conftest import small_labeled_hin
    from tests.core.test_tmark_batched import run_chain

    n, q = 800, 12
    hin = small_labeled_hin(seed=1, n=n, q=q, m=3)
    rng = ensure_rng(0)
    train = hin.masked(rng.random(n) < 0.3)
    kwargs = dict(alpha=0.85, gamma=0.5, tol=1e-9)
    probe = TMark(**kwargs)
    operators = build_operators(
        train,
        similarity_top_k=probe.similarity_top_k,
        similarity_metric=probe.similarity_metric,
    )
    label_matrix = train.label_matrix.astype(float)

    def batched_fit():
        return TMark(**kwargs).fit(train, operators=operators)

    def looped_fit():
        model = TMark(**kwargs)
        for c in range(q):
            run_chain(
                model,
                operators.o_tensor,
                operators.r_tensor,
                operators.w_matrix,
                label_matrix[:, c],
            )

    def best_of(func, rounds=4):
        times = []
        for _ in range(rounds):
            started = time.perf_counter()
            func()
            times.append(time.perf_counter() - started)
        return min(times)

    looped_time = best_of(looped_fit)
    batched_time = benchmark.pedantic(
        best_of, args=(batched_fit,), rounds=1, iterations=1
    )
    model = batched_fit()
    assert model.result_.node_scores.shape == (train.n_nodes, q)
    assert looped_time >= 2.0 * batched_time, (
        f"batched fit only {looped_time / batched_time:.2f}x faster "
        f"(looped {looped_time:.4f}s, batched {batched_time:.4f}s)"
    )


def test_kernel_chunked_topk_w(benchmark):
    """Chunked top-k W on a 2000-node feature matrix (O(n * chunk) memory)."""
    from repro.core.features import topk_cosine_transition_matrix

    rng = ensure_rng(2)
    features = rng.poisson(1.0, size=(2000, 60)).astype(float)
    matrix = benchmark.pedantic(
        topk_cosine_transition_matrix,
        args=(features, 20),
        kwargs={"chunk_size": 256},
        rounds=1,
        iterations=1,
    )
    cols = np.asarray(matrix.sum(axis=0)).ravel()
    assert np.allclose(cols, 1.0)


def test_kernel_stacked_vs_per_slice(benchmark):
    """The stacked O/R kernels against the per-relation slice loop.

    Paper-sized relation count (n=2500, m=20, ~10k links) and the chain
    driver's input form: an F-ordered ``q=4`` column subset.  Both
    ``propagate_many`` kernels must reproduce the per-slice reference
    byte for byte and beat it by >= 1.3x (median of interleaved runs).
    """
    import time

    from tests.tensor.test_propagate_many import per_slice_o, per_slice_r, same_bytes

    rng = ensure_rng(4)
    n, m, q = 2500, 20, 4
    tensor = random_sparse_tensor(rng, n=n, m=m, density=10_000 / (n * n * m))
    o_tensor, r_tensor = build_transition_tensors(tensor)
    wide = rng.uniform(0.01, 1.0, size=(n, q + 1))
    X = (wide / wide.sum(axis=0))[:, [0, 1, 3, 4]]
    Z = np.full((m, q + 1), 1.0 / m)[:, [0, 1, 3, 4]]
    assert X.flags.f_contiguous and not X.flags.c_contiguous
    o_slices = o_tensor.row_blocks(0, n)
    r_slices = (*r_tensor.row_blocks(0, n), r_tensor.pair_rows(0, n))
    kernels = {
        "o_stacked": lambda: o_tensor.propagate_many(X, Z),
        "o_per_slice": lambda: per_slice_o(o_tensor, X, Z, o_slices),
        "r_stacked": lambda: r_tensor.propagate_many(X, X),
        "r_per_slice": lambda: per_slice_r(r_tensor, X, X, r_slices),
    }
    assert same_bytes(kernels["o_stacked"](), kernels["o_per_slice"]())
    assert same_bytes(kernels["r_stacked"](), kernels["r_per_slice"]())

    def interleaved(rounds=60):
        times = {name: [] for name in kernels}
        for _ in range(rounds):
            for name, kernel in kernels.items():
                started = time.perf_counter()
                kernel()
                times[name].append(time.perf_counter() - started)
        return {name: float(np.median(values)) for name, values in times.items()}

    medians = benchmark.pedantic(interleaved, rounds=1, iterations=1)
    for op in ("o", "r"):
        speedup = medians[f"{op}_per_slice"] / medians[f"{op}_stacked"]
        assert speedup >= 1.3, (
            f"stacked {op.upper()} kernel only {speedup:.2f}x faster than the "
            f"per-slice loop ({medians})"
        )
