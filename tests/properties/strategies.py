"""Hypothesis strategies for random weighted graphs."""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

from repro.graphs.graph import WeightedGraph


#: Unit or dyadic weights ``k / 2**j``: sums and differences of a few of
#: them are exact in binary floating point, so residuals tie exactly.
tied_weight_values = st.one_of(
    st.just(1.0),
    st.builds(lambda k, j: k / 2.0**j, st.integers(1, 64), st.integers(0, 3)),
)


@st.composite
def weighted_graphs(
    draw,
    min_n: int = 1,
    max_n: int = 24,
    max_edge_factor: int = 4,
    min_weight: float = 0.1,
    max_weight: float = 100.0,
    ties: bool = False,
):
    """A random simple weighted graph.

    Edges are drawn as endpoint pairs (duplicates and reversals collapse in
    canonicalization, so the realized edge count may be below the drawn
    one — that's fine, it broadens the distribution toward sparse cases).
    With ``ties`` the weights come from a pool of at most three
    :data:`tied_weight_values`, so most repeat and exact float ties are
    common (the weight bounds are then ignored).
    """
    n = draw(st.integers(min_n, max_n))
    max_m = min(max_edge_factor * n, n * (n - 1) // 2)
    m = draw(st.integers(0, max_m))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda p: p[0] != p[1]
            ),
            min_size=m,
            max_size=m,
        )
    )
    weights = _weights(draw, n, ties, min_weight, max_weight)
    return WeightedGraph.from_edge_list(n, pairs, np.asarray(weights))


def _weights(draw, n: int, ties: bool, min_weight: float, max_weight: float):
    if ties:
        pool = draw(st.lists(tied_weight_values, min_size=1, max_size=3))
        return draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    return draw(
        st.lists(
            st.floats(min_weight, max_weight, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
        )
    )


@st.composite
def circulant_graphs(draw, min_n: int = 3, max_n: int = 40, ties: bool = False):
    """An exactly regular circulant graph: vertex ``i`` is joined to
    ``i ± k (mod n)`` for each ``k`` of a drawn offset set.

    Every vertex has the same degree, so with tied weights every vertex
    has the same ``w/d`` ratio and every edge the same initial dual — the
    shape on which float ties between the engines are most likely.
    """
    n = draw(st.integers(min_n, max_n))
    offsets = draw(st.sets(st.integers(1, n // 2), min_size=1, max_size=max(1, n // 4)))
    i = np.arange(n)
    pairs = [(int(a), int(b)) for k in sorted(offsets) for a, b in zip(i, (i + k) % n)]
    weights = _weights(draw, n, ties, 0.1, 100.0)
    return WeightedGraph.from_edge_list(n, pairs, np.asarray(weights))


def profile_examples(count: int) -> int:
    """``count`` under the default Hypothesis profile; the active profile's
    larger ``max_examples`` under an opt-in one (``--hypothesis-profile=deep``,
    registered in ``tests/conftest.py``)."""
    active = settings().max_examples
    return active if active > settings.get_profile("default").max_examples else count


seeds = st.integers(0, 2**32 - 1)
