"""Property-based tests: verdicts that must hold on every drawn input."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from dilatlab.axioms import check_tangent_cone
from dilatlab.structures import complex_dilatation, euclidean
from dilatlab.util import halving_schedule

# euclidean(2), or the spiralling plane structure at a drawn theta: both have
# the Euclidean metric as tangent cone at every point, with exact cones
flat_planes = st.one_of(st.just(euclidean(2)),
                        st.floats(-2.0, 2.0).map(complex_dilatation))
coords = st.floats(-1.0, 1.0, allow_nan=False)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(ds=flat_planes, x=st.tuples(coords, coords), count=st.integers(1, 5),
       seed=st.integers(0, 50))
def test_tangent_cone_is_flat_on_exact_cones(ds, x, count, seed):
    est = check_tangent_cone(ds, np.array(x), halving_schedule(0.5, 8), count=count,
                             seed=seed)
    assert est.converged
    assert np.all(est.values <= 1e-11)
