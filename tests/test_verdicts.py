"""One verdict on an endmember set and a pixel for SPU (both kernels) and FCLS.

For one fault at a time, every route raises the same error class with no
warning: NonFiniteValue for a NaN/Inf pixel entry or endmember entry,
DegenerateSimplex for a zero row, a row whose squared norm overflows
(the row x 1e160: a sound direction) or an exactly duplicated row.  Sound
inputs return from every route.  The endmembers come from a drawn seed, so
shrinking an example cannot make them degenerate.
"""

import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from endnet import fcls, spu_sad  # noqa: E402
from endnet.errors import DegenerateSimplex, NonFiniteValue  # noqa: E402

_ROUTES = {
    "spu-sad": spu_sad,
    "spu-l2": lambda x, E: spu_sad(x, E, kernel="l2"),
    "fcls": fcls,
}

_FAULTS = {
    None: None,
    "nan pixel": NonFiniteValue,
    "inf pixel": NonFiniteValue,
    "-inf pixel": NonFiniteValue,
    "nan endmember": NonFiniteValue,
    "inf endmember": NonFiniteValue,
    "-inf endmember": NonFiniteValue,
    "zero row": DegenerateSimplex,
    "row x 1e160": DegenerateSimplex,
    "duplicate row": DegenerateSimplex,
}


def _case(k, extra_bands, seed, fault, row, band):
    """(pixel, endmembers) of a sound case with ``fault`` applied."""
    rng = np.random.default_rng(seed)
    d = k + extra_bands  # FCLS needs k linearly independent rows
    E = rng.uniform(0.05, 1.0, (k, d))
    x = rng.dirichlet(np.ones(k)) @ E + rng.uniform(0.0, 0.1, d)
    row, band = row % k, band % d
    if fault is None:
        pass
    elif fault.endswith("pixel"):
        x[band] = float(fault.split()[0])
    elif fault.endswith("endmember"):
        E[row, band] = float(fault.split()[0])
    elif fault == "zero row":
        E[row] = 0.0
    elif fault == "row x 1e160":
        E[row] *= 1e160
    else:
        E[row] = E[(row + 1) % k]
    return x, E


@given(k=st.integers(2, 5), extra_bands=st.integers(0, 12), seed=st.integers(0, 2 ** 32 - 1),
       fault=st.sampled_from(list(_FAULTS)), row=st.integers(0, 4), band=st.integers(0, 16))
@example(k=3, extra_bands=5, seed=0, fault="zero row", row=1, band=0)
@example(k=3, extra_bands=5, seed=0, fault="row x 1e160", row=1, band=0)
@example(k=2, extra_bands=0, seed=0, fault="duplicate row", row=0, band=0)
@example(k=5, extra_bands=0, seed=0, fault="inf pixel", row=0, band=2)
@settings(derandomize=True, max_examples=300, deadline=None, database=None)
def test_every_route_gives_one_fault_one_error_class(k, extra_bands, seed, fault, row, band):
    x, E = _case(k, extra_bands, seed, fault, row, band)
    error = _FAULTS[fault]
    # warnings fail the routes, not hypothesis's own report of a failure
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, unmix in _ROUTES.items():
            if error is None:
                a = unmix(x, E)
                assert a.shape == (k,) and abs(a.sum() - 1.0) < 1e-9, name
            else:
                with pytest.raises(error):
                    unmix(x, E)
