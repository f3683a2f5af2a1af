"""Shared fixtures: a tiny frozen three-state contract and the bundled
dread-disease chain.  Plain helpers live in ``chains.py``."""

from types import SimpleNamespace

import numpy as np
import pytest

import premval as pv
import premval.fixtures as fx
from chains import THREE_STATE_TABLE, make_three_state_model


@pytest.fixture
def model3():
    return make_three_state_model()


@pytest.fixture
def chain3(model3):
    return pv.build_chain(model3, THREE_STATE_TABLE)


@pytest.fixture
def claim_cash3():
    """Unit payment while the claim is being handled (state 2, periods 1..2)."""
    return pv.build_cashflow([pv.CashflowEntry(2, 1, 3, 1.0)], n=2, n_states=3)


@pytest.fixture
def flat_discount3():
    return pv.DiscountVector(np.ones(3))


@pytest.fixture
def geometric_discount3():
    return pv.DiscountVector(np.array([1.0, 0.9, 0.81]))


@pytest.fixture(scope="session")
def dread():
    """The bundled ten-state dread-disease chain at a 1% yearly rate."""
    chain = pv.build_chain(fx.dread_disease_model(), fx.bundled_path(fx.TABLE_FILE), entry_age=fx.ENTRY_AGE)
    return SimpleNamespace(**vars(chain), discount=pv.constant_rate_discount(chain.table.n, rate=0.01))
