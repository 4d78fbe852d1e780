"""Checks of the unitarity predicate in oracles.py that the other tests rely on."""

import numpy as np

from oracles import is_unitary, qutrit_b_pulse


def test_is_unitary():
    assert is_unitary(qutrit_b_pulse(0.7, -1.1))
    assert not is_unitary(np.ones((3, 3)))
