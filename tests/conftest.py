"""Every test starts and ends at the precision it found: mpmath's ambient `mp.dps`
is saved before each test and restored after it, so no test module runs at the
precision another one left behind.  A module that wants a working precision sets it
in a fixture that yields inside `mp.workdps`."""

import pytest
from mpmath import mp


@pytest.fixture(autouse=True)
def _restore_mp_precision():
    prec = mp.prec
    yield
    mp.prec = prec
