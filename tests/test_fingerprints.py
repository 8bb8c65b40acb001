import json

import numpy as np
import pytest

from fingerprints import ENTRIES, STORE

STORED = json.loads(STORE.read_text())


def test_store_holds_every_entry():
    assert list(STORED) == list(ENTRIES)


@pytest.mark.parametrize("name", list(ENTRIES))
def test_matches_stored(name):
    got, want = ENTRIES[name](), STORED[name]
    assert list(got) == list(want)
    for key, value in want.items():
        if isinstance(value, (int, str)):
            assert got[key] == value, key
        else:
            np.testing.assert_allclose(got[key], value, rtol=1e-12, atol=0,
                                       err_msg=key)
