"""Fixtures shared across the test modules."""

import pytest

import canvault.group


@pytest.fixture(scope="class")
def builtin_pow():
    """Group powers, single, double and of the generator, on builtin
    ``pow``: the fallback of a host whose CPython has no loadable libcrypto,
    so that path stays covered everywhere."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(canvault.group, "_powmod", pow)
        mp.setattr(canvault.group, "_powmod2", canvault.group._pow2)
        mp.setattr(canvault.group, "_powmod_fixed", canvault.group._pow_fixed)
        yield
