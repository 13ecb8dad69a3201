"""Fixtures shared across the test modules."""

import pytest

from canvault.group import Group, _BuiltinPowers


@pytest.fixture(scope="class")
def builtin_pow():
    """Group powers, single, double and of the generator, on builtin
    ``pow`` in every group, as an oracle for libcrypto's powers: the same
    bytes must come out. A property is a data descriptor, so it overrides a
    backend a group has already kept."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Group, "_powers", property(lambda self: _BuiltinPowers))
        yield
