"""Record semantics the modules rely on: records that refuse assignment,
a group element whose identity is its value, annotations that resolve, and
imports that are read."""

import ast
import copy
import importlib
import inspect
import pkgutil
import types
from typing import get_type_hints

import pytest

import canvault
from canvault import kem
from canvault.group import GroupElement
from canvault.protocol import Disposition, MsgKind, Outcome, WireMessage

RECORDS = {
    "GroupElement": (GroupElement(5, high=7), "value"),
    "KemCiphertext": (kem.KemCiphertext(GroupElement(2), GroupElement(4)),
                      "binding"),
    "EcuKeyPair": (kem.EcuKeyPair(0, 1, 2, GroupElement(2), GroupElement(4)),
                   "key_exp"),
    "WireMessage": (WireMessage(MsgKind.SEED_BROADCAST, 0, None, b"seed"),
                    "body"),
    "Outcome": (Outcome(Disposition.REJECTED, ("hmac",), "mac"), "reason"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_refuse_assignment(name):
    record, field = RECORDS[name]
    before = getattr(record, field)
    for attr in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attr, 1)
    assert getattr(record, field) == before
    assert not hasattr(record, "extra")


def test_group_element_identity_is_its_value():
    a, b = GroupElement(5, high=7), GroupElement(5)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) == "GroupElement(value=5)"
    assert a != GroupElement(6)
    assert GroupElement(5) != 5 and 5 != GroupElement(5)
    assert len({a, b, GroupElement(6)}) == 2
    assert [copy.copy(a).high, copy.deepcopy(a).high] == [7, 7]


def _defined(module):
    """Every class and function ``module`` defines, with the classes'
    methods and property getters, by qualified name."""
    for obj in vars(module).values():
        if not callable(obj) or getattr(obj, "__module__", None) != module.__name__:
            continue
        yield obj.__qualname__, obj
        for member in vars(obj).values() if isinstance(obj, type) else ():
            member = getattr(member, "fget", member)
            if isinstance(member, types.FunctionType) \
                    and member.__module__ == module.__name__:
                yield member.__qualname__, member


MODULES = ["canvault"] + [f"canvault.{info.name}"
                          for info in pkgutil.iter_modules(canvault.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_annotations_resolve(name):
    unresolved = []
    for qualname, obj in _defined(importlib.import_module(name)):
        try:
            get_type_hints(obj)
        except NameError as exc:
            unresolved.append(f"{qualname}: {exc}")
    assert not unresolved


def _imported_names(tree: ast.Module):
    """The names a module's imports bind, ``from __future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0]
                        for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


# The package's own imports are its __all__, read by importers.
@pytest.mark.parametrize("name", [m for m in MODULES if m != "canvault"])
def test_every_imported_name_is_read(name):
    tree = ast.parse(inspect.getsource(importlib.import_module(name)))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted(set(_imported_names(tree)) - read) == []
