"""Unit and property tests for the ModelMap red-black tree."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.modelmap import ModelMap
from repro.errors import ModelAlreadyRegistered


def test_insert_and_lookup():
    tree = ModelMap()
    tree.insert("resnet50", 1)
    tree.insert("alexnet", 2)
    assert tree["resnet50"] == 1
    assert tree["alexnet"] == 2
    assert tree.get("vgg", "missing") == "missing"
    assert len(tree) == 2


def test_insert_refuses_an_existing_key():
    tree = ModelMap()
    tree.insert("m", 1)
    with pytest.raises(ModelAlreadyRegistered):
        tree.insert("m", 2)
    assert tree["m"] == 1
    assert len(tree) == 1


def test_missing_key_raises():
    tree = ModelMap()
    with pytest.raises(KeyError):
        tree["nope"]


def test_delete_returns_value():
    tree = ModelMap()
    tree.insert("a", 10)
    assert tree.delete("a") == 10
    assert "a" not in tree
    with pytest.raises(KeyError):
        tree.delete("a")


def test_items_sorted():
    tree = ModelMap()
    for name in ["swin", "alexnet", "vit", "bert", "resnet"]:
        tree.insert(name, name.upper())
    assert tree.keys() == sorted(["swin", "alexnet", "vit", "bert",
                                  "resnet"])
    assert [v for _k, v in tree.items()] == [
        k.upper() for k in tree.keys()]


def test_invariants_after_sequential_inserts():
    tree = ModelMap()
    for i in range(100):
        tree.insert(f"model-{i:03d}", i)
        tree.check_invariants()
    assert len(tree) == 100


@given(st.lists(st.tuples(st.sampled_from("id"),
                          st.text("abcdef", min_size=1, max_size=4)),
                max_size=120))
@settings(max_examples=100, deadline=None)
def test_matches_dict_reference(operations):
    """Property: ModelMap behaves exactly like a dict + sorted()."""
    tree = ModelMap()
    reference = {}
    for op, key in operations:
        if op == "i" and key in reference:
            with pytest.raises(ModelAlreadyRegistered):
                tree.insert(key, key)
        elif op == "i":
            tree.insert(key, key)
            reference[key] = key
        elif key in reference:
            assert tree.delete(key) == reference.pop(key)
        else:
            with pytest.raises(KeyError):
                tree.delete(key)
        tree.check_invariants()
    assert tree.keys() == sorted(reference)
    assert len(tree) == len(reference)
    for key, value in reference.items():
        assert tree[key] == value
