"""The package's public names."""

import hyperwalk


def test_every_exported_name_imports():
    namespace: dict = {}
    exec("from hyperwalk import *", namespace)  # AttributeError on a stale name
    assert set(hyperwalk.__all__) <= set(namespace)
