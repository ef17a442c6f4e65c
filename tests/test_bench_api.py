"""The benchmark's view of the package: every callable it names exists.

perfbench reaches the program only through ``layers.build_api``, so a name
removed or renamed in the package would first show as a failed benchmark
run.  This test reads perfbench and changes nothing in it.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layers
    finally:
        sys.path.remove(str(PERFBENCH))
    return layers


def test_every_layer_call_resolves_to_a_callable(layers):
    api = layers.build_api(None)
    names = [dotted for calls in layers.LAYER_CALLS.values() for dotted in calls]
    assert names
    for dotted in names:
        assert callable(getattr(api, dotted.rsplit(".", 1)[-1])), dotted
