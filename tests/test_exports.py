import pytest

import jensengeo
from jensengeo import bounds, classical, geometry, jensen, quantum


@pytest.mark.parametrize("module", [classical, quantum, jensen, geometry, bounds])
def test_every_public_name_of_a_module_is_exported(module):
    for name in module.__all__:
        assert getattr(jensengeo, name) is getattr(module, name)
        assert name in jensengeo.__all__


def test_package_names_are_unique():
    assert len(set(jensengeo.__all__)) == len(jensengeo.__all__)
