import pytest

from snnkit.engine import available_backends
from snnkit.model import NetworkBuilder


@pytest.fixture(params=available_backends())
def kernel_build(request):
    """Label a test with the kernel build it ran against: pure or compiled."""
    return request.param


@pytest.fixture
def trivial_accept_network():
    builder = NetworkBuilder()
    builder.add_input("acc", [0])
    builder.set_accept("acc")
    return builder.build()
