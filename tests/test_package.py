import sys
from pathlib import Path

import diatomic
from diatomic import _backend


def test_every_exported_name_resolves():
    names = diatomic.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(diatomic, n)] == []


def test_benchmark_hooks_resolve():
    # perfbench wraps the kernels and layer functions by name and reads the
    # sdi_quadruple cache and BACKEND; without this test a missing name would
    # fail only a traced benchmark run, which the suite never starts.
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import spans
    finally:
        sys.path.pop(0)
    kernels = {name: getattr(_backend, name) for name in spans.KERNEL_BITS}
    tracer = spans.Tracer()
    try:
        spans.install_layers(tracer)
        assert all(getattr(_backend, name) is not fn for name, fn in kernels.items())
    finally:
        tracer.restore()
    assert all(getattr(_backend, name) is fn for name, fn in kernels.items())
    assert len(tracer.names) == len(kernels) + len(spans.FUNCTION_LAYERS) + len(spans.CLASS_LAYERS)
    diatomic.sdi_quadruple.cache_info()
    assert callable(diatomic.sdi_quadruple.cache_clear)
    assert isinstance(diatomic.BACKEND, str)
