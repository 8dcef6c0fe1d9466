import inspect

import ilpath


def test_package_exports_exactly_its_public_names():
    """Every name in `__all__` resolves, and nothing else public does."""
    for name in ilpath.__all__:
        assert hasattr(ilpath, name), name
    public = {
        name
        for name, value in vars(ilpath).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(ilpath.__all__) - {"__version__"}
    assert len(ilpath.__all__) == 44
