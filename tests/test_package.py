import types

import centext


def test_all_lists_every_public_name():
    public = {
        name
        for name, value in vars(centext).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(set(centext.__all__)) == len(centext.__all__)
    assert set(centext.__all__) == public
