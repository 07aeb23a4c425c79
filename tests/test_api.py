"""The package's public names."""

import sllgfem


def test_every_public_name_resolves_once():
    # a name left in __all__ after its function is gone fails here, not
    # at a user's `from sllgfem import *`
    names = sllgfem.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(sllgfem, n)] == []
