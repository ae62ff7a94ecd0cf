"""The package's public name list."""

import bose_eos


def test_every_public_name_resolves_once():
    # a plain import does not catch a stale entry left by a removed name
    missing = [name for name in bose_eos.__all__ if not hasattr(bose_eos, name)]
    assert missing == []
    assert len(set(bose_eos.__all__)) == len(bose_eos.__all__)
