"""The package's export list names only what the package defines."""

import qwsense


def test_every_exported_name_resolves():
    missing = [name for name in qwsense.__all__ if not hasattr(qwsense, name)]
    assert missing == []


def test_export_list_has_no_duplicates():
    assert len(qwsense.__all__) == len(set(qwsense.__all__))
