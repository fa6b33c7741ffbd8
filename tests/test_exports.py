import netcoh


def test_every_export_resolves_once():
    names = netcoh.__all__
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert [n for n in names if not hasattr(netcoh, n)] == []
