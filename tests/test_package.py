import diatomic


def test_every_exported_name_resolves():
    names = diatomic.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(diatomic, n)] == []
