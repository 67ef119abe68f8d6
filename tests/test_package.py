import animrig


def test_every_export_resolves_once():
    names = animrig.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(animrig, n)] == []
