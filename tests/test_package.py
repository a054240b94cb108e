import memlqg


def test_exports_resolve_sorted_and_unique():
    names = memlqg.__all__
    assert [n for n in names if getattr(memlqg, n, None) is None] == []
    assert names == sorted(names)
    assert len(names) == len(set(names))
