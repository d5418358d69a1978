import cfglmm


def test_all_names_resolve():
    # a stale entry breaks ``from cfglmm import *``
    missing = [name for name in cfglmm.__all__ if not hasattr(cfglmm, name)]
    assert missing == []
    assert len(set(cfglmm.__all__)) == len(cfglmm.__all__)
