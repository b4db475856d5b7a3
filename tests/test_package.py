import mexpart
from mexpart import bijections, families, oracle, partitions, qseries

MODULES = (bijections, families, oracle, partitions, qseries)


def test_public_names_are_the_modules_public_names():
    union = [name for module in MODULES for name in module.__all__]
    assert len(set(union)) == len(union) == len(mexpart.__all__)
    assert set(mexpart.__all__) == set(union)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(mexpart, name) is getattr(module, name)
