"""Fig. 8: the symbolic test catalog.

Regenerates the catalog and benchmarks the compilation (inline + unroll +
range analysis) of each small/medium test against its implementation.
"""

import pytest

from repro.datatypes import get_implementation
from repro.encoding import compile_test
from repro.harness.catalog import get_test
from repro.harness.catalog import test_names as catalog_test_names


def test_catalog_is_complete(capsys):
    lines = []
    for category in ("queue", "set", "deque"):
        names = catalog_test_names(category)
        lines.append(f"{category}: {', '.join(names)}")
    with capsys.disabled():
        print("\nFig. 8 catalog:\n" + "\n".join(lines))
    assert len(catalog_test_names("queue")) == 13
    assert len(catalog_test_names("set")) == 9
    assert len(catalog_test_names("deque")) == 5


_CASES = (
    [("msn", "queue", name) for name in catalog_test_names("queue", "small")]
    + [("lazylist", "set", name) for name in catalog_test_names("set", "small")]
    + [("snark", "deque", name) for name in catalog_test_names("deque", "small")]
)


@pytest.mark.parametrize("implementation,category,test_name", _CASES)
def test_compile_catalog_test(benchmark, implementation, category, test_name):
    impl = get_implementation(implementation)
    test = get_test(category, test_name)
    compiled = benchmark(compile_test, impl, test)
    stats = compiled.size_statistics()
    assert stats["loads"] > 0 and stats["stores"] > 0
