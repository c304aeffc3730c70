# The package's public TestFunction and TestFunctionKind, imported by name
# into a test module: pytest must not take them for test classes, and
# pyproject.toml turns its PytestCollectionWarning into an error.
from zrs.resolvent import TestFunction, TestFunctionKind


def test_test_named_types_are_not_test_classes():
    assert TestFunction.__test__ is False
    assert TestFunctionKind.__test__ is False
    # the marker is no Enum member
    assert [kind.value for kind in TestFunctionKind] == ["plus_exponential", "minus_exponential", "custom"]
