"""The repository's warning filters leave pytest's own reporting working."""

pytest_plugins = ["pytester"]

FAILING_PROPERTY = """
from hypothesis import given, strategies as st

@given(st.integers())
def test_fails(n):
    assert n < 0

def test_passes():
    pass
"""


def test_failing_property_is_reported_as_a_failure(pytester, pytestconfig, monkeypatch):
    # On a failure, hypothesis's pytest plugin imports libcst (when it is
    # installed), whose import warns DeprecationWarning. Under a filter that
    # turns every DeprecationWarning into an error, that ended the session
    # with INTERNALERROR before the next test ran.
    filters = pytestconfig.getini("filterwarnings")
    assert "error::DeprecationWarning" in filters
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters))
    pytester.makepyfile(test_property=FAILING_PROPERTY)
    monkeypatch.setenv("PYTHONDEVMODE", "1")  # as CI runs the suite
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.assert_outcomes(failed=1, passed=1)
