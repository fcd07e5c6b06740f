"""The public names: every one resolves, and README calls only those."""

import re
from pathlib import Path

import splitcut

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in splitcut.__all__ if not hasattr(splitcut, name)]
    assert missing == []


def test_readme_calls_only_exported_names():
    # a call written as `name(...)` in README names a public entry point,
    # so removing one from the package cannot leave README behind
    called = set(re.findall(r"`([A-Za-z_]\w*)\(", README.read_text()))
    assert called
    assert sorted(called - set(splitcut.__all__)) == []
