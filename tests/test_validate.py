"""Each self-validation check as its own test, so a failure names the
invariant (``module:invariant``) and the level it failed at."""

import pytest

from cvteleport import validate


@pytest.mark.parametrize("level", ["quick", "full"])
@pytest.mark.parametrize("check", [func for _, func in validate.CHECKS],
                         ids=[name for name, _ in validate.CHECKS])
def test_check(check, level):
    check(level)
