"""Each self-validation check as its own test, so a failure names the
invariant (``module:invariant``) and the level it failed at."""

import pytest

from cvteleport import validate


@pytest.mark.parametrize("level", ["quick", "full"])
@pytest.mark.parametrize("check", [func for _, func in validate.CHECKS],
                         ids=[name for name, _ in validate.CHECKS])
def test_check(check, level):
    check(level)


@pytest.mark.parametrize("level, per_run", [("quick", 5), ("full", 6)])
def test_channels_built_once_per_run(monkeypatch, level, per_run):
    # fock:classical-limit and fock:fidelity-grid share their vacuum channels
    # within a run; a second run builds them again
    calls = []
    original = validate.fock.classical_noise_channel

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(validate.fock, "classical_noise_channel", counting)
    first = validate.run_validation(level)
    assert len(calls) == per_run
    second = validate.run_validation(level)
    assert len(calls) == 2 * per_run
    for results in (first, second):
        assert [(r.name, r.passed, r.detail) for r in results] == \
            [(name, True, "ok") for name, _ in validate.CHECKS]
