"""Shared test helpers."""

import inspect
from collections import Counter, defaultdict

import pytest


class Calls(Counter):
    """Calls per wrapped name; `args[name]` lists the positional arguments
    of each call, `self` included for a method."""

    def __init__(self):
        super().__init__()
        self.args = defaultdict(list)

    def clear(self):
        super().clear()
        self.args.clear()


@pytest.fixture
def count_calls(monkeypatch):
    """`count_calls(owner, *names)` wraps each named function or method of
    the class or module `owner` for the rest of the test, and returns the
    `Calls` that counts them."""

    def wrap(owner, *names):
        calls = Calls()
        for name in names:
            original = getattr(owner, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                calls.args[_name].append(args)
                return _original(*args, **kwargs)

            if isinstance(inspect.getattr_static(owner, name), (staticmethod, classmethod)):
                counting = staticmethod(counting)
            monkeypatch.setattr(owner, name, counting)
        return calls

    return wrap
