"""Shared test helpers: a call log for the tests that pin fast paths, and
the shipped machines."""

import os
import sys

from graphvm.machines import load_machine

MACHINES = os.path.join(os.path.dirname(__file__), "..", "machines")


def log_calls(monkeypatch, *targets):
    """Wrap each ``(owner, name)`` pair and return one list that gets a
    ``(name, args)`` entry per call, in call order.  On a class the
    attribute is replaced, and a staticmethod stays one; a module function
    is rebound in every loaded ``graphvm`` module that holds it, so that
    ``from`` imports see the wrapper too."""
    log = []

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            log.append((name, args))
            return fn(*args, **kwargs)
        return wrapper

    for owner, name in targets:
        if isinstance(owner, type):
            raw = vars(owner)[name]
            static = isinstance(raw, staticmethod)
            wrapped = wrap(name, raw.__func__ if static else raw)
            monkeypatch.setattr(owner, name,
                                staticmethod(wrapped) if static else wrapped)
            continue
        original = getattr(owner, name)
        wrapped = wrap(name, original)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "graphvm":
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, wrapped)
    return log


def shipped_machines():
    """Fresh ``(file name, spec)`` pairs of the machines in ``machines/``,
    in name order."""
    return [(name, load_machine(os.path.join(MACHINES, name)))
            for name in sorted(os.listdir(MACHINES))]
