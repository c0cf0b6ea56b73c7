"""One call log for the tests that pin how often lgdual runs a function, or
what it runs it on.

``log_calls(monkeypatch, owners, name, log, entry)`` replaces the attribute
``name`` of each owner (a module or a class, or a tuple of them) with a
wrapper that adds ``entry(*args, **kwargs)`` to ``log`` and then calls the
function it replaced with the same arguments.  A list log appends each
entry; a dict log (a Counter, say) counts it.  The entry defaults to the
tuple of positional arguments.  The function is read from the first owner,
and every owner gets the same wrapper, so one log sees the calls made
through each namespace that binds the name.  ``monkeypatch`` may be the
fixture or a ``pytest.MonkeyPatch.context()``; the log is returned.
"""


def _arguments(*args, **kwargs):
    return args


def log_calls(monkeypatch, owners, name, log, entry=_arguments):
    owners = owners if isinstance(owners, tuple) else (owners,)
    original = getattr(owners[0], name)
    if isinstance(log, list):
        add = log.append
    else:
        def add(key):
            log[key] = log.get(key, 0) + 1

    def logged(*args, **kwargs):
        add(entry(*args, **kwargs))
        return original(*args, **kwargs)

    for owner in owners:
        monkeypatch.setattr(owner, name, logged)
    return log
