"""Known-bad: a task that writes module state."""

_SEEN = {}


def remember(key):
    _SEEN[key] = True
    return key
