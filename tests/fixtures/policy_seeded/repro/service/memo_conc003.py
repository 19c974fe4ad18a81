# Seeded CONC003: bare-dict get-or-create memoization in a service/
# module (must be the locking caching.LRUCache).  The CONC003 scan must
# flag it.
_MEMO = {}


def lookup(key):
    if key not in _MEMO:
        _MEMO[key] = key * 2
    return _MEMO[key]
