"""repro-lint: the cache-safety, exception and concurrency analyzer of ``src/``.

Run it as ``python -m repro.lint src/``.  The library never imports this
package; tests import the API from :mod:`repro.lint.engine` and
:mod:`repro.lint.rules`.
"""
