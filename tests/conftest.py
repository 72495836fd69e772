"""Import sgnode before any test module imports numpy, so that the package's
BLAS pin (one thread, see ``sgnode/__init__.py``) takes effect in the suite."""

import sgnode  # noqa: F401
